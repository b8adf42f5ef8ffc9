"""End-to-end telemetry: one merged trace per run, on every backend.

The acceptance bar for the observability subsystem: a ``quickstart``
(simulated) run and a scaled ``figure3`` (realexec) run each produce a
Chrome-trace document with complete spans from at least three layers, the
metrics registry aggregates run-wide totals, and none of it changes
simulated outcomes or leaks into runs that did not ask for telemetry.
"""

import re

from repro.obs import MetricsRegistry
from repro.obs.chrome import category_span_counts, load_chrome_trace
from repro.obs.ingest import ingest_engine_counters
from repro.scenario import Scenario, TelemetryConfig, WorkloadSpec, run_scenario
from repro.scenario.cli import main as cli_main


def _quickstart(telemetry):
    from repro.scenario import get_scenario

    return get_scenario("quickstart").with_overrides(telemetry=telemetry)


class TestSimulatedTelemetry:
    def test_quickstart_trace_covers_three_layers(self):
        result = run_scenario(_quickstart(TelemetryConfig()), backend="simulated")
        telemetry = result.telemetry
        assert telemetry is not None and telemetry.tracer is not None
        document = telemetry.chrome_trace()
        counts = category_span_counts(document)
        assert len(counts) >= 3
        assert counts.get("worker", 0) > 0
        assert counts.get("transport", 0) > 0
        assert counts.get("engine", 0) > 0
        assert document["repro"]["meta"]["backend"] == "simulated"
        assert document["repro"]["meta"]["clock"] == "sim-seconds"

    def test_telemetry_does_not_change_outcomes(self):
        plain = run_scenario(_quickstart(None), backend="simulated")
        traced = run_scenario(_quickstart(TelemetryConfig()), backend="simulated")
        assert plain.telemetry is None
        assert traced.makespan == plain.makespan
        assert traced.best_value == plain.best_value
        assert traced.total_nodes_expanded == plain.total_nodes_expanded

    def test_metrics_snapshot_has_engine_network_and_worker_families(self):
        result = run_scenario(_quickstart(TelemetryConfig()), backend="simulated")
        counters = result.telemetry.snapshot()["counters"]
        families = {key.split("{")[0] for key in counters}
        assert "engine_events_processed" in families
        assert "net_bytes_sent" in families
        assert "worker_nodes_expanded" in families
        # How much of what dissemination shipped was news is readable from
        # the registry alone, and agrees with the per-worker records.
        for name in ("codes_received", "codes_received_redundant"):
            ingested = sum(
                value
                for key, value in counters.items()
                if key.split("{")[0] == f"worker_{name}"
            )
            assert ingested == sum(
                getattr(stats, name) for stats in result.raw.workers.values()
            )
            assert ingested > 0

    def test_news_counters_sum_into_the_scenario_result(self):
        # quickstart crashes workers, so survivors recover and pull news.
        result = run_scenario(_quickstart(TelemetryConfig()), backend="simulated")
        workers = result.raw.workers.values()
        pulls = sum(stats.news_pulls_sent for stats in workers)
        assert result.news_pulls_sent == pulls > 0
        assert result.news_answers_sent == sum(stats.news_answers_sent for stats in workers)
        metrics = result.telemetry.metrics
        assert metrics.total("worker_news_pulls_sent") == pulls
        assert metrics.total("worker_news_answers_sent") == result.news_answers_sent

    def test_walk_counters_sum_into_the_registry(self):
        # At 30x quickstart's grain (nodes above 0.1 s) idle peers pass
        # requests on.
        scenario = _quickstart(TelemetryConfig(trace=False)).with_overrides(granularity=30.0)
        result = run_scenario(scenario, backend="simulated")
        workers = result.raw.workers.values()
        metrics = result.telemetry.metrics
        forwarded = sum(stats.work_requests_forwarded for stats in workers)
        assert metrics.total("worker_work_requests_forwarded") == forwarded > 0
        assert metrics.total("worker_walks_exhausted") == sum(
            stats.walks_exhausted for stats in workers
        )
        assert result.raw.messages_by_kind["work_forwards"] == forwarded

    def test_metrics_only_config_skips_tracer(self):
        result = run_scenario(
            _quickstart(TelemetryConfig(trace=False, metrics=True)),
            backend="simulated",
        )
        telemetry = result.telemetry
        assert telemetry is not None
        assert telemetry.tracer is None
        assert telemetry.metrics is not None


class TestEngineCounterIngestion:
    COUNTERS = {
        "events_processed": 120,
        "peak_heap_len": 17,
        "entity_steps": 40,
    }

    def test_sums_are_counters_and_peak_heap_is_a_gauge(self):
        registry = MetricsRegistry()
        ingest_engine_counters(registry, self.COUNTERS)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {
            "engine_entity_steps": 40,
            "engine_events_processed": 120,
        }
        assert snapshot["gauges"] == {"engine_peak_heap_len": {"value": 17, "peak": 17}}

    def test_two_runs_sum_counters_and_keep_the_higher_peak(self):
        registry = MetricsRegistry()
        ingest_engine_counters(registry, self.COUNTERS)
        ingest_engine_counters(
            registry, dict(self.COUNTERS, events_processed=30, peak_heap_len=5)
        )
        assert registry.counter("engine_events_processed").value == 150
        assert registry.counter("engine_entity_steps").value == 80
        assert registry.gauge("engine_peak_heap_len").peak == 17

    def test_simulated_run_registry_matches_the_engine(self):
        scenario = Scenario(
            name="engine-counters",
            workload=WorkloadSpec(kind="random", nodes=151, seed=11),
            n_workers=8,
            seed=11,
            telemetry=TelemetryConfig(trace=False, metrics=True),
        )
        result = run_scenario(scenario, backend="simulated")
        engine = result.raw.engine_counters
        assert set(engine) == {
            "events_processed",
            "peak_heap_len",
            "entity_steps",
            "arena_nodes_peak",
            "arena_collections",
        }
        assert result.engine_counters == engine
        snapshot = result.telemetry.snapshot()
        for name, value in engine.items():
            if name in ("peak_heap_len", "arena_nodes_peak"):
                assert snapshot["gauges"][f"engine_{name}"]["peak"] == value
            else:
                assert snapshot["counters"][f"engine_{name}"] == value
        assert engine["entity_steps"] == sum(
            stats.entity_steps for stats in result.raw.workers.values()
        )


class TestRealexecTelemetry:
    def test_figure3_scaled_trace_covers_three_layers(self, tmp_path):
        scenario = Scenario(
            name="figure3-telemetry",
            workload=WorkloadSpec(kind="figure3", scale=0.05, seed=7),
            n_workers=3,
            seed=7,
            max_seconds=20.0,
            telemetry=TelemetryConfig(),
        )
        result = run_scenario(scenario, backend="realexec")
        assert result.terminated
        telemetry = result.telemetry
        assert telemetry is not None and telemetry.tracer is not None
        path = tmp_path / "figure3.json"
        telemetry.write_chrome_trace(path)
        document = load_chrome_trace(path)
        counts = category_span_counts(document)
        assert len(counts) >= 3
        assert counts.get("worker", 0) >= 3  # one run span per worker
        assert counts.get("transport", 0) > 0  # router forwards
        assert counts.get("driver", 0) >= 1  # the cluster run span
        # All processes merged into one trace.
        processes = telemetry.tracer.processes()
        assert "driver" in processes and "router" in processes
        assert any(p.startswith("rworker-") for p in processes)
        # Worker metrics crossed the wire and merged with the router's.
        counters = telemetry.snapshot()["counters"]
        families = {key.split("{")[0] for key in counters}
        assert "router_messages_forwarded" in families
        assert "worker_frames_received" in families
        # Pushed grants are counted apart from requested ones.
        assert "worker_work_pushes_sent" in families
        # News counters reach the result through the workers' telemetry.
        assert "worker_news_pulls_sent" in families
        assert result.news_pulls_sent == telemetry.metrics.total("worker_news_pulls_sent")
        assert result.news_answers_sent == telemetry.metrics.total("worker_news_answers_sent")

    def test_realexec_without_telemetry_has_no_frames(self):
        scenario = Scenario(
            name="figure3-quiet",
            workload=WorkloadSpec(kind="figure3", scale=0.05, seed=7),
            n_workers=2,
            seed=7,
            max_seconds=20.0,
        )
        result = run_scenario(scenario, backend="realexec")
        assert result.terminated
        assert result.telemetry is None
        assert "worker_telemetry" not in result.raw.bytes_by_kind


class TestCliTelemetry:
    def test_run_trace_flag_then_inspect(self, tmp_path, capsys):
        trace_path = tmp_path / "quickstart.json"
        code = cli_main(["run", "quickstart", "--trace", str(trace_path)])
        assert code == 0
        assert trace_path.exists()
        document = load_chrome_trace(trace_path)
        assert len(category_span_counts(document)) >= 3
        capsys.readouterr()

        code = cli_main(["inspect", str(trace_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "categories" in out
        assert "worker-00" in out  # the Gantt rows
        assert "top counters" in out
        assert re.search(r"news for redone work: \d+ pulls sent, \d+ answers sent", out)
        assert re.search(
            r"walks past idle peers: \d+ requests forwarded, \d+ walks exhausted", out
        )

    def test_run_metrics_flag_prints_exposition(self, capsys):
        code = cli_main(["run", "quickstart", "--metrics"])
        assert code == 0
        out = capsys.readouterr().out
        assert "--- metrics ---" in out
        assert "# TYPE engine_events_processed counter" in out

    def test_inspect_rejects_non_trace(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        assert cli_main(["inspect", str(bogus)]) == 2
        assert "error" in capsys.readouterr().out
