"""Tests for the network model, the per-worker metrics record and worker-state tracing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.timeline import activity_summary, ascii_gantt, worker_spans
from repro.distributed.stats import TIME_CATEGORIES, RunResult, WorkerRunStats
from repro.obs import Tracer
from repro.obs.chrome import chrome_trace_dict, load_chrome_trace, spans_from_chrome, write_chrome_trace
from repro.scenario import get_scenario, run_scenario
from repro.simulation.engine import SimulationEngine
from repro.simulation.entity import Entity, QueuedMessage
from repro.simulation.network import LatencyModel, Network, Partition
from repro.simulation.rng import RngRegistry


class _Sink(Entity):
    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def on_message(self, message: QueuedMessage) -> None:
        self.received.append(message)


class _SizedPayload:
    def __init__(self, size):
        self._size = size

    def wire_size(self):
        return self._size


def build(loss=0.0, partitions=(), latency=None):
    engine = SimulationEngine()
    network = Network(
        engine,
        latency=latency or LatencyModel.paper_default(),
        loss_probability=loss,
        partitions=partitions,
        rng=RngRegistry(3).stream("net"),
    )
    a, b = _Sink("a"), _Sink("b")
    network.register(a)
    network.register(b)
    return engine, network, a, b


class TestLatencyModel:
    def test_paper_parameters(self):
        model = LatencyModel.paper_default()
        # 1.5 ms + 0.005 ms/byte: a 1000-byte message takes 6.5 ms.
        assert model.latency(0) == pytest.approx(0.0015)
        assert model.latency(1000) == pytest.approx(0.0065)

    def test_jitter_only_with_rng(self):
        model = LatencyModel(base=0.001, per_byte=0.0, jitter_fraction=0.5)
        assert model.latency(10) == pytest.approx(0.001)
        import random

        jittered = model.latency(10, random.Random(1))
        assert 0.001 <= jittered <= 0.0015

    @given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=50, deadline=None)
    def test_latency_monotone_in_size(self, small, large):
        model = LatencyModel.paper_default()
        lo, hi = sorted((small, large))
        assert model.latency(lo) <= model.latency(hi)


class TestNetwork:
    def test_delivery_and_latency(self):
        engine, network, a, b = build()
        assert a.send("b", _SizedPayload(1000))
        engine.run()
        b.process_pending_messages()
        assert len(b.received) == 1
        message = b.received[0]
        assert message.size_bytes == 1000
        assert message.delivered_at == pytest.approx(0.0065)

    def test_unknown_and_dead_destination(self):
        engine, network, a, b = build()
        assert a.send("ghost", "x") is False
        b.crash()
        assert a.send("b", "x") is False
        assert network.stats.messages_to_dead == 2

    def test_duplicate_registration_rejected(self):
        engine, network, a, b = build()
        with pytest.raises(ValueError):
            network.register(_Sink("a"))

    def test_loss(self):
        engine, network, a, b = build(loss=1.0 - 1e-9)
        sent_any = False
        for _ in range(20):
            a.send("b", "x")
            sent_any = True
        engine.run()
        assert sent_any
        assert network.stats.messages_lost == 20
        assert len(b.inbox) == 0

    def test_invalid_loss_probability(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError):
            Network(engine, loss_probability=1.5)

    def test_partition_blocks_both_directions_during_window(self):
        partition = Partition(start=0.0, end=10.0, group_a=frozenset({"a"}), group_b=frozenset({"b"}))
        engine, network, a, b = build(partitions=[partition])
        assert a.send("b", "x") is False
        assert b.send("a", "y") is False
        assert network.stats.messages_blocked == 2
        # After the window closes, traffic flows again.
        engine.post(11.0, lambda: a.send("b", "late"))
        engine.run()
        assert len(b.inbox) == 1

    def test_partition_does_not_affect_others(self):
        partition = Partition(start=0.0, end=10.0, group_a=frozenset({"a"}), group_b=frozenset({"x"}))
        engine, network, a, b = build(partitions=[partition])
        assert a.send("b", "x") is True

    def test_broadcast_and_traffic_accounting(self):
        engine, network, a, b = build()
        c = _Sink("c")
        network.register(c)
        scheduled = network.broadcast("a", ["a", "b", "c"], _SizedPayload(100))
        assert scheduled == 2  # never to self
        engine.run()
        assert network.stats.bytes_sent == 200
        assert network.total_megabytes_sent() == pytest.approx(200 / 1e6)
        assert network.megabytes_sent_by("a") == pytest.approx(200 / 1e6)
        assert network.megabytes_sent_by("nobody") == 0.0
        per = network.per_entity["a"].as_dict()
        assert per["messages_sent"] == 2

    def test_living_entities(self):
        engine, network, a, b = build()
        b.crash()
        assert [e.name for e in network.living_entities()] == ["a"]
        assert len(network.entities()) == 2


def _result(*workers):
    return RunResult(
        n_workers=len(workers),
        makespan=1.0,
        best_value=None,
        reference_optimum=None,
        all_terminated=True,
        workers={stats.name: stats for stats in workers},
    )


class TestMetrics:
    """Time and storage live in each worker's ``WorkerRunStats``;
    ``RunResult`` sums them over the workers."""

    def test_time_account_basics(self):
        stats = WorkerRunStats(name="w0")
        assert stats.time == dict.fromkeys(TIME_CATEGORIES, 0.0)
        stats.time["bb"] += 2.0
        stats.time["idle"] += 1.0
        result = _result(stats)
        assert result.time_fraction("bb") == pytest.approx(2 / 3)
        assert result.idle_time_percent() == pytest.approx(100 / 3)
        assert result.overhead_percent() == pytest.approx(100 / 3)
        row = stats.as_dict()
        assert "time" not in row
        assert [row[f"time_{c}"] for c in TIME_CATEGORIES] == [2.0, 0.0, 0.0, 0.0, 1.0]

    def test_empty_fractions(self):
        result = _result(WorkerRunStats(name="w0"))
        assert {c: result.time_fraction(c) for c in TIME_CATEGORIES} == dict.fromkeys(
            TIME_CATEGORIES, 0.0
        )

    def test_storage_account_peak_and_redundant(self):
        # The redundant share is read at the peak, so it never exceeds it.
        raw = run_scenario(get_scenario("quickstart"), backend="simulated").raw
        assert all(s.storage_peak_bytes > 0 for s in raw.workers.values())
        assert all(
            0 <= s.storage_redundant_bytes <= s.storage_peak_bytes for s in raw.workers.values()
        )
        assert raw.storage_total_mb() == pytest.approx(
            sum(s.storage_peak_bytes for s in raw.workers.values()) / 1e6
        )
        assert raw.storage_redundant_mb() <= raw.storage_total_mb()

    def test_collector_aggregation(self):
        w1, w2 = WorkerRunStats(name="w1"), WorkerRunStats(name="w2")
        w1.time.update(bb=4.0, idle=1.0)
        w2.time.update(bb=5.0)
        w1.storage_peak_bytes, w1.storage_redundant_bytes = 1000, 500
        w2.storage_peak_bytes = 200
        result = _result(w1, w2)
        assert result.time_fraction("bb") == pytest.approx(9.0 / 10.0)
        assert result.bb_time_percent() == pytest.approx(90.0)
        assert result.storage_total_mb() == pytest.approx(1200 / 1e6)
        assert result.storage_redundant_mb() == pytest.approx(500 / 1e6)
        table = [stats.as_dict() for stats in result.workers.values()]
        assert [(row["name"], row["time_bb"]) for row in table] == [("w1", 4.0), ("w2", 5.0)]

    def test_empty_collector(self):
        result = _result()
        assert {c: result.time_fraction(c) for c in TIME_CATEGORIES} == dict.fromkeys(
            TIME_CATEGORIES, 0.0
        )
        assert result.storage_total_mb() == 0.0
        assert result.communication_mb_per_hour_per_processor() == 0.0
        assert result.summary()["storage_total_mb"] == 0.0


class TestTimelineTrace:
    """Worker states are ``worker`` spans of a :class:`~repro.obs.Tracer`."""

    def test_state_intervals(self):
        tracer = Tracer()
        for state, start, duration in (
            ("working", 0.0, 2.0),
            ("idle", 2.0, 1.0),
            ("working", 3.0, 2.0),
        ):
            tracer.span(state, start, duration, process="p0", category="worker")
        tracer.event("crash", ts=1.0, process="p0", category="engine")
        spans = worker_spans(tracer.iter_records())
        assert [span[1] for span in spans] == ["working", "idle", "working"]
        (row,) = activity_summary(spans)
        assert (row["process"], row["working_s"], row["idle_s"]) == ("p0", 4.0, 1.0)
        cells = ascii_gantt(spans, width=21).split("\n")[0].split("|")[1]
        assert cells[0] == cells[-1] == "#" and "." in cells

    def test_exports(self, tmp_path):
        tracer = Tracer()
        tracer.span("working", 0.0, 1.0, process="p0", category="worker")
        tracer.span("idle", 0.0, 1.0, process="p1", category="worker")
        write_chrome_trace(tmp_path / "trace.json", tracer)
        spans = worker_spans(spans_from_chrome(load_chrome_trace(tmp_path / "trace.json")))
        assert spans == worker_spans(tracer.iter_records())
        gantt = ascii_gantt(spans, width=40)
        assert "p0 |#" in gantt and "p1 |." in gantt

    def test_empty_gantt(self):
        spans = worker_spans(spans_from_chrome(chrome_trace_dict(Tracer())))
        assert spans == []
        assert ascii_gantt(spans) == "(empty trace)"
        assert ascii_gantt([("p0", "working", 0.0, 1.0)], width=9) == "(empty trace)"
