"""Tests of the ledger's own machinery (collected by the tier-1 suite)."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import measure
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# --------------------------------------------------------------------------- #
# BENCHMARK.json against the contract and against the code
# --------------------------------------------------------------------------- #
def test_contract_shape_and_limits():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert CONTRACT["paths"] == ["benchmarks/ledger"]
    assert CONTRACT["command"][-1].startswith(CONTRACT["paths"][0] + "/")
    assert isinstance(CONTRACT["run_seconds"], int) and 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in CONTRACT[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def test_contract_names_are_the_ones_the_code_reports():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == layers.PER_LAYER
    # Every per-layer metric belongs to a layer that is a module of the library.
    for name in layers.PER_LAYER:
        assert (ROOT / "src" / "repro" / name.split(".")[0]).is_dir(), name


# --------------------------------------------------------------------------- #
# Span arithmetic and histogram quantiles
# --------------------------------------------------------------------------- #
class FakeClock:
    """Returns the scripted instants, one per call."""

    def __init__(self, instants):
        self._instants = iter(instants)

    def __call__(self):
        return next(self._instants)


def test_self_time_on_a_nested_span_tree():
    # root [0, 10] { a [1, 4] { leaf [2, 3] }, b [5, 9] }
    log = spans.SpanLog(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    with log.span("scenario", "root"):
        with log.span("core", "a"):
            with log.span("bnb", "leaf"):
                pass
        with log.span("core", "b"):
            pass
    assert list(log.parent) == [-1, 0, 1, 0]
    totals = log.totals()
    assert totals[("scenario", "root")] == (1, 10.0, 3.0)  # 10 - (3 + 4)
    assert totals[("core", "a")] == (1, 3.0, 2.0)  # 3 - 1
    assert totals[("bnb", "leaf")] == (1, 1.0, 1.0)
    assert totals[("core", "b")] == (1, 4.0, 4.0)
    by_layer = spans.layer_self_seconds(totals)
    assert by_layer == {"scenario": 3.0, "core": 6.0, "bnb": 1.0}
    assert sum(by_layer.values()) == 10.0  # self times partition the root
    assert spans.self_times([-1, 0, 0, 2], [10.0, 2.0, 5.0, 1.0]) == [3.0, 2.0, 4.0, 1.0]


def test_wrap_records_a_span_even_when_the_call_raises():
    log = spans.SpanLog(clock=FakeClock([0, 1, 2, 3]))

    def boom():
        raise KeyError("x")

    with log.span("scenario", "root"):
        with pytest.raises(KeyError):
            log.wrap("core", "boom", boom)()
    assert log.totals()[("core", "boom")] == (1, 1.0, 1.0)
    assert log.totals()[("scenario", "root")] == (1, 3.0, 2.0)


def test_histogram_quantiles_interpolate_within_the_bucket():
    # 10 observations: 2 in (0, 1], 6 in (1, 2], 2 beyond the last bound.
    bounds, counts = [1.0, 2.0], [2, 6, 2]
    assert spans.histogram_quantile(bounds, counts, 0.5) == 1.5
    assert spans.histogram_quantile(bounds, counts, 0.1) == 0.5
    assert spans.histogram_quantile(bounds, counts, 0.99) == 2.0  # overflow bucket
    assert spans.histogram_quantile(bounds, [0, 0, 0], 0.5) == 0.0


# --------------------------------------------------------------------------- #
# Inputs come from the seed, and only from the seed
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_the_same_inputs(name):
    workload = workloads.WORKLOADS[name]
    first = workload.tree_spec(quick=True).build()
    again = workload.tree_spec(quick=True).build()
    assert workloads.tree_digest(first) == workloads.tree_digest(again)
    seed = workloads.rep_seed(100, 1)
    assert workload.scenario(first, quick=True, run_seed=seed) == workload.scenario(
        first, quick=True, run_seed=seed
    )
    assert workload.scenario(first, quick=True, run_seed=seed).seed == 100_001


def test_rep_seeds_and_rep_counts():
    a = {workloads.rep_seed(100, rep) for rep in range(999)}
    b = {workloads.rep_seed(101, rep) for rep in range(999)}
    assert not a & b
    with pytest.raises(ValueError):
        workloads.rep_seed(100, 1000)
    for workload in workloads.WORKLOADS.values():
        assert workloads.reps_for(workload, 20, quick=True) == workloads.QUICK_REPS
        assert workloads.reps_for(workload, 0.001) == workloads.MIN_REPS
        assert workloads.reps_for(workload, 60) < 1000
    faults = workloads.WORKLOADS["sim-faults-8w"]
    assert faults.permanent_crashes == (1, 2, 3)
    assert workloads.WORKLOADS["sim-fig3-8w"].permanent_crashes == ()


def test_event_labels_map_to_layers():
    assert layers.event_span("deliver") == ("simulation", "event:deliver")
    assert layers.event_span("worker-03:step") == ("distributed", "event:step")
    assert layers.event_span("worker-03:lb-timeout:17") == ("distributed", "event:lb-timeout")
    assert layers.event_span("worker-11:fd-tick:2") == ("distributed", "event:fd-tick")
    assert layers.event_span("crash:worker-01") == ("simulation", "event:crash")
    assert layers.event_span("churn-return:worker-05") == ("simulation", "event:churn-return")
    assert layers.event_span("") == ("simulation", "event:unlabelled")


# --------------------------------------------------------------------------- #
# The traced pass leaves the library as it found it
# --------------------------------------------------------------------------- #
def _wrapped_callables():
    found = {}
    for table in (layers.WRAPPED_SIM, layers.WRAPPED_REAL):
        for _, path, methods in table:
            cls = layers._resolve(path)
            for name in methods:
                found[(path, name)] = cls.__dict__[name]
    engine = layers._resolve(layers._ENGINE)
    for name in ("post", "schedule_at"):
        found[(layers._ENGINE, name)] = engine.__dict__[name]
    return found


def test_wrappers_are_removed_when_the_traced_body_raises():
    before = _wrapped_callables()
    with pytest.raises(ZeroDivisionError):
        with layers.Wrappers(spans.SpanLog(), layers.WRAPPED_SIM):
            assert _wrapped_callables() != before
            1 / 0
    assert _wrapped_callables() == before


def test_a_misnamed_callable_fails_the_install_and_leaves_nothing_behind():
    before = _wrapped_callables()
    table = layers.WRAPPED_SIM + (("core", layers._TRACKER, ("no_such_method",)),)
    with pytest.raises(KeyError):
        layers.Wrappers(spans.SpanLog(), table).__enter__()
    assert _wrapped_callables() == before


def test_traced_pass_reports_every_layer_metric_and_restores_the_library(tmp_path, monkeypatch):
    monkeypatch.setattr(spans, "CHROME_SPAN_LIMIT", 5000)  # keeps the file, and the test, small
    before = _wrapped_callables()
    workload = workloads.WORKLOADS["sim-faults-8w"]
    setup = workloads.set_up(workload, quick=True)
    outcome = layers.traced_pass(workload, setup, seed=3, quick=True, out=tmp_path)
    after = _wrapped_callables()
    assert all(after[key] is before[key] for key in before)

    assert outcome["failed"] == 0 and outcome["attempted"] == 10
    metrics = outcome["metrics"]
    assert list(metrics) == list(layers.PER_LAYER)
    assert all(isinstance(value, (int, float)) for value in metrics.values())
    # The four library layers on a simulated run's path account for the run.
    covered = sum(metrics[f"{layer}.self_s"] for layer in ("core", "bnb", "distributed", "simulation"))
    assert covered == pytest.approx(outcome["traced_run_wall_s"], rel=0.15)
    # This workload is the one that exercises recovery and the failure detector.
    assert metrics["gossip.evictions"] > 0 and metrics["core.recovery_query_us"] > 0
    assert metrics["realexec.frames_forwarded"] == 0  # not on this path
    document = json.loads(Path(outcome["trace_file"]).read_text(encoding="utf-8"))
    meta = document["repro"]["meta"]
    assert meta["spans_written"] == 5000 < meta["spans_recorded"]
    assert sum(event["ph"] == "X" for event in document["traceEvents"]) == 5000


# --------------------------------------------------------------------------- #
# The command itself
# --------------------------------------------------------------------------- #
def test_command_prints_every_metric_and_ends_with_the_result_line():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sim-fig3-8w",
         "--seed", "5", "--seconds", "1", "--trace", "0", "--quick"],
        stdout=subprocess.PIPE, text=True, timeout=120, check=True,
    )
    lines = done.stdout.strip().splitlines()
    assert "NOT comparable" in lines[0]
    printed = [line.split()[0] for line in lines[1:-1]]
    expected = [m["name"] for m in CONTRACT["end_to_end"]]
    assert printed == expected + ["ops_attempted", "ops_failed"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] == 16
    assert list(result["metrics"]) == expected
    for metric in CONTRACT["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0
