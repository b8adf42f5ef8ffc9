"""The worker timeline: traced runs record one span per worker state.

Pins the Figures 5/6 Gantt rows and activity tables, and checks on a crash
run and a churn run that the ``worker`` spans tile each worker's life.
"""

from typing import Dict, List

import pytest

from repro.analysis import figure56_scenario
from repro.analysis.timeline import GLYPHS, activity_summary, ascii_gantt, worker_spans
from repro.obs import TelemetryConfig
from repro.scenario import get_scenario, run_scenario

TRACE_ONLY = TelemetryConfig(trace=True, metrics=False)

#: Every state a worker records, with its glyph.
LEGEND = "              #=working  .=idle  o=offline  T=terminated"
AXIS = "              t=0 {} t={}s".format("-" * 64, "{}")

FIGURE5_ROWS = [
    "   worker-00 |########################################.##########.##################..####....|",
    "   worker-01 |.###############################....#############################.#######..###TT|",
    "   worker-02 |...#############################################..########################.###..|",
]
FIGURE6_ROWS = [
    "   worker-00 |##############################################...########...#####...############|",
    "   worker-01 |#####################...#############.#####.                                    |",
    "   worker-02 |..#############################..###########                                    |",
]


def _activity(process, working, idle, crashed=0.0, terminated=0.0):
    return {
        "process": process,
        "working_s": working,
        "idle_s": idle,
        "crashed_s": crashed,
        "offline_s": 0.0,
        "terminated_s": terminated,
    }


FIGURE5_ACTIVITY = [
    _activity("worker-00", 2.53, 0.181),
    _activity("worker-01", 2.433, 0.276, terminated=0.002),
    _activity("worker-02", 2.47, 0.241),
]
FIGURE6_ACTIVITY = [
    _activity("worker-00", 3.537, 0.559),
    _activity("worker-01", 2.078, 0.226, crashed=1.792),
    _activity("worker-02", 2.101, 0.203, crashed=1.792),
]


def _spans(result):
    return worker_spans(result.telemetry.tracer.iter_records())


class TestFigures5And6:
    @pytest.fixture(scope="class")
    def scenario(self):
        return figure56_scenario()

    def test_gantt_rows_are_pinned(self, scenario):
        assert scenario["no_failure_gantt"].split("\n") == FIGURE5_ROWS + [
            AXIS.format("2.71"),
            LEGEND,
        ]
        assert scenario["with_failures_gantt"].split("\n") == FIGURE6_ROWS + [
            AXIS.format("4.10"),
            LEGEND,
        ]

    def test_activity_tables_are_pinned(self, scenario):
        assert activity_summary(_spans(scenario["no_failure"])) == FIGURE5_ACTIVITY
        assert activity_summary(_spans(scenario["with_failures"])) == FIGURE6_ACTIVITY


def _traced(name: str):
    scenario = get_scenario(name).with_overrides(telemetry=TRACE_ONLY)
    result = run_scenario(scenario, backend="simulated")
    records = list(result.telemetry.tracer.iter_records())
    run_end = next(r["dur"] for r in records if r["name"] == "run")
    rows: Dict[str, List] = {}
    for span in worker_spans(records):
        rows.setdefault(span[0], []).append(span)
    return result.raw, rows, run_end


def _assert_tiles(row, end):
    """Spans from 0 to ``end``: no gap, no overlap, no repeated state."""
    assert row[0][2] == 0.0
    for (_, state, start, duration), (_, next_state, next_start, _) in zip(row, row[1:]):
        assert start + duration == pytest.approx(next_start, abs=1e-9)
        assert state != next_state
    assert all(duration > 0 for *_, duration in row)
    assert all(state in GLYPHS for _, state, _, _ in row)
    assert row[-1][2] + row[-1][3] == pytest.approx(end, abs=1e-9)


class TestTimelineTilesEachLife:
    def test_crash_run(self):
        raw, rows, end = _traced("crash-storm")
        assert set(rows) == set(raw.workers)
        assert len(raw.crashed_workers) == 3
        for name, row in rows.items():
            _assert_tiles(row, end)
            stats = raw.workers[name]
            final = "crashed" if stats.crashed else "terminated"
            instant = stats.crashed_at if stats.crashed else stats.terminated_at
            life = [start + duration for _, state, start, duration in row if state != final]
            assert max(life) == pytest.approx(instant, abs=1e-9)
            assert all(state == final for _, state, start, _ in row if start >= instant)

    def test_churn_run(self):
        raw, rows, end = _traced("campus-churn")
        assert set(rows) == set(raw.workers)
        assert "offline" in {span[1] for row in rows.values() for span in row}
        for row in rows.values():
            _assert_tiles(row, end)

    def test_churn_gantt_draws_every_state(self):
        _, rows, _ = _traced("campus-churn")
        lines = ascii_gantt([span for row in rows.values() for span in row]).split("\n")
        bars = [line.split("|")[1] for line in lines[:-2]]
        assert not any("?" in bar for bar in bars)
        assert any("o" in bar for bar in bars)
        assert lines[-1] == LEGEND

    def test_activity_summary_counts_offline_time(self):
        raw, rows, _ = _traced("campus-churn")
        summary = activity_summary([span for row in rows.values() for span in row])
        offline = {row["process"]: row["offline_s"] for row in summary}
        assert sum(offline.values()) > 0
        for name, seconds in offline.items():
            assert seconds == pytest.approx(raw.workers[name].unavailable_time, abs=2e-3)


class TestRendering:
    def test_empty_timeline(self):
        assert ascii_gantt([]) == "(empty trace)"
        assert activity_summary([]) == []

    def test_unknown_state_draws_as_question_mark(self):
        gantt = ascii_gantt([("p0", "mystery", 0.0, 1.0)], width=20)
        assert "?" in gantt.split("\n")[0]
