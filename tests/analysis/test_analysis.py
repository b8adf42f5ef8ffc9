"""Tests for the experiment builders, table formatting and timeline digests."""

import pytest

from repro.analysis.figures import (
    compression_ablation,
    default_config,
    fault_tolerance_comparison,
    figure3_breakdown,
    figure3_tree,
    figure4_series,
    figure56_scenario,
    granularity_sweep,
    reporting_ablation,
    table1_rows,
    table1_tree,
    tiny_tree,
)
from repro.analysis.tables import format_kv, format_table
from repro.analysis.timeline import activity_summary, recovery_evidence, worker_spans


class TestWorkloadBuilders:
    def test_figure3_tree_scaling(self):
        small = figure3_tree(scale=0.1)
        full = figure3_tree(scale=1.0)
        assert len(small) < len(full)
        assert 3300 <= len(full) <= 3700
        assert small.mean_node_time() == pytest.approx(0.01, rel=0.3)

    def test_table1_tree_scaling(self):
        tree = table1_tree(scale=0.02)
        assert len(tree) >= 1001
        assert tree.mean_node_time() == pytest.approx(3.47, rel=0.3)

    def test_tiny_tree(self):
        assert len(tiny_tree()) < 300

    def test_default_config_overrides(self):
        config = default_config(report_threshold=4)
        assert config.report_threshold == 4


class TestTableFormatting:
    def test_format_table(self):
        rows = [
            {"a": 1, "b": 2.5, "c": None},
            {"a": 10, "b": 0.125, "c": True},
        ]
        text = format_table(rows, title="demo")
        assert "demo" in text
        assert "a" in text.splitlines()[1]
        assert "yes" in text
        assert "-" in text  # None rendering

    def test_format_table_empty_and_column_selection(self):
        assert "(no rows)" in format_table([])
        rows = [{"x": 1, "y": 2}]
        only_x = format_table(rows, columns=["x"])
        assert "y" not in only_x.splitlines()[0]

    def test_format_kv(self):
        text = format_kv({"alpha": 1.5, "beta": None}, title="kv")
        assert "kv" in text and "alpha" in text and "-" in text


class TestExperimentBuilders:
    """Small-scale smoke runs of every experiment builder (fast settings)."""

    def test_figure3_breakdown_rows(self):
        rows = figure3_breakdown(processor_counts=(1, 2), scale=0.05)
        assert len(rows) == 2
        assert rows[0]["processors"] == 1
        for row in rows:
            assert row["solved_correctly"]
            assert row["makespan_s"] > 0
            assert "bb_s_per_proc" in row
        # More processors means shorter makespan on this workload.
        assert rows[1]["makespan_s"] < rows[0]["makespan_s"]

    def test_table1_rows_and_figure4(self):
        rows = table1_rows(processor_counts=(2, 4), scale=0.01)
        assert len(rows) == 2
        for row in rows:
            assert row["solved_correctly"]
            assert row["bb_time_pct"] > 0
        series = figure4_series(rows)
        assert len(series["execution_time_h"]) == 2
        assert len(series["comm_mb_per_hour_per_proc"]) == 2
        # Execution time decreases with processors.
        assert series["execution_time_h"][1][1] <= series["execution_time_h"][0][1]

    def test_figure56_scenario(self):
        scenario = figure56_scenario(n_workers=3, crash_fraction=0.6)
        no_failure = scenario["no_failure"]
        with_failures = scenario["with_failures"]
        assert no_failure.solved_correctly
        assert with_failures.solved_correctly
        assert set(with_failures.crashed_workers) == set(scenario["victims"])
        assert "worker-00" in scenario["no_failure_gantt"]
        evidence = recovery_evidence(with_failures)
        assert evidence["all_survivors_terminated"]
        assert evidence["solved_correctly"]
        assert evidence["surviving_workers"] == ["worker-00"]
        summary = activity_summary(worker_spans(with_failures.telemetry.tracer.iter_records()))
        assert any(row["process"] == "worker-00" for row in summary)

    def test_granularity_sweep(self):
        rows = granularity_sweep(factors=(0.5, 2.0), n_workers=3, scale=0.05)
        assert len(rows) == 2
        assert all(row["solved_correctly"] for row in rows)
        assert rows[1]["makespan_s"] > rows[0]["makespan_s"]

    def test_reporting_ablation(self):
        rows = reporting_ablation(thresholds=(1, 20), fanouts=(1,), n_workers=3, scale=0.05)
        assert len(rows) == 2
        assert all(row["solved_correctly"] for row in rows)
        frequent, rare = rows[0], rows[1]
        assert frequent["messages_sent"] >= rare["messages_sent"]

    def test_compression_ablation(self):
        rows = compression_ablation(n_workers=3, scale=0.05)
        assert len(rows) == 2
        on = next(r for r in rows if r["compress_reports"])
        off = next(r for r in rows if not r["compress_reports"])
        assert on["solved_correctly"] and off["solved_correctly"]
        assert off["bytes_sent_mb"] >= on["bytes_sent_mb"]

    def test_fault_tolerance_comparison(self):
        rows = fault_tolerance_comparison(n_workers=3, scale=1.0)
        scenarios = {row["scenario"] for row in rows}
        assert {"no failures", "all but one crash", "critical node crash"} <= scenarios
        for row in rows:
            # The paper's mechanism always terminates correctly.
            assert row["ours_terminated"]
            assert row["ours_correct"]
        critical = next(r for r in rows if r["scenario"] == "critical node crash")
        # The baselines lose their critical node and cannot terminate.
        assert not critical["dib_terminated"]
        assert not critical["central_terminated"]
