"""Tests for the algorithm configuration, wire messages and run statistics."""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.core.encoding import ROOT
from repro.core.work_report import BestSolution, DeltaSnapshot, WorkReport
from repro.distributed.config import AlgorithmConfig
from repro.distributed.messages import (
    DeltaGossipMsg,
    MessageKinds,
    WorkDenied,
    WorkGrant,
    WorkReportMsg,
    WorkRequest,
)
from repro.distributed.stats import RunResult, WorkerRunStats


class TestAlgorithmConfig:
    def test_defaults_are_valid(self):
        config = AlgorithmConfig.paper_default()
        assert config.report_threshold >= 1
        assert config.report_fanout >= 1

    def test_with_overrides(self):
        config = AlgorithmConfig().with_overrides(report_threshold=3, report_staleness=None)
        assert config.report_threshold == 3
        assert config.report_staleness is None
        # Original defaults untouched elsewhere.
        assert config.report_fanout == AlgorithmConfig().report_fanout

    @pytest.mark.parametrize(
        "field, value",
        [
            ("report_threshold", 0),
            ("report_fanout", 0),
            ("recovery_failed_threshold", 0),
            ("fd_heartbeat_interval", 0.0),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            AlgorithmConfig(failure_detector=True, **{field: value})

    def test_knob_budget(self):
        # Every field must earn its place; behaviour that can be derived
        # (donation sizing, starved-worker pacing, the recovery pick) lives
        # in shared rules and named constants, not here.
        assert len(dataclasses.fields(AlgorithmConfig)) == 14

    @pytest.mark.parametrize(
        "name",
        [
            "flush_report_when_idle",
            "table_gossip_when_idle",
            "compress_against_table",
            "fd_fanout",
            "abort_redundant_work",
            "granularity",
            "msg_processing_base",
            "msg_processing_per_byte",
            "msg_send_cost",
            "contraction_cost_per_op",
            "rebuild_cost_per_decision",
            "delta_gossip",
            "table_gossip_interval",
        ],
    )
    def test_retired_knobs_are_rejected(self, name):
        # Constants now: a caller that still passes one must hear about it.
        with pytest.raises(TypeError):
            AlgorithmConfig(**{name: None})

    def test_every_field_is_read(self):
        # A field nothing reads is a knob that silently does nothing: count
        # ``config.<field>`` / ``cfg.<field>`` / ``<x>.config.<field>`` loads
        # anywhere in the package except the dataclass's own module.
        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        read = set()
        for path in src.rglob("*.py"):
            if path == src / "distributed" / "config.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
                    continue
                owner = node.value
                if (isinstance(owner, ast.Name) and owner.id in ("config", "cfg")) or (
                    isinstance(owner, ast.Attribute) and owner.attr == "config"
                ):
                    read.add(node.attr)
        unread = [f.name for f in dataclasses.fields(AlgorithmConfig) if f.name not in read]
        assert unread == []


class TestMessages:
    def test_wire_sizes(self):
        request = WorkRequest("w1", best=BestSolution(3.0))
        denied = WorkDenied("w2")
        grant = WorkGrant("w2", codes=(ROOT.child(0, 0), ROOT.child(0, 1).child(1, 0)))
        report = WorkReportMsg(WorkReport.build("w1", [ROOT.child(0, 0)]))
        gossip = DeltaGossipMsg(DeltaSnapshot("w1", frozenset({ROOT.child(0, 1)})))
        assert request.wire_size() > 0
        assert denied.wire_size() > 0
        assert grant.wire_size() > request.wire_size()
        assert report.wire_size() > 0
        assert gossip.wire_size() > 0
        assert report.best == report.report.best
        assert gossip.best == gossip.delta.best

    def test_message_kinds(self):
        assert MessageKinds.of(WorkRequest("w")) == MessageKinds.WORK_REQUEST
        assert MessageKinds.of(WorkDenied("w")) == MessageKinds.WORK_DENIED
        assert MessageKinds.of(WorkGrant("w", ())) == MessageKinds.WORK_GRANT
        plain = WorkReportMsg(WorkReport.build("w", [ROOT.child(0, 0)]))
        root = WorkReportMsg(WorkReport.build("w", [ROOT]))
        assert MessageKinds.of(plain) == MessageKinds.WORK_REPORT
        assert MessageKinds.of(root) == MessageKinds.ROOT_REPORT
        assert MessageKinds.of(DeltaGossipMsg(DeltaSnapshot("w", frozenset()))) == MessageKinds.DELTA_GOSSIP
        assert MessageKinds.of(object()) == "unknown"


class TestRunResultDerivedMetrics:
    def make_result(self):
        w0 = WorkerRunStats(
            name="w0",
            storage_peak_bytes=2_000_000,
            storage_redundant_bytes=500_000,
            time={
                "bb": 90.0,
                "communication": 4.0,
                "contraction": 2.0,
                "load_balancing": 1.0,
                "idle": 3.0,
            },
        )
        return RunResult(
            n_workers=4,
            makespan=3600.0,
            best_value=10.0,
            reference_optimum=10.0,
            all_terminated=True,
            total_nodes_expanded=100,
            redundant_nodes_expanded=10,
            uniprocessor_time=7200.0,
            workers={"w0": w0},
            total_bytes_sent=8_000_000,
        )

    def test_percentages_and_rates(self):
        result = self.make_result()
        assert result.execution_time_hours() == pytest.approx(1.0)
        assert result.bb_time_percent() == pytest.approx(90.0)
        assert result.contraction_time_percent() == pytest.approx(2.0)
        assert result.communication_time_percent() == pytest.approx(4.0)
        assert result.load_balancing_time_percent() == pytest.approx(1.0)
        assert result.idle_time_percent() == pytest.approx(3.0)
        assert result.overhead_percent() == pytest.approx(10.0)
        assert result.storage_total_mb() == pytest.approx(2.0)
        assert result.storage_redundant_mb() == pytest.approx(0.5)
        # 8 MB over 1 hour over 4 processors = 2 MB/hour/processor.
        assert result.communication_mb_per_hour_per_processor() == pytest.approx(2.0)
        assert result.speedup() == pytest.approx(2.0)
        assert result.efficiency() == pytest.approx(0.5)
        assert result.redundant_work_fraction() == pytest.approx(0.1)
        assert result.solved_correctly is True

    def test_summary_keys(self):
        summary = self.make_result().summary()
        for key in (
            "processors",
            "execution_time_h",
            "bb_time_pct",
            "storage_total_mb",
            "comm_mb_per_hour_per_proc",
            "speedup",
            "solved_correctly",
        ):
            assert key in summary

    def test_missing_optional_fields(self):
        result = RunResult(
            n_workers=1,
            makespan=0.0,
            best_value=None,
            reference_optimum=None,
            all_terminated=True,
        )
        assert result.solved_correctly is None
        assert result.speedup() is None
        assert result.efficiency() is None
        assert result.communication_mb_per_hour_per_processor() == 0.0
        assert result.bb_time_percent() == 0.0
        assert result.redundant_work_fraction() == 0.0

    def test_wrong_answer_detected(self):
        result = RunResult(
            n_workers=1,
            makespan=1.0,
            best_value=11.0,
            reference_optimum=10.0,
            all_terminated=True,
        )
        assert result.solved_correctly is False

    def test_worker_stats_as_dict(self):
        stats = WorkerRunStats(name="w0", nodes_expanded=5)
        stats.time = {"bb": 1.0, "idle": 0.5}
        row = stats.as_dict()
        assert row["name"] == "w0"
        assert row["nodes_expanded"] == 5
        assert row["time_bb"] == 1.0
        assert row["time_communication"] == 0.0
