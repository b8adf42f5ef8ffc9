"""Tests for the completion tracker, work reports and table snapshots."""

import pytest

from repro.core.codeset import CodeSet
from repro.core.completion import CompletionTracker
from repro.core.encoding import ROOT, PathCode
from repro.core.work_report import (
    BestSolution,
    CompletedTableSnapshot,
    WorkReport,
    compress_report_codes,
)


class TestBestSolution:
    def test_comparison_minimise(self):
        a = BestSolution(5.0, "a")
        b = BestSolution(7.0, "b")
        none = BestSolution()
        assert a.is_better_than(b, minimize=True)
        assert not b.is_better_than(a, minimize=True)
        assert b.is_better_than(a, minimize=False)
        assert a.is_better_than(none, minimize=True)
        assert not none.is_better_than(a, minimize=True)

    def test_wire_size(self):
        assert BestSolution().wire_size() == 0
        assert BestSolution(1.0).wire_size() > 0


class TestCompressReportCodes:
    def test_sibling_pairs_collapse(self):
        left = ROOT.child(1, 0)
        right = ROOT.child(1, 1)
        assert compress_report_codes([left, right]) == frozenset({ROOT})


class TestWorkReport:
    def test_build_compresses(self):
        report = WorkReport.build("w1", [ROOT.child(1, 0), ROOT.child(1, 1)])
        assert report.codes == frozenset({ROOT})
        assert report.contains_root()
        assert report.sender == "w1"

    def test_empty_report(self):
        report = WorkReport.build("w1", [])
        assert report.is_empty
        assert report.wire_size() > 0  # header still counts

    def test_wire_size_scales_with_codes(self):
        small = WorkReport.build("w", [ROOT.child(1, 0)])
        big = WorkReport.build(
            "w", [ROOT.child(1, 0).child(2, 0).child(3, 0), ROOT.child(4, 1)]
        )
        assert big.wire_size() > small.wire_size()


class TestCompletedTableSnapshot:
    def test_from_table_and_as_report(self):
        table = CodeSet([ROOT.child(1, 0)])
        snapshot = CompletedTableSnapshot.from_table("w2", table, best=BestSolution(3.0))
        assert snapshot.codes == table.codes()
        report = snapshot.as_report()
        assert report.sender == "w2"
        assert report.codes == snapshot.codes
        assert snapshot.wire_size() >= report.best.wire_size()


class TestCompletionTracker:
    def test_requires_positive_threshold(self):
        with pytest.raises(ValueError):
            CompletionTracker("w", report_threshold=0)

    def test_record_and_threshold_trigger(self):
        tracker = CompletionTracker("w", report_threshold=3)
        tracker.record_completed(ROOT.child(0, 0).child(1, 0), now=0.0)
        tracker.record_completed(ROOT.child(0, 0).child(1, 1), now=0.1)
        assert not tracker.should_send_report(now=0.1)
        tracker.record_completed(ROOT.child(0, 1).child(2, 0), now=0.2)
        assert tracker.should_send_report(now=0.2)

    def test_staleness_trigger(self):
        tracker = CompletionTracker("w", report_threshold=100, report_staleness=1.0)
        tracker.record_completed(ROOT.child(0, 0), now=0.0)
        assert not tracker.should_send_report(now=0.5)
        assert tracker.should_send_report(now=1.5)

    def test_no_report_when_nothing_pending(self):
        tracker = CompletionTracker("w", report_threshold=1, report_staleness=0.1)
        assert not tracker.should_send_report(now=100.0)

    def test_build_report_clears_pending_and_compresses(self):
        tracker = CompletionTracker("w", report_threshold=2)
        tracker.record_completed(ROOT.child(0, 0), now=0.0)
        tracker.record_completed(ROOT.child(0, 1), now=0.0)
        report = tracker.build_report(now=0.0)
        assert report.codes == frozenset({ROOT})
        assert tracker.pending_report_size == 0

    def test_build_report_uncompressed(self):
        tracker = CompletionTracker("w", report_threshold=2)
        tracker.record_completed(ROOT.child(0, 0), now=0.0)
        tracker.record_completed(ROOT.child(0, 1), now=0.0)
        report = tracker.build_report(now=0.0, compress=False)
        assert report.codes == frozenset({ROOT.child(0, 0), ROOT.child(0, 1)})

    def test_merge_report_updates_table_and_counters(self):
        tracker = CompletionTracker("w")
        report = WorkReport.build("peer", [ROOT.child(0, 0)])
        assert tracker.merge_report(report) is True
        assert tracker.merge_report(report) is False
        assert tracker.codes_received == 2
        assert tracker.redundant_codes_received == 1
        assert tracker.table.covers(ROOT.child(0, 0).child(1, 1))

    def test_merge_snapshot(self):
        tracker = CompletionTracker("w")
        snapshot = CompletedTableSnapshot("peer", frozenset({ROOT.child(0, 1)}))
        assert tracker.merge_snapshot(snapshot)
        assert tracker.table.covers(ROOT.child(0, 1))

    def test_is_tree_complete_via_local_and_remote(self):
        tracker = CompletionTracker("w", report_threshold=10)
        tracker.record_completed(ROOT.child(0, 0), now=0.0)
        assert not tracker.is_tree_complete()
        tracker.merge_report(WorkReport.build("peer", [ROOT.child(0, 1)]))
        assert tracker.is_tree_complete()

    def test_missing_subtrees_and_recovery_choice(self):
        tracker = CompletionTracker("w")
        tracker.record_completed(ROOT.child(0, 0).child(1, 0), now=0.0)
        missing = tracker.missing_subtrees()
        assert ROOT.child(0, 1) in missing
        choice = tracker.choose_recovery_problem()
        assert choice in missing
        tracker.table.add(ROOT)
        assert tracker.choose_recovery_problem() is None

    def test_storage_accounting(self):
        tracker = CompletionTracker("w")
        assert tracker.storage_bytes() == 0
        tracker.record_completed(ROOT.child(0, 0), now=0.0)
        local_only = tracker.storage_bytes()
        assert local_only > 0
        assert tracker.remote_information_share() == 0.0
        tracker.merge_report(WorkReport.build("peer", [ROOT.child(5, 1)]))
        assert tracker.remote_information_share() > 0.0

    def test_last_completed_is_tracked(self):
        tracker = CompletionTracker("w")
        code = ROOT.child(0, 0)
        tracker.record_completed(code, now=1.0)
        assert tracker.last_completed == code
        assert tracker.codes_completed_locally == 1

    def test_record_completed_many(self):
        tracker = CompletionTracker("w")
        tracker.record_completed_many([ROOT.child(0, 0), ROOT.child(0, 1)], now=0.0)
        assert tracker.is_tree_complete()
