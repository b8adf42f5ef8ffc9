"""Tests for the recovery policy and termination detection."""

import random

import pytest

from repro.core.completion import CompletionTracker
from repro.core.encoding import ROOT, PathCode
from repro.core.recovery import RecoveryPolicy
from repro.core.termination import TerminationDetector, is_root_report, make_root_report
from repro.core.work_report import BestSolution, WorkReport


class TestRecoveryPolicy:
    def test_requires_positive_threshold(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(failed_request_threshold=0)

    def test_no_recovery_before_threshold(self):
        tracker = CompletionTracker("w")
        tracker.record_completed(ROOT.child(0, 0), now=0.0)
        policy = RecoveryPolicy(failed_request_threshold=3)
        policy.note_request_failed(1.0)
        policy.note_request_failed(1.5)
        decision = policy.evaluate(tracker, 2.0)
        assert decision.code is None
        assert decision.reason == "not-starved"

    def test_recovery_after_threshold(self):
        tracker = CompletionTracker("w")
        tracker.record_completed(ROOT.child(0, 0), now=0.0)
        policy = RecoveryPolicy(failed_request_threshold=2)
        policy.note_request_failed(1.0)
        policy.note_request_failed(1.2)
        decision = policy.evaluate(tracker, 1.5)
        assert decision.code is not None
        assert decision.reason == "starvation"
        assert not tracker.table.covers(decision.code)

    def test_obtaining_work_resets_failures(self):
        policy = RecoveryPolicy(failed_request_threshold=2)
        policy.note_request_failed(1.0)
        policy.note_work_obtained()
        assert policy.consecutive_failures == 0
        assert not policy.should_suspect_loss(2.0)

    def test_idle_time_threshold(self):
        tracker = CompletionTracker("w")
        tracker.record_completed(ROOT.child(0, 0), now=0.0)
        policy = RecoveryPolicy(failed_request_threshold=1, idle_time_threshold=5.0)
        policy.note_request_failed(1.0)
        assert policy.evaluate(tracker, 2.0).code is None
        assert policy.evaluate(tracker, 7.0).code is not None

    def test_progress_restarts_the_starvation_clock(self):
        tracker = CompletionTracker("w")
        tracker.record_completed(ROOT.child(0, 0), now=0.0)
        policy = RecoveryPolicy(failed_request_threshold=2, idle_time_threshold=5.0)
        policy.note_progress(0.5)  # news before starvation starts nothing
        policy.note_request_failed(1.0)
        policy.note_request_failed(1.5)
        policy.note_progress(4.0)  # the table learned a code: not stalled
        assert policy.consecutive_failures == 2
        assert policy.evaluate(tracker, 7.0).reason == "not-starved"
        # No further news: loss is suspected once the clock runs out again.
        assert policy.evaluate(tracker, 8.9).code is None
        assert policy.evaluate(tracker, 9.0).code is not None

    def test_tree_complete_means_no_recovery(self):
        tracker = CompletionTracker("w")
        tracker.record_completed(ROOT, now=0.0)
        policy = RecoveryPolicy(failed_request_threshold=1)
        policy.note_request_failed(1.0)
        decision = policy.evaluate(tracker, 2.0)
        assert decision.code is None
        assert decision.reason == "tree-complete"

    def test_active_recoveries_are_excluded(self):
        tracker = CompletionTracker("w")
        tracker.record_completed(ROOT.child(0, 0), now=0.0)
        policy = RecoveryPolicy(failed_request_threshold=1)
        policy.note_request_failed(1.0)
        first = policy.evaluate(tracker, 2.0).code
        policy.note_recovery_started(first)
        # Starting recovery resets starvation; fail again to re-trigger.
        policy.note_request_failed(3.0)
        second = policy.evaluate(tracker, 4.0).code
        assert second is None or second != first

    def test_abort_and_finish_bookkeeping(self):
        tracker = CompletionTracker("w")
        tracker.record_completed(ROOT.child(0, 0), now=0.0)
        policy = RecoveryPolicy(failed_request_threshold=1)
        policy.note_request_failed(1.0)
        code = policy.evaluate(tracker, 2.0).code
        policy.note_recovery_started(code)
        assert code in policy.active_recoveries
        assert not policy.should_abort(tracker, code)
        tracker.merge_report(WorkReport.build("peer", [code]))
        assert policy.should_abort(tracker, code)
        policy.note_recovery_aborted(code, time_spent=0.5)
        assert code not in policy.active_recoveries
        assert policy.stats.aborted_recoveries == 1
        assert policy.stats.redundant_time == pytest.approx(0.5)

    def test_forget_lost_recoveries_reoffers_uncovered_subtrees(self):
        # The recovered subtree's half went to a peer that died: with the
        # pool empty, the uncovered recovery is forgotten and the missing
        # half becomes a candidate again; a covered one is left alone.
        tracker = CompletionTracker("w")
        lost, done = ROOT.child(0, 1), ROOT.child(0, 0)
        tracker.record_completed(done, now=0.0)
        tracker.record_completed(lost.child(1, 0), now=0.0)
        policy = RecoveryPolicy(failed_request_threshold=1)
        policy.active_recoveries.update({lost, done})
        policy.note_request_failed(1.0)
        assert policy.evaluate(tracker, 2.0).code is None  # excluded
        policy.forget_lost_recoveries(tracker)
        assert policy.active_recoveries == {done}
        assert policy.evaluate(tracker, 2.0).code == lost.child(1, 1)

    def test_random_pick_is_reproducible(self):
        tracker = CompletionTracker("w")
        # Three missing siblings to draw from: 0:1, 0:0/1:1, 0:0/1:0/2:1.
        tracker.record_completed(ROOT.child(0, 0).child(1, 0).child(2, 0), now=0.0)

        def picks(**rng):
            policy = RecoveryPolicy(failed_request_threshold=1, **rng)
            codes = []
            for attempt in range(8):
                policy.note_request_failed(float(attempt))
                codes.append(policy.evaluate(tracker, float(attempt)).code)
                policy.note_work_obtained()
            return codes

        assert picks(rng=random.Random(7)) == picks(rng=random.Random(7))
        # No stream given: the policy seeds its own, not the global one.
        random.seed(1)
        first = picks()
        assert len(set(first)) > 1  # the draws do vary
        random.seed(2)
        assert picks() == first

    def test_finish_redundant_recovery(self):
        policy = RecoveryPolicy()
        code = ROOT.child(0, 1)
        policy.note_recovery_started(code)
        policy.note_recovery_finished(code, redundant=True, time_spent=1.0)
        assert policy.stats.redundant_recoveries == 1
        stats = policy.stats.as_dict()
        assert stats["activations"] == 1


class TestTermination:
    def test_root_report_helpers(self):
        report = make_root_report("w", best=BestSolution(4.0))
        assert is_root_report(report)
        assert not is_root_report(WorkReport.build("w", [ROOT.child(0, 0)]))

    def test_local_detection(self):
        tracker = CompletionTracker("w")
        detector = TerminationDetector(tracker)
        assert not detector.terminated
        tracker.record_completed(ROOT.child(0, 0), now=0.0)
        assert detector.check_local(1.0) is False
        tracker.record_completed(ROOT.child(0, 1), now=1.5)
        assert detector.check_local(2.0) is True
        assert detector.terminated
        assert detector.detected_via == "local"
        assert detector.detected_at == 2.0
        # Only the first detection returns True.
        assert detector.check_local(3.0) is False

    def test_detection_via_root_report(self):
        tracker = CompletionTracker("w")
        detector = TerminationDetector(tracker)
        newly = detector.observe_report(make_root_report("peer"), now=5.0)
        assert newly
        assert detector.detected_via == "root_report"
        assert tracker.is_tree_complete()
        assert not detector.needs_root_broadcast()

    def test_detection_via_ordinary_report(self):
        tracker = CompletionTracker("w")
        tracker.record_completed(ROOT.child(0, 0), now=0.0)
        detector = TerminationDetector(tracker)
        report = WorkReport.build("peer", [ROOT.child(0, 1)])
        # The caller (the worker) merges the report into its table first and
        # then lets the detector re-evaluate it.
        tracker.merge_report(report)
        assert detector.observe_report(report, now=2.0)
        assert detector.detected_via == "local"
        assert detector.needs_root_broadcast()
        detector.mark_root_broadcast_sent()
        assert not detector.needs_root_broadcast()

    def test_duplicate_root_reports_do_not_re_trigger(self):
        tracker = CompletionTracker("w")
        detector = TerminationDetector(tracker)
        assert detector.observe_report(make_root_report("a"), now=1.0)
        assert not detector.observe_report(make_root_report("b"), now=2.0)
        assert detector.detected_at == 1.0
