"""Failure-recovery policy: deciding *when* to regenerate lost work.

The mechanism in the paper never detects failures directly.  Instead, a
process suspects that work has been lost when it is starved: its local pool is
empty and one or more attempts to obtain work through the load-balancing
mechanism have failed (requests denied or unanswered).  At that point it
complements its completed-code table, picks an uncompleted subtree, recreates
the corresponding subproblem from its self-contained code, and solves it
(Section 5.3.2).

Starvation alone is weak evidence when many processes are idle at once: with
100 workers sharing a 1,001-node tree most of them are starved most of the
time while the computation is perfectly healthy.  So this policy suspects
loss only when *progress has stalled*: the failed-request threshold must be
met, and the process must have been starved for ``idle_time_threshold``
without its table learning anything new.  Every merge that teaches the table
a code it did not cover restarts that clock (:meth:`RecoveryPolicy.note_progress`);
a process that keeps hearing of completions elsewhere is watching the tree
shrink, not a lost subproblem.  After a real loss the news stops once the
survivors finish what they hold, and the clock then runs out as before.

Suspecting loss still trades redundant work for simplicity: a slow work
report, a lost message, or a temporarily partitioned network can make a
healthy subproblem look lost.  The paper identifies two mitigations, both
implemented here:

* interrupting redundant recovery work when a later report shows the subtree
  is already completed (handled by the worker, using
  :meth:`RecoveryPolicy.should_abort`); and
* smarter candidate selection (the strategies in
  :mod:`repro.core.complement`; the policy draws at random, so two starved
  processes rarely regenerate the same subtree).

:class:`RecoveryPolicy` encapsulates the thresholds and bookkeeping;
:class:`RecoveryStats` accumulates the redundant-work accounting reported by
the benchmarks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Set

from .completion import CompletionTracker
from .complement import SelectionStrategy
from .encoding import PathCode

__all__ = ["RecoveryPolicy", "RecoveryStats", "RecoveryDecision"]


@dataclass
class RecoveryStats:
    """Counters describing recovery activity on one process."""

    #: Number of times recovery was triggered (a candidate was regenerated).
    activations: int = 0
    #: Number of recovery candidates that later turned out to be already
    #: completed elsewhere (pure redundant work).
    redundant_recoveries: int = 0
    #: Number of recovery subproblems aborted early because a report arrived
    #: showing them completed.
    aborted_recoveries: int = 0
    #: Simulated time spent on work that was later found redundant.
    redundant_time: float = 0.0
    #: Codes regenerated by this process, for tracing.
    regenerated: List[PathCode] = field(default_factory=list)

    def as_dict(self) -> dict:
        """Plain-dictionary view used by the run statistics."""
        return {
            "activations": self.activations,
            "redundant_recoveries": self.redundant_recoveries,
            "aborted_recoveries": self.aborted_recoveries,
            "redundant_time": self.redundant_time,
        }


@dataclass(frozen=True, slots=True)
class RecoveryDecision:
    """Outcome of a recovery evaluation.

    ``code`` is the subproblem to regenerate (``None`` when recovery should
    not run), and ``reason`` explains why — useful in traces and tests.
    """

    code: Optional[PathCode]
    reason: str


class RecoveryPolicy:
    """Decides when starvation justifies regenerating uncompleted work.

    Parameters
    ----------
    failed_request_threshold:
        Number of consecutive unsuccessful load-balancing attempts (denied or
        timed-out work requests) after which loss is suspected.  The paper
        notes this is the main knob trading recovery latency against redundant
        work ("how soon failure is suspected after a machine unsuccessfully
        tries to get work").
    idle_time_threshold:
        Optional additional condition: minimum simulated time the process must
        have been starved, with no news (see :meth:`note_progress`), before
        recovery may run.  ``None`` disables it.
    strategy:
        Candidate-selection strategy (see :class:`SelectionStrategy`).  The
        default draws at random from ``rng``: a deterministic pick such as
        ``DEEPEST`` sends every starved process that holds the same table
        after the *same* missing subtree, so they all starve again together.
    rng:
        The process's seeded random stream.  The candidate draw must be
        reproducible, so without one the policy seeds its own with 0; pass
        each process its own stream, or they all draw alike.
    """

    def __init__(
        self,
        *,
        failed_request_threshold: int = 2,
        idle_time_threshold: Optional[float] = None,
        strategy: SelectionStrategy = SelectionStrategy.RANDOM,
        rng: Optional[random.Random] = None,
    ) -> None:
        if failed_request_threshold < 1:
            raise ValueError("failed_request_threshold must be at least 1")
        self.failed_request_threshold = failed_request_threshold
        self.idle_time_threshold = idle_time_threshold
        self.strategy = strategy
        self._rng = rng if rng is not None else random.Random(0)
        self.stats = RecoveryStats()

        self._consecutive_failures = 0
        self._starved_since: Optional[float] = None
        #: Recovery subproblems this process is currently (re)solving.
        self.active_recoveries: Set[PathCode] = set()

    # ------------------------------------------------------------------ #
    # Starvation signals (fed by the worker / load balancer)
    # ------------------------------------------------------------------ #
    def note_work_obtained(self) -> None:
        """The process obtained work (locally or via load balancing)."""
        self._consecutive_failures = 0
        self._starved_since = None

    def note_request_failed(self, now: float) -> None:
        """A work request was denied or timed out while the pool was empty."""
        self._consecutive_failures += 1
        if self._starved_since is None:
            self._starved_since = now

    def note_progress(self, now: float) -> None:
        """The table learned a code it did not cover: progress has not stalled.

        Restarts the starvation clock behind ``idle_time_threshold`` (when it
        is running); the failed-request count is left alone.
        """
        if self._starved_since is not None:
            self._starved_since = now

    @property
    def consecutive_failures(self) -> int:
        """Current run of unsuccessful load-balancing attempts."""
        return self._consecutive_failures

    # ------------------------------------------------------------------ #
    # Recovery decision
    # ------------------------------------------------------------------ #
    def should_suspect_loss(self, now: float) -> bool:
        """Apply the starvation thresholds."""
        if self._consecutive_failures < self.failed_request_threshold:
            return False
        if self.idle_time_threshold is not None:
            if self._starved_since is None:
                return False
            if (now - self._starved_since) < self.idle_time_threshold:
                return False
        return True

    def evaluate(self, tracker: CompletionTracker, now: float) -> RecoveryDecision:
        """Decide whether (and what) to recover.

        The caller is responsible for actually regenerating the subproblem and
        for calling :meth:`note_recovery_started`.

        Cost note: candidate selection reads the tracker's missing frontier,
        memoised per table state
        (:meth:`repro.core.codeset.CodeSet.missing_frontier`), so repeated
        evaluations against an unchanged table are O(1) — evaluating often
        (every idle poll) is cheap by design.
        """
        if tracker.is_tree_complete():
            return RecoveryDecision(None, "tree-complete")
        if not self.should_suspect_loss(now):
            return RecoveryDecision(None, "not-starved")
        candidate = tracker.choose_recovery_problem(
            strategy=self.strategy,
            rng=self._rng,
            exclude=self.active_recoveries,
        )
        if candidate is None:
            return RecoveryDecision(None, "no-candidate")
        return RecoveryDecision(candidate, "starvation")

    def note_recovery_started(self, code: PathCode) -> None:
        """Record that the process began solving a regenerated subproblem."""
        self.stats.activations += 1
        self.stats.regenerated.append(code)
        self.active_recoveries.add(code)
        # Starting recovery resets the starvation counters: the process is
        # busy again and will make fresh load-balancing attempts when the
        # recovered subtree is exhausted.
        self.note_work_obtained()

    def note_recovery_finished(self, code: PathCode, *, redundant: bool, time_spent: float = 0.0) -> None:
        """Record the completion (or abandonment) of a recovery subproblem."""
        self.active_recoveries.discard(code)
        if redundant:
            self.stats.redundant_recoveries += 1
            self.stats.redundant_time += time_spent

    def should_abort(self, tracker: CompletionTracker, code: PathCode) -> bool:
        """True when a recovery subproblem is now known completed elsewhere.

        Workers call this when fresh reports arrive; aborting immediately is
        the paper's fix for "the lag in updating information can lead to
        faulty presumptions on failure".
        """
        if code in self.active_recoveries and tracker.table.covers(code):
            return True
        return False

    def forget_lost_recoveries(self, tracker: CompletionTracker) -> None:
        """Forget active recoveries whose subtree is still uncovered.

        Call with an empty pool: nothing is in progress any more, so such a
        subtree was lost again (donated or pushed to a peer that crashed,
        or shipped in a grant the network dropped).  Left active, it would
        stay excluded from :meth:`evaluate` and block the last missing
        piece forever.
        """
        covers = tracker.table.covers
        for code in list(self.active_recoveries):
            if not covers(code):
                self.active_recoveries.discard(code)

    def note_recovery_aborted(self, code: PathCode, *, time_spent: float = 0.0) -> None:
        """Record an aborted recovery (information arrived late)."""
        self.active_recoveries.discard(code)
        self.stats.aborted_recoveries += 1
        self.stats.redundant_time += time_spent

    def __repr__(self) -> str:  # pragma: no cover - repr formatting only
        return (
            f"RecoveryPolicy(threshold={self.failed_request_threshold}, "
            f"strategy={self.strategy.value}, failures={self._consecutive_failures})"
        )
