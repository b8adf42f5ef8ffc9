"""Almost-implicit termination detection (Section 5.4 of the paper).

The same tree encoding that drives failure recovery also solves termination
detection: when successive contractions of a process's completed-code table
produce the code of the **root** problem, every subproblem of the tree has
been completed and the computation is over.

Because the epidemic dissemination of work reports guarantees only *eventual*
consistency, some members may lack the information needed to reach the root
code on their own.  The paper therefore adds one final step: each member that
detects termination sends one last work report containing just the root code
to **all** members in its local membership view, so that everybody terminates
promptly instead of waiting for gossip to catch up (or worse, starting useless
recovery work).

:class:`TerminationDetector` packages this rule: it watches a
:class:`~repro.core.completion.CompletionTracker`, reports the transition into
the terminated state exactly once, and knows whether the local process still
owes the final root broadcast.
"""

from __future__ import annotations

from typing import Optional

from .codeset import CodeSet
from .completion import CompletionTracker
from .encoding import ROOT, PathCode
from .work_report import BestSolution, WorkReport

__all__ = ["TerminationDetector", "is_root_report", "make_root_report"]


def is_root_report(report: WorkReport) -> bool:
    """True when a received work report announces global termination."""
    return report.contains_root()


#: The root code alone.  Its node is the ``DONE`` sentinel, which means the
#: same in every arena, so every receiver merges it by reference.
_ROOT_CODES = CodeSet([ROOT])


def make_root_report(sender: str, *, best: Optional[BestSolution] = None, sequence: int = 0) -> WorkReport:
    """Build the final root-code work report a terminating member broadcasts."""
    return WorkReport(
        sender=sender,
        codes=_ROOT_CODES,
        best=best if best is not None else BestSolution(),
        sequence=sequence,
    )


class TerminationDetector:
    """Tracks the local view of global termination for one process.

    The detector distinguishes three ways a process can learn that the
    computation is over:

    * ``"local"`` — its own table contracted to the root code;
    * ``"root_report"`` — it received another member's final root report;
    * ``None`` — termination not yet detected.
    """

    def __init__(self, tracker: CompletionTracker) -> None:
        self._tracker = tracker
        self._detected_at: Optional[float] = None
        self._detected_via: Optional[str] = None
        self._root_broadcast_done = False

    # ------------------------------------------------------------------ #
    # State transitions
    # ------------------------------------------------------------------ #
    def check_local(self, now: float) -> bool:
        """Re-evaluate the local table; returns ``True`` on the first detection."""
        if self._detected_at is not None:
            return False
        if self._tracker.is_tree_complete():
            self._detected_at = now
            self._detected_via = "local"
            return True
        return False

    def observe_report(self, report: WorkReport, now: float) -> bool:
        """Process a received report; returns ``True`` on the first detection.

        A root report short-circuits detection.  Any other report is assumed
        to have already been merged into the tracker by the caller (the worker
        merges before notifying the detector); the detector then simply
        re-checks whether the table has contracted to the root.
        """
        if is_root_report(report):
            self._tracker.table.add(ROOT)
            if self._detected_at is None:
                self._detected_at = now
                self._detected_via = "root_report"
                return True
            return False
        return self.check_local(now)

    def mark_root_broadcast_sent(self) -> None:
        """Record that this process has sent its final root report."""
        self._root_broadcast_done = True

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def terminated(self) -> bool:
        """True once termination has been detected by any means."""
        return self._detected_at is not None

    @property
    def detected_at(self) -> Optional[float]:
        """Simulated time of the first detection, or ``None``."""
        return self._detected_at

    @property
    def detected_via(self) -> Optional[str]:
        """How termination was detected: ``"local"``, ``"root_report"`` or ``None``."""
        return self._detected_via

    def needs_root_broadcast(self) -> bool:
        """True when the final root report still has to be sent.

        Only members that detected termination *locally* owe the broadcast —
        a member woken up by someone else's root report does not need to
        re-broadcast (the paper's rule: "each member that detected the
        termination will have to send one more work report ... to all members
        from its local membership list").
        """
        return (
            self._detected_at is not None
            and self._detected_via == "local"
            and not self._root_broadcast_done
        )

    def __repr__(self) -> str:  # pragma: no cover - repr formatting only
        return (
            f"TerminationDetector(terminated={self.terminated}, via={self._detected_via}, "
            f"at={self._detected_at})"
        )
