"""The pool of active subproblems and its selection rules.

Section 2 of the paper: the *select* operator picks which active subproblem to
branch next according to a heuristic priority — best-first (by bound),
depth-first, or breadth-first.  The pool is also where the load-balancing
mechanism takes work from: a process that receives a work request "removes
some of those problems and sends them to the requester".

:class:`SubproblemPool` implements the three classic rules with a single
priority heap, plus the donation rule used by the distributed algorithm
(:meth:`SubproblemPool.take_donation`: which subproblems to give away, and
how many) and the push rule (:meth:`SubproblemPool.take_push`: what to give
a peer heard starving, unasked), shared by the simulated worker and the
real-process worker.

Performance invariants
----------------------
Donation used to rebuild the whole heap (sort + filter + ``heapify``) on
every work grant, which made load balancing O(n log n) per request on
donation-heavy runs.  The pool now uses the same lazy-deletion scheme as the
simulation engine's cancelled-event handling: donated entries stay in the
heap but their tie-break counters are recorded in a tombstone set, every
consumer skips tombstoned entries, and the heap is compacted in one O(n)
pass only when tombstones outnumber live entries.  ``lazy_removed_total``
and ``compactions`` count the scheme's activity for the stats readers.
"""

from __future__ import annotations

import heapq
import itertools
from enum import Enum
from typing import Generic, Iterator, List, Optional, Set, Tuple, TypeVar

from .problem import Subproblem

__all__ = ["SelectionRule", "SubproblemPool"]

StateT = TypeVar("StateT")

#: Compact the heap when tombstones exceed live entries and at least this
#: many have accumulated (small pools are cheaper to skip through than to
#: rebuild).
_MIN_COMPACT_TOMBSTONES = 16

#: Most subproblems one work grant carries (:meth:`SubproblemPool.take_donation`).
DONATION_MAX = 4


class SelectionRule(str, Enum):
    """Which active subproblem the *select* operator picks next.

    * ``BEST_FIRST`` — smallest bound first (for minimisation; the pool is
      told the sense).  Tends to expand few nodes but keeps a large pool.
    * ``DEPTH_FIRST`` — deepest node first; small pool, finds incumbents fast.
    * ``BREADTH_FIRST`` — shallowest node first; mainly useful for tests and
      for generating well-balanced donations.
    """

    BEST_FIRST = "best_first"
    DEPTH_FIRST = "depth_first"
    BREADTH_FIRST = "breadth_first"


class SubproblemPool(Generic[StateT]):
    """Priority pool of active subproblems.

    Parameters
    ----------
    rule:
        Selection rule for :meth:`pop`.
    minimize:
        Optimisation sense; only affects :attr:`SelectionRule.BEST_FIRST`
        (a maximisation problem wants the *largest* bound first).
    """

    def __init__(
        self,
        rule: SelectionRule = SelectionRule.DEPTH_FIRST,
        *,
        minimize: bool = True,
    ) -> None:
        self.rule = rule
        self.minimize = minimize
        self._heap: List[Tuple[float, int, Subproblem[StateT]]] = []
        self._counter = itertools.count()
        #: Tie-break counters of entries donated away but still in the heap.
        self._tombstones: Set[int] = set()
        #: Total subproblems ever inserted (metrics).
        self.total_inserted = 0
        #: High-water mark of the pool size (storage metrics).
        self.max_size = 0
        #: Entries lazily removed by donation (stat counter).
        self.lazy_removed_total = 0
        #: Number of tombstone-triggered heap compactions (stat counter).
        self.compactions = 0
        #: Running sum of the live codes' wire sizes (:meth:`storage_bytes`).
        self._wire_bytes = 0

    # ------------------------------------------------------------------ #
    # Priority computation
    # ------------------------------------------------------------------ #
    def _priority(self, sub: Subproblem[StateT], bound: Optional[float]) -> float:
        if self.rule == SelectionRule.DEPTH_FIRST:
            return -float(sub.depth)
        if self.rule == SelectionRule.BREADTH_FIRST:
            return float(sub.depth)
        if self.rule == SelectionRule.BEST_FIRST:
            if bound is None:
                raise ValueError("best-first selection requires a bound for every push")
            return bound if self.minimize else -bound
        raise ValueError(f"unknown selection rule: {self.rule!r}")

    # ------------------------------------------------------------------ #
    # Lazy-deletion plumbing
    # ------------------------------------------------------------------ #
    def _live_entries(self) -> Iterator[Tuple[float, int, Subproblem[StateT]]]:
        """Heap entries that have not been tombstoned (arbitrary order)."""
        tombstones = self._tombstones
        if not tombstones:
            return iter(self._heap)
        return (entry for entry in self._heap if entry[1] not in tombstones)

    def _maybe_compact(self) -> None:
        """Rebuild the heap without tombstones once they dominate it."""
        tombstones = self._tombstones
        if len(tombstones) < _MIN_COMPACT_TOMBSTONES:
            return
        if len(tombstones) * 2 <= len(self._heap):
            return
        self._heap = [entry for entry in self._heap if entry[1] not in tombstones]
        heapq.heapify(self._heap)
        tombstones.clear()
        self.compactions += 1

    # ------------------------------------------------------------------ #
    # Basic operations
    # ------------------------------------------------------------------ #
    def push(self, sub: Subproblem[StateT], *, bound: Optional[float] = None) -> None:
        """Insert an active subproblem (``bound`` required for best-first)."""
        priority = self._priority(sub, bound)
        heapq.heappush(self._heap, (priority, next(self._counter), sub))
        self._wire_bytes += sub.code.wire_size()
        self.total_inserted += 1
        size = len(self._heap) - len(self._tombstones)
        if size > self.max_size:
            self.max_size = size

    def pop(self) -> Subproblem[StateT]:
        """Remove and return the next subproblem according to the rule."""
        heap = self._heap
        tombstones = self._tombstones
        while heap:
            _prio, tie, sub = heapq.heappop(heap)
            if tie in tombstones:
                tombstones.discard(tie)
                continue
            self._wire_bytes -= sub.code.wire_size()
            return sub
        raise IndexError("pop from an empty subproblem pool")

    def peek(self) -> Subproblem[StateT]:
        """Return (without removing) the next subproblem."""
        heap = self._heap
        tombstones = self._tombstones
        while heap and heap[0][1] in tombstones:
            tombstones.discard(heapq.heappop(heap)[1])
        if not heap:
            raise IndexError("peek at an empty subproblem pool")
        return heap[0][2]

    def __len__(self) -> int:
        return len(self._heap) - len(self._tombstones)

    def __bool__(self) -> bool:
        return len(self._heap) > len(self._tombstones)

    def __iter__(self) -> Iterator[Subproblem[StateT]]:
        return (entry[2] for entry in self._live_entries())

    def clear(self) -> None:
        """Drop every active subproblem (used on termination)."""
        self._heap.clear()
        self._tombstones.clear()
        self._wire_bytes = 0

    # ------------------------------------------------------------------ #
    # Work donation (load balancing)
    # ------------------------------------------------------------------ #
    def can_donate(self, *, keep_at_least: int = 1) -> bool:
        """True when the pool is large enough to give work away.

        The paper: "a process that receives a work request and has *enough*
        problems in its pool removes some of those problems and sends them to
        the requester."  ``keep_at_least`` is that "enough" threshold.
        """
        return len(self) > keep_at_least

    def take_for_donation(
        self, *, max_count: int = 1, keep_at_least: int = 1
    ) -> List[Subproblem[StateT]]:
        """Remove up to ``max_count`` subproblems to send to a requester.

        The shallowest subproblems go, because they represent larger chunks
        of work, which keeps load-balancing traffic low — the standard
        work-stealing heuristic for tree search.

        The donated entries are tombstoned rather than filtered out of the
        heap, so a donation costs one O(n) selection scan instead of a full
        heap rebuild; the heap itself is compacted lazily.
        """
        available = len(self) - keep_at_least
        count = max(0, min(max_count, available))
        if count == 0:
            return []
        chosen = heapq.nsmallest(
            count, self._live_entries(), key=lambda entry: (entry[2].depth, entry[1])
        )
        tombstones = self._tombstones
        for entry in chosen:
            tombstones.add(entry[1])
            self._wire_bytes -= entry[2].code.wire_size()
        self.lazy_removed_total += len(chosen)
        self._maybe_compact()
        return [entry[2] for entry in chosen]

    def take_donation(self) -> List[Subproblem[StateT]]:
        """The donation rule: what a worker gives a requester (maybe nothing).

        A pool of at least two subproblems gives ``max(1, len // 2)`` of
        them, at most :data:`DONATION_MAX`, shallowest first, and so always
        keeps one; a smaller pool gives nothing (the caller denies).
        Keeping one rather than two lets a worker fed a single subproblem
        pass work on after one node time, so the busy set doubles per node
        time during ramp-up instead of growing ×1.62.
        """
        count = min(DONATION_MAX, max(1, len(self) // 2))
        return self.take_for_donation(max_count=count, keep_at_least=1)

    def take_push(self) -> Optional[Subproblem[StateT]]:
        """The push rule: what a worker gives a peer it heard starving unasked.

        The shallowest subproblem, from a pool of at least two (it keeps
        the rest); ``None`` from a smaller pool.  One, not
        :meth:`take_donation`'s half: a donor pushes to every fresh starved
        peer in turn, and half-pool pushes read no faster on the Table 1
        tree while costing 7–21 % more bytes on the 8-worker runs.
        """
        taken = self.take_for_donation(max_count=1, keep_at_least=1)
        return taken[0] if taken else None

    def drain(self) -> List[Subproblem[StateT]]:
        """Remove and return every subproblem (used by failing processes in tests)."""
        subs = [entry[2] for entry in self._live_entries()]
        self.clear()
        return subs

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def codes(self) -> List:
        """Codes of every active subproblem (tracing / tests)."""
        return [entry[2].code for entry in self._live_entries()]

    def storage_bytes(self) -> int:
        """Rough byte estimate of the pooled codes (storage metric): the sum
        of their wire sizes, kept as a running total so the per-expansion
        storage update costs O(1)."""
        return self._wire_bytes
