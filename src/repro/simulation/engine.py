"""Discrete-event simulation engine.

The paper evaluates its algorithm with Parsec, a C-based discrete-event
simulation language in which "processes are modeled by objects; interactions
among objects are modeled by time stamped message exchanges".  This module is
the Python equivalent: a deterministic event heap with a logical clock,
cancellable events and stop conditions.  Entities (logical processes) live in
:mod:`repro.simulation.entity`; the network latency model in
:mod:`repro.simulation.network` turns message sends into future delivery
events on this engine.

Determinism
-----------
Runs must be exactly reproducible for a given configuration and seed, so the
engine breaks ties between simultaneous events by an insertion sequence
number, never by object identity or hash order.

Performance invariants
----------------------
The heap holds plain ``(time, sequence, record)`` tuples, so every sift
comparison is a C-level tuple compare on a float and an int — no dataclass
``__lt__`` dispatch.  The event record itself is a tiny ``__slots__`` object
carrying the callback and cancellation flag.  :meth:`SimulationEngine.run`
hoists its hot attribute lookups into locals, and automatically compacts the
heap in place when cancelled events exceed half of it (counted in
:attr:`SimulationEngine.compactions`), which bounds memory on long runs with
heavy timer churn without any manual :meth:`drain_cancelled` calls.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

__all__ = ["EventHandle", "SimulationEngine", "SimulationError"]

#: Auto-compaction only considers heaps at least this large; below it the
#: rebuild costs more than the garbage it reclaims.
_COMPACT_MIN_HEAP = 64


class SimulationError(RuntimeError):
    """Raised for invalid engine usage (scheduling in the past, re-running…)."""


class _EventRecord:
    """Mutable per-event state referenced from the heap tuple."""

    __slots__ = ("time", "callback", "label", "cancelled", "fired")

    def __init__(self, time: float, callback: Callable[[], None], label: str) -> None:
        self.time = time
        self.callback = callback
        self.label = label
        self.cancelled = False
        self.fired = False


#: A heap entry: comparison never reaches the record because the sequence
#: number is unique.
_HeapEntry = Tuple[float, int, _EventRecord]


class EventHandle:
    """Handle returned by :meth:`SimulationEngine.schedule`; allows cancellation."""

    __slots__ = ("_engine", "_event")

    def __init__(self, engine: "SimulationEngine", event: _EventRecord) -> None:
        self._engine = engine
        self._event = event

    def cancel(self) -> None:
        """Cancel the event if it has not fired yet (idempotent)."""
        event = self._event
        if not event.cancelled:
            event.cancelled = True
            if not event.fired:
                # Track in-heap garbage so the engine can auto-compact.
                self._engine._cancelled_in_heap += 1

    @property
    def cancelled(self) -> bool:
        """True when the event was cancelled."""
        return self._event.cancelled

    @property
    def time(self) -> float:
        """Simulated time at which the event is (was) scheduled."""
        return self._event.time

    @property
    def label(self) -> str:
        """Optional diagnostic label."""
        return self._event.label


class SimulationEngine:
    """A minimal, deterministic discrete-event simulator.

    Typical usage::

        engine = SimulationEngine()
        engine.schedule(1.5, lambda: print("fires at t=1.5"))
        engine.run()
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[_HeapEntry] = []
        self._sequence = 0
        self._cancelled_in_heap = 0
        self._running = False
        self._stop_requested = False
        #: Total events executed (not counting cancelled ones).
        self.events_processed = 0
        #: High-water mark of the event heap (including cancelled entries).
        self.peak_heap_len = 0
        #: Number of heap compactions performed (automatic or explicit).
        self.compactions = 0

    # ------------------------------------------------------------------ #
    # Clock
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def schedule(self, delay: float, callback: Callable[[], None], *, label: str = "") -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, label=label)

    def schedule_at(self, time: float, callback: Callable[[], None], *, label: str = "") -> EventHandle:
        """Schedule ``callback`` at an absolute simulated time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        event = _EventRecord(time, callback, label)
        seq = self._sequence
        self._sequence = seq + 1
        heapq.heappush(self._heap, (time, seq, event))
        if len(self._heap) > self.peak_heap_len:
            self.peak_heap_len = len(self._heap)
        return EventHandle(self, event)

    def post(self, delay: float, callback: Callable[[], None], *, label: str = "") -> None:
        """Fire-and-forget :meth:`schedule`: no cancellation handle is built.

        Behaviour is identical to ``schedule`` except that nothing is
        returned, saving one object allocation per event on paths that never
        cancel (message delivery, step re-arming).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        event = _EventRecord(time, callback, label)
        seq = self._sequence
        self._sequence = seq + 1
        heap = self._heap
        heapq.heappush(heap, (time, seq, event))
        if len(heap) > self.peak_heap_len:
            self.peak_heap_len = len(heap)

    def pending_events(self) -> int:
        """Number of events still in the heap (including cancelled ones)."""
        return len(self._heap)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        *,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> float:
        """Process events until the heap drains or a stop condition triggers.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time (events at exactly
            ``until`` are still executed).
        max_events:
            Safety valve against runaway simulations.
        stop_when:
            Predicate evaluated after every event; the run stops as soon as it
            returns ``True``.

        Returns the simulated time at which the run stopped.

        Cancelled events are skipped when popped; when they pile up to more
        than half of a non-trivial heap the engine compacts the heap in
        place instead of paying log-time pops for garbage.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        self._stop_requested = False
        executed = 0
        # The heap list identity is stable (compaction mutates it in place),
        # so callbacks that schedule new events push into this same list.
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        try:
            while heap:
                if self._stop_requested:
                    break
                if max_events is not None and executed >= max_events:
                    break
                cancelled_count = self._cancelled_in_heap
                if cancelled_count > _COMPACT_MIN_HEAP and cancelled_count * 2 > len(heap):
                    self._compact()
                    if not heap:
                        break
                entry = heappop(heap)
                event = entry[2]
                if event.cancelled:
                    self._cancelled_in_heap -= 1
                    continue
                time = entry[0]
                if until is not None and time > until:
                    # Put it back: the caller may resume the run later.
                    heappush(heap, entry)
                    self._now = until
                    break
                self._now = time
                event.fired = True
                event.callback()
                executed += 1
                self.events_processed += 1
                if stop_when is not None and stop_when():
                    break
        finally:
            self._running = False
        return self._now

    def stop(self) -> None:
        """Request the current :meth:`run` to stop after the current event."""
        self._stop_requested = True

    def _compact(self) -> None:
        """Rebuild the heap without cancelled events (in place)."""
        self._heap[:] = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        self.compactions += 1

    def close(self) -> None:
        """Drop every pending event: the run is over.

        Pending timers and deliveries hold closures over the run's entities,
        which hold this engine, so the heap is what keeps a finished run in
        one reference cycle.  Emptying it lets reference counting free the
        run as soon as its owner lets go.  Counters stay readable.
        """
        self._heap.clear()
        self._cancelled_in_heap = 0

    def drain_cancelled(self) -> None:
        """Drop cancelled events from the heap (memory hygiene for long runs).

        Rarely needed by hand: :meth:`run` compacts automatically once
        cancelled events exceed half of the heap.
        """
        self._compact()
