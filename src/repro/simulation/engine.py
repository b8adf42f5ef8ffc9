"""Discrete-event simulation engine.

The paper evaluates its algorithm with Parsec, a C-based discrete-event
simulation language in which "processes are modeled by objects; interactions
among objects are modeled by time stamped message exchanges".  This module is
the Python equivalent: a deterministic event heap with a logical clock and
stop conditions.  Entities (logical processes) live in
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
The heap holds plain ``(time, sequence, callback, label)`` tuples, so every
sift comparison is a C-level tuple compare on a float and an int (the
sequence number is unique, so comparison never reaches the callback).  An
event, once scheduled, fires: nothing is cancelled, so nothing in the heap
is garbage.  :meth:`SimulationEngine.run` hoists its hot attribute lookups
into locals.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

__all__ = ["SimulationEngine", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for invalid engine usage (scheduling in the past, re-running…)."""


#: A heap entry: ``(time, sequence, callback, label)``; the label is a
#: diagnostic name (``<entity>:<reason>``, ``deliver``, ``crash:<entity>``).
_HeapEntry = Tuple[float, int, Callable[[], None], str]


class SimulationEngine:
    """A minimal, deterministic discrete-event simulator.

    Typical usage::

        engine = SimulationEngine()
        engine.post(1.5, lambda: print("fires at t=1.5"))
        engine.run()
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[_HeapEntry] = []
        self._sequence = 0
        self._running = False
        self._stop_requested = False
        #: Total events executed.
        self.events_processed = 0
        #: High-water mark of the event heap.
        self.peak_heap_len = 0

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
    def post(self, delay: float, callback: Callable[[], None], *, label: str = "") -> None:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._push(self._now + delay, callback, label)

    def schedule_at(self, time: float, callback: Callable[[], None], *, label: str = "") -> None:
        """Schedule ``callback`` at an absolute simulated time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        self._push(time, callback, label)

    def _push(self, time: float, callback: Callable[[], None], label: str) -> None:
        seq = self._sequence
        self._sequence = seq + 1
        heap = self._heap
        heapq.heappush(heap, (time, seq, callback, label))
        if len(heap) > self.peak_heap_len:
            self.peak_heap_len = len(heap)

    def pending_events(self) -> int:
        """Number of events still in the heap."""
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
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        self._stop_requested = False
        executed = 0
        # The heap list identity is stable, so callbacks that schedule new
        # events push into this same list.
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        try:
            while heap:
                if self._stop_requested:
                    break
                if max_events is not None and executed >= max_events:
                    break
                entry = heappop(heap)
                time = entry[0]
                if until is not None and time > until:
                    # Put it back: the caller may resume the run later.
                    heappush(heap, entry)
                    self._now = until
                    break
                self._now = time
                entry[2]()
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

    def close(self) -> None:
        """Drop every pending event: the run is over.

        Pending timers and deliveries hold closures over the run's entities,
        which hold this engine, so the heap is what keeps a finished run in
        one reference cycle.  Emptying it lets reference counting free the
        run as soon as its owner lets go.  Counters stay readable.
        """
        self._heap.clear()
