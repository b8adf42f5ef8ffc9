"""Simulated logical processes (entities).

An :class:`Entity` models one participant of the distributed computation — a
worker, a gossip server, a central manager.  Entities follow the paper's
asynchronous processing model: incoming messages are *queued* on arrival and
the entity examines its queue at its own pace ("each process, after it has
solved a B&B subproblem, checks to see whether any messages are pending",
Section 6.2).  Crash failures follow the Crash model of Section 4: a crashed
entity halts, never handles another message or timer, and other entities are
not notified.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Optional, TYPE_CHECKING

from .engine import SimulationEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .network import Network

__all__ = ["Entity", "QueuedMessage"]


@dataclass(frozen=True, slots=True)
class QueuedMessage:
    """A message sitting in an entity's inbox."""

    sender: str
    payload: Any
    sent_at: float
    delivered_at: float
    size_bytes: int


class Entity:
    """Base class for every simulated process.

    Subclasses override :meth:`on_start`, :meth:`on_message` and (optionally)
    :meth:`on_wakeup`.  The base class provides the inbox, crash semantics and
    timer helpers.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.engine: Optional[SimulationEngine] = None
        self.network: Optional["Network"] = None
        self.inbox: Deque[QueuedMessage] = deque()
        self.alive = True
        self.crashed_at: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Wiring (called by the network / runner when the topology is built)
    # ------------------------------------------------------------------ #
    def bind(self, engine: SimulationEngine, network: "Network") -> None:
        """Attach the entity to an engine and a network."""
        self.engine = engine
        self.network = network

    # ------------------------------------------------------------------ #
    # Lifecycle hooks
    # ------------------------------------------------------------------ #
    def on_start(self) -> None:
        """Called once when the simulation starts (override as needed)."""

    def on_message(self, message: QueuedMessage) -> None:
        """Called when the entity *processes* a queued message (override)."""

    def on_wakeup(self, reason: str) -> None:
        """Called when a timer set with :meth:`set_timer` fires (override)."""

    def on_crash(self) -> None:
        """Called once when the entity crashes (override for cleanup/tracing)."""

    def on_suspend(self) -> None:
        """Called once when the entity is suspended (override for accounting)."""

    def on_revive(self) -> None:
        """Called once when a suspended entity comes back (override)."""

    # ------------------------------------------------------------------ #
    # Message handling
    # ------------------------------------------------------------------ #
    def enqueue(self, message: QueuedMessage) -> None:
        """Deliver a message into the inbox (called by the network)."""
        if not self.alive:
            return
        self.inbox.append(message)
        self.on_message_queued(message)

    def on_message_queued(self, message: QueuedMessage) -> None:
        """Hook invoked at delivery time (before the entity processes it).

        The default does nothing: entities poll their inbox when they choose
        to.  Reactive entities (gossip servers, the central manager baseline)
        override this to schedule immediate processing.
        """

    def drain_inbox(self) -> Deque[QueuedMessage]:
        """Remove and return every queued message."""
        drained = self.inbox
        self.inbox = deque()
        return drained

    def process_pending_messages(self) -> int:
        """Process (and remove) every queued message; returns how many."""
        count = 0
        while self.inbox and self.alive:
            message = self.inbox.popleft()
            self.on_message(message)
            count += 1
        return count

    def send(self, destination: str, payload: Any, *, size_bytes: Optional[int] = None) -> bool:
        """Send a message through the network (returns the network's verdict)."""
        if not self.alive:
            return False
        assert self.network is not None, "entity not bound to a network"
        return self.network.send(self.name, destination, payload, size_bytes=size_bytes)

    # ------------------------------------------------------------------ #
    # Timers
    # ------------------------------------------------------------------ #
    def set_timer(self, delay: float, reason: str = "timer") -> None:
        """Schedule :meth:`on_wakeup` after ``delay`` seconds of simulated time."""
        assert self.engine is not None, "entity not bound to an engine"

        def _fire() -> None:
            if self.alive:
                self.on_wakeup(reason)

        self.engine.post(delay, _fire, label=f"{self.name}:{reason}")

    # ------------------------------------------------------------------ #
    # Failure model
    # ------------------------------------------------------------------ #
    def crash(self) -> None:
        """Halt the entity permanently (Crash failure model)."""
        if not self.alive:
            return
        self.alive = False
        self.crashed_at = self.engine.now if self.engine is not None else None
        self.inbox.clear()
        self.on_crash()

    def suspend(self) -> None:
        """Take the entity offline *non-permanently* (churn leave).

        While suspended the entity is indistinguishable from a crashed one
        to the rest of the system — messages are dropped, timers do not
        fire — but :meth:`revive` can bring it back.
        """
        if not self.alive:
            return
        self.alive = False
        self.crashed_at = self.engine.now if self.engine is not None else None
        self.inbox.clear()
        self.on_suspend()

    def revive(self) -> None:
        """Bring a suspended entity back online (churn return)."""
        if self.alive:
            return
        self.alive = True
        self.crashed_at = None
        self.on_revive()

    def __repr__(self) -> str:  # pragma: no cover - repr formatting only
        status = "alive" if self.alive else f"crashed@{self.crashed_at}"
        return f"{type(self).__name__}({self.name!r}, {status})"
