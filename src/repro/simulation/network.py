"""Simulated network: the latency/loss/partition model between entities.

The paper models communication cost as ``1.5 + 0.005 × L`` milliseconds for a
message of ``L`` bytes (Figure 3 and Table 1 captions) and assumes an
unreliable transport: messages may be delayed arbitrarily or lost altogether,
and the network may partition temporarily (Section 4).  :class:`LatencyModel`
and :class:`Network` implement exactly that, plus the per-entity traffic
accounting (messages, bytes, and the MB/hour/processor rate reported in
Table 1).

Message sizes are taken from the payload's ``wire_size()`` method when it has
one (all the algorithm's payloads do), or passed explicitly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from .engine import SimulationEngine
from .entity import Entity, QueuedMessage

__all__ = ["LatencyModel", "Partition", "Network", "TrafficStats"]

#: Default message size when the payload has no ``wire_size`` method.
_DEFAULT_MESSAGE_BYTES = 64


@dataclass(frozen=True, slots=True)
class LatencyModel:
    """Linear latency model ``base + per_byte × size`` (seconds).

    The paper's parameters (1.5 ms + 0.005 ms/byte) are the defaults used by
    the benchmarks; :meth:`paper_default` spells them out.
    """

    base: float = 0.0015
    per_byte: float = 0.000005
    jitter_fraction: float = 0.0

    def latency(self, size_bytes: int, rng: Optional[random.Random] = None) -> float:
        """Delivery latency in seconds for a message of ``size_bytes``."""
        value = self.base + self.per_byte * max(0, size_bytes)
        if self.jitter_fraction > 0 and rng is not None:
            value *= 1.0 + rng.uniform(0.0, self.jitter_fraction)
        return value

    @classmethod
    def paper_default(cls) -> "LatencyModel":
        """The 1.5 ms + 0.005 ms/byte model used throughout the paper."""
        return cls(base=0.0015, per_byte=0.000005)


@dataclass(frozen=True, slots=True)
class Partition:
    """A temporary network partition between two groups of entities.

    While ``start <= now < end``, messages between ``group_a`` and ``group_b``
    are silently dropped (in both directions).  Entities not named in either
    group are unaffected.
    """

    start: float
    end: float
    group_a: frozenset
    group_b: frozenset

    def blocks(self, now: float, src: str, dst: str) -> bool:
        """True when this partition drops a ``src``→``dst`` message at ``now``."""
        if not (self.start <= now < self.end):
            return False
        return (src in self.group_a and dst in self.group_b) or (
            src in self.group_b and dst in self.group_a
        )


@dataclass
class TrafficStats:
    """Per-entity traffic accounting."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_lost: int = 0
    messages_blocked: int = 0
    messages_to_dead: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dictionary view for reports."""
        return {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_lost": self.messages_lost,
            "messages_blocked": self.messages_blocked,
            "messages_to_dead": self.messages_to_dead,
            "bytes_sent": self.bytes_sent,
            "bytes_delivered": self.bytes_delivered,
        }


class Network:
    """Unreliable message transport between registered entities.

    Parameters
    ----------
    engine:
        The simulation engine messages are scheduled on.
    latency:
        Latency model (paper default when omitted).
    loss_probability:
        Independent probability that any message is silently lost.
    partitions:
        Time-windowed partitions.
    rng:
        Random stream for loss and jitter decisions (deterministic runs pass a
        seeded stream from :class:`~repro.simulation.rng.RngRegistry`).
    """

    def __init__(
        self,
        engine: SimulationEngine,
        *,
        latency: Optional[LatencyModel] = None,
        loss_probability: float = 0.0,
        partitions: Iterable[Partition] = (),
        rng: Optional[random.Random] = None,
    ) -> None:
        if not (0.0 <= loss_probability < 1.0):
            raise ValueError("loss_probability must be in [0, 1)")
        self.engine = engine
        self.latency = latency if latency is not None else LatencyModel.paper_default()
        self.loss_probability = loss_probability
        self.partitions: List[Partition] = list(partitions)
        self.rng = rng if rng is not None else random.Random(0)
        self._entities: Dict[str, Entity] = {}
        #: Global traffic counters.
        self.stats = TrafficStats()
        #: Per-entity traffic counters, keyed by sender name.
        self.per_entity: Dict[str, TrafficStats] = {}
        #: Optional payload-classification hook (``payload -> kind label``).
        #: The network itself is protocol-agnostic, so the owner installs a
        #: classifier (the distributed runner passes ``MessageKinds.of``);
        #: when set, injected traffic is additionally accounted per kind in
        #: :attr:`kind_bytes` / :attr:`kind_messages` — this is what the
        #: delta-gossip benchmark reads to compare dissemination costs.
        self.classify: Optional[Any] = None
        #: Bytes injected per message kind (only filled when ``classify`` set).
        self.kind_bytes: Dict[str, int] = {}
        #: Messages injected per message kind (ditto).
        self.kind_messages: Dict[str, int] = {}
        #: Optional :class:`repro.obs.Tracer`: when set, every scheduled
        #: delivery records a transport span (ts = send time, dur = modeled
        #: latency).  ``None`` keeps the hot path on one attribute check.
        self.tracer: Optional[Any] = None

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(self, entity: Entity) -> None:
        """Register an entity and bind it to the engine and this network."""
        if entity.name in self._entities:
            raise ValueError(f"duplicate entity name: {entity.name!r}")
        self._entities[entity.name] = entity
        self.per_entity[entity.name] = TrafficStats()
        entity.bind(self.engine, self)

    def entity(self, name: str) -> Entity:
        """Look up a registered entity by name."""
        return self._entities[name]

    def entities(self) -> List[Entity]:
        """All registered entities."""
        return list(self._entities.values())

    def living_entities(self) -> List[Entity]:
        """Entities that have not crashed."""
        return [e for e in self._entities.values() if e.alive]

    def close(self) -> None:
        """Unregister every entity: the run is over.

        Each registered entity holds this network, so the registry is a
        reference cycle; emptying it lets a finished run be freed by
        reference counting.  Traffic counters stay readable.
        """
        self._entities.clear()

    def add_partition(self, partition: Partition) -> None:
        """Add a partition window (may be done mid-run)."""
        self.partitions.append(partition)

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #
    @staticmethod
    def payload_size(payload: Any) -> int:
        """Byte size of a payload: its ``wire_size()`` if available."""
        try:
            return int(payload.wire_size())
        except AttributeError:
            return _DEFAULT_MESSAGE_BYTES

    def send(
        self, src: str, dst: str, payload: Any, *, size_bytes: Optional[int] = None
    ) -> bool:
        """Send a message; returns ``True`` when delivery was scheduled.

        A ``False`` return means the message will never arrive (lost,
        partitioned, unknown or dead destination).  Senders cannot distinguish
        these cases — exactly the asynchronous, unreliable model of Section 4.
        """
        size = size_bytes if size_bytes is not None else self.payload_size(payload)
        now = self.engine.now
        sender_stats = self.per_entity.get(src)
        if sender_stats is None:
            sender_stats = self.per_entity[src] = TrafficStats()
        sender_stats.messages_sent += 1
        sender_stats.bytes_sent += size
        self.stats.messages_sent += 1
        self.stats.bytes_sent += size
        if self.classify is not None:
            kind = self.classify(payload)
            self.kind_bytes[kind] = self.kind_bytes.get(kind, 0) + size
            self.kind_messages[kind] = self.kind_messages.get(kind, 0) + 1

        destination = self._entities.get(dst)
        if destination is None or not destination.alive:
            sender_stats.messages_to_dead += 1
            self.stats.messages_to_dead += 1
            return False
        for partition in self.partitions:
            if partition.blocks(now, src, dst):
                sender_stats.messages_blocked += 1
                self.stats.messages_blocked += 1
                return False
        if self.loss_probability > 0 and self.rng.random() < self.loss_probability:
            sender_stats.messages_lost += 1
            self.stats.messages_lost += 1
            return False

        delay = self.latency.latency(size, self.rng)
        if self.tracer is not None:
            kind = (
                self.classify(payload)
                if self.classify is not None
                else type(payload).__name__
            )
            self.tracer.span(
                kind,
                now,
                delay,
                process=src,
                category="transport",
                args={"dst": dst, "bytes": size},
            )
        message = QueuedMessage(
            sender=src,
            payload=payload,
            sent_at=now,
            delivered_at=now + delay,
            size_bytes=size,
        )

        def _deliver() -> None:
            target = self._entities.get(dst)
            if target is None or not target.alive:
                self.stats.messages_to_dead += 1
                return
            self.stats.messages_delivered += 1
            self.stats.bytes_delivered += size
            sender_stats.messages_delivered += 1
            sender_stats.bytes_delivered += size
            target.enqueue(message)

        # Labels are diagnostic only; a constant avoids formatting a fresh
        # string for every one of the O(rounds x fanout) deliveries.
        self.engine.post(delay, _deliver, label="deliver")
        return True

    def broadcast(self, src: str, destinations: Iterable[str], payload: Any) -> int:
        """Send the same payload to several destinations; returns sends scheduled."""
        scheduled = 0
        for dst in destinations:
            if dst == src:
                continue
            if self.send(src, dst, payload):
                scheduled += 1
        return scheduled

    # ------------------------------------------------------------------ #
    # Reporting helpers
    # ------------------------------------------------------------------ #
    def total_megabytes_sent(self) -> float:
        """Total traffic injected into the network, in MB."""
        return self.stats.bytes_sent / 1e6

    def megabytes_sent_by(self, name: str) -> float:
        """Traffic injected by one entity, in MB."""
        stats = self.per_entity.get(name)
        return (stats.bytes_sent / 1e6) if stats else 0.0
