"""Gossip-style failure detection (van Renesse, Minsky & Hayden, 1998).

The paper's membership protocol is "inspired by the failure-detection
mechanism based on epidemic communication presented in [25]" — the gossip
heartbeat protocol.  This is the library's only failure detector: every
simulated worker runs one when ``AlgorithmConfig.failure_detector`` is on
(the scenario layer turns it on for churn runs).  It tracks *heartbeat
counters* (monotonic integers incremented only by their owner) rather than
last-heard wall-clock times, which makes it immune to clock-rate differences;
a member whose counter stops rising is suspected, then removed, and the
worker evicts it from its target lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

__all__ = ["HeartbeatEntry", "GossipFailureDetector", "DEFAULT_SAMPLE_CAP"]


@dataclass
class HeartbeatEntry:
    """Local knowledge about one member's heartbeat."""

    name: str
    heartbeat: int
    last_increase: float


#: Wire representation: ``(member, heartbeat)`` pairs.
HeartbeatDigest = Tuple[Tuple[str, int], ...]

_DIGEST_ENTRY_BYTES = 12
_DIGEST_HEADER_BYTES = 24

#: Default table size above which target choice samples candidates instead
#: of scanning (and sorting) every member each round.
DEFAULT_SAMPLE_CAP = 64

#: Sampling attempts per requested target before giving up and falling back
#: to the exact full scan (only relevant when most of the group is stale).
_SAMPLE_ATTEMPTS_PER_TARGET = 8


class GossipFailureDetector:
    """Counter-based epidemic failure detector.

    Parameters
    ----------
    owner:
        Name of the local member.
    fail_timeout:
        A member whose heartbeat has not increased for this long is suspected.
    cleanup_timeout:
        A suspected member is removed from the table after this long without
        an increase (must be at least ``2 × fail_timeout`` per van Renesse's
        rule, enforced loosely here as ``>= fail_timeout``).
    gossip_interval:
        How often the owner increments its own heartbeat and gossips.
    sample_cap:
        Table size above which :meth:`choose_targets` stops scanning every
        member per round and instead draws seeded candidate samples, keeping
        per-round target selection O(fanout) instead of O(n log n) at large
        group sizes.  :attr:`sampled_rounds` / :attr:`broadcast_rounds` count
        which path each round took.
    """

    def __init__(
        self,
        owner: str,
        *,
        fail_timeout: float = 5.0,
        cleanup_timeout: float = 10.0,
        gossip_interval: float = 1.0,
        fanout: int = 1,
        rng: Optional[random.Random] = None,
        sample_cap: int = DEFAULT_SAMPLE_CAP,
    ) -> None:
        if fail_timeout <= 0 or cleanup_timeout < fail_timeout or gossip_interval <= 0:
            raise ValueError("invalid failure-detector timeouts")
        if fanout < 1:
            raise ValueError("fanout must be at least 1")
        if sample_cap < 1:
            raise ValueError("sample_cap must be at least 1")
        self.owner = owner
        self.fail_timeout = fail_timeout
        self.cleanup_timeout = cleanup_timeout
        self.gossip_interval = gossip_interval
        self.fanout = fanout
        self.rng = rng if rng is not None else random.Random(0)
        self.sample_cap = sample_cap
        #: Rounds where targets were drawn by seeded sampling (large tables).
        self.sampled_rounds = 0
        #: Rounds where the whole alive list was scanned (small tables, or a
        #: sampling miss when most of the group is stale).
        self.broadcast_rounds = 0
        self._table: Dict[str, HeartbeatEntry] = {
            owner: HeartbeatEntry(owner, heartbeat=0, last_increase=0.0)
        }
        # Insertion-ordered copy of the table's keys, so the sampling path
        # can index members in O(1) without materialising a list per round.
        self._names: List[str] = [owner]
        #: Last heartbeat counter of each member :meth:`cleanup` removed: a
        #: lagging peer's digest still carries it, and only a higher counter
        #: proves the member alive again.
        self._evicted: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Local heartbeat
    # ------------------------------------------------------------------ #
    def tick(self, now: float) -> HeartbeatDigest:
        """Increment the local heartbeat and return the digest to gossip."""
        entry = self._table[self.owner]
        entry.heartbeat += 1
        entry.last_increase = now
        return self.digest(now)

    def digest(self, now: Optional[float] = None) -> HeartbeatDigest:
        """Wire representation of the heartbeat table.

        When ``now`` is given, entries already suspected (stale beyond
        ``fail_timeout``) are *excluded* — van Renesse's rule that failed
        members are not gossiped onward.  Without it a dead member's last
        counter keeps circulating, gets re-admitted as "new" by peers that
        already cleaned it up, and is evicted over and over.
        """
        return tuple(
            (entry.name, entry.heartbeat)
            for entry in sorted(self._table.values(), key=lambda e: e.name)
            if now is None
            or entry.name == self.owner
            or (now - entry.last_increase) <= self.fail_timeout
        )

    def digest_wire_size(self) -> int:
        """Estimated encoded size of the digest in bytes."""
        return _DIGEST_HEADER_BYTES + _DIGEST_ENTRY_BYTES * len(self._table)

    # ------------------------------------------------------------------ #
    # Merging remote information
    # ------------------------------------------------------------------ #
    def merge(self, digest: HeartbeatDigest, now: float) -> List[str]:
        """Merge a received digest; returns members that were new.

        An evicted member comes back only with a counter above the one it
        was evicted with: its old counter in a lagging peer's digest is not
        news, and re-admitting it would only evict it again.
        """
        new_members = []
        evicted = self._evicted
        for name, heartbeat in digest:
            entry = self._table.get(name)
            if entry is None:
                if heartbeat <= evicted.get(name, -1):
                    continue
                evicted.pop(name, None)
                self._table[name] = HeartbeatEntry(name, heartbeat=heartbeat, last_increase=now)
                self._names.append(name)
                new_members.append(name)
            elif heartbeat > entry.heartbeat:
                entry.heartbeat = heartbeat
                entry.last_increase = now
        return new_members

    # ------------------------------------------------------------------ #
    # Suspicion and cleanup
    # ------------------------------------------------------------------ #
    def alive(self, now: float) -> List[str]:
        """Members not currently suspected."""
        return sorted(
            name
            for name, entry in self._table.items()
            if (now - entry.last_increase) <= self.fail_timeout
        )

    def suspected(self, now: float) -> List[str]:
        """Members whose heartbeat has gone stale."""
        return sorted(
            name
            for name, entry in self._table.items()
            if name != self.owner and (now - entry.last_increase) > self.fail_timeout
        )

    def cleanup(self, now: float) -> List[str]:
        """Drop members stale beyond the cleanup timeout; returns the removals."""
        removed = []
        for name in list(self._table):
            if name == self.owner:
                continue
            entry = self._table[name]
            if (now - entry.last_increase) > self.cleanup_timeout:
                del self._table[name]
                self._evicted[name] = entry.heartbeat
                removed.append(name)
        if removed:
            self._names = list(self._table)
        return sorted(removed)

    def members(self) -> List[str]:
        """Every member currently in the table."""
        return sorted(self._table)

    def staleness(self, name: str, now: float) -> Optional[float]:
        """Seconds since ``name``'s heartbeat last increased (``None`` if unknown)."""
        entry = self._table.get(name)
        if entry is None:
            return None
        return now - entry.last_increase

    def heartbeat_of(self, name: str) -> Optional[int]:
        """Current heartbeat counter known for ``name`` (``None`` if unknown)."""
        entry = self._table.get(name)
        return entry.heartbeat if entry is not None else None

    def restart_member(self, name: str, now: float) -> None:
        """Reset (or re-admit) a member that restarted with a new incarnation.

        A restarted process begins counting heartbeats from zero, which the
        plain :meth:`merge` rule (``heartbeat > entry.heartbeat``) would
        discard as stale.  When a higher incarnation number proves a
        restart, the caller resets the entry so the newcomer's low counters
        read as fresh again, and forgets the counter it was evicted with.
        """
        self._evicted.pop(name, None)
        entry = self._table.get(name)
        if entry is None:
            self._table[name] = HeartbeatEntry(name, heartbeat=0, last_increase=now)
            self._names.append(name)
        else:
            entry.heartbeat = 0
            entry.last_increase = now

    def choose_targets(self, now: float) -> List[str]:
        """Pick gossip targets among currently alive members.

        Small tables take the exact path: scan every member, then sample
        ``fanout`` of the alive ones.  Past :attr:`sample_cap` members the
        per-peer, per-round full scan is what makes gossip cost grow O(n)
        with the group, so large tables instead draw seeded candidate
        samples and keep the fresh ones — O(fanout) per round — falling
        back to the exact scan only when sampling cannot find enough live
        members (i.e. when most of the group is stale).

        A member that suspects every peer still gossips, to the suspected
        ones: falling silent would make its own eviction certain, since a
        peer only hears a heartbeat that is pushed to it.
        """
        if len(self._table) <= 1:
            return []
        if len(self._table) > self.sample_cap:
            targets = self._sample_targets(now)
            if targets is not None:
                self.sampled_rounds += 1
                return targets
        candidates = [n for n in self.alive(now) if n != self.owner]
        if not candidates:
            candidates = [n for n in self._names if n != self.owner]
        self.broadcast_rounds += 1
        return self.rng.sample(candidates, min(self.fanout, len(candidates)))

    def _sample_targets(self, now: float) -> Optional[List[str]]:
        """Draw ``fanout`` distinct fresh members by seeded index sampling.

        Returns ``None`` when the attempt budget runs out before enough
        live members are found, signalling the caller to fall back to the
        exact full scan.
        """
        names = self._names
        want = min(self.fanout, len(names) - 1)
        chosen: List[str] = []
        seen = set()
        for _ in range(_SAMPLE_ATTEMPTS_PER_TARGET * want):
            name = names[self.rng.randrange(len(names))]
            if name == self.owner or name in seen:
                continue
            if (now - self._table[name].last_increase) > self.fail_timeout:
                continue
            seen.add(name)
            chosen.append(name)
            if len(chosen) == want:
                return chosen
        return None
