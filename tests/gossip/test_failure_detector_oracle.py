"""Property tests: the failure detector against a straight-line oracle.

The churn machinery trusts :class:`~repro.gossip.failure_detector.
GossipFailureDetector` for its suspect/evict decisions, so the detector is
checked here against a reference oracle that implements its contract in the
most literal form possible: a dict of ``(highest heartbeat seen, local time
of the last increase)`` per member plus the last counter of each evicted
one, with suspicion and cleanup as direct timestamp comparisons.  Hundreds of seeded heartbeat streams — with random
delivery delays, reorderings and duplicated gossip — must produce *identical*
suspect and evict decisions on both implementations, and a live-but-slow
worker whose heartbeats always arrive within the configured fail timeout
must never be suspected, let alone evicted.
"""

import random
from typing import Dict, List, Tuple

import pytest

from repro.gossip.failure_detector import GossipFailureDetector

FAIL = 2.0
CLEANUP = 4.0
MEMBERS = ("m0", "m1", "m2", "m3")
#: 125 seeds × 4 member streams each = 500 independent heartbeat streams.
N_SEEDS = 125


class HeartbeatOracle:
    """The detector's contract, written as plainly as possible."""

    def __init__(self, owner: str, fail_timeout: float, cleanup_timeout: float) -> None:
        self.owner = owner
        self.fail_timeout = fail_timeout
        self.cleanup_timeout = cleanup_timeout
        self.table: Dict[str, Tuple[int, float]] = {owner: (0, 0.0)}
        #: Last counter of every member cleanup removed.
        self.evicted: Dict[str, int] = {}

    def merge(self, name: str, heartbeat: int, now: float) -> None:
        known = self.table.get(name)
        floor = known[0] if known is not None else self.evicted.get(name, -1)
        if heartbeat > floor:
            self.table[name] = (heartbeat, now)

    def suspected(self, now: float) -> List[str]:
        return sorted(
            name
            for name, (_, seen) in self.table.items()
            if name != self.owner and (now - seen) > self.fail_timeout
        )

    def cleanup(self, now: float) -> List[str]:
        removed = sorted(
            name
            for name, (_, seen) in self.table.items()
            if name != self.owner and (now - seen) > self.cleanup_timeout
        )
        for name in removed:
            self.evicted[name] = self.table.pop(name)[0]
        return removed

    def members(self) -> List[str]:
        return sorted(self.table)


def _delivered_events(rng: random.Random) -> List[Tuple[float, float, str, int]]:
    """Seeded delivery schedule: delayed, reordered, duplicated heartbeats.

    Each member emits monotonically increasing heartbeats at its own cadence;
    some members stop early (they "die").  Every emission is delivered after
    a random delay, sometimes twice; sorting by (arrival, random tiebreak)
    yields out-of-order and duplicate deliveries exactly as an asynchronous
    lossy network would.
    """
    events: List[Tuple[float, float, str, int]] = []
    for member in MEMBERS:
        steps = rng.randrange(5, 25)
        if rng.random() < 0.4:
            steps = rng.randrange(2, 6)  # dies early
        interval = rng.uniform(0.3, 1.0)
        max_delay = rng.uniform(0.0, 1.5)
        for heartbeat in range(1, steps + 1):
            sent = heartbeat * interval
            arrival = sent + rng.uniform(0.0, max_delay)
            events.append((arrival, rng.random(), member, heartbeat))
            if rng.random() < 0.3:  # duplicated gossip, possibly much later
                events.append(
                    (arrival + rng.uniform(0.0, 2.0 * max_delay), rng.random(), member, heartbeat)
                )
    events.sort()
    return events


class TestDetectorMatchesOracle:
    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_identical_suspect_and_evict_decisions(self, seed):
        rng = random.Random(seed)
        detector = GossipFailureDetector(
            "obs", fail_timeout=FAIL, cleanup_timeout=CLEANUP, rng=random.Random(seed)
        )
        oracle = HeartbeatOracle("obs", FAIL, CLEANUP)
        last = 0.0
        for arrival, _, member, heartbeat in _delivered_events(rng):
            detector.merge(((member, heartbeat),), arrival)
            oracle.merge(member, heartbeat, arrival)
            last = max(last, arrival)
            if rng.random() < 0.3:
                probe = arrival + rng.uniform(0.0, 1.5 * CLEANUP)
                assert detector.suspected(probe) == oracle.suspected(probe)
            if rng.random() < 0.1:
                assert detector.cleanup(arrival) == oracle.cleanup(arrival)
                assert detector.members() == oracle.members()
        # Play the tail out: everyone has stopped, so suspicion and then
        # eviction must land identically at every later instant.
        for probe in (last + FAIL / 2, last + FAIL + 0.01, last + CLEANUP + 0.01):
            assert detector.suspected(probe) == oracle.suspected(probe)
            assert detector.cleanup(probe) == oracle.cleanup(probe)
            assert detector.members() == oracle.members()
        assert detector.members() == ["obs"]

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_live_but_slow_worker_is_never_falsely_evicted(self, seed):
        """Arrival gaps stay inside the fail timeout ⇒ never suspected."""
        rng = random.Random(10_000 + seed)
        detector = GossipFailureDetector("obs", fail_timeout=FAIL, cleanup_timeout=CLEANUP)
        detector.merge((("slow", 0),), 0.0)
        now, heartbeat = 0.0, 0
        for _ in range(30):
            now += rng.uniform(0.05, FAIL * 0.98)
            heartbeat += 1
            assert "slow" not in detector.suspected(now)
            detector.merge((("slow", heartbeat),), now)
        assert detector.cleanup(now) == []
        assert "slow" in detector.members()


class TestDigestExcludesSuspects:
    """Van Renesse's rule: failed members are not gossiped onward."""

    def test_suspected_member_leaves_the_timed_digest(self):
        detector = GossipFailureDetector("obs", fail_timeout=FAIL, cleanup_timeout=CLEANUP)
        detector.merge((("dead", 3), ("live", 3)), 0.0)
        detector.merge((("live", 4),), FAIL + 1.0)
        timed = dict(detector.digest(FAIL + 1.0))
        assert "dead" not in timed and "live" in timed and "obs" in timed
        # The untimed digest still carries everything (introspection form).
        assert "dead" in dict(detector.digest())

    def test_tick_digest_never_resurrects_a_cleaned_member(self):
        a = GossipFailureDetector("a", fail_timeout=FAIL, cleanup_timeout=CLEANUP)
        b = GossipFailureDetector("b", fail_timeout=FAIL, cleanup_timeout=CLEANUP)
        a.merge((("dead", 5), ("b", 1)), 0.0)
        b.merge((("a", 1),), 0.0)
        # b evicts the dead member before a does; a's onward gossip must not
        # re-introduce it (it is already suspected from a's point of view).
        later = CLEANUP + 0.5
        digest = a.tick(later)
        assert "dead" not in dict(digest)
        new = b.merge(digest, later)
        assert "dead" not in new and "dead" not in b.members()


class TestEvictedMembersStayEvicted:
    """An evicted member comes back only with a higher counter or a restart."""

    def evicted_detector(self):
        detector = GossipFailureDetector("obs", fail_timeout=FAIL, cleanup_timeout=CLEANUP)
        detector.merge((("dead", 7),), 0.0)
        assert detector.cleanup(CLEANUP + 0.1) == ["dead"]
        return detector

    def test_a_lagging_digest_does_not_resurrect_an_evicted_member(self):
        detector = self.evicted_detector()
        # A peer that has not suspected "dead" yet still gossips its last
        # counter: re-admitting it would only evict it a second time.
        for counter in (3, 7):
            assert detector.merge((("dead", counter),), CLEANUP + 0.5) == []
        assert "dead" not in detector.members()
        assert detector.cleanup(2 * CLEANUP + 1.0) == []

    def test_a_higher_counter_readmits_it(self):
        detector = self.evicted_detector()
        assert detector.merge((("dead", 8),), CLEANUP + 0.5) == ["dead"]
        assert detector.heartbeat_of("dead") == 8

    def test_a_restart_clears_the_evicted_counter(self):
        detector = self.evicted_detector()
        detector.restart_member("dead", CLEANUP + 0.5)
        assert "dead" in detector.members()
        # The restarted process counts from zero again, and after a second
        # eviction its small counters are judged against the new run only.
        detector.merge((("dead", 1),), CLEANUP + 1.0)
        assert detector.cleanup(2 * CLEANUP + 1.5) == ["dead"]
        assert detector.merge((("dead", 2),), 2 * CLEANUP + 2.0) == ["dead"]
