"""Tests for the epidemic heartbeat failure detector.

``TestFailureDetector`` pins the detector's table operations one at a time;
``TestEpidemicDissemination`` runs a group of detectors through synchronous
gossip rounds (each live member ticks, picks targets and pushes its timed
digest) and checks the group-level promises: everyone learns everyone, a
crashed member is suspected and then removed by every survivor, and message
loss delays dissemination without making a live member look dead.
"""

import random

import pytest

from repro.gossip.failure_detector import GossipFailureDetector


class TestFailureDetector:
    def test_validation(self):
        with pytest.raises(ValueError):
            GossipFailureDetector("me", fail_timeout=0)
        with pytest.raises(ValueError):
            GossipFailureDetector("me", fanout=0)

    def test_heartbeat_merge_and_suspicion(self):
        a = GossipFailureDetector("a", fail_timeout=2.0, cleanup_timeout=5.0)
        b = GossipFailureDetector("b", fail_timeout=2.0, cleanup_timeout=5.0)
        digest = a.tick(0.0)
        b.merge(digest, now=0.0)
        assert "a" in b.members()
        # While heartbeats keep increasing, nobody is suspected.
        for t in (1.0, 2.0, 3.0):
            b.merge(a.tick(t), now=t)
            b.tick(t)
        assert b.suspected(now=3.5) == []
        # When a stops ticking, b eventually suspects and then removes it.
        b.tick(6.0)
        assert "a" in b.suspected(now=6.0)
        removed = b.cleanup(now=10.0)
        assert removed == ["a"]
        assert "a" not in b.members()

    def test_stale_heartbeat_does_not_refresh(self):
        a = GossipFailureDetector("a")
        b = GossipFailureDetector("b")
        digest = a.tick(0.0)
        b.merge(digest, now=0.0)
        # Re-delivering the same (old) heartbeat later must not refresh.
        b.merge(digest, now=10.0)
        assert "a" in b.suspected(now=10.0)

    def test_choose_targets(self):
        detector = GossipFailureDetector("me", fanout=2, rng=random.Random(0))
        detector.merge((("a", 1), ("b", 1), ("c", 1)), now=0.0)
        targets = detector.choose_targets(now=0.5)
        assert len(targets) == 2 and "me" not in targets
        # A small table takes the exact full-scan ("broadcast") path.
        assert detector.broadcast_rounds == 1
        assert detector.sampled_rounds == 0

    def test_choose_targets_samples_large_tables(self):
        detector = GossipFailureDetector(
            "me", fanout=2, rng=random.Random(0), sample_cap=16
        )
        detector.merge(tuple((f"m{i}", 1) for i in range(100)), now=0.0)
        targets = detector.choose_targets(now=0.5)
        assert len(targets) == 2 and "me" not in targets
        assert len(set(targets)) == 2
        assert detector.sampled_rounds == 1
        assert detector.broadcast_rounds == 0

    def test_sampling_never_returns_suspected_members(self):
        detector = GossipFailureDetector(
            "me", fanout=3, rng=random.Random(1), sample_cap=8,
            fail_timeout=1.0, cleanup_timeout=2.0,
        )
        detector.merge(tuple((f"m{i}", 1) for i in range(50)), now=0.0)
        # Refresh only three members; everyone else goes stale.
        detector.merge((("m1", 2), ("m2", 2), ("m3", 2)), now=5.0)
        for _ in range(20):
            targets = detector.choose_targets(now=5.5)
            assert set(targets) <= {"m1", "m2", "m3"}

    def test_sampling_falls_back_when_everyone_is_stale(self):
        detector = GossipFailureDetector(
            "me", fanout=1, rng=random.Random(2), sample_cap=8,
            fail_timeout=1.0, cleanup_timeout=2.0,
        )
        detector.merge(tuple((f"m{i}", 1) for i in range(50)), now=0.0)
        # Sampling finds nobody live, so the exact scan runs; it finds nobody
        # either and gossips to a suspected member rather than fall silent.
        targets = detector.choose_targets(now=100.0)
        assert len(targets) == 1 and targets[0] in detector.suspected(now=100.0)
        assert detector.sampled_rounds == 0
        assert detector.broadcast_rounds == 1

    def test_cleanup_keeps_sampling_index_in_sync(self):
        detector = GossipFailureDetector(
            "me", fanout=1, rng=random.Random(3), sample_cap=4,
            fail_timeout=1.0, cleanup_timeout=2.0,
        )
        detector.merge(tuple((f"m{i}", 1) for i in range(10)), now=0.0)
        detector.merge((("m0", 2),), now=5.0)
        detector.cleanup(now=5.0)
        assert detector.members() == ["m0", "me"]
        assert detector.choose_targets(now=5.5) == ["m0"]

    def test_sample_cap_validation(self):
        with pytest.raises(ValueError):
            GossipFailureDetector("me", sample_cap=0)

    def test_digest_wire_size(self):
        detector = GossipFailureDetector("me")
        detector.tick(0.0)
        assert detector.digest_wire_size() > 0

    def test_timeout_validation(self):
        with pytest.raises(ValueError):
            GossipFailureDetector("me", fail_timeout=5.0, cleanup_timeout=4.0)
        with pytest.raises(ValueError):
            GossipFailureDetector("me", gossip_interval=0.0)
        # The loose van Renesse rule: cleanup may equal the fail timeout.
        GossipFailureDetector("me", fail_timeout=5.0, cleanup_timeout=5.0)

    def test_tick_raises_only_the_owner_counter(self):
        detector = GossipFailureDetector("me")
        detector.merge((("a", 4),), now=0.0)
        for expected in (1, 2, 3):
            digest = detector.tick(float(expected))
            assert detector.heartbeat_of("me") == expected
            assert dict(digest)["me"] == expected
        assert detector.heartbeat_of("a") == 4

    def test_merge_returns_only_new_members(self):
        detector = GossipFailureDetector("me")
        assert detector.merge((("b", 1), ("a", 1)), now=0.0) == ["b", "a"]
        assert detector.merge((("a", 2), ("b", 2)), now=1.0) == []
        assert detector.members() == ["a", "b", "me"]
        assert detector.heartbeat_of("a") == 2

    def test_merge_never_lowers_a_counter(self):
        detector = GossipFailureDetector("me")
        detector.merge((("a", 5),), now=1.0)
        detector.merge((("a", 3),), now=4.0)
        assert detector.heartbeat_of("a") == 5
        assert detector.staleness("a", now=4.0) == pytest.approx(3.0)

    def test_owner_is_never_suspected_or_removed(self):
        detector = GossipFailureDetector("me", fail_timeout=1.0, cleanup_timeout=2.0)
        detector.merge((("a", 1),), now=0.0)
        assert detector.suspected(now=1000.0) == ["a"]
        assert detector.cleanup(now=1000.0) == ["a"]
        assert detector.members() == ["me"]
        assert detector.cleanup(now=2000.0) == []

    def test_untimed_digest_lists_every_member_sorted(self):
        detector = GossipFailureDetector("me", fail_timeout=1.0, cleanup_timeout=50.0)
        detector.merge((("zed", 2), ("amy", 7)), now=0.0)
        detector.tick(10.0)
        assert detector.digest() == (("amy", 7), ("me", 1), ("zed", 2))
        # Timed, the two stale members drop out and the owner stays.
        assert detector.digest(now=10.0) == (("me", 1),)

    def test_staleness_and_heartbeat_of_unknown_members(self):
        detector = GossipFailureDetector("me")
        assert detector.staleness("ghost", now=1.0) is None
        assert detector.heartbeat_of("ghost") is None
        detector.merge((("a", 3),), now=2.0)
        assert detector.staleness("a", now=2.5) == pytest.approx(0.5)
        assert detector.heartbeat_of("a") == 3

    def test_restart_member_resets_the_counter(self):
        detector = GossipFailureDetector("me")
        detector.merge((("a", 7),), now=0.0)
        detector.restart_member("a", now=3.0)
        assert detector.heartbeat_of("a") == 0
        assert detector.staleness("a", now=3.0) == 0.0
        # The new incarnation's low counters now read as progress.
        detector.merge((("a", 1),), now=4.0)
        assert detector.heartbeat_of("a") == 1
        assert detector.staleness("a", now=4.0) == 0.0

    def test_restart_member_admits_an_unknown_member(self):
        detector = GossipFailureDetector("me", rng=random.Random(0))
        detector.restart_member("fresh", now=1.0)
        assert detector.members() == ["fresh", "me"]
        assert detector.heartbeat_of("fresh") == 0
        assert detector.choose_targets(now=1.5) == ["fresh"]

    def test_lonely_owner_has_no_targets(self):
        detector = GossipFailureDetector("me")
        assert detector.choose_targets(now=0.0) == []
        assert detector.broadcast_rounds == 0
        assert detector.sampled_rounds == 0

    def test_fanout_beyond_the_group_picks_every_live_member(self):
        detector = GossipFailureDetector("me", fanout=5, rng=random.Random(0))
        detector.merge((("a", 1), ("b", 1), ("c", 1)), now=0.0)
        assert sorted(detector.choose_targets(now=0.5)) == ["a", "b", "c"]

    def test_small_tables_skip_suspected_members(self):
        detector = GossipFailureDetector(
            "me", fanout=3, rng=random.Random(0), fail_timeout=1.0, cleanup_timeout=9.0
        )
        detector.merge((("a", 1), ("b", 1), ("c", 1)), now=0.0)
        detector.merge((("b", 2),), now=5.0)
        assert detector.choose_targets(now=5.5) == ["b"]
        assert detector.alive(now=5.5) == ["b"]

    def test_member_suspecting_every_peer_still_gossips(self):
        # A member that has heard nothing for a fail timeout still pushes
        # its heartbeat: peers only hear what is pushed to them, so a silent
        # member would be evicted everywhere.
        detector = GossipFailureDetector(
            "me", fanout=2, rng=random.Random(0), fail_timeout=1.0, cleanup_timeout=9.0
        )
        detector.merge((("a", 1), ("b", 1), ("c", 1)), now=0.0)
        assert detector.suspected(now=5.0) == ["a", "b", "c"]
        targets = detector.choose_targets(now=5.0)
        assert len(targets) == 2 and set(targets) <= {"a", "b", "c"}
        # Once cleanup has dropped them all, there is nobody left to tell.
        detector.cleanup(now=10.0)
        assert detector.choose_targets(now=10.0) == []

    def test_digest_wire_size_grows_per_member(self):
        detector = GossipFailureDetector("me")
        alone = detector.digest_wire_size()
        detector.merge((("a", 1),), now=0.0)
        one_more = detector.digest_wire_size()
        detector.merge((("b", 1), ("c", 1)), now=0.0)
        assert one_more > alone
        assert detector.digest_wire_size() - one_more == 2 * (one_more - alone)

    def test_targets_are_reproducible_for_a_seed(self):
        def picks(seed):
            detector = GossipFailureDetector("me", fanout=2, rng=random.Random(seed))
            detector.merge(tuple((f"m{i}", 1) for i in range(10)), now=0.0)
            return [tuple(detector.choose_targets(now=0.5)) for _ in range(20)]

        assert picks(4) == picks(4)
        assert picks(4) != picks(5)


# ---------------------------------------------------------------------- #
# Group behaviour under synchronous gossip rounds
# ---------------------------------------------------------------------- #
FAIL = 20.0
CLEANUP = 40.0


def _group(n, seed):
    """``n`` detectors that know only ``m000`` (the bootstrap contact)."""
    names = [f"m{i:03d}" for i in range(n)]
    detectors = {
        name: GossipFailureDetector(
            name, fail_timeout=FAIL, cleanup_timeout=CLEANUP, rng=random.Random(seed * 1000 + i)
        )
        for i, name in enumerate(names)
    }
    for name in names[1:]:
        detectors[name].merge(detectors[names[0]].digest(), now=0.0)
    return names, detectors


def _round(detectors, live, now, rng, loss=0.0):
    """Every live member ticks and pushes its timed digest to its targets."""
    sent = []
    for name in sorted(live):
        detector = detectors[name]
        digest = detector.tick(now)
        for target in detector.choose_targets(now):
            if rng.random() >= loss:
                sent.append((target, digest))
    for target, digest in sent:
        if target in live:
            detectors[target].merge(digest, now)
    for name in live:
        detectors[name].cleanup(now)


def _converge(names, detectors, live, rng, start, limit, loss=0.0):
    """Run rounds until every live member's table is exactly ``live``."""
    want = sorted(live)
    for now in range(start, start + limit):
        _round(detectors, live, float(now), rng, loss)
        if all(detectors[name].members() == want for name in live):
            return now
    raise AssertionError(f"no convergence within {limit} rounds")


class TestEpidemicDissemination:
    @pytest.mark.parametrize("n", [8, 100])
    def test_every_member_learns_every_other(self, n):
        # 100 members exceed the default sample cap, so the sampled target
        # path spreads the table there.  Push gossip needs O(log n) rounds.
        for seed in range(3):
            names, detectors = _group(n, seed)
            rounds = _converge(names, detectors, set(names), random.Random(seed), 1, 30)
            assert rounds <= 25
            assert all(detectors[name].suspected(float(rounds)) == [] for name in names)

    def test_crashed_member_is_suspected_then_removed_everywhere(self):
        names, detectors = _group(16, seed=1)
        live = set(names)
        rng = random.Random(1)
        crash_at = _converge(names, detectors, live, rng, 1, 40) + 1
        victim = "m005"
        live.discard(victim)
        suspected_by, removed_at = set(), {}
        end = crash_at + int(CLEANUP) + 20
        for now in range(crash_at, end):
            _round(detectors, live, float(now), rng)
            for name in live:
                if victim in detectors[name].suspected(float(now)):
                    suspected_by.add(name)
                if name not in removed_at and victim not in detectors[name].members():
                    removed_at[name] = now
        assert suspected_by == live  # every survivor suspected it first ...
        assert set(removed_at) == live  # ... and then removed it
        assert min(removed_at.values()) > crash_at + FAIL
        # Lagging digests never bring the dead member back, and no survivor
        # is suspected in its place.
        for now in range(end, end + 40):
            _round(detectors, live, float(now), rng)
        for name in live:
            assert detectors[name].members() == sorted(live)
            assert detectors[name].suspected(float(end + 39)) == []

    def test_resumed_member_is_readmitted_everywhere(self):
        names, detectors = _group(12, seed=2)
        live = set(names)
        rng = random.Random(2)
        now = _converge(names, detectors, live, rng, 1, 40) + 1
        victim = "m007"
        live.discard(victim)
        for now in range(now, now + int(CLEANUP) + 30):
            _round(detectors, live, float(now), rng)
        assert all(victim not in detectors[name].members() for name in live)
        # The member resumes with its counter where it stopped (above the
        # evicted one) and re-contacts the bootstrap member.
        live.add(victim)
        detectors[victim].merge(detectors["m000"].digest(now=float(now)), float(now))
        _converge(names, detectors, live, rng, now + 1, 40)

    @pytest.mark.parametrize("seed", range(3))
    def test_dissemination_survives_message_loss(self, seed):
        names, detectors = _group(16, seed)
        live = set(names)
        rng = random.Random(seed)
        now = _converge(names, detectors, live, rng, 1, 60, loss=0.3)
        # With 30 % of pushes lost, no live member ever looks dead.
        for now in range(now + 1, now + 80):
            _round(detectors, live, float(now), rng, loss=0.3)
            for name in names:
                assert detectors[name].suspected(float(now)) == []
        assert all(detectors[name].members() == names for name in names)

