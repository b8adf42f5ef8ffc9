"""Seeded property suite pinning the trie arena to the nested-dict CodeSet.

The nested-dict :class:`~repro.core.codeset.CodeSet` is the correctness
oracle; :class:`~repro.core.arena.ArenaCodeSet` (and the arena shadow
attached to a plain ``CodeSet``) must be observationally identical over
randomized insert / cover / merge / digest / frontier streams — including
the per-``add`` :class:`~repro.core.codeset.ContractionStats` deltas, which
the simulation charges contraction time from.

The suites run well over 1,000 distinct seeded streams in total; the main
insert-stream pin alone covers 1,000.
"""

import random

import pytest

from repro.core.arena import DONE, EMPTY, ArenaCodeSet, TrieArena
from repro.core.codeset import CodeSet
from repro.core.completion import CompletionTracker
from repro.core.encoding import ROOT, PathCode
from repro.core.work_report import WorkReport, table_digest


def random_code(rng: random.Random, max_depth: int = 7) -> PathCode:
    """A random code; mixed-variable paths exercise >2-entry trie nodes."""
    depth = rng.randint(0, max_depth)
    if rng.random() < 0.25:
        # Arbitrary branching variables: several variables can branch at the
        # same trie level, producing nodes with more than two entries (the
        # subsumption / merge-with-extra-entries edge cases).
        pairs = tuple((rng.randint(0, 3), rng.randint(0, 1)) for _ in range(depth))
        return PathCode(pairs)
    return PathCode.from_bits(rng.randint(0, 1) for _ in range(depth))


def random_stream(seed: int, length: int = None):
    rng = random.Random(seed)
    if length is None:
        length = rng.randint(1, 30)
    return rng, [random_code(rng) for _ in range(length)]


def assert_observably_equal(ref: CodeSet, cut: CodeSet, rng: random.Random):
    __tracebackhide__ = True
    assert cut.codes() == ref.codes()
    assert len(cut) == len(ref)
    assert bool(cut) == bool(ref)
    assert cut.is_complete() == ref.is_complete()
    assert cut.wire_size() == ref.wire_size()
    assert cut.max_depth() == ref.max_depth()
    assert set(cut) == set(ref)
    assert cut == ref and ref == cut
    assert table_digest(cut.codes()) == table_digest(ref.codes())
    assert cut.missing_frontier() == ref.missing_frontier()
    assert set(cut.missing_frontier_reference()) == ref.missing_frontier_reference()
    assert cut.uncovered_siblings() == ref.uncovered_siblings()
    for _ in range(10):
        probe = random_code(rng)
        assert cut.covers(probe) == ref.covers(probe)
        assert (probe in cut) == (probe in ref)
    assert sorted(cut._iter_completed_keys()) == sorted(ref._iter_completed_keys())


class TestArenaCodeSetVsReference:
    def test_insert_streams_identical_results_and_stats(self):
        """1,000 seeded insert streams: same results, same per-add stats."""
        arena = TrieArena()  # shared across streams, as in production
        for seed in range(1000):
            rng, stream = random_stream(seed)
            ref = CodeSet()
            cut = ArenaCodeSet(arena)
            for code in stream:
                assert cut.add(code) == ref.add(code), (seed, code)
                assert cut.stats.snapshot() == ref.stats.snapshot(), (seed, code)
            assert_observably_equal(ref, cut, rng)

    def test_equal_content_interns_to_equal_node_id(self):
        arena = TrieArena()
        for seed in range(150):
            _rng, stream = random_stream(seed)
            a = ArenaCodeSet(arena)
            b = ArenaCodeSet(arena)
            for code in stream:
                a.add(code)
            for code in reversed(stream):
                b.add(code)
            # Contraction is a unique normal form, so any insertion order
            # lands on the same interned node.
            assert a._nid == b._nid
            assert a.codes() is b.codes()

    def test_merge_matches_reference(self):
        arena = TrieArena()
        for seed in range(300):
            rng, stream_a = random_stream(seed * 2 + 1)
            _rng2, stream_b = random_stream(seed * 2 + 2)
            ref_a, ref_b = CodeSet(stream_a), CodeSet(stream_b)
            cut_a, cut_b = ArenaCodeSet(arena, stream_a), ArenaCodeSet(arena, stream_b)
            assert cut_a.merge(cut_b) == ref_a.merge(ref_b)
            assert_observably_equal(ref_a, cut_a, rng)
            # Merging again is a no-op both ways.
            assert cut_a.merge(cut_b) == ref_a.merge(ref_b) == False  # noqa: E712

    def test_update_with_arena_frozenset_is_pointer_fast_path(self):
        arena = TrieArena()
        for seed in range(150):
            rng, stream_a = random_stream(seed * 2 + 1)
            _rng2, stream_b = random_stream(seed * 2 + 2)
            ref_a, ref_b = CodeSet(stream_a), CodeSet(stream_b)
            cut_a, cut_b = ArenaCodeSet(arena, stream_a), ArenaCodeSet(arena, stream_b)
            codes_b = cut_b.codes()
            assert arena.node_for_codes(codes_b) == cut_b._nid
            assert cut_a.update(codes_b) == ref_a.update(ref_b.codes())
            assert_observably_equal(ref_a, cut_a, rng)

    def test_update_with_foreign_frozenset_falls_back_per_code(self):
        arena = TrieArena()
        for seed in range(100):
            rng, stream_a = random_stream(seed * 2 + 1)
            _rng2, stream_b = random_stream(seed * 2 + 2)
            ref = CodeSet(stream_a)
            cut = ArenaCodeSet(arena, stream_a)
            foreign = frozenset(stream_b)  # not an arena codes() object
            assert arena.node_for_codes(foreign) is None
            assert cut.update(foreign) == ref.update(foreign)
            assert_observably_equal(ref, cut, rng)

    def test_copy_and_frozen_view_are_snapshots(self):
        arena = TrieArena()
        for seed in range(100):
            rng, stream = random_stream(seed, length=20)
            ref = CodeSet(stream[:10])
            cut = ArenaCodeSet(arena, stream[:10])
            ref_snap, cut_snap = ref.frozen_view(), cut.frozen_view()
            ref_copy, cut_copy = ref.copy(), cut.copy()
            for code in stream[10:]:
                ref.add(code)
                cut.add(code)
            assert cut_snap.codes() == ref_snap.codes()
            assert cut_copy.codes() == ref_copy.codes()
            assert_observably_equal(ref, cut, rng)

    def test_adopt_from_arena_and_reference_sources(self):
        arena = TrieArena()
        for seed in range(100):
            rng, stream = random_stream(seed)
            ref_src = CodeSet(stream)
            cut_src = ArenaCodeSet(arena, stream)
            ref_dst, cut_dst = CodeSet(), ArenaCodeSet(arena)
            assert cut_dst.adopt_from(cut_src) == ref_dst.adopt_from(ref_src)
            assert_observably_equal(ref_dst, cut_dst, rng)
            with pytest.raises(ValueError):
                cut_dst.adopt_from(cut_src)
            # Adoption from a non-arena source rebuilds via raw keys.
            other = ArenaCodeSet(arena)
            other.adopt_from(ref_src)
            assert other.codes() == ref_src.codes()

    def test_clear_resets_to_empty(self):
        arena = TrieArena()
        cut = ArenaCodeSet(arena, [PathCode.from_bits([0, 1]), PathCode.from_bits([1])])
        assert len(cut)
        cut.clear()
        assert cut._nid == EMPTY
        assert not cut and cut.codes() == frozenset()

    def test_root_completion_collapses_to_done(self):
        arena = TrieArena()
        ref, cut = CodeSet(), ArenaCodeSet(arena)
        for code in (PathCode.from_bits([0]), PathCode.from_bits([1])):
            assert cut.add(code) == ref.add(code)
            assert cut.stats.snapshot() == ref.stats.snapshot()
        assert cut.is_complete() and ref.is_complete()
        assert cut._nid == DONE
        assert cut.add(ROOT) == ref.add(ROOT) == False  # noqa: E712


class TestCodeSetArenaShadow:
    """A plain CodeSet with an attached arena mirrors itself exactly."""

    def test_shadow_tracks_all_mutations(self):
        # Reading the shadow after every add forces a flush per insertion
        # (batch size 1 — the single-insert path of the lazy mirror).
        arena = TrieArena()
        for seed in range(200):
            _rng, stream = random_stream(seed)
            plain = CodeSet()
            shadowed = CodeSet()
            shadowed.attach_arena(arena)
            for code in stream:
                assert shadowed.add(code) == plain.add(code)
                assert shadowed.stats.snapshot() == plain.stats.snapshot()
                assert arena.codes_at(shadowed.arena_id()) == plain.codes()
            assert shadowed.codes() == plain.codes()
            assert shadowed.codes() is arena.codes_at(shadowed.arena_id())

    def test_shadow_batches_between_reads(self):
        # Reading only occasionally exercises the batched flush: pending
        # insertions are interned as one small trie and merged in a single
        # step, and the result must still equal the authoritative trie.
        arena = TrieArena()
        for seed in range(200):
            rng, stream = random_stream(seed)
            plain = CodeSet()
            shadowed = CodeSet()
            shadowed.attach_arena(arena)
            for i, code in enumerate(stream):
                assert shadowed.add(code) == plain.add(code)
                if rng.random() < 0.1:
                    assert arena.codes_at(shadowed.arena_id()) == plain.codes()
                    assert arena.digest(shadowed.arena_id()) == arena.digest(
                        arena.node_from_codes(plain.codes())
                    )
            assert shadowed.codes() == plain.codes()
            assert shadowed.structural_digest() == plain.structural_digest()

    def test_attach_to_populated_set(self):
        arena = TrieArena()
        for seed in range(100):
            _rng, stream = random_stream(seed)
            cs = CodeSet(stream)
            expected = cs.codes()
            cs.attach_arena(arena)
            assert arena.codes_at(cs._anid) == expected

    def test_shadow_survives_copy_clear_and_adopt(self):
        arena = TrieArena()
        src = CodeSet([PathCode.from_bits([0, 0]), PathCode.from_bits([1, 1, 0])])
        src.attach_arena(arena)
        clone = src.copy()
        assert clone._arena is arena and clone._anid == src._anid
        clone.clear()
        assert clone._anid == EMPTY
        dst = CodeSet()
        dst.attach_arena(arena)
        dst.adopt_from(src.frozen_view(), src.codes())
        assert dst.codes() == src.codes()
        assert arena.codes_at(dst._anid) == src.codes()


class TestTrackerWithArena:
    """CompletionTracker behaviour is unchanged by a shared arena."""

    def _drive(self, tracker: CompletionTracker, seed: int):
        rng = random.Random(seed)
        digests = []
        deltas = []
        for step in range(rng.randint(5, 25)):
            action = rng.random()
            if action < 0.5:
                tracker.record_completed(random_code(rng), now=float(step))
            elif action < 0.8:
                codes = frozenset(random_code(rng) for _ in range(rng.randint(1, 5)))
                report = WorkReport(sender="peer", codes=codes)
                tracker.merge_report(report)
                tracker.note_peer_covers("peer", codes)
            else:
                delta = tracker.build_delta_snapshot("peer")
                deltas.append(frozenset(delta.codes))
                digests.append(delta.full_digest)
            digests.append(tracker.table_digest_now())
        deltas.append(frozenset(tracker.build_delta_snapshot("other").codes))
        return digests, deltas

    def test_digest_and_delta_streams_match_reference(self):
        arena = TrieArena()
        for seed in range(200):
            plain = CompletionTracker("w", report_threshold=4)
            shared = CompletionTracker("w", report_threshold=4, arena=arena)
            assert self._drive(plain, seed) == self._drive(shared, seed)
            assert plain.table.codes() == shared.table.codes()
            assert plain.table.stats.snapshot() == shared.table.stats.snapshot()
            assert plain.missing_subtrees() == shared.missing_subtrees()

    def test_ack_flow_advances_arena_backed_view(self):
        arena = TrieArena()
        tracker = CompletionTracker("w", arena=arena)
        for code in (PathCode.from_bits([0, 0]), PathCode.from_bits([0, 1, 0])):
            tracker.record_completed(code)
        delta = tracker.build_delta_snapshot("peer")
        assert delta.codes == tracker.table.codes()
        assert tracker.note_snapshot_ack("peer", delta.full_digest)
        view = tracker.peer_view("peer")
        assert isinstance(view.known, ArenaCodeSet)
        assert view.known.codes() == tracker.table.codes()
        # Converged: the next delta is empty and not remembered.
        follow_up = tracker.build_delta_snapshot("peer")
        assert follow_up.is_empty

    def test_note_peer_converged_uses_pointer_merge(self):
        arena = TrieArena()
        tracker = CompletionTracker("w", arena=arena)
        for seed in range(50):
            tracker.record_completed(random_code(random.Random(seed)))
        tracker.note_peer_converged("peer")
        assert tracker.peer_view("peer").known._nid == tracker.table._anid


def reachable_nodes(arena: TrieArena) -> set:
    """Interior nodes reachable from the arena's live holders."""
    seen = set()
    stack = [nid for holder in list(arena._holders.values()) for nid in holder._arena_ids()]
    while stack:
        nid = stack.pop()
        if nid not in (DONE, EMPTY) and nid not in seen:
            seen.add(nid)
            stack.extend(arena._children[nid])
    return seen


class TestCollection:
    """``TrieArena.collect`` at random points changes no observable result."""

    def _drive(self, seed: int, collect_probability: float):
        """One seeded stream over every holder kind; returns what it observed.

        The actions come from ``rng`` alone and the collection points from a
        separate stream, so the same seed drives the same actions with and
        without collection.
        """
        rng = random.Random(seed)
        when = random.Random(seed + 10_000)
        arena = TrieArena()
        tracker = CompletionTracker("w", report_threshold=4, arena=arena)
        shadow = CodeSet()
        shadow.attach_arena(arena)
        sets = [ArenaCodeSet(arena), ArenaCodeSet(arena)]
        snapshots = []
        digests = []
        seen = []

        def observe(cs):
            probes = [random_code(rng) for _ in range(3)]
            return (
                cs.codes(),
                len(cs),
                cs.wire_size(),
                cs.is_complete(),
                cs.structural_digest(),
                cs.missing_frontier(),
                tuple(cs.covers(p) for p in probes),
            )

        for step in range(rng.randint(10, 40)):
            action = rng.random()
            if action < 0.2:
                tracker.record_completed(random_code(rng), now=float(step))
            elif action < 0.35:
                codes = frozenset(random_code(rng) for _ in range(rng.randint(1, 4)))
                peer = rng.choice(("p", "q"))
                tracker.merge_report(WorkReport(sender=peer, codes=codes))
                tracker.note_peer_covers(peer, codes)
            elif action < 0.5:
                delta = tracker.build_delta_snapshot(rng.choice(("p", "q")))
                digests.append(delta.full_digest)
                seen.append(("delta", delta.codes, delta.full_digest))
            elif action < 0.6 and digests:
                seen.append(("ack", tracker.note_snapshot_ack("p", rng.choice(digests))))
            elif action < 0.7:
                target = rng.choice(sets)
                target.add(random_code(rng))
                shadow.add(random_code(rng))
            elif action < 0.8:
                a, b = rng.sample(range(len(sets)), 2)
                sets[a].merge(sets[b])
                sets[b].update(tracker.table.codes())
            elif action < 0.9:
                sets.append(rng.choice(sets).copy())
                snapshots.append(shadow.frozen_view())
                snapshots.append(tracker.table.copy())
            else:
                tracker.note_peer_converged(rng.choice(("p", "q")))
            if when.random() < collect_probability:
                arena.collect()
                assert len(arena) == len(reachable_nodes(arena)) + 2
            seen.append(("table",) + observe(tracker.table))
            seen.append(("shadow",) + observe(shadow))
            for cs in sets + snapshots:
                seen.append(("set",) + observe(cs))
        for peer in ("p", "q", "fresh"):
            seen.append(("final", tracker.build_delta_snapshot(peer).codes))
        return seen

    def test_collection_at_random_points_is_invisible(self):
        for seed in range(100):
            assert self._drive(seed, 0.3) == self._drive(seed, 0.0), seed

    def test_collection_keeps_only_reachable_nodes(self):
        arena = TrieArena()
        keep = ArenaCodeSet(arena, [PathCode.from_bits([0, 1, 1]), PathCode.from_bits([1, 0])])
        for seed in range(20):
            _rng, stream = random_stream(seed)
            ArenaCodeSet(arena, stream)  # garbage as soon as it is built
        before = keep.codes()
        survivors = arena.collect()
        assert survivors == len(arena) == len(reachable_nodes(arena)) + 2
        assert keep.codes() is before  # surviving memos stay recognised
        assert arena.node_for_codes(before) == keep._nid
        assert arena.collect() == survivors  # nothing more to free

    def test_freed_holder_drops_out_of_registry(self):
        import gc

        arena = TrieArena()
        keep = ArenaCodeSet(arena, [PathCode.from_bits([0, 0])])
        gone = ArenaCodeSet(arena, [PathCode.from_bits([1, 1, 0, 1])])
        shadow = CodeSet([PathCode.from_bits([1, 0, 1])])
        shadow.attach_arena(arena)
        clone = shadow.copy()
        empty = ArenaCodeSet(arena)  # sentinel ids never move: no entry
        assert set(arena._holders) == {id(keep), id(gone), id(shadow), id(clone)}
        assert id(empty) not in arena._holders
        del gone, shadow
        gc.collect()
        assert set(arena._holders) == {id(keep), id(clone)}
        arena.collect()
        assert len(arena) == len(reachable_nodes(arena)) + 2
        assert clone.codes() == frozenset({PathCode.from_bits([1, 0, 1])})
