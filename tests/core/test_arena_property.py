"""Seeded property suite pinning the arena-backed CodeSet to set oracles.

:class:`~repro.core.codeset.CodeSet` keeps its content as a node of a
:class:`~repro.core.arena.TrieArena`, inserts through an open path and
merges whole sets with the counted merge.  It must be observationally
identical to the set-based :class:`reference_table.ReferenceTable` over
randomized insert / cover / merge / digest / frontier streams — including
the per-``add`` and per-merge :class:`~repro.core.codeset.ContractionStats`,
which the simulation charges contraction time from — and its missing
frontier must equal the brute-force frontier computed from its codes.

The suites run well over 1,000 distinct seeded streams in total; the main
insert-stream pin alone covers 1,000.
"""

import random

import pytest
from reference_table import ReferenceTable, brute_frontier

from repro.core.arena import DONE, EMPTY, TrieArena
from repro.core.codeset import CodeSet, contract_reference
from repro.core.completion import CompletionTracker
from repro.core.encoding import ROOT, PathCode
from repro.core.work_report import WorkReport, table_digest


def code_of(bits) -> PathCode:
    """The code taking branch ``bits[d]`` on variable ``d`` at each depth."""
    return PathCode(tuple(enumerate(int(bit) for bit in bits)))


def random_code(rng: random.Random, max_depth: int = 7, mixed: bool = True) -> PathCode:
    """A random code; mixed-variable paths exercise >2-entry trie nodes."""
    depth = rng.randint(0, max_depth)
    if mixed and rng.random() < 0.25:
        # Arbitrary branching variables: several variables can branch at the
        # same trie level, producing nodes with more than two entries (the
        # subsumption / merge-with-extra-entries edge cases).
        pairs = tuple((rng.randint(0, 3), rng.randint(0, 1)) for _ in range(depth))
        return PathCode(pairs)
    return code_of(rng.randint(0, 1) for _ in range(depth))


def random_stream(seed: int, length: int = None, mixed: bool = True):
    rng = random.Random(seed)
    if length is None:
        length = rng.randint(1, 30)
    return rng, [random_code(rng, mixed=mixed) for _ in range(length)]


def assert_matches_reference(ref: ReferenceTable, cut: CodeSet, rng: random.Random):
    __tracebackhide__ = True
    assert cut.codes() == ref.codes
    assert len(cut) == len(ref.codes)
    assert bool(cut) == bool(ref.codes)
    assert cut.is_complete() == (ROOT in ref.codes)
    assert cut.wire_size() == sum(c.wire_size() for c in ref.codes)
    assert cut.max_depth() == max((c.depth for c in ref.codes), default=0)
    assert set(cut) == ref.codes
    assert cut == ref.codes
    assert cut.structural_digest() == table_digest(ref.codes)
    # The frontier oracle: computed from the codes alone, then checked to
    # complete the table to the root under contract_reference.
    frontier = brute_frontier(ref.codes)
    assert cut.missing_frontier() == frontier
    assert not any(ref.covers(code) for code in frontier)
    assert contract_reference(ref.codes | frontier) == {ROOT}
    assert cut.uncovered_siblings() == {
        c.sibling() for c in ref.codes if c.sibling() is not None and not ref.covers(c.sibling())
    }
    for _ in range(10):
        probe = random_code(rng)
        assert cut.covers(probe) == ref.covers(probe)
        assert (probe in cut) == (probe in ref.codes)
    assert sorted(cut.key_paths()) == sorted(c._key_path() for c in ref.codes)


class TestCodeSetVsReferenceTable:
    def test_insert_streams_identical_results_and_stats(self):
        """1,000 seeded insert streams: same results, same per-add stats."""
        arena = TrieArena()  # shared across streams, as in production
        for seed in range(1000):
            rng, stream = random_stream(seed)
            ref = ReferenceTable()
            cut = CodeSet(arena=arena)
            for code in stream:
                assert cut.add(code) == ref.add(code), (seed, code)
                assert cut.stats.snapshot() == ref.snapshot(), (seed, code)
                if rng.random() < 0.2:
                    cut.node_id()  # interning the open path changes nothing
            assert_matches_reference(ref, cut, rng)

    def test_equal_content_interns_to_equal_node_id(self):
        arena = TrieArena()
        for seed in range(150):
            _rng, stream = random_stream(seed)
            a = CodeSet(arena=arena)
            b = CodeSet(arena=arena)
            for code in stream:
                a.add(code)
            for code in reversed(stream):
                b.add(code)
            # Contraction is a unique normal form, so any insertion order
            # lands on the same interned node.
            assert a.node_id() == b.node_id()
            assert a == b

    def test_merge_matches_reference(self):
        """The counted merge records what one-at-a-time adds of the other
        set's codes record, in any order, on trees that branch on one
        variable per node (every B&B tree); on mixed-variable tries the
        content still matches."""
        arena = TrieArena()
        for seed in range(300):
            mixed = seed % 3 == 0
            rng, stream_a = random_stream(seed * 2 + 1, mixed=mixed)
            _rng2, stream_b = random_stream(seed * 2 + 2, mixed=mixed)
            cut_a = CodeSet(stream_a, arena=arena)
            cut_b = CodeSet(stream_b, arena=arena)
            ref = ReferenceTable()
            ref.add_all(sorted(stream_a, key=len))
            before = ref.snapshot()
            assert cut_a.stats.snapshot() == before
            incoming = sorted(cut_b.codes())
            rng.shuffle(incoming)
            new = ref.add_all(incoming)
            assert cut_a.merge(cut_b) == (new > 0)
            if not mixed:
                assert cut_a.stats.snapshot() == ref.snapshot(), seed
            assert_matches_reference(ref, cut_a, rng)
            # Merging again is a no-op.
            assert cut_a.merge(cut_b) is False

    def test_update_with_code_set_is_node_merge(self):
        arena = TrieArena()
        for seed in range(150):
            rng, stream_a = random_stream(seed * 2 + 1, mixed=False)
            _rng2, stream_b = random_stream(seed * 2 + 2, mixed=False)
            cut_a, cut_b = CodeSet(stream_a, arena=arena), CodeSet(stream_b, arena=arena)
            ref = ReferenceTable()
            ref.add_all(sorted(stream_a, key=len))
            new = ref.add_all(cut_b.codes())
            assert cut_a.update(cut_b) == (new > 0)
            assert cut_a.stats.snapshot() == ref.snapshot()
            assert_matches_reference(ref, cut_a, rng)

    def test_update_with_foreign_frozenset_falls_back_per_code(self):
        arena = TrieArena()
        for seed in range(100):
            rng, stream_a = random_stream(seed * 2 + 1)
            _rng2, stream_b = random_stream(seed * 2 + 2)
            cut = CodeSet(stream_a, arena=arena)
            ref = ReferenceTable()
            ref.add_all(sorted(stream_a, key=len))
            foreign = frozenset(stream_b)  # not contracted, not a code set
            new = ref.add_all(sorted(foreign, key=len))
            assert cut.update(foreign) == (new > 0)
            assert cut.stats.snapshot() == ref.snapshot()
            assert_matches_reference(ref, cut, rng)

    def test_copy_is_a_snapshot(self):
        arena = TrieArena()
        for seed in range(100):
            rng, stream = random_stream(seed, length=20)
            ref = ReferenceTable()
            ref.add_all(stream[:10])
            cut = CodeSet(arena=arena)
            for code in stream[:10]:
                cut.add(code)
            copy = cut.copy()
            handle = CodeSet.of_node(arena, cut.node_id())
            for code in stream[10:]:
                cut.add(code)
            assert copy.codes() == handle.codes() == frozenset(contract_reference(stream[:10]))
            ref.add_all(stream[10:])
            assert_matches_reference(ref, cut, rng)

    def test_clear_resets_to_empty(self):
        arena = TrieArena()
        cut = CodeSet([code_of([0, 1]), code_of([1])], arena=arena)
        assert len(cut)
        cut.clear()
        assert cut.node_id() == EMPTY
        assert not cut and cut.codes() == frozenset()

    def test_root_completion_collapses_to_done(self):
        arena = TrieArena()
        ref, cut = ReferenceTable(), CodeSet(arena=arena)
        for code in (code_of([0]), code_of([1])):
            assert cut.add(code) == ref.add(code)
            assert cut.stats.snapshot() == ref.snapshot()
        assert cut.is_complete()
        assert cut.node_id() == DONE
        assert cut.add(ROOT) == ref.add(ROOT) == False  # noqa: E712


class TestOpenPath:
    """Local completions edit the open path; only a read interns it."""

    def test_reading_only_at_the_end_interns_fewer_nodes(self):
        leaves = [
            code_of(int(bit) for bit in format(i, "08b")) for i in range(255)
        ]  # every leaf of a depth-8 tree but the last, in DFS order
        eager_arena, lazy_arena = TrieArena(), TrieArena()
        eager, lazy = CodeSet(arena=eager_arena), CodeSet(arena=lazy_arena)
        for code in leaves:
            eager.add(code)
            eager.node_id()
            lazy.add(code)
        assert lazy.node_id() == lazy_arena.node_from_keys(eager.key_paths())
        assert lazy.codes() == eager.codes()
        assert lazy.stats.snapshot() == eager.stats.snapshot()
        assert len(lazy_arena) < len(eager_arena) / 2

    def test_covers_on_an_open_path_matches_the_interned_node(self):
        for seed in range(200):
            rng, stream = random_stream(seed)
            cut = CodeSet()
            for code in stream:
                cut.add(code)
                probes = [random_code(rng) for _ in range(4)] + [code, code.parent() or ROOT]
                open_answers = [cut.covers(p) for p in probes]
                cut.node_id()
                assert open_answers == [cut.covers(p) for p in probes], seed


class TestTrackerWithArena:
    """The tracker's table against the reference table: per-add local
    completions, non-contracted raw reports merged code by code, and code
    set reports merged with the counted merge."""

    def _drive(self, tracker: CompletionTracker, seed: int):
        rng = random.Random(seed)
        sender = CompletionTracker("peer", arena=tracker.arena)
        ref = ReferenceTable()
        known = ReferenceTable()  # what "peer" provably covers
        received = redundant = 0
        for step in range(rng.randint(5, 25)):
            action = rng.random()
            if action < 0.4:
                code = random_code(rng, mixed=False)
                tracker.record_completed(code, now=float(step))
                ref.add(code)
            elif action < 0.6:
                # A raw, non-contracted report: merged code by code, in
                # the frozenset's own order.
                codes = frozenset(
                    random_code(rng, mixed=False) for _ in range(rng.randint(1, 5))
                )
                report = WorkReport(sender="peer", codes=codes)
                new = ref.add_all(codes)
                assert tracker.merge_report(report) == (new > 0)
                tracker.note_peer_covers("peer", codes)
                known.add_all(codes)
                received += len(codes)
                redundant += len(codes) - new
            elif action < 0.8:
                # A compressed report built by a tracker in the same arena:
                # a code set merged by node id.
                for _ in range(rng.randint(1, 5)):
                    sender.record_completed(random_code(rng, mixed=False))
                report = sender.build_report()
                incoming = sorted(report.codes.codes())
                rng.shuffle(incoming)
                new = ref.add_all(incoming)
                assert tracker.merge_report(report) == (new > 0)
                tracker.note_peer_covers("peer", report.codes)
                known.add_all(incoming)
                received += len(incoming)
                redundant += len(incoming) - new
            else:
                delta = tracker.build_delta_snapshot("peer")
                expected = {c for c in ref.codes if not known.covers(c)}
                assert delta.codes == expected, seed
                assert delta.full_digest == table_digest(ref.codes)
            assert tracker.table.stats.snapshot() == ref.snapshot(), (seed, step)
            assert tracker.table.codes() == ref.codes
            assert tracker.table_digest_now() == table_digest(ref.codes)
            assert tracker.codes_received == received
            assert tracker.redundant_codes_received == redundant
        assert tracker.build_delta_snapshot("other").codes == ref.codes
        assert tracker.missing_subtrees() == brute_frontier(ref.codes)

    def test_digest_and_delta_streams_match_reference(self):
        arena = TrieArena()
        for seed in range(200):
            self._drive(CompletionTracker("w", report_threshold=4, arena=arena), seed)

    def test_ack_flow_advances_view(self):
        arena = TrieArena()
        tracker = CompletionTracker("w", arena=arena)
        for code in (code_of([0, 0]), code_of([0, 1, 0])):
            tracker.record_completed(code)
        delta = tracker.build_delta_snapshot("peer")
        assert delta.codes == tracker.table
        assert tracker.note_snapshot_ack("peer", delta.full_digest)
        view = tracker.peer_view("peer")
        assert view.known.stats is None  # a view never reads stats
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
        assert tracker.peer_view("peer").known.node_id() == tracker.table.node_id()


def reachable_nodes(arena: TrieArena) -> set:
    """Interior nodes reachable from the arena's live holders."""
    seen = set()
    stack = [nid for holder in list(arena._holders.values()) for nid in holder._arena_ids()]
    while stack:
        nid = stack.pop()
        if nid not in (DONE, EMPTY) and nid not in seen:
            seen.add(nid)
            stack.extend(arena.children(nid))
    return seen


class TestCollection:
    """``TrieArena.collect`` at random points changes no observable result."""

    def _drive(self, seed: int, collect_probability: float):
        """One seeded stream over every holder kind; returns what it observed.

        The actions come from ``rng`` alone and the collection points from a
        separate stream, so the same seed drives the same actions with and
        without collection.  Tables are often collected with an open,
        not yet interned insertion path.
        """
        rng = random.Random(seed)
        when = random.Random(seed + 10_000)
        arena = TrieArena()
        tracker = CompletionTracker("w", report_threshold=4, arena=arena)
        table = CodeSet(arena=arena)
        sets = [CodeSet(arena=arena), CodeSet(arena=arena)]
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
                snapshots.append(delta.codes)  # a payload in flight
                seen.append(("delta", delta.codes.codes(), delta.full_digest))
            elif action < 0.6 and digests:
                seen.append(("ack", tracker.note_snapshot_ack("p", rng.choice(digests))))
            elif action < 0.7:
                target = rng.choice(sets)
                target.add(random_code(rng))
                table.add(random_code(rng))
            elif action < 0.8:
                a, b = rng.sample(range(len(sets)), 2)
                sets[a].merge(sets[b])
                sets[b].update(tracker.table)
            elif action < 0.9:
                sets.append(rng.choice(sets).copy())
                snapshots.append(tracker.build_table_snapshot().codes)
                snapshots.append(tracker.table.copy())
            else:
                tracker.note_peer_converged(rng.choice(("p", "q")))
            if when.random() < collect_probability:
                arena.collect()
                assert len(arena) == len(reachable_nodes(arena)) + 2
            seen.append(("table",) + observe(tracker.table))
            seen.append(("plain",) + observe(table))
            for cs in sets + snapshots:
                seen.append(("set",) + observe(cs))
        for peer in ("p", "q", "fresh"):
            seen.append(("final", tracker.build_delta_snapshot(peer).codes.codes()))
        return seen

    def test_collection_at_random_points_is_invisible(self):
        for seed in range(100):
            assert self._drive(seed, 0.3) == self._drive(seed, 0.0), seed

    def test_collection_keeps_only_reachable_nodes(self):
        arena = TrieArena()
        keep = CodeSet([code_of([0, 1, 1]), code_of([1, 0])], arena=arena)
        for seed in range(20):
            _rng, stream = random_stream(seed)
            CodeSet(stream, arena=arena)  # garbage as soon as it is built
        before = keep.codes()
        survivors = arena.collect()
        assert survivors == len(arena) == len(reachable_nodes(arena)) + 2
        assert keep.codes() == before
        assert arena.collect() == survivors  # nothing more to free

    def test_collect_interns_an_open_path_first(self):
        arena = TrieArena()
        table = CodeSet(arena=arena)
        for code in (code_of([0, 0, 1]), code_of([0, 1, 1, 0])):
            table.add(code)
        expected = frozenset(table.codes())
        table.add(code_of([1, 0, 1]))  # open again, not interned
        arena.collect()
        assert table.codes() == expected | {code_of([1, 0, 1])}

    def test_freed_holder_drops_out_of_registry(self):
        import gc

        arena = TrieArena()
        keep = CodeSet([code_of([0, 0])], arena=arena)
        gone = CodeSet([code_of([1, 1, 0, 1])], arena=arena)
        table = CodeSet([code_of([1, 0, 1])], arena=arena)
        clone = table.copy()
        empty = CodeSet(arena=arena)  # sentinel ids never move: no entry
        assert set(arena._holders) == {id(keep), id(gone), id(table), id(clone)}
        assert id(empty) not in arena._holders
        del gone, table
        gc.collect()
        assert set(arena._holders) == {id(keep), id(clone)}
        arena.collect()
        assert len(arena) == len(reachable_nodes(arena)) + 2
        assert clone.codes() == frozenset({code_of([1, 0, 1])})


class TestCollectionKeepsViewsExact:
    """A collection remaps every id a peer view stores — its known node, its
    pending sends and the same-arena payloads waiting in its backlog — with
    the tracker as the views' one arena holder."""

    PEERS = ("p", "q", "r", "s")

    def _drive(self, seed: int, collect_probability: float):
        """One seeded stream of reports, deltas and acks to several peers;
        returns what each view showed and how many collections ran while a
        backlog held a bare node id."""
        rng = random.Random(seed)
        when = random.Random(seed + 20_000)
        arena = TrieArena()
        tracker = CompletionTracker("w", report_threshold=4, arena=arena)
        digests = {peer: [] for peer in self.PEERS}
        seen = []
        sharp = 0
        for step in range(rng.randint(30, 80)):
            action = rng.random()
            peer = rng.choice(self.PEERS)
            if action < 0.25:
                tracker.record_completed(random_code(rng), now=float(step))
            elif action < 0.55:
                codes = [random_code(rng) for _ in range(rng.randint(1, 4))]
                if rng.random() < 0.6:
                    # A same-arena payload the view keeps as a node id only.
                    payload = CodeSet.of_node(arena, arena.node_from_codes(codes))
                else:
                    payload = frozenset(codes)
                if rng.random() < 0.5:
                    tracker.merge_report(WorkReport(sender=peer, codes=payload))
                tracker.note_peer_covers(peer, payload)
                del payload  # the message is gone; only the backlog holds it
            elif action < 0.75:
                delta = tracker.build_delta_snapshot(peer)
                digests[peer].append(delta.full_digest)
                seen.append(("delta", peer, delta.codes.codes(), delta.full_digest))
                del delta
            elif action < 0.93:
                if digests[peer]:
                    ack = tracker.note_snapshot_ack(peer, rng.choice(digests[peer]))
                    seen.append(("ack", peer, ack))
            else:
                tracker.note_peer_converged(peer)
            if when.random() < collect_probability:
                sharp += any(
                    type(entry) is int
                    for view in tracker._peer_views.values()
                    for entry in view._backlog or ()
                )
                arena.collect()
                assert len(arena) == len(reachable_nodes(arena)) + 2
            for name, view in sorted(tracker._peer_views.items()):
                seen.append(("known", name, view.known.codes(), len(view.pending or ())))
        for peer in self.PEERS + ("fresh",):
            seen.append(("final", peer, tracker.build_delta_snapshot(peer).codes.codes()))
            seen.append(("known", peer, tracker.peer_view(peer).known.codes()))
        return seen, sharp

    def test_views_match_the_stream_without_collection(self):
        sharp = 0
        for seed in range(60):
            collected, hits = self._drive(seed, 0.35)
            assert collected == self._drive(seed, 0.0)[0], seed
            sharp += hits
        # Most collections ran while a backlog held a payload's bare id.
        assert sharp > 500


@pytest.mark.parametrize("floor", [4, 16])
def test_collect_if_outgrown_keeps_the_arena_within_twice_its_survivors(monkeypatch, floor):
    """The one collection rule: the arena never outgrows twice the nodes
    the last collection kept (or the floor) between two of its calls, and
    a collection keeps exactly the reachable nodes."""
    from repro.core import arena as arena_module

    monkeypatch.setattr(arena_module, "_COLLECT_FLOOR", floor)
    arena = TrieArena()
    tables = [CodeSet(arena=arena) for _ in range(3)]
    rng = random.Random(floor)
    survivors = 2
    for step in range(400):
        table = rng.choice(tables)
        table.add(random_code(rng, max_depth=10))
        if step % 7 == 0:
            table.node_id()
        if rng.random() < 0.05:
            table.clear()
        if arena.collect_if_outgrown():
            survivors = len(arena)
            assert survivors == len(reachable_nodes(arena)) + 2
        assert len(arena) <= max(2 * survivors, floor)
    assert arena.collections > 0
