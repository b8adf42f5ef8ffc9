"""Property-based equivalence tests for the optimized hot-path primitives.

The optimized :class:`~repro.core.codeset.CodeSet` (an interned arena trie,
packed integer keys, the open-path insert, O(1) size counters, the counted
merge) must behave exactly like the naive fixed-point oracle
:func:`~repro.core.codeset.contract_reference` on every input, count its
contraction work exactly like the set-based
:class:`reference_table.ReferenceTable`, and the cached values on
:class:`~repro.core.encoding.PathCode` (hash, wire size, key path) must always
match recomputation from scratch.

These tests drive both through seeded random code streams — more than 1,000
distinct streams overall — covering the regular case (one branching variable
per depth, as produced by real B&B trees) and the adversarial case (variable
collisions that give a trie node more than two children, which exercises the
slow aggregate path of the merge cascade).
"""

import pickle
import random

import pytest
from reference_table import ReferenceTable, brute_frontier

from repro.core.codeset import CodeSet, contract, contract_reference, covers
from repro.core.completion import CompletionTracker
from repro.core.encoding import (
    _CODE_HEADER_BYTES,
    _PAIR_WIRE_BYTES,
    ROOT,
    PathCode,
)
from repro.core.work_report import WorkReport


def make_stream(seed, max_codes=28, max_depth=6, *, mixed_variables=False):
    """Build a deterministic random stream of codes (duplicates included)."""
    rng = random.Random(seed)
    n = rng.randint(1, max_codes)
    stream = []
    for _ in range(n):
        depth = rng.randint(0, max_depth)
        if mixed_variables:
            pairs = tuple((rng.randint(0, 2), rng.randint(0, 1)) for _ in range(depth))
        else:
            pairs = tuple((level, rng.randint(0, 1)) for level in range(depth))
        stream.append(PathCode(pairs))
    # Occasionally re-feed earlier codes to exercise covered inserts.
    for _ in range(rng.randint(0, 5)):
        stream.append(rng.choice(stream))
    return stream


def reference_covers(reference, code):
    """Oracle coverage check: the code or any ancestor is in the set."""
    return any(a in reference for a in code.ancestors(include_self=True))


def check_equivalence(stream, probes_rng):
    """Assert the incremental CodeSet agrees with the oracle on ``stream``."""
    reference = contract_reference(stream)

    cs = CodeSet()
    for code in stream:
        cs.add(code)

    assert cs.codes() == frozenset(reference)
    assert len(cs) == len(reference)
    assert set(cs) == reference
    assert cs.is_complete() == (ROOT in reference)

    # Incremental counters match recomputation from the contracted view.
    assert cs.wire_size() == sum(c.wire_size() for c in reference)
    assert cs.max_depth() == max((c.depth for c in reference), default=0)

    # Coverage agrees with the oracle on the stream and on random probes.
    for code in stream:
        assert cs.covers(code)
        assert (code in cs) == (code in reference)
    for _ in range(5):
        depth = probes_rng.randint(0, 8)
        probe = PathCode(
            tuple((level, probes_rng.randint(0, 1)) for level in range(depth))
        )
        assert cs.covers(probe) == reference_covers(reference, probe)
        assert covers(reference, probe) == reference_covers(reference, probe)

    # One-shot contraction and bulk update agree with incremental adds.
    assert contract(stream) == reference
    bulk = CodeSet(stream)
    assert bulk.codes() == cs.codes()
    assert bulk.wire_size() == cs.wire_size()

    # Every add counted what the reference table counts.
    table = ReferenceTable()
    table.add_all(stream)
    assert cs.stats.snapshot() == table.snapshot()
    return cs, reference


class TestCodeSetMatchesReference:
    @pytest.mark.parametrize("base_seed", range(20))
    def test_regular_streams(self, base_seed):
        """20 × 30 = 600 streams with one branching variable per depth."""
        probes_rng = random.Random(10_000 + base_seed)
        for sub in range(30):
            stream = make_stream(base_seed * 1_000 + sub)
            check_equivalence(stream, probes_rng)

    @pytest.mark.parametrize("base_seed", range(20))
    def test_mixed_variable_streams(self, base_seed):
        """20 × 25 = 500 adversarial streams with variable collisions."""
        probes_rng = random.Random(20_000 + base_seed)
        for sub in range(25):
            stream = make_stream(
                50_000 + base_seed * 1_000 + sub, mixed_variables=True
            )
            check_equivalence(stream, probes_rng)

    def test_merge_matches_reference_union(self):
        """Trie-to-trie merge equals contracting the concatenated streams."""
        for seed in range(120):
            left = make_stream(seed, mixed_variables=seed % 3 == 0)
            right = make_stream(90_000 + seed, mixed_variables=seed % 3 == 1)
            a = CodeSet(left)
            b = CodeSet(right)
            b_before = b.codes()
            changed = a.merge(b)
            expected = contract_reference(left + right)
            assert a.codes() == frozenset(expected)
            assert a.wire_size() == sum(c.wire_size() for c in expected)
            assert a.max_depth() == max((c.depth for c in expected), default=0)
            assert b.codes() == b_before  # merge must not mutate its source
            if not changed:
                assert frozenset(expected) == frozenset(contract_reference(left))

    def test_update_order_independence(self):
        """Bulk update (depth-sorted) equals one-at-a-time insertion."""
        for seed in range(60):
            stream = make_stream(seed, max_codes=40, mixed_variables=seed % 2 == 0)
            one_by_one = CodeSet()
            for code in stream:
                one_by_one.add(code)
            shuffled = list(stream)
            random.Random(seed).shuffle(shuffled)
            bulk = CodeSet()
            bulk.update(shuffled)
            assert bulk.codes() == one_by_one.codes()
            assert bulk.wire_size() == one_by_one.wire_size()

    def test_copy_is_independent_and_equal(self):
        for seed in range(30):
            stream = make_stream(seed, mixed_variables=True)
            original = CodeSet(stream)
            clone = original.copy()
            assert clone.codes() == original.codes()
            assert clone.wire_size() == original.wire_size()
            assert clone.max_depth() == original.max_depth()
            if not original.is_complete():
                probe = PathCode(((99, 1),))
                clone.add(probe)
                assert probe not in original
                assert clone.covers(probe) and not original.covers(probe)

    def test_missing_frontier_partitions_tree(self):
        """Frontier codes are uncovered, disjoint, and complete the table."""
        for seed in range(40):
            stream = make_stream(seed)
            cs = CodeSet(stream)
            frontier = cs.missing_frontier()
            for code in frontier:
                assert not cs.covers(code)
            full = cs.copy()
            for code in frontier:
                full.add(code)
            assert full.is_complete()


class TestFrontierMatchesBruteForce:
    """The missing frontier must equal the brute-force frontier computed
    from the codes (:func:`reference_table.brute_frontier`) after *every*
    insert of *every* seeded stream — over 1,200 streams covering regular
    trees and adversarial variable collisions — and that frontier must
    complete the table to the root under :func:`contract_reference`."""

    @staticmethod
    def drive(stream, *, first_query_at):
        cs = CodeSet()
        assert cs.missing_frontier() == {ROOT}
        for index, code in enumerate(stream):
            cs.add(code)
            if index >= first_query_at:
                assert cs.missing_frontier() == brute_frontier(cs.codes())
        # Final state always checked.
        frontier = cs.missing_frontier()
        assert frontier == brute_frontier(cs.codes())
        assert contract_reference(set(cs.codes()) | frontier) == {ROOT}
        return cs

    @pytest.mark.parametrize("base_seed", range(20))
    def test_regular_streams(self, base_seed):
        """20 × 30 = 600 streams, queried after every insert."""
        for sub in range(30):
            stream = make_stream(base_seed * 1_000 + sub)
            self.drive(stream, first_query_at=0)

    @pytest.mark.parametrize("base_seed", range(20))
    def test_mixed_variable_streams(self, base_seed):
        """20 × 30 = 600 adversarial streams; the first query lands at a
        seeded random position, so queries meet open and interned paths."""
        rng = random.Random(70_000 + base_seed)
        for sub in range(30):
            stream = make_stream(
                60_000 + base_seed * 1_000 + sub, mixed_variables=True
            )
            self.drive(stream, first_query_at=rng.randint(0, len(stream)))

    def test_frontier_survives_copy_and_merge(self):
        """Copies and merges answer from their own node."""
        for seed in range(60):
            left = make_stream(seed, mixed_variables=seed % 2 == 0)
            right = make_stream(80_000 + seed, mixed_variables=seed % 2 == 1)
            a = CodeSet(left)
            a.missing_frontier()
            clone = a.copy()
            clone.merge(CodeSet(right))
            assert clone.missing_frontier() == brute_frontier(clone.codes())
            # The original is untouched by the clone's merge.
            assert a.missing_frontier() == brute_frontier(a.codes())

    def test_frontier_memo_is_stable_between_mutations(self):
        stream = make_stream(123, max_codes=30)
        cs = CodeSet(stream[:-1])
        first = cs.missing_frontier()
        assert cs.missing_frontier() is first  # memoised between mutations
        cs.add(stream[-1])
        assert cs.missing_frontier() == brute_frontier(cs.codes())

    def test_complete_and_empty_sets(self):
        cs = CodeSet()
        assert cs.missing_frontier() == {ROOT}
        cs.add(ROOT)
        assert cs.missing_frontier() == frozenset()
        assert brute_frontier(cs.codes()) == set()
        cs.clear()
        assert cs.missing_frontier() == {ROOT}


class TestStatsMatchReferenceTable:
    """Per-add and bulk-merge :class:`ContractionStats` against the
    reference table, on seeded streams, including non-contracted reports."""

    @pytest.mark.parametrize("mixed", [False, True], ids=["regular", "mixed"])
    def test_per_add(self, mixed):
        for seed in range(150):
            stream = make_stream(30_000 + seed, mixed_variables=mixed)
            cs, table = CodeSet(), ReferenceTable()
            for code in stream:
                assert cs.add(code) == table.add(code)
                assert cs.stats.snapshot() == table.snapshot(), (seed, code)

    def test_bulk_merge(self):
        for seed in range(150):
            cs = CodeSet(make_stream(seed))
            other = CodeSet(make_stream(40_000 + seed), arena=cs.arena)
            table = ReferenceTable()
            table.add_all(sorted(make_stream(seed), key=len))
            incoming = sorted(other.codes(), reverse=seed % 2 == 0)
            new = table.add_all(incoming)
            assert cs.merge(other) == (new > 0)
            assert cs.stats.snapshot() == table.snapshot(), seed
            assert cs.codes() == table.codes

    def test_report_merges(self):
        """A tracker merging raw (non-contracted) reports code by code and
        compressed reports by node counts what the reference counts."""
        for seed in range(100):
            rng = random.Random(seed)
            tracker = CompletionTracker("w")
            sender = CompletionTracker("s", arena=tracker.arena)
            table = ReferenceTable()
            for step in range(12):
                stream = make_stream(50_000 + seed * 100 + step, max_codes=8)
                if rng.random() < 0.5:
                    codes = frozenset(stream)
                    report = WorkReport("s", codes)
                    incoming = list(codes)  # the frozenset's own order
                else:
                    for code in stream:
                        sender.record_completed(code)
                    report = sender.build_report()
                    incoming = sorted(report.codes.codes())
                new = table.add_all(incoming)
                assert tracker.merge_report(report) == (new > 0)
                assert tracker.table.stats.snapshot() == table.snapshot(), (seed, step)
                assert tracker.table.codes() == table.codes


class TestSnapshotsByNode:
    def test_copy_is_independent_and_o1(self):
        for seed in range(25):
            source = CodeSet(make_stream(seed, mixed_variables=True))
            copy = source.copy()
            assert copy.node_id() == source.node_id()  # one id, no walk
            assert copy.wire_size() == source.wire_size()
            # Mutating the copy must not leak into the source.
            if not copy.is_complete():
                probe = PathCode(((777, 1),))
                copy.add(probe)
                assert not source.covers(probe)


class TestCachedValueInvariants:
    def test_cached_hash_matches_recomputed(self):
        rng = random.Random(7)
        for _ in range(300):
            depth = rng.randint(0, 10)
            pairs = tuple((rng.randint(0, 500), rng.randint(0, 1)) for _ in range(depth))
            code = PathCode(pairs)
            assert hash(code) == hash(PathCode(pairs))
            assert hash(code) == hash(pairs)  # documented invariant
            rebuilt = PathCode.from_pairs(list(pairs))
            assert code == rebuilt and hash(code) == hash(rebuilt)

    def test_cached_wire_size_matches_formula(self):
        rng = random.Random(11)
        for _ in range(300):
            depth = rng.randint(0, 12)
            code = PathCode(tuple((lvl, rng.randint(0, 1)) for lvl in range(depth)))
            assert code.wire_size() == _CODE_HEADER_BYTES + _PAIR_WIRE_BYTES * depth
            # Derived codes built via the no-validate fast constructor keep
            # the invariant too.
            parent = code.parent()
            if parent is not None:
                assert parent.wire_size() == code.wire_size() - _PAIR_WIRE_BYTES
            sibling = code.sibling()
            if sibling is not None:
                assert sibling.wire_size() == code.wire_size()
            for ancestor in code.ancestors(include_self=True):
                assert (
                    ancestor.wire_size()
                    == _CODE_HEADER_BYTES + _PAIR_WIRE_BYTES * ancestor.depth
                )

    def test_key_path_matches_pairs(self):
        rng = random.Random(13)
        for _ in range(200):
            depth = rng.randint(0, 10)
            code = PathCode(tuple((rng.randint(0, 99), rng.randint(0, 1)) for _ in range(depth)))
            keys = code._key_path()
            assert keys == tuple((v << 1) | b for v, b in code.pairs)
            assert code._key_path() is keys  # cached after first request

    def test_pickle_roundtrip_preserves_invariants(self):
        rng = random.Random(17)
        for _ in range(50):
            depth = rng.randint(0, 8)
            code = PathCode(tuple((lvl, rng.randint(0, 1)) for lvl in range(depth)))
            clone = pickle.loads(pickle.dumps(code))
            assert clone == code
            assert hash(clone) == hash(code)
            assert clone.wire_size() == code.wire_size()
            assert clone._key_path() == code._key_path()

    def test_validation_boundary(self):
        """Public constructors validate; derivation never needs to."""
        with pytest.raises(ValueError):
            PathCode(((1, 2),))
        with pytest.raises(ValueError):
            PathCode.from_pairs([(1, 3)])
        with pytest.raises(ValueError):
            ROOT.child(4, 7)
        code = ROOT.child(1, 0).child(2, 1)
        assert code.sibling().pairs == ((1, 0), (2, 0))
        with pytest.raises(AttributeError):
            code.pairs = ()  # immutable


class TestModuleCoversFastPaths:
    def test_empty_iterables_never_cover(self):
        probe = ROOT.child(1, 0)
        assert not covers([], probe)
        assert not covers(set(), probe)
        assert not covers(frozenset(), probe)
        assert not covers(CodeSet(), probe)

    def test_container_types_agree(self):
        rng = random.Random(23)
        for seed in range(40):
            stream = make_stream(seed)
            reference = contract_reference(stream)
            cs = CodeSet(stream)
            for _ in range(5):
                depth = rng.randint(0, 8)
                probe = PathCode(
                    tuple((lvl, rng.randint(0, 1)) for lvl in range(depth))
                )
                expected = reference_covers(reference, probe)
                assert covers(reference, probe) == expected
                assert covers(frozenset(reference), probe) == expected
                assert covers(list(reference), probe) == expected
                assert covers(cs, probe) == expected
