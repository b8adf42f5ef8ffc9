"""Unit and property-based tests for code sets and contraction."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codeset import CodeSet, contract, contract_reference, covers
from repro.core.encoding import ROOT, PathCode


def leaf_codes(depth):
    """All leaf codes of a perfect binary tree branching on variable=depth."""
    return [
        PathCode(tuple((level, bit) for level, bit in enumerate(bits)))
        for bits in itertools.product((0, 1), repeat=depth)
    ]


# --------------------------------------------------------------------------- #
# Unit tests
# --------------------------------------------------------------------------- #
class TestContractBasics:
    def test_two_siblings_merge_to_parent(self):
        left = ROOT.child(1, 0)
        right = ROOT.child(1, 1)
        assert contract([left, right]) == {ROOT}

    def test_descendant_subsumed_by_ancestor(self):
        parent = ROOT.child(1, 0)
        child = parent.child(2, 1)
        assert contract([parent, child]) == {parent}
        assert contract([child, parent]) == {parent}

    def test_cascade_to_root(self):
        codes = leaf_codes(3)
        assert contract(codes) == {ROOT}

    def test_partial_tree_does_not_reach_root(self):
        codes = leaf_codes(2)[:3]  # one leaf missing
        result = contract(codes)
        assert ROOT not in result
        # Three leaves of a depth-2 tree contract to one depth-1 node + one leaf.
        assert len(result) == 2

    def test_empty_input(self):
        assert contract([]) == set()

    def test_root_swallows_everything(self):
        codes = [ROOT, ROOT.child(1, 0), ROOT.child(1, 0).child(2, 1)]
        assert contract(codes) == {ROOT}

    def test_duplicates_are_harmless(self):
        a = ROOT.child(1, 0)
        assert contract([a, a, a]) == {a}


class TestCovers:
    def test_covers_self_and_descendants(self):
        a = ROOT.child(1, 0)
        assert covers([a], a)
        assert covers([a], a.child(2, 0))
        assert not covers([a], a.sibling())
        assert not covers([a], ROOT)

    def test_covers_accepts_codeset(self):
        cs = CodeSet([ROOT.child(1, 0)])
        assert covers(cs, ROOT.child(1, 0).child(5, 1))


class TestCodeSet:
    def test_add_returns_change_flag(self):
        cs = CodeSet()
        a = ROOT.child(1, 0)
        assert cs.add(a) is True
        assert cs.add(a) is False
        assert cs.add(a.child(2, 0)) is False  # covered by ancestor

    def test_sibling_merge_on_add(self):
        cs = CodeSet()
        cs.add(ROOT.child(1, 0))
        assert not cs.is_complete()
        cs.add(ROOT.child(1, 1))
        assert cs.is_complete()
        assert cs.codes() == frozenset({ROOT})

    def test_len_tracks_contracted_size(self):
        cs = CodeSet()
        cs.add(ROOT.child(1, 0).child(2, 0))
        cs.add(ROOT.child(1, 1))
        assert len(cs) == 2
        cs.add(ROOT.child(1, 0).child(2, 1))
        # left subtree merges, then merges with the right child -> root
        assert len(cs) == 1
        assert cs.is_complete()

    def test_update_and_merge(self):
        cs1 = CodeSet([ROOT.child(1, 0)])
        cs2 = CodeSet([ROOT.child(1, 1)])
        changed = cs1.merge(cs2)
        assert changed
        assert cs1.is_complete()

    def test_contains_is_exact_membership(self):
        a = ROOT.child(1, 0)
        cs = CodeSet([a])
        assert a in cs
        assert a.child(2, 0) not in cs  # covered, but not an element
        assert cs.covers(a.child(2, 0))

    def test_copy_is_independent(self):
        cs = CodeSet([ROOT.child(1, 0)])
        clone = cs.copy()
        clone.add(ROOT.child(1, 1))
        assert clone.is_complete()
        assert not cs.is_complete()

    def test_clear(self):
        cs = CodeSet([ROOT.child(1, 0)])
        cs.clear()
        assert len(cs) == 0
        assert not cs.is_complete()

    def test_equality_with_sets(self):
        a = ROOT.child(1, 0)
        assert CodeSet([a]) == {a}
        assert CodeSet([a]) == CodeSet([a])
        assert CodeSet([a]) != CodeSet([a.sibling()])

    def test_wire_size_and_max_depth(self):
        cs = CodeSet([ROOT.child(1, 0).child(2, 1), ROOT.child(1, 1)])
        assert cs.wire_size() > 0
        assert cs.max_depth() == 2
        assert CodeSet().max_depth() == 0

    def test_stats_count_operations(self):
        cs = CodeSet()
        cs.add(ROOT.child(1, 0))
        cs.add(ROOT.child(1, 1))
        assert cs.stats.insertions == 2
        assert cs.stats.merges == 1
        assert cs.stats.elementary_operations() >= 3
        snapshot = cs.stats.snapshot()
        assert snapshot["merges"] == 1

    def test_subsumption_removes_descendants(self):
        cs = CodeSet()
        deep = ROOT.child(1, 0).child(2, 0).child(3, 1)
        cs.add(deep)
        cs.add(ROOT.child(1, 0))
        assert cs.codes() == frozenset({ROOT.child(1, 0)})
        assert cs.stats.subsumptions >= 1

    def test_uncovered_siblings(self):
        cs = CodeSet([ROOT.child(1, 0).child(2, 0)])
        assert cs.uncovered_siblings() == {ROOT.child(1, 0).child(2, 1)}
        assert CodeSet([ROOT]).uncovered_siblings() == set()

    def test_missing_frontier_simple(self):
        cs = CodeSet([ROOT.child(1, 0).child(2, 0)])
        assert cs.missing_frontier() == {
            ROOT.child(1, 0).child(2, 1),
            ROOT.child(1, 1),
        }
        assert CodeSet().missing_frontier() == {ROOT}
        assert CodeSet([ROOT]).missing_frontier() == set()

    def test_bool(self):
        assert not CodeSet()
        assert CodeSet([ROOT.child(0, 0)])


# --------------------------------------------------------------------------- #
# Property-based tests
# --------------------------------------------------------------------------- #
@st.composite
def arbitrary_codes(draw, max_depth=6, max_var=3):
    depth = draw(st.integers(min_value=0, max_value=max_depth))
    pairs = tuple(
        (draw(st.integers(min_value=0, max_value=max_var)), draw(st.integers(min_value=0, max_value=1)))
        for _ in range(depth)
    )
    return PathCode(pairs)


@st.composite
def tree_codes(draw, max_depth=6):
    """Codes from a consistent tree (variable at depth d is d)."""
    depth = draw(st.integers(min_value=0, max_value=max_depth))
    bits = draw(st.lists(st.integers(min_value=0, max_value=1), min_size=depth, max_size=depth))
    return PathCode(tuple((level, bit) for level, bit in enumerate(bits)))


class TestContractionProperties:
    @given(st.lists(tree_codes(), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_incremental_matches_reference(self, codes):
        """The trie-backed CodeSet equals the naive fixed-point oracle."""
        cs = CodeSet()
        for code in codes:
            cs.add(code)
        assert cs.codes() == frozenset(contract_reference(codes))
        assert contract(codes) == contract_reference(codes)

    @given(st.lists(arbitrary_codes(), max_size=15))
    @settings(max_examples=150, deadline=None)
    def test_incremental_matches_reference_arbitrary_variables(self, codes):
        cs = CodeSet(codes)
        assert cs.codes() == frozenset(contract_reference(codes))

    @given(st.lists(tree_codes(), max_size=20), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_order_independence(self, codes, rnd):
        shuffled = list(codes)
        rnd.shuffle(shuffled)
        assert CodeSet(codes).codes() == CodeSet(shuffled).codes()

    @given(st.lists(tree_codes(), max_size=20))
    @settings(max_examples=150, deadline=None)
    def test_contraction_is_idempotent(self, codes):
        once = contract(codes)
        twice = contract(once)
        assert once == twice

    @given(st.lists(tree_codes(max_depth=5), max_size=15), tree_codes(max_depth=5))
    @settings(max_examples=200, deadline=None)
    def test_coverage_preserved_by_contraction(self, codes, probe):
        """Contraction never changes which subproblems are covered."""
        naive_cover = any(
            c == probe or c.is_ancestor_of(probe) for c in codes
        )
        cs = CodeSet(codes)
        # Contraction may *add* coverage (sibling merges assert the parent),
        # but must never lose it.
        if naive_cover:
            assert cs.covers(probe)

    @given(st.lists(tree_codes(max_depth=5), max_size=15))
    @settings(max_examples=150, deadline=None)
    def test_contracted_invariant(self, codes):
        """No element is sibling, ancestor or descendant of another element."""
        result = CodeSet(codes).codes()
        for a in result:
            for b in result:
                if a is b or a == b:
                    continue
                assert not a.is_ancestor_of(b)
                assert a.sibling() != b

    @given(st.integers(min_value=1, max_value=5), st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_all_leaves_contract_to_root(self, depth, rnd):
        codes = leaf_codes(depth)
        rnd.shuffle(codes)
        cs = CodeSet()
        for i, code in enumerate(codes):
            cs.add(code)
            if i < len(codes) - 1:
                assert not cs.is_complete()
        assert cs.is_complete()
        assert cs.codes() == frozenset({ROOT})

    @given(st.lists(tree_codes(max_depth=5), min_size=1, max_size=15))
    @settings(max_examples=100, deadline=None)
    def test_wire_size_never_grows_under_contraction(self, codes):
        raw = sum(c.wire_size() for c in set(codes))
        assert CodeSet(codes).wire_size() <= raw

    @given(
        st.lists(
            st.tuples(st.booleans(), st.lists(tree_codes(max_depth=7), min_size=1, max_size=4)),
            max_size=12,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_adds_interleaved_with_merges_match_reference(self, steps):
        """A merge keeps the part of the open insertion path it left
        unchanged; later adds and queries must read the merged content."""
        cs = CodeSet()
        seen = []
        for merge, codes in steps:
            if merge:
                cs.merge(CodeSet(codes, arena=cs.arena))
            else:
                for code in codes:
                    cs.add(code)
            seen += codes
            expected = frozenset(contract_reference(seen))
            assert len(cs) == len(expected)
            assert all(cs.covers(code) for code in seen)
            assert cs.codes() == expected
