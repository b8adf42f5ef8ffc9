"""Tests for complement computation and recovery-candidate selection."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codeset import CodeSet
from repro.core.complement import (
    SelectionStrategy,
    complement_frontier,
    minimal_complement,
    select_recovery_candidate,
)
from repro.core.encoding import ROOT, PathCode


def complement_covers_tree(completed, frontier):
    """The structural complement invariants the property tests check.

    Every frontier code must be uncovered by the completed table, and the
    frontier codes must be pairwise disjoint subtrees (no duplicates, no
    ancestor/descendant pairs).  The "together they cover the tree" half of
    the invariant needs knowledge of the tree and is checked probe-wise.
    """
    for i, code in enumerate(frontier):
        if completed.covers(code):
            return False
        for other in frontier[i + 1 :]:
            if code == other or code.is_ancestor_of(other) or other.is_ancestor_of(code):
                return False
    return True


def leaf_codes(depth):
    return [
        PathCode(tuple((level, bit) for level, bit in enumerate(bits)))
        for bits in itertools.product((0, 1), repeat=depth)
    ]


class TestComplementFrontier:
    def test_empty_table_misses_everything(self):
        assert complement_frontier(CodeSet()) == {ROOT}

    def test_complete_table_misses_nothing(self):
        assert complement_frontier(CodeSet([ROOT])) == set()

    def test_single_deep_code(self):
        cs = CodeSet([ROOT.child(0, 0).child(1, 0)])
        assert complement_frontier(cs) == {
            ROOT.child(0, 0).child(1, 1),
            ROOT.child(0, 1),
        }

    def test_minimal_complement_accepts_iterables(self):
        frontier = minimal_complement([ROOT.child(0, 1)])
        assert frontier == {ROOT.child(0, 0)}

    def test_invariant_checker(self):
        cs = CodeSet([ROOT.child(0, 0)])
        frontier = sorted(complement_frontier(cs))
        assert complement_covers_tree(cs, frontier)
        # A frontier containing a covered code violates the invariant.
        assert not complement_covers_tree(cs, [ROOT.child(0, 0).child(1, 1)])
        # Overlapping frontier codes violate the invariant.
        assert not complement_covers_tree(cs, [ROOT.child(0, 1), ROOT.child(0, 1).child(1, 0)])


class TestSelection:
    def make_table(self):
        return CodeSet([ROOT.child(0, 0).child(1, 0).child(2, 0)])

    def test_deepest_and_shallowest(self):
        table = self.make_table()
        deepest = select_recovery_candidate(table, strategy=SelectionStrategy.DEEPEST)
        shallowest = select_recovery_candidate(table, strategy=SelectionStrategy.SHALLOWEST)
        assert deepest.depth >= shallowest.depth
        assert deepest == ROOT.child(0, 0).child(1, 0).child(2, 1)
        assert shallowest == ROOT.child(0, 1)

    def test_random_is_deterministic_with_seed(self):
        table = self.make_table()
        a = select_recovery_candidate(
            table, strategy=SelectionStrategy.RANDOM, rng=random.Random(3)
        )
        b = select_recovery_candidate(
            table, strategy=SelectionStrategy.RANDOM, rng=random.Random(3)
        )
        assert a == b
        assert a in complement_frontier(table)

    def test_near_last_completed(self):
        table = self.make_table()
        last = ROOT.child(0, 0).child(1, 0).child(2, 0)
        candidate = select_recovery_candidate(
            table,
            strategy=SelectionStrategy.NEAR_LAST_COMPLETED,
            last_completed=last,
        )
        # The candidate sharing the longest prefix with the last completed
        # problem is its direct sibling.
        assert candidate == ROOT.child(0, 0).child(1, 0).child(2, 1)

    def test_near_last_completed_without_hint_falls_back(self):
        table = self.make_table()
        candidate = select_recovery_candidate(
            table, strategy=SelectionStrategy.NEAR_LAST_COMPLETED, last_completed=None
        )
        assert candidate in complement_frontier(table)

    def test_exclusion(self):
        table = CodeSet([ROOT.child(0, 0)])
        only = ROOT.child(0, 1)
        assert select_recovery_candidate(table, exclude=[only]) is None
        assert select_recovery_candidate(table) == only

    def test_complete_table_returns_none(self):
        assert select_recovery_candidate(CodeSet([ROOT])) is None

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            select_recovery_candidate(CodeSet(), strategy="bogus")  # type: ignore[arg-type]


@st.composite
def completed_leaf_subset(draw, max_depth=5):
    depth = draw(st.integers(min_value=1, max_value=max_depth))
    leaves = leaf_codes(depth)
    subset = draw(st.lists(st.sampled_from(leaves), max_size=len(leaves), unique=True))
    return depth, subset


class TestComplementProperties:
    @given(completed_leaf_subset())
    @settings(max_examples=200, deadline=None)
    def test_frontier_partitions_the_tree(self, case):
        """Every leaf is covered by the table XOR by the complement frontier."""
        depth, completed = case
        table = CodeSet(completed)
        frontier = complement_frontier(table)
        assert complement_covers_tree(table, sorted(frontier))
        for leaf in leaf_codes(depth):
            covered = table.covers(leaf)
            in_frontier = any(f == leaf or f.is_ancestor_of(leaf) for f in frontier)
            assert covered != in_frontier

    @given(completed_leaf_subset())
    @settings(max_examples=100, deadline=None)
    def test_selected_candidate_is_never_covered(self, case):
        _depth, completed = case
        table = CodeSet(completed)
        for strategy in SelectionStrategy:
            candidate = select_recovery_candidate(
                table, strategy=strategy, rng=random.Random(0), last_completed=None
            )
            if table.is_complete():
                assert candidate is None
            else:
                assert candidate is not None
                assert not table.covers(candidate)

    @given(completed_leaf_subset())
    @settings(max_examples=100, deadline=None)
    def test_solving_frontier_completes_tree(self, case):
        """Recovering every frontier subtree drives the table to the root."""
        _depth, completed = case
        table = CodeSet(completed)
        # Guard against pathological emptiness: recovering ROOT completes it.
        for _ in range(200):
            if table.is_complete():
                break
            frontier = complement_frontier(table)
            assert frontier
            table.add(sorted(frontier)[0])
        assert table.is_complete()
