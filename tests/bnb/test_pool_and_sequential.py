"""Tests for the subproblem pool, the node expander and the sequential solver."""

import random

import pytest

from repro.bnb.pool import SelectionRule, SubproblemPool
from repro.bnb.problem import Subproblem
from repro.bnb.knapsack import random_knapsack
from repro.bnb.sequential import NodeExpander, SequentialSolver
from repro.core.codeset import contract
from repro.core.encoding import ROOT, PathCode


def make_sub(depth, tag=0):
    code = ROOT
    for level in range(depth):
        code = code.child(level, tag & 1)
    return Subproblem(code, ("state", depth, tag))


class TestSubproblemPool:
    def test_depth_first_pops_deepest(self):
        pool = SubproblemPool(SelectionRule.DEPTH_FIRST)
        pool.push(make_sub(1))
        pool.push(make_sub(3))
        pool.push(make_sub(2))
        assert pool.pop().depth == 3
        assert pool.pop().depth == 2

    def test_breadth_first_pops_shallowest(self):
        pool = SubproblemPool(SelectionRule.BREADTH_FIRST)
        pool.push(make_sub(2))
        pool.push(make_sub(1))
        assert pool.pop().depth == 1

    def test_best_first_minimise_and_maximise(self):
        mins = SubproblemPool(SelectionRule.BEST_FIRST, minimize=True)
        mins.push(make_sub(1, 0), bound=5.0)
        mins.push(make_sub(1, 1), bound=2.0)
        assert mins.pop().state[2] == 1

        maxs = SubproblemPool(SelectionRule.BEST_FIRST, minimize=False)
        maxs.push(make_sub(1, 0), bound=5.0)
        maxs.push(make_sub(1, 1), bound=2.0)
        assert maxs.pop().state[2] == 0

    def test_best_first_requires_bound(self):
        pool = SubproblemPool(SelectionRule.BEST_FIRST)
        with pytest.raises(ValueError):
            pool.push(make_sub(1))

    def test_pop_and_peek_empty(self):
        pool = SubproblemPool()
        with pytest.raises(IndexError):
            pool.pop()
        with pytest.raises(IndexError):
            pool.peek()

    def test_peek_does_not_remove(self):
        pool = SubproblemPool()
        pool.push(make_sub(1))
        assert pool.peek().depth == 1
        assert len(pool) == 1

    def test_len_bool_iter_and_codes(self):
        pool = SubproblemPool()
        assert not pool
        pool.push(make_sub(1))
        pool.push(make_sub(2))
        assert len(pool) == 2 and pool
        assert len(list(pool)) == 2
        assert len(pool.codes()) == 2
        assert pool.storage_bytes() > 0

    def test_max_size_high_water(self):
        pool = SubproblemPool()
        for depth in range(5):
            pool.push(make_sub(depth + 1))
        pool.pop()
        assert pool.max_size == 5
        assert pool.total_inserted == 5

    def test_donation_respects_keep_at_least(self):
        pool = SubproblemPool()
        for depth in range(1, 6):
            pool.push(make_sub(depth))
        assert pool.can_donate(keep_at_least=2)
        donated = pool.take_for_donation(max_count=10, keep_at_least=2)
        assert len(donated) == 3
        assert len(pool) == 2

    def test_donation_prefers_shallow(self):
        pool = SubproblemPool()
        for depth in (5, 1, 3):
            pool.push(make_sub(depth))
        donated = pool.take_for_donation(max_count=1, keep_at_least=1)
        assert donated[0].depth == 1

    def test_cannot_donate_small_pool(self):
        pool = SubproblemPool()
        pool.push(make_sub(1))
        assert not pool.can_donate(keep_at_least=1)
        assert pool.take_for_donation(max_count=2, keep_at_least=1) == []

    @pytest.mark.parametrize("size, given", [(0, 0), (1, 0), (2, 1), (3, 1), (8, 4), (20, 4)])
    def test_donation_rule_sizes(self, size, given):
        """The one donation rule both workers use: give from two up, keep
        one, half the pool at most four."""
        pool = SubproblemPool()
        for depth in range(1, size + 1):
            pool.push(make_sub(depth))
        donated = pool.take_donation()
        assert len(donated) == given
        assert len(pool) == size - given
        if size:
            assert len(pool) >= 1

    def test_donation_rule_gives_the_shallowest(self):
        pool = SubproblemPool(SelectionRule.DEPTH_FIRST)
        for depth in (6, 2, 9, 4, 1, 7, 3, 8):
            pool.push(make_sub(depth))
        donated = pool.take_donation()
        assert [sub.depth for sub in donated] == [1, 2, 3, 4]
        assert [pool.pop().depth for _ in range(4)] == [9, 8, 7, 6]

    def test_push_rule_gives_one_shallowest_and_keeps_one(self):
        pool = SubproblemPool(SelectionRule.DEPTH_FIRST)
        for depth in (3, 1, 2):
            pool.push(make_sub(depth))
        assert [pool.take_push().depth for _ in range(2)] == [1, 2]
        assert pool.take_push() is None
        assert len(pool) == 1

    def test_drain_and_clear(self):
        pool = SubproblemPool()
        pool.push(make_sub(1))
        pool.push(make_sub(2))
        drained = pool.drain()
        assert len(drained) == 2 and len(pool) == 0
        pool.push(make_sub(1))
        pool.clear()
        assert len(pool) == 0


class TestLazyDonation:
    """The tombstone scheme must be invisible to every pool consumer."""

    def test_donated_entries_invisible_everywhere(self):
        pool = SubproblemPool(SelectionRule.BREADTH_FIRST)
        for depth in range(1, 7):
            pool.push(make_sub(depth))
        donated = pool.take_for_donation(max_count=2, keep_at_least=1)
        assert sorted(sub.depth for sub in donated) == [1, 2]
        assert pool.lazy_removed_total == 2
        assert len(pool) == 4
        assert sorted(sub.depth for sub in pool) == [3, 4, 5, 6]
        assert sorted(code.depth for code in pool.codes()) == [3, 4, 5, 6]
        # peek/pop must skip the tombstoned shallow entries.
        assert pool.peek().depth == 3
        assert [pool.pop().depth for _ in range(4)] == [3, 4, 5, 6]
        assert not pool
        with pytest.raises(IndexError):
            pool.pop()

    def test_drain_excludes_donated(self):
        pool = SubproblemPool()
        for depth in range(1, 5):
            pool.push(make_sub(depth))
        pool.take_for_donation(max_count=2, keep_at_least=1)
        assert sorted(sub.depth for sub in pool.drain()) == [3, 4]
        assert len(pool) == 0

    def test_storage_bytes_excludes_donated(self):
        pool = SubproblemPool()
        for depth in range(1, 5):
            pool.push(make_sub(depth))
        before = pool.storage_bytes()
        donated = pool.take_for_donation(max_count=2, keep_at_least=1)
        freed = sum(sub.code.wire_size() for sub in donated)
        assert pool.storage_bytes() == before - freed

    @pytest.mark.parametrize("rule", list(SelectionRule))
    @pytest.mark.parametrize("seed", range(8))
    def test_running_storage_total_equals_the_recomputed_sum(self, rule, seed):
        """The O(1) running total matches a full recount after every
        operation of a random sequence (compactions and peeks included)."""
        rng = random.Random(seed)
        pool = SubproblemPool(rule)
        for step in range(400):
            op = rng.random()
            if op < 0.45 or not pool:
                pool.push(make_sub(rng.randrange(0, 30), step), bound=rng.random())
            elif op < 0.65:
                pool.pop()
            elif op < 0.8:
                pool.take_donation()
            elif op < 0.9:
                pool.take_push()
            elif op < 0.97:
                pool.peek()
            elif op < 0.99:
                pool.drain()
            else:
                pool.clear()
            assert pool.storage_bytes() == sum(sub.code.wire_size() for sub in pool)

    def test_repeated_donations_trigger_compaction(self):
        pool = SubproblemPool()
        for depth in range(1, 101):
            pool.push(make_sub(depth))
        total_donated = 0
        while pool.can_donate(keep_at_least=10):
            total_donated += len(pool.take_for_donation(max_count=7, keep_at_least=10))
        assert len(pool) == 10
        assert total_donated == 90
        assert pool.lazy_removed_total == 90
        assert pool.compactions >= 1
        # Everything left must still pop in rule order (deepest first).
        assert [pool.pop().depth for _ in range(10)] == list(range(100, 90, -1))

    def test_push_after_donation_keeps_order(self):
        pool = SubproblemPool()
        for depth in (2, 4, 6):
            pool.push(make_sub(depth))
        pool.take_for_donation(max_count=1, keep_at_least=1)  # takes depth 2
        pool.push(make_sub(5))
        assert [pool.pop().depth for _ in range(3)] == [6, 5, 4]


class TestNodeExpanderAndSolver:
    def test_expander_counts_nodes(self):
        problem = random_knapsack(6, seed=1)
        expander = NodeExpander(problem)
        outcome = expander.expand(problem.root_subproblem(), incumbent=None)
        assert expander.nodes_expanded == 1
        assert outcome.status == "branched"
        assert 1 <= len(outcome.children) <= 2

    def test_expander_prunes_against_incumbent(self):
        problem = random_knapsack(6, seed=1)
        expander = NodeExpander(problem)
        huge_incumbent = problem.bound(problem.root_state()) + 1.0
        outcome = expander.expand(problem.root_subproblem(), incumbent=huge_incumbent)
        assert outcome.status == "pruned"
        assert outcome.completed == (ROOT,)
        assert expander.nodes_pruned == 1

    def test_solver_tracks_completed_codes(self):
        problem = random_knapsack(7, seed=4)
        solver = SequentialSolver(problem, track_completed=True)
        result = solver.solve()
        assert result.completed_codes
        # The union of completed codes must contract to exactly the root:
        # the whole tree is accounted for, nothing more, nothing less.
        assert contract(result.completed_codes) == {ROOT}

    def test_solver_max_nodes_cap(self):
        problem = random_knapsack(12, seed=5)
        capped = SequentialSolver(problem, max_nodes=5).solve()
        assert capped.nodes_expanded <= 5

    def test_solver_callback_invoked(self):
        problem = random_knapsack(5, seed=2)
        seen = []
        SequentialSolver(problem, on_expand=seen.append).solve()
        assert seen
        assert seen[0].subproblem.code == ROOT

    def test_solve_result_fields(self):
        problem = random_knapsack(6, seed=6)
        result = SequentialSolver(problem).solve()
        assert result.nodes_expanded > 0
        assert result.total_cost >= 0.0
        assert result.max_pool_size >= 1
        assert result.best_code is not None
