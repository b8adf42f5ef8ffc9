"""Tests for the concrete optimisation problems and the problem interface."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.bnb.knapsack import KnapsackInstance, KnapsackProblem, random_knapsack
from repro.core.encoding import ROOT
from repro.bnb.pool import SelectionRule
from repro.bnb.problem import worse_than
from repro.bnb.sequential import SequentialSolver


def brute_force_optimum(instance):
    """Best value over every subset of items that fits (no DP, no bound)."""
    best = 0.0
    for take in itertools.product((0, 1), repeat=instance.n_items):
        weight = sum(w for w, t in zip(instance.weights, take) if t)
        if weight <= instance.capacity:
            best = max(best, sum(v for v, t in zip(instance.values, take) if t))
    return best


def walk_tree(problem, code=ROOT, state=None):
    """Yield ``(code, state)`` for every feasible node of the full B&B tree."""
    state = problem.root_state() if state is None else state
    yield code, state
    decision = problem.branching_decision(state)
    if decision is None:
        return
    for value in (0, 1):
        child = problem.apply_branch(state, decision.variable, value)
        if child is not None:
            yield from walk_tree(problem, code.child(decision.variable, value), child)


class TestWorseThan:
    def test_minimise(self):
        assert worse_than(5.0, 5.0, minimize=True)
        assert worse_than(6.0, 5.0, minimize=True)
        assert not worse_than(4.0, 5.0, minimize=True)
        assert not worse_than(4.0, None, minimize=True)

    def test_maximise(self):
        assert worse_than(5.0, 5.0, minimize=False)
        assert worse_than(4.0, 5.0, minimize=False)
        assert not worse_than(6.0, 5.0, minimize=False)


class TestKnapsack:
    def test_instance_validation(self):
        with pytest.raises(ValueError):
            KnapsackInstance(values=(1.0,), weights=(1.0, 2.0), capacity=3.0)
        with pytest.raises(ValueError):
            KnapsackInstance(values=(-1.0,), weights=(1.0,), capacity=3.0)
        with pytest.raises(ValueError):
            KnapsackInstance(values=(1.0,), weights=(1.0,), capacity=-1.0)

    def test_bound_is_admissible_at_root(self):
        problem = random_knapsack(8, seed=1)
        root_bound = problem.bound(problem.root_state())
        assert root_bound >= problem.solve_exact() - 1e-9

    def test_bnb_matches_dynamic_programming(self):
        for seed in range(5):
            problem = random_knapsack(10, seed=seed)
            result = SequentialSolver(problem).solve()
            assert result.best_value == pytest.approx(problem.solve_exact(), abs=1e-6)

    def test_rebuild_state_roundtrip(self):
        problem = random_knapsack(6, seed=3)
        result = SequentialSolver(problem).solve()
        assert result.best_code is not None
        state = problem.rebuild_state(result.best_code)
        assert state is not None
        assert problem.feasible_value(state) == pytest.approx(result.best_value)

    def test_infeasible_branch_returns_none(self):
        instance = KnapsackInstance(values=(10.0,), weights=(5.0,), capacity=1.0)
        problem = KnapsackProblem(instance)
        decision = problem.branching_decision(problem.root_state())
        assert problem.apply_branch(problem.root_state(), decision.variable, 1) is None
        assert problem.apply_branch(problem.root_state(), decision.variable, 0) is not None

    def test_wrong_branch_variable_rejected(self):
        problem = random_knapsack(4, seed=0)
        with pytest.raises(ValueError):
            problem.apply_branch(problem.root_state(), 999, 0)

    def test_describe(self):
        problem = random_knapsack(4, seed=0)
        info = problem.describe()
        assert info["sense"] == "max"
        assert info["items"] == 4

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            random_knapsack(0)

    def test_bnb_matches_brute_force_enumeration(self):
        for seed in range(6):
            problem = random_knapsack(8, seed=seed, correlated=seed % 2 == 0)
            result = SequentialSolver(problem).solve()
            assert result.best_value == pytest.approx(
                brute_force_optimum(problem.instance), abs=1e-9
            )

    def test_bound_is_admissible_at_every_node(self):
        problem = random_knapsack(8, seed=5)

        def best_in_subtree(state):
            best = problem.feasible_value(state)
            decision = problem.branching_decision(state)
            if decision is not None:
                for value in (0, 1):
                    child = problem.apply_branch(state, decision.variable, value)
                    if child is not None:
                        best = max(best, best_in_subtree(child))
            assert problem.bound(state) >= best - 1e-9
            return best

        optimum = best_in_subtree(problem.root_state())
        assert optimum == pytest.approx(brute_force_optimum(problem.instance))

    def test_every_leaf_decides_each_item_once(self):
        problem = random_knapsack(7, seed=2)
        leaves = [
            code for code, state in walk_tree(problem) if problem.branching_decision(state) is None
        ]
        assert leaves
        for code in leaves:
            variables = [variable for variable, _value in code]
            assert sorted(variables) == list(range(7))

    def test_rebuild_state_replays_every_code(self):
        problem = random_knapsack(6, seed=4)
        for code, state in walk_tree(problem):
            assert problem.rebuild_state(code) == state
            assert problem.rebuild_subproblem(code).depth == code.depth

    def test_rebuild_state_of_an_infeasible_code_is_none(self):
        instance = KnapsackInstance(values=(10.0, 1.0), weights=(5.0, 1.0), capacity=1.0)
        problem = KnapsackProblem(instance)
        first = problem.branching_decision(problem.root_state()).variable
        assert problem.rebuild_state(ROOT.child(first, 1)) is None
        assert problem.rebuild_subproblem(ROOT.child(first, 1)) is None

    def test_zero_weight_item_is_always_taken(self):
        instance = KnapsackInstance(values=(4.0, 9.0, 3.0), weights=(0.0, 6.0, 5.0), capacity=6.0)
        problem = KnapsackProblem(instance)
        # Zero-weight items come first in the branching order.
        assert problem.branching_decision(problem.root_state()).variable == 0
        result = SequentialSolver(problem).solve()
        assert result.best_value == pytest.approx(13.0)
        assert problem.solve_exact() == pytest.approx(13.0)

    def test_zero_capacity_optimum_is_zero(self):
        instance = KnapsackInstance(values=(5.0, 7.0), weights=(1.0, 2.0), capacity=0.0)
        problem = KnapsackProblem(instance)
        assert SequentialSolver(problem).solve().best_value == 0.0
        assert problem.solve_exact() == 0.0

    def test_generator_is_reproducible_per_seed(self):
        assert random_knapsack(9, seed=3).instance == random_knapsack(9, seed=3).instance
        assert random_knapsack(9, seed=3).instance != random_knapsack(9, seed=4).instance

    def test_generator_capacity_ratio_and_families(self):
        problem = random_knapsack(20, seed=8, capacity_ratio=0.25, correlated=False)
        instance = problem.instance
        assert instance.capacity == pytest.approx(0.25 * sum(instance.weights), abs=0.05)
        assert all(1.0 <= v <= 100.0 for v in instance.values)
        correlated = random_knapsack(20, seed=8).instance
        # Weakly correlated: each value is its weight shifted by 0..20.
        assert all(
            -0.02 <= v - w <= 20.02 for v, w in zip(correlated.values, correlated.weights)
        )

    def test_maximisation_sense_helpers(self):
        problem = random_knapsack(3, seed=0)
        assert problem.worst_value() == -math.inf
        assert problem.is_improvement(6.0, 5.0)
        assert not problem.is_improvement(5.0, 5.0)
        assert not problem.is_improvement(4.0, 5.0)
        assert problem.is_improvement(-1.0, None)
        root = problem.root_subproblem()
        assert root.code == ROOT and root.depth == 0
        assert root.state == problem.root_state()


class TestCrossProblemProperties:
    @given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=100))
    @settings(max_examples=25, deadline=None)
    def test_knapsack_bnb_equals_dp(self, n_items, seed):
        problem = random_knapsack(n_items, seed=seed)
        result = SequentialSolver(problem).solve()
        assert result.best_value == pytest.approx(problem.solve_exact(), abs=1e-6)

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=15, deadline=None)
    def test_selection_rule_does_not_change_optimum(self, seed):
        problem = random_knapsack(8, seed=seed)
        values = set()
        for rule in SelectionRule:
            result = SequentialSolver(problem, rule=rule).solve()
            values.add(round(result.best_value, 6))
        assert len(values) == 1
