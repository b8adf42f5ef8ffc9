"""Tests for the centralised and DIB-style baselines."""

import pytest

from repro.baselines.central import run_central_simulation
from repro.baselines.dib import run_dib_simulation
from repro.bnb.random_tree import RandomTreeSpec, generate_random_tree
from repro.bnb.tree_problem import TreeReplayProblem
from repro.simulation.failures import CrashEvent


@pytest.fixture(scope="module")
def workload():
    tree = generate_random_tree(
        RandomTreeSpec(nodes=151, mean_node_time=0.05, seed=17, name="baseline-tree")
    )
    problem = TreeReplayProblem(tree, prune=False)
    return tree, problem


def correct(value, tree):
    optimum = tree.optimal_value()
    return value is not None and abs(value - optimum) <= 1e-9 * max(1.0, abs(optimum))


class TestCentralBaseline:
    def test_failure_free_run(self, workload):
        tree, problem = workload
        result = run_central_simulation(problem, 3, seed=1, max_sim_time=500.0)
        assert result.terminated
        assert correct(result.best_value, tree)
        assert result.nodes_expanded >= len(tree) - 1
        assert not result.manager_crashed
        assert result.total_bytes_sent > 0

    def test_worker_crash_recovered_by_manager(self, workload):
        tree, problem = workload
        result = run_central_simulation(
            problem,
            3,
            seed=1,
            failures=[CrashEvent(1.0, "cworker-01")],
            max_sim_time=500.0,
        )
        assert result.terminated
        assert correct(result.best_value, tree)
        assert result.crashed_workers == ["cworker-01"]

    def test_manager_crash_is_fatal(self, workload):
        tree, problem = workload
        result = run_central_simulation(
            problem,
            3,
            seed=1,
            failures=[CrashEvent(1.0, "manager")],
            max_sim_time=15.0,
        )
        assert result.manager_crashed
        assert not result.terminated

    def test_single_worker(self, workload):
        tree, problem = workload
        result = run_central_simulation(problem, 1, seed=2, max_sim_time=500.0)
        assert result.terminated
        assert correct(result.best_value, tree)

    def test_invalid_worker_count(self, workload):
        _tree, problem = workload
        with pytest.raises(ValueError):
            run_central_simulation(problem, 0)


class TestDibBaseline:
    def test_failure_free_run(self, workload):
        tree, problem = workload
        result = run_dib_simulation(problem, 3, seed=1, max_sim_time=500.0)
        assert result.terminated
        assert correct(result.best_value, tree)
        assert result.nodes_expanded >= len(tree) - 1
        assert not result.root_machine_crashed

    def test_worker_crash_recovered_by_responsible_machine(self, workload):
        tree, problem = workload
        result = run_dib_simulation(
            problem,
            3,
            seed=1,
            failures=[CrashEvent(1.0, "dworker-01")],
            max_sim_time=500.0,
            redo_timeout=2.0,
        )
        assert result.terminated
        assert correct(result.best_value, tree)
        assert "dworker-01" in result.crashed_workers

    def test_root_machine_crash_prevents_termination(self, workload):
        """DIB's structural weakness: the responsibility root must survive."""
        tree, problem = workload
        result = run_dib_simulation(
            problem,
            3,
            seed=1,
            failures=[CrashEvent(1.0, "dworker-00")],
            max_sim_time=15.0,
        )
        assert result.root_machine_crashed
        assert not result.terminated

    def test_single_machine(self, workload):
        tree, problem = workload
        result = run_dib_simulation(problem, 1, seed=3, max_sim_time=500.0)
        assert result.terminated
        assert correct(result.best_value, tree)

    def test_invalid_worker_count(self, workload):
        _tree, problem = workload
        with pytest.raises(ValueError):
            run_dib_simulation(problem, 0)


@pytest.mark.parametrize("runner", [run_central_simulation, run_dib_simulation])
@pytest.mark.parametrize("keyword", ["latency", "loss_probability"])
def test_expired_network_keywords_are_rejected(workload, runner, keyword):
    """``network=NetworkConfig(...)`` is the only spelling; the shims are gone."""
    _tree, problem = workload
    with pytest.raises(TypeError):
        runner(problem, 2, **{keyword: None})
