"""Edge-case tests for the run orchestration layer."""

import pytest

from repro.bnb.knapsack import random_knapsack
from repro.bnb.random_tree import RandomTreeSpec, generate_random_tree
from repro.bnb.pool import SelectionRule
from repro.distributed.config import AlgorithmConfig
from repro.distributed.runner import (
    DistributedBnBSimulation,
    NetworkConfig,
    run_tree_simulation,
)
from repro.simulation.failures import CrashEvent
from repro.simulation.network import LatencyModel


def small_tree(seed=51):
    return generate_random_tree(
        RandomTreeSpec(nodes=101, mean_node_time=0.02, seed=seed, name="runner-tree")
    )


class TestRunnerConstruction:
    def test_network_config_paper_default(self):
        config = NetworkConfig.paper_default()
        assert config.latency.base == pytest.approx(0.0015)
        assert config.loss_probability == 0.0
        assert config.partitions == ()

    def test_simulation_on_a_direct_problem(self):
        """The runner also accepts non-replay problems (e.g. knapsack directly)."""
        problem = random_knapsack(8, seed=2)
        sim = DistributedBnBSimulation(
            problem,
            3,
            config=AlgorithmConfig(),
            seed=4,
            reference_optimum=problem.solve_exact(),
        )
        result = sim.run()
        assert result.all_terminated
        assert result.best_value == pytest.approx(problem.solve_exact(), abs=1e-6)

    def test_build_is_idempotent_entry_point(self):
        tree = small_tree()
        from repro.bnb.tree_problem import TreeReplayProblem

        sim = DistributedBnBSimulation(TreeReplayProblem(tree, prune=False), 2,
                                       config=AlgorithmConfig(selection_rule=SelectionRule.DEPTH_FIRST))
        sim.build()
        assert len(sim.workers) == 2
        result = sim.run()  # run() must not rebuild and lose the workers
        assert result.n_workers == 2
        assert result.all_terminated

    def test_max_events_cap_stops_early(self):
        tree = small_tree()
        result = run_tree_simulation(
            tree,
            2,
            config=AlgorithmConfig(selection_rule=SelectionRule.DEPTH_FIRST),
            seed=1,
            prune=False,
            max_events=50,
        )
        # The run was cut short: not everyone terminated, and the result says so.
        assert not result.all_terminated

    def test_max_sim_time_cap(self):
        tree = small_tree()
        result = run_tree_simulation(
            tree,
            2,
            config=AlgorithmConfig(selection_rule=SelectionRule.DEPTH_FIRST),
            seed=1,
            prune=False,
            max_sim_time=0.05,
        )
        assert result.makespan <= 0.05 + 1e-9
        assert not result.all_terminated

    def test_explicit_uniprocessor_time_skips_reference_solve(self):
        tree = small_tree()
        result = run_tree_simulation(
            tree,
            2,
            config=AlgorithmConfig(selection_rule=SelectionRule.DEPTH_FIRST),
            seed=1,
            prune=False,
            uniprocessor_time=123.0,
        )
        assert result.uniprocessor_time == 123.0

    def test_disable_reference_computation(self):
        tree = small_tree()
        result = run_tree_simulation(
            tree,
            2,
            config=AlgorithmConfig(selection_rule=SelectionRule.DEPTH_FIRST),
            seed=1,
            prune=False,
            compute_uniprocessor_time=False,
        )
        assert result.uniprocessor_time is None
        assert result.speedup() is None

    def test_custom_latency_model_is_used(self):
        tree = small_tree()
        slow = run_tree_simulation(
            tree,
            3,
            config=AlgorithmConfig(selection_rule=SelectionRule.DEPTH_FIRST),
            seed=2,
            prune=False,
            network=NetworkConfig(latency=LatencyModel(base=0.02, per_byte=1e-5)),
        )
        fast = run_tree_simulation(
            tree,
            3,
            config=AlgorithmConfig(selection_rule=SelectionRule.DEPTH_FIRST),
            seed=2,
            prune=False,
        )
        # Both configurations must stay correct; with such a small workload the
        # interleaving noise can outweigh the latency difference, so we only
        # check that the runs are not byte-identical (the model was applied).
        assert slow.solved_correctly and fast.solved_correctly
        assert (slow.makespan, slow.total_bytes_sent) != (fast.makespan, fast.total_bytes_sent)

    def test_messages_by_kind_counts(self):
        tree = small_tree()
        result = run_tree_simulation(
            tree, 3, config=AlgorithmConfig(selection_rule=SelectionRule.DEPTH_FIRST),
            seed=3, prune=False,
        )
        kinds = result.messages_by_kind
        assert kinds["work_reports"] > 0
        assert kinds["work_requests"] >= 0
        assert set(kinds) == {
            "work_requests",
            "work_forwards",
            "work_grants",
            "work_denials",
            "work_reports",
            "root_reports",
            "delta_gossips",
            "gossip_acks",
            "heartbeats",
        }
        # Every send counts once per copy: the kinds sum to the network's.
        assert sum(kinds.values()) == result.network.messages_sent
        # Per-kind byte accounting covers every message the run injected.
        assert sum(result.bytes_by_kind.values()) == result.total_bytes_sent


class TestMessageCountsAreExact:
    """``messages_by_kind`` counts every send the network saw: each copy of
    a report, the final root broadcast and every forwarded request."""

    @pytest.mark.parametrize("granularity", [1.0, 10.0])
    def test_failure_free_counts_sum_to_the_network(self, granularity):
        # 0.02 s nodes poll; at 0.2 s nodes idle peers pass requests on.
        result = run_tree_simulation(
            small_tree(), 6, seed=5, prune=False, granularity=granularity
        )
        assert result.solved_correctly
        kinds = result.messages_by_kind
        assert sum(kinds.values()) == result.network.messages_sent
        assert kinds["root_reports"] > 0
        assert (kinds["work_forwards"] > 0) == (granularity > 1.0)

    def test_lossy_crashing_counts_sum_to_the_network(self):
        result = run_tree_simulation(
            small_tree(),
            6,
            seed=6,
            prune=False,
            granularity=10.0,
            network=NetworkConfig(loss_probability=0.05),
            failures=[CrashEvent(2.0, "worker-02")],
        )
        assert result.solved_correctly
        assert result.crashed_workers == ["worker-02"]
        assert result.network.messages_lost > 0
        assert result.network.messages_to_dead > 0
        assert result.messages_by_kind["work_forwards"] > 0
        assert sum(result.messages_by_kind.values()) == result.network.messages_sent
