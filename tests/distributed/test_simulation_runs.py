"""Integration tests: end-to-end simulated runs of the distributed algorithm.

These are the tests that verify the paper's central claims:

* the distributed algorithm computes the same optimum as sequential B&B;
* it terminates (almost-implicit termination detection works);
* it survives message loss, temporary partitions and crash failures up to the
  loss of all processors but one, without affecting the solution.
"""

import pytest

from repro.bnb.knapsack import random_knapsack
from repro.bnb.basic_tree import record_basic_tree
from repro.bnb.pool import SelectionRule
from repro.bnb.random_tree import RandomTreeSpec, generate_random_tree
from repro.bnb.sequential import SequentialSolver
from repro.bnb.tree_problem import TreeReplayProblem
from repro.distributed.config import AlgorithmConfig
from repro.distributed.runner import (
    DistributedBnBSimulation,
    NetworkConfig,
    run_tree_simulation,
    sequential_reference_time,
    worker_names,
)
from repro.simulation.failures import CrashEvent
from repro.simulation.network import LatencyModel, Partition


def small_tree(seed=3, nodes=151, mean_time=0.05):
    return generate_random_tree(
        RandomTreeSpec(nodes=nodes, mean_node_time=mean_time, seed=seed, name=f"t{seed}")
    )


def fast_config(**overrides):
    base = dict(selection_rule=SelectionRule.DEPTH_FIRST)
    base.update(overrides)
    return AlgorithmConfig(**base)


class TestBasicRuns:
    def test_single_worker_matches_sequential(self):
        tree = small_tree()
        result = run_tree_simulation(tree, 1, config=fast_config(), seed=1, prune=False)
        assert result.solved_correctly
        assert result.all_terminated
        assert result.best_value == pytest.approx(tree.optimal_value())
        # One worker expands every node exactly once.
        assert result.total_nodes_expanded == len(tree)
        assert result.redundant_nodes_expanded == 0

    @pytest.mark.parametrize("n_workers", [2, 3, 5, 8])
    def test_multi_worker_correctness_and_termination(self, n_workers):
        tree = small_tree(seed=n_workers)
        result = run_tree_simulation(
            tree, n_workers, config=fast_config(), seed=n_workers, prune=False
        )
        assert result.solved_correctly
        assert result.all_terminated
        assert len(result.workers) == n_workers
        assert all(stats.terminated for stats in result.workers.values())

    def test_makespan_improves_with_workers(self):
        tree = small_tree(seed=9, nodes=301)
        uniproc = tree.total_node_time()
        r1 = run_tree_simulation(tree, 1, config=fast_config(), seed=1, prune=False,
                                 uniprocessor_time=uniproc)
        r4 = run_tree_simulation(tree, 4, config=fast_config(), seed=1, prune=False,
                                 uniprocessor_time=uniproc)
        assert r4.makespan < r1.makespan
        assert r4.speedup() > 1.5

    def test_pruned_replay_matches_sequential_best_first(self):
        problem = random_knapsack(10, seed=4)
        tree = record_basic_tree(problem, name="kp")
        reference = SequentialSolver(TreeReplayProblem(tree)).solve()
        result = run_tree_simulation(
            tree, 3, config=AlgorithmConfig(), seed=2, prune=True
        )
        assert result.best_value == pytest.approx(reference.best_value)
        assert result.solved_correctly

    def test_time_accounting_covers_makespan(self):
        tree = small_tree(seed=5)
        result = run_tree_simulation(tree, 4, config=fast_config(), seed=3, prune=False)
        assert result.metrics is not None
        for name, stats in result.workers.items():
            total = sum(stats.time.values())
            terminated_at = stats.terminated_at
            assert terminated_at is not None
            # Each worker's accounted time is close to its lifetime.
            assert total == pytest.approx(terminated_at, rel=0.15, abs=0.5)

    def test_deterministic_given_seed(self):
        tree = small_tree(seed=6)
        a = run_tree_simulation(tree, 3, config=fast_config(), seed=11, prune=False)
        b = run_tree_simulation(tree, 3, config=fast_config(), seed=11, prune=False)
        assert a.makespan == b.makespan
        assert a.total_bytes_sent == b.total_bytes_sent
        assert a.total_nodes_expanded == b.total_nodes_expanded

    def test_invalid_worker_count(self):
        tree = small_tree()
        with pytest.raises(ValueError):
            DistributedBnBSimulation(TreeReplayProblem(tree), 0)

    def test_worker_names_format(self):
        assert worker_names(3) == ["worker-00", "worker-01", "worker-02"]
        assert worker_names(120)[-1] == "worker-119"

    def test_sequential_reference_time(self):
        tree = small_tree(seed=2)
        assert sequential_reference_time(tree, prune=False) == pytest.approx(tree.total_node_time())
        assert sequential_reference_time(tree, prune=True) <= tree.total_node_time() + 1e-9

    def test_trace_collection(self):
        tree = small_tree(seed=7)
        result = run_tree_simulation(
            tree, 3, config=fast_config(), seed=4, prune=False, enable_trace=True
        )
        assert result.trace is not None
        assert set(result.trace.processes()) == set(result.workers.keys())
        gantt = result.trace.ascii_gantt()
        assert "worker-00" in gantt


class TestUnreliableNetwork:
    def test_message_loss_does_not_affect_solution(self):
        tree = small_tree(seed=21)
        network = NetworkConfig(loss_probability=0.25)
        result = run_tree_simulation(
            tree, 4, config=fast_config(), seed=5, prune=False, network=network
        )
        assert result.solved_correctly
        assert result.all_terminated
        assert result.network.messages_lost > 0

    def test_temporary_partition_does_not_affect_solution(self):
        tree = small_tree(seed=22)
        names = worker_names(4)
        partition = Partition(
            start=0.5,
            end=2.5,
            group_a=frozenset(names[:2]),
            group_b=frozenset(names[2:]),
        )
        network = NetworkConfig(partitions=(partition,))
        result = run_tree_simulation(
            tree, 4, config=fast_config(), seed=6, prune=False, network=network
        )
        assert result.solved_correctly
        assert result.all_terminated
        assert result.network.messages_blocked > 0

    def test_slow_network_still_terminates(self):
        tree = small_tree(seed=23)
        network = NetworkConfig(latency=LatencyModel(base=0.05, per_byte=1e-5))
        result = run_tree_simulation(
            tree, 3, config=fast_config(), seed=7, prune=False, network=network
        )
        assert result.solved_correctly


class TestFaultTolerance:
    def test_single_crash_recovered(self):
        tree = small_tree(seed=31)
        baseline = run_tree_simulation(tree, 4, config=fast_config(), seed=8, prune=False)
        result = run_tree_simulation(
            tree,
            4,
            config=fast_config(),
            seed=8,
            prune=False,
            failures=[CrashEvent(0.4 * baseline.makespan, "worker-02")],
        )
        assert result.crashed_workers == ["worker-02"]
        assert result.solved_correctly
        assert result.all_terminated

    def test_all_but_one_crash_recovered(self):
        """The paper's headline claim: losing all but one resource is survivable."""
        tree = small_tree(seed=32)
        baseline = run_tree_simulation(tree, 4, config=fast_config(), seed=9, prune=False)
        crash_time = 0.5 * baseline.makespan
        victims = worker_names(4)[1:]
        result = run_tree_simulation(
            tree,
            4,
            config=fast_config(),
            seed=9,
            prune=False,
            failures=[CrashEvent(crash_time, victim) for victim in victims],
        )
        assert set(result.crashed_workers) == set(victims)
        assert result.solved_correctly
        assert result.all_terminated
        # The crash forces the survivor to redo lost work, so the makespan is
        # strictly worse than the failure-free run.
        assert result.makespan > baseline.makespan
        survivor = result.workers["worker-00"]
        assert survivor.terminated
        assert survivor.best_value == pytest.approx(tree.optimal_value())

    def test_crash_of_initial_work_holder(self):
        """Crashing the worker that started with the root is also survivable."""
        tree = small_tree(seed=33)
        baseline = run_tree_simulation(tree, 3, config=fast_config(), seed=10, prune=False)
        result = run_tree_simulation(
            tree,
            3,
            config=fast_config(),
            seed=10,
            prune=False,
            failures=[CrashEvent(0.5 * baseline.makespan, "worker-00")],
        )
        assert result.solved_correctly
        assert result.all_terminated

    def test_crash_with_message_loss_combined(self):
        tree = small_tree(seed=34)
        baseline = run_tree_simulation(tree, 4, config=fast_config(), seed=11, prune=False)
        result = run_tree_simulation(
            tree,
            4,
            config=fast_config(),
            seed=11,
            prune=False,
            network=NetworkConfig(loss_probability=0.15),
            failures=[CrashEvent(0.5 * baseline.makespan, "worker-01")],
        )
        assert result.solved_correctly
        assert result.all_terminated

    def test_recovery_statistics_recorded(self):
        tree = small_tree(seed=35)
        baseline = run_tree_simulation(tree, 3, config=fast_config(), seed=12, prune=False)
        victims = worker_names(3)[1:]
        result = run_tree_simulation(
            tree,
            3,
            config=fast_config(),
            seed=12,
            prune=False,
            failures=[CrashEvent(0.4 * baseline.makespan, victim) for victim in victims],
        )
        survivor = result.workers["worker-00"]
        assert result.solved_correctly
        # The survivor must have regenerated at least one lost subproblem
        # (unless, by luck, the victims had already finished everything).
        assert survivor.recovery_activations >= 0
        assert result.trace is None  # tracing was not requested

    def test_crash_before_any_work_spreads(self):
        """Crashing workers very early must not wedge the computation."""
        tree = small_tree(seed=36)
        result = run_tree_simulation(
            tree,
            3,
            config=fast_config(),
            seed=13,
            prune=False,
            failures=[CrashEvent(0.01, "worker-01"), CrashEvent(0.02, "worker-02")],
        )
        assert result.solved_correctly
        assert result.all_terminated


class TestAblationFlags:
    def test_uncompressed_reports_still_correct_but_bigger(self):
        tree = small_tree(seed=41, nodes=301)
        compressed = run_tree_simulation(
            tree, 4, config=fast_config(compress_reports=True), seed=14, prune=False
        )
        uncompressed = run_tree_simulation(
            tree, 4, config=fast_config(compress_reports=False), seed=14, prune=False
        )
        assert compressed.solved_correctly and uncompressed.solved_correctly
        assert uncompressed.total_bytes_sent > compressed.total_bytes_sent

    def test_disable_best_solution_sharing_still_correct(self):
        tree = small_tree(seed=42)
        result = run_tree_simulation(
            tree, 3, config=fast_config(share_best_solution=False), seed=15, prune=False
        )
        assert result.solved_correctly

    def test_report_threshold_one(self):
        tree = small_tree(seed=43)
        result = run_tree_simulation(
            tree, 3, config=fast_config(report_threshold=1), seed=16, prune=False
        )
        assert result.solved_correctly

    def test_no_root_broadcast_slows_but_does_not_break(self):
        tree = small_tree(seed=44)
        with_bcast = run_tree_simulation(
            tree, 3, config=fast_config(), seed=17, prune=False
        )
        without = run_tree_simulation(
            tree, 3, config=fast_config(send_root_report=False), seed=17, prune=False
        )
        assert with_bcast.solved_correctly and without.solved_correctly
        assert without.all_terminated

    def test_granularity_parameter_scales_makespan(self):
        tree = small_tree(seed=45)
        fine = run_tree_simulation(tree, 2, config=fast_config(), seed=18, prune=False,
                                   granularity=1.0)
        coarse = run_tree_simulation(tree, 2, config=fast_config(), seed=18, prune=False,
                                     granularity=5.0)
        assert coarse.makespan > fine.makespan
        assert coarse.solved_correctly


class TestFailureFreeGossipCost:
    """Coarse grain, many idle workers: table pushes must mostly carry news."""

    @pytest.fixture(scope="class")
    def floor_tree(self):
        from repro.analysis.figures import table1_tree

        # table1_tree's floor: 1,001 nodes x 3.35 s (the ledger's
        # sim-table1-100w tree).
        return table1_tree(scale=0.0125, seed=7)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_coarse_grain_gossip_is_cheap_and_mostly_news(self, floor_tree, seed):
        result = run_tree_simulation(floor_tree, 32, seed=seed, prune=False)
        assert result.solved_correctly
        assert all(stats.terminated for stats in result.workers.values())
        # Pushing at the 0.1 s poll cadence cost 3.5-4.5 kB per node here, a
        # tenth of it news; paced by node cost it is ~1.6-1.8 kB, a third news.
        assert result.total_bytes_sent / len(floor_tree) <= 2500
        received = sum(s.codes_received for s in result.workers.values())
        redundant = sum(s.codes_received_redundant for s in result.workers.values())
        assert (received - redundant) / received >= 0.20
