"""Unit-level tests of the worker entity (driven directly, small scenarios)."""

import pytest

from repro.bnb.pool import SelectionRule
from repro.bnb.random_tree import RandomTreeSpec, generate_random_tree
from repro.bnb.tree_problem import TreeReplayProblem
from repro.core.encoding import ROOT
from repro.core.work_report import BestSolution, WorkReport
from repro.distributed.config import AlgorithmConfig
from repro.distributed.messages import (
    TableGossipMsg,
    WorkDenied,
    WorkGrant,
    WorkReportMsg,
    WorkRequest,
)
from repro.distributed.worker import IDLE_GOSSIP_NODE_COST_FRACTION, WorkerEntity
from repro.simulation.engine import SimulationEngine
from repro.simulation.metrics import MetricsCollector
from repro.simulation.network import Network
from repro.simulation.rng import RngRegistry


def make_worker_pair(
    n_workers=2, *, expected_node_cost=None, with_root=True, **config_overrides
):
    """Two (or more) workers wired to a real engine/network, not yet started.

    ``w0`` holds the root unless ``with_root`` is off (then everybody starves);
    ``expected_node_cost`` overrides the tree's mean node time as the a-priori
    cost estimate.
    """
    tree = generate_random_tree(
        RandomTreeSpec(nodes=31, mean_node_time=0.01, seed=5, name="unit-tree")
    )
    problem = TreeReplayProblem(tree, prune=False)
    config = AlgorithmConfig(
        selection_rule=SelectionRule.DEPTH_FIRST, **config_overrides
    )
    engine = SimulationEngine()
    rng = RngRegistry(2)
    network = Network(engine, rng=rng.stream("net"))
    metrics = MetricsCollector()
    names = [f"w{i}" for i in range(n_workers)]
    workers = []
    for index, name in enumerate(names):
        worker = WorkerEntity(
            name,
            problem,
            config,
            names,
            rng=rng.stream(name),
            metrics=metrics,
            initial_work=(
                [problem.root_subproblem()] if with_root and index == 0 else []
            ),
            expected_node_cost=(
                tree.mean_node_time()
                if expected_node_cost is None
                else expected_node_cost
            ),
        )
        network.register(worker)
        workers.append(worker)
    return engine, network, problem, tree, workers


class TestWorkerMessageHandling:
    def test_work_request_denied_when_pool_small(self):
        engine, network, problem, tree, (w0, w1) = make_worker_pair()
        from repro.simulation.entity import QueuedMessage

        # w1 has an empty pool: a request from w0 must be denied.
        message = QueuedMessage(
            sender="w0", payload=WorkRequest("w0"), sent_at=0.0, delivered_at=0.0, size_bytes=32
        )
        w1._handle_message(message)
        assert w1.stats.work_denials_sent == 1
        assert w1.stats.work_grants_sent == 0
        # The denial is on the wire towards w0 (do not run the engine here:
        # that would start w0's whole main loop).
        assert network.per_entity["w1"].messages_sent == 1

    def test_work_grant_rebuilds_subproblems(self):
        engine, network, problem, tree, (w0, w1) = make_worker_pair()
        from repro.simulation.entity import QueuedMessage

        donated_code = ROOT.child(0, 0)
        grant = WorkGrant(donor="w0", codes=(donated_code,), best=BestSolution(123.0, "w0"))
        message = QueuedMessage("w0", grant, 0.0, 0.0, grant.wire_size())
        w1._handle_message(message)
        assert len(w1.pool) == 1
        assert w1.pool.peek().code == donated_code
        assert w1.stats.work_grants_received == 1
        # The piggy-backed incumbent was adopted (minimisation: any value beats none).
        assert w1.incumbent.value == pytest.approx(123.0)

    def test_grant_of_covered_code_is_ignored(self):
        engine, network, problem, tree, (w0, w1) = make_worker_pair()
        from repro.simulation.entity import QueuedMessage

        code = ROOT.child(0, 0)
        w1.tracker.table.add(code)
        grant = WorkGrant(donor="w0", codes=(code,))
        w1._handle_message(QueuedMessage("w0", grant, 0.0, 0.0, grant.wire_size()))
        assert len(w1.pool) == 0
        assert w1.stats.work_grants_received == 0

    def test_report_merging_updates_table_and_incumbent(self):
        engine, network, problem, tree, (w0, w1) = make_worker_pair()
        from repro.simulation.entity import QueuedMessage

        report = WorkReport.build("w0", [ROOT.child(0, 1)], best=BestSolution(50.0, "w0"))
        msg = WorkReportMsg(report)
        w1._handle_message(QueuedMessage("w0", msg, 0.0, 0.0, msg.wire_size()))
        assert w1.tracker.table.covers(ROOT.child(0, 1))
        assert w1.incumbent.value == pytest.approx(50.0)

    def test_root_report_terminates_worker(self):
        engine, network, problem, tree, (w0, w1) = make_worker_pair()
        from repro.core.termination import make_root_report
        from repro.simulation.entity import QueuedMessage

        msg = WorkReportMsg(make_root_report("w0", best=BestSolution(10.0)))
        w1._handle_message(QueuedMessage("w0", msg, 0.0, 0.0, msg.wire_size()))
        assert w1.terminated
        assert w1.termination.detected_via == "root_report"

    def test_table_gossip_merging(self):
        engine, network, problem, tree, (w0, w1) = make_worker_pair()
        from repro.core.work_report import CompletedTableSnapshot
        from repro.simulation.entity import QueuedMessage

        snapshot = CompletedTableSnapshot("w0", frozenset({ROOT.child(0, 0)}))
        msg = TableGossipMsg(snapshot)
        w1._handle_message(QueuedMessage("w0", msg, 0.0, 0.0, msg.wire_size()))
        assert w1.tracker.table.covers(ROOT.child(0, 0))

    def test_best_solution_not_adopted_when_sharing_disabled(self):
        engine, network, problem, tree, (w0, w1) = make_worker_pair(share_best_solution=False)
        from repro.simulation.entity import QueuedMessage

        report = WorkReport.build("w0", [ROOT.child(0, 1)], best=BestSolution(50.0, "w0"))
        msg = WorkReportMsg(report)
        w1._handle_message(QueuedMessage("w0", msg, 0.0, 0.0, msg.wire_size()))
        assert w1.incumbent.value is None


class TestWorkerLifecycle:
    def test_crash_records_stats_and_stops_activity(self):
        engine, network, problem, tree, (w0, w1) = make_worker_pair()
        w0.on_start()
        w1.on_start()
        w0.crash()
        assert w0.stats.crashed
        assert w0.stats.crashed_at is not None
        engine.run(until=1.0)
        # A crashed worker never terminates or expands further.
        assert not w0.terminated
        assert w0.stats.nodes_expanded == 0 or w0.crashed_at >= 0

    def test_bootstrap_gate_blocks_blank_recovery(self):
        engine, network, problem, tree, (w0, w1) = make_worker_pair()
        now = 0.0
        # w1 is blank (no work done, empty table): it may not recover yet.
        assert not w1._may_recover(now)
        # After the bootstrap timeout of uninterrupted blank starvation it may.
        assert w1._may_recover(now + w1._bootstrap_timeout() + 1.0)

    def test_recovery_allowed_once_table_nonempty(self):
        engine, network, problem, tree, (w0, w1) = make_worker_pair()
        w1.tracker.table.add(ROOT.child(0, 0))
        assert w1._may_recover(0.0)

    def test_finalize_stats_reports_time_and_storage(self):
        engine, network, problem, tree, (w0, w1) = make_worker_pair()
        w0.on_start()
        w1.on_start()
        engine.run(stop_when=lambda: all(w.terminated for w in (w0, w1)))
        stats = w0.finalize_stats()
        assert stats.terminated
        assert stats.nodes_expanded > 0
        assert stats.best_value == pytest.approx(tree.optimal_value())
        assert "bb" in stats.time and stats.time["bb"] > 0
        assert stats.storage_peak_bytes > 0

    def test_received_code_counters_survive_a_restart(self):
        engine, network, problem, tree, (w0, w1) = make_worker_pair()
        from repro.simulation.entity import QueuedMessage

        msg = WorkReportMsg(WorkReport.build("w0", [ROOT.child(0, 1)]))
        delivery = QueuedMessage("w0", msg, 0.0, 0.0, msg.wire_size())
        w1._handle_message(delivery)
        w1._handle_message(delivery)  # the same code again: redundant
        w1.reset_for_rejoin()  # the tracker that counted those is discarded
        w1._handle_message(delivery)  # news again to the blank table
        stats = w1.finalize_stats()
        assert (stats.codes_received, stats.codes_received_redundant) == (3, 1)
        row = stats.as_dict()
        assert (row["codes_received"], row["codes_received_redundant"]) == (3, 1)

    def test_single_worker_group_recovers_alone(self):
        engine, network, problem, tree, (w0,) = make_worker_pair(n_workers=1)
        w0.on_start()
        engine.run(stop_when=lambda: w0.terminated)
        assert w0.terminated
        assert w0.incumbent.value == pytest.approx(tree.optimal_value())


class TestStepFastPath:
    def test_fast_path_taken_on_quiet_steps(self):
        # A high report threshold and no staleness/gossip timers means most
        # steps have an empty inbox and nothing due: the fast path must fire.
        engine, network, problem, tree, (w0, w1) = make_worker_pair(
            report_threshold=1000,
            report_staleness=None,
            table_gossip_interval=None,
        )
        w0.on_start()
        w1.on_start()
        engine.run(stop_when=lambda: all(w.terminated for w in (w0, w1)))
        assert w0.stats.fast_path_steps > 0
        assert "fast_path_steps" in w0.stats.as_dict()

    def test_fast_path_does_not_starve_reports(self):
        # With reporting enabled, quiet steps may skip the machinery but the
        # run must still exchange reports and terminate correctly.
        engine, network, problem, tree, (w0, w1) = make_worker_pair()
        w0.on_start()
        w1.on_start()
        engine.run(stop_when=lambda: all(w.terminated for w in (w0, w1)))
        assert w0.terminated and w1.terminated
        assert w0.stats.reports_sent > 0
        assert w0.incumbent.value == pytest.approx(tree.optimal_value())

    def test_report_work_due_mirrors_report_triggers(self):
        engine, network, problem, tree, (w0, w1) = make_worker_pair(
            report_threshold=2, table_gossip_interval=None
        )
        w0.on_start()
        assert not w0._report_work_due(0.0)
        w0.tracker.record_completed(ROOT.child(0, 0), now=0.0)
        assert not w0._report_work_due(0.0)  # below threshold, no staleness
        w0.tracker.record_completed(ROOT.child(0, 1), now=0.0)
        assert w0._report_work_due(0.0)  # threshold reached


class TestIdleGossipCadence:
    """The starved-worker table push is floored by the poll, paced by node cost."""

    STARVED_SECONDS = 10.0

    def _push_times(self, expected_node_cost):
        """Times at which a starved worker attempted a table push."""
        engine, network, problem, tree, (w0, w1) = make_worker_pair(
            expected_node_cost=expected_node_cost,
            with_root=False,
            # Nobody ever has work: keep the blank workers from regenerating
            # the root so the whole window is starvation.
            recovery_bootstrap_timeout=1e9,
        )
        times = []
        send_table_gossip = w1._send_table_gossip

        def recording(now):
            times.append(now)
            return send_table_gossip(now)

        w1._send_table_gossip = recording
        w0.on_start()
        w1.on_start()
        engine.run(until=self.STARVED_SECONDS)
        # Every attempt is accounted for: shipped, or suppressed as empty.
        assert len(times) == (
            w1.stats.delta_gossips_sent + w1.stats.delta_gossips_suppressed
        )
        return times, w1.config.idle_poll_interval

    def test_coarse_grain_pushes_are_paced_by_node_cost(self):
        times, poll = self._push_times(3.35)
        pace = IDLE_GOSSIP_NODE_COST_FRACTION * 3.35
        assert pace > poll
        gaps = [later - earlier for earlier, later in zip(times, times[1:])]
        assert min(gaps) >= pace
        assert len(times) <= self.STARVED_SECONDS / pace + 1
        # Paced, not switched off: the next poll after the pace still pushes.
        assert max(gaps) <= pace + 2 * poll

    def test_fine_grain_pushes_keep_the_poll_cadence(self):
        # A fraction of 0.01 s is far below the poll interval, so the floor
        # decides — this is what keeps the fine-grain runs bit-identical.
        times, poll = self._push_times(0.01)
        gaps = [later - earlier for earlier, later in zip(times, times[1:])]
        assert len(times) >= 0.95 * self.STARVED_SECONDS / poll
        assert max(gaps) <= 1.5 * poll
