"""Unit-level tests of the worker: the protocol core's public surface, driven
through the simulated adapter (small scenarios, explicit clock readings)."""

import pytest

from repro.analysis.timeline import worker_spans
from repro.bnb.pool import SelectionRule
from repro.bnb.random_tree import RandomTreeSpec, generate_random_tree
from repro.bnb.tree_problem import TreeReplayProblem
from repro.core.encoding import ROOT
from repro.core.work_report import BestSolution, DeltaSnapshot, WorkReport, table_digest
from repro.distributed.config import AlgorithmConfig
from repro.distributed.messages import (
    DeltaGossipMsg,
    WorkDenied,
    WorkGrant,
    WorkReportMsg,
    WorkRequest,
)
from repro.distributed import pacing
from repro.distributed.pacing import IDLE_GOSSIP_NODE_COST_FRACTION, IDLE_PACE_CAP
from repro.distributed.stats import TIME_CATEGORIES
from repro.distributed.worker import WorkerEntity
from repro.obs import Tracer
from repro.simulation.engine import SimulationEngine
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
    names = [f"w{i}" for i in range(n_workers)]
    workers = []
    for index, name in enumerate(names):
        worker = WorkerEntity(
            name,
            problem,
            config,
            names,
            rng=rng.stream(name),
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
        # w1 has an empty pool at fine grain: a request from w0 must be
        # denied, echoing its sequence number, and not as exhausted.
        sent = []
        send = w1.send
        w1.send = lambda target, payload: (sent.append((target, payload)), send(target, payload))
        w1.receive(WorkRequest("w0", 3), 0.0)
        assert w1.stats.work_denials_sent == 1
        assert w1.stats.work_grants_sent == 0
        assert sent == [("w0", WorkDenied("w1", 3))]
        # The denial is on the wire towards w0 (do not run the engine here:
        # that would start w0's whole main loop).
        assert network.per_entity["w1"].messages_sent == 1

    def test_work_grant_rebuilds_subproblems(self):
        engine, network, problem, tree, (w0, w1) = make_worker_pair()
        donated_code = ROOT.child(0, 0)
        grant = WorkGrant(donor="w0", codes=(donated_code,), best=BestSolution(123.0, "w0"))
        w1.receive(grant, 0.0)
        assert len(w1.pool) == 1
        assert w1.pool.peek().code == donated_code
        assert w1.stats.work_grants_received == 1
        # The piggy-backed incumbent was adopted (minimisation: any value beats none).
        assert w1.incumbent.value == pytest.approx(123.0)

    def test_grant_of_covered_code_is_ignored(self):
        engine, network, problem, tree, (w0, w1) = make_worker_pair()
        code = ROOT.child(0, 0)
        w1.tracker.table.add(code)
        w1.receive(WorkGrant(donor="w0", codes=(code,)), 0.0)
        assert len(w1.pool) == 0
        assert w1.stats.work_grants_received == 0

    def test_report_merging_updates_table_and_incumbent(self):
        engine, network, problem, tree, (w0, w1) = make_worker_pair()
        report = WorkReport.build("w0", [ROOT.child(0, 1)], best=BestSolution(50.0, "w0"))
        w1.receive(WorkReportMsg(report), 0.0)
        assert w1.tracker.table.covers(ROOT.child(0, 1))
        assert w1.incumbent.value == pytest.approx(50.0)

    def test_root_report_terminates_worker(self):
        engine, network, problem, tree, (w0, w1) = make_worker_pair()
        from repro.core.termination import make_root_report

        w1.receive(WorkReportMsg(make_root_report("w0", best=BestSolution(10.0))), 0.0)
        assert w1.terminated
        assert w1.termination.detected_via == "root_report"

    def test_best_solution_not_adopted_when_sharing_disabled(self):
        engine, network, problem, tree, (w0, w1) = make_worker_pair(share_best_solution=False)
        report = WorkReport.build("w0", [ROOT.child(0, 1)], best=BestSolution(50.0, "w0"))
        w1.receive(WorkReportMsg(report), 0.0)
        assert w1.incumbent.value is None


def deliver(worker, payload, now=0.0):
    """Hand one payload to a worker's protocol core (no engine run)."""
    return worker.receive(payload, now)


class TestWorkRequestTiming:
    """How long a starved worker waits and which missing subtree it
    regenerates."""

    @staticmethod
    def starved_worker(node_cost):
        """A blank starved worker whose timers are recorded, not armed."""
        engine, network, problem, tree, (w0, w1) = make_worker_pair(
            expected_node_cost=node_cost, with_root=False
        )
        timers = []
        w1.set_timer = lambda delay, reason: timers.append((delay, reason))
        return w1, timers

    @staticmethod
    def receive_after(worker, transit):
        """Hand the worker a message that spent ``transit`` s on the wire."""
        worker.receive(WorkDenied("w0"), 0.0, transit)

    @pytest.mark.parametrize("node_cost", [3.35, 0.01])
    def test_request_times_out_after_one_node_cost(self, node_cost):
        # A busy donor reads its inbox between nodes, so a live peer answers
        # after about one node time: no fixed floor makes the requester sit
        # out many node times on a dead peer.  A 2 ms one-way transit (4 ms
        # round trip) is inside one node at both grains.
        w1, timers = self.starved_worker(node_cost)
        self.receive_after(w1, 0.002)
        w1.handle_starvation(0.0)
        assert w1.stats.work_requests_sent == 1
        assert timers == [(pytest.approx(node_cost), "lb-timeout:1")]

    def test_nodes_shorter_than_a_round_trip_wait_two_round_trips(self):
        # 1 ms nodes, 2 ms each way: even an idle peer's immediate denial
        # takes 4 ms, so one node cost would time out every request.
        w1, timers = self.starved_worker(0.001)
        self.receive_after(w1, 0.002)
        w1.handle_starvation(0.0)
        assert timers == [(pytest.approx(4 * 0.002), "lb-timeout:1")]
        # The transit is a moving average over every message received.
        self.receive_after(w1, 0.012)
        assert w1.request_timeout() == pytest.approx(4 * (0.9 * 0.002 + 0.1 * 0.012))

    @pytest.mark.parametrize(
        "node_cost, pace", [(3.35, IDLE_PACE_CAP), (0.01, 0.01), (0.001, 4 * 0.002)]
    )
    def test_poll_and_retry_spacing_is_the_capped_request_timeout(self, node_cost, pace):
        w1, timers = self.starved_worker(node_cost)
        self.receive_after(w1, 0.002)
        w1.go_idle(0.0, 0.0)
        assert timers == [(pytest.approx(pace), "idle-poll")]
        # A request at 0: slightly less than one pace later the next one is
        # held back, one pace later it goes.
        w1.handle_starvation(0.0)
        w1.outstanding_request = None  # answered
        w1.handle_starvation(0.9 * pace)
        assert w1.stats.work_requests_sent == 1
        w1.handle_starvation(pace)
        assert w1.stats.work_requests_sent == 2

    def test_starved_workers_with_one_table_recover_different_subtrees(self):
        # A deterministic pick (DEEPEST) sent every starved survivor after
        # the same smallest missing subtree; each worker's seeded stream
        # spreads them over the complement instead.
        engine, network, problem, tree, workers = make_worker_pair(3, with_root=False)
        known = WorkReport.build("w0", [leaf.code for leaf in tree.leaves()[::2]])
        picks = []
        for worker in workers[1:]:
            deliver(worker, WorkReportMsg(known))
            for _ in range(worker.config.recovery_failed_threshold):
                worker.recovery.note_request_failed(-1.0)
            worker.handle_starvation(0.0)
            assert worker.stats.recovery_activations == 1
            picks.append(worker.recovery.stats.regenerated[0])
        assert picks[0] != picks[1]
        assert not any(
            known_code == pick or known_code.is_ancestor_of(pick)
            for known_code in known.codes
            for pick in picks
        )

    def test_worker_without_a_node_cost_waits_for_stalled_progress(self):
        # It has heard of completed work but expanded nothing, and no cost
        # was expected: failed requests alone must not make it recover.
        engine, network, problem, tree, (w0, w1) = make_worker_pair(expected_node_cost=0.0)
        deliver(w1, WorkReportMsg(WorkReport.build("w0", [ROOT.child(0, 1)])))
        assert w1.may_recover(0.0)
        floor = w1.bootstrap_timeout()
        assert w1.stall_threshold() == floor
        w1.recovery.idle_time_threshold = w1.stall_threshold()
        for attempt in range(w1.config.recovery_failed_threshold):
            w1.recovery.note_request_failed(0.1 * attempt)
        assert w1.recovery.evaluate(w1.tracker, 1.0).code is None
        assert w1.recovery.evaluate(w1.tracker, floor).code is not None


class TestOneSlotRule:
    """One request message, one slot rule: only a denial that echoes the
    outstanding sequence number frees the slot, whoever sends it, and only
    a walk that could go no further backs the requester off."""

    def test_only_the_outstanding_seq_frees_the_request_slot(self):
        engine, network, problem, tree, (w0, w1, w2) = make_worker_pair(3)
        w1.outstanding_request = 2
        # A late denial of request 1, which already timed out at w0: still a
        # failed attempt, but request 2, outstanding at w2, stays outstanding.
        deliver(w1, WorkDenied("w0", 1))
        assert w1.outstanding_request == 2
        assert w1.recovery.consecutive_failures == 1
        deliver(w1, WorkDenied("w2", 2))
        assert w1.outstanding_request is None
        assert w1.recovery.consecutive_failures == 2

    def test_older_denial_from_the_peer_asked_now_keeps_the_slot(self):
        # Two workers: w1's only peer is w0, so both requests go there.
        # Request 1 times out at a busy w0; request 2 follows; w0's late
        # denial of request 1 must not free the slot request 2 holds.
        engine, network, problem, tree, (w0, w1) = make_worker_pair(with_root=False)
        sent = []
        w1.send = lambda target, payload: sent.append((target, payload))
        w1.set_timer = lambda delay, reason: None
        w1.handle_starvation(0.0)
        assert w1.on_timer("lb-timeout:1", w1.request_timeout())
        assert w1.outstanding_request is None
        w1.handle_starvation(1.0)
        requests = [(t, msg.seq) for t, msg in sent if isinstance(msg, WorkRequest)]
        assert requests == [("w0", 1), ("w0", 2)]
        assert w1.outstanding_request == 2
        deliver(w1, WorkDenied("w0", 1), now=1.0)
        assert w1.outstanding_request == 2
        deliver(w1, WorkDenied("w0", 2), now=1.0)
        assert w1.outstanding_request is None

    def test_fine_grain_idle_denial_is_not_exhausted_and_paces_as_usual(self):
        # An idle fine-grain receiver denies at once; its denial does not
        # make the requester back off as an exhausted walk does.
        engine, network, problem, tree, (w0, w1) = make_worker_pair(
            expected_node_cost=0.01, with_root=False
        )
        outbox = {w0.name: [], w1.name: []}
        for worker in (w0, w1):
            worker.send = lambda target, payload, box=outbox[worker.name]: box.append(
                (target, payload)
            )
            worker.set_timer = lambda delay, reason: None
        w1.handle_starvation(0.0)
        (request,) = [msg for _, msg in outbox["w1"] if isinstance(msg, WorkRequest)]
        deliver(w0, request)
        assert outbox["w0"] == [("w1", WorkDenied("w0", 1))]
        deliver(w1, outbox["w0"][0][1])
        assert w1.outstanding_request is None
        assert not w1.walk_exhausted
        assert w1.stats.walks_exhausted == 0
        pace = pacing.idle_pace(w1.avg_node_cost, w1.avg_transit)
        backoff = pacing.EXHAUSTED_WALK_PUSH_INTERVALS * pacing.push_interval(w1.avg_node_cost)
        assert pace < backoff
        w1.handle_starvation(0.99 * pace)
        assert w1.stats.work_requests_sent == 1
        w1.handle_starvation(pace)
        assert w1.stats.work_requests_sent == 2


class TestWalkPastIdlePeers:
    """At coarse grain an idle worker passes a request on instead of
    denying it; the walk's answer frees the slot by sequence number."""

    @staticmethod
    def recording(n_workers=5, node_cost=3.35):
        """Blank coarse-grain workers; ``w1``'s sends and timers are recorded."""
        engine, network, problem, tree, workers = make_worker_pair(
            n_workers, expected_node_cost=node_cost, with_root=False
        )
        w1 = workers[1]
        sent, timers = [], []
        w1.send = lambda target, payload: sent.append((target, payload))
        w1.set_timer = lambda delay, reason: timers.append((delay, reason))
        return w1, sent, problem

    def test_coarse_grain_requests_walk_and_fine_grain_ones_do_not(self):
        # Both grains send the same request; the idle receiver decides.
        for node_cost, answer in ((3.35, WorkRequest), (0.01, WorkDenied)):
            w1, sent, _ = self.recording(node_cost=node_cost)
            w1.handle_starvation(0.0)
            requests = [msg for _, msg in sent if isinstance(msg, WorkRequest)]
            assert [type(msg) for msg in requests] == [WorkRequest]
            sent.clear()
            deliver(w1, WorkRequest("w0", 7))
            assert [type(msg) for _, msg in sent] == [answer]
        assert requests[0] == WorkRequest("w1", 1)
        assert sent == [("w0", WorkDenied("w1", 7))]

    def test_idle_worker_forwards_to_a_peer_other_than_the_requester(self):
        w1, sent, _ = self.recording()
        for hops in range(20):
            deliver(w1, WorkRequest("w0", 7, hops % 3))
        assert len(sent) == 20
        assert all(target not in ("w0", "w1") for target, _ in sent)
        assert {target for target, _ in sent} == {"w2", "w3", "w4"}
        assert [msg for _, msg in sent[:3]] == [
            WorkRequest("w0", 7, 1),
            WorkRequest("w0", 7, 2),
            WorkRequest("w0", 7, 3),
        ]
        assert w1.stats.work_requests_forwarded == 20
        assert w1.stats.work_denials_sent == 0

    def test_walk_ends_exhausted_at_the_hop_limit(self):
        w1, sent, _ = self.recording()
        limit = pacing.walk_hops(3.35, 0.0, len(w1.peers))
        assert limit == 3  # four peers
        deliver(w1, WorkRequest("w0", 7, limit))
        assert sent == [("w0", WorkDenied("w1", 7, exhausted=True))]

    def test_busy_worker_answers_as_before(self):
        w1, sent, problem = self.recording()
        w1.pool.push(problem.root_subproblem())
        deliver(w1, WorkRequest("w0", 7, 2))
        # A pool of one gives nothing: a plain denial, not an exhausted one.
        assert sent == [("w0", WorkDenied("w1", 7))]
        root = problem.root_subproblem()
        for child, _bound in w1.expander.expand(root, None).children:
            w1.pool.push(child)
        sent.clear()
        deliver(w1, WorkRequest("w0", 8, 2))
        assert [(target, type(msg)) for target, msg in sent] == [("w0", WorkGrant)]

    def test_denial_frees_the_slot_by_sequence_and_exhaustion_backs_off(self):
        w1, sent, _ = self.recording()
        w1.handle_starvation(0.0)
        assert w1.outstanding_request == 1
        # An answer to an older request leaves the current one outstanding.
        deliver(w1, WorkDenied("w4", 0, exhausted=True))
        assert w1.outstanding_request is not None
        assert w1.stats.walks_exhausted == 0
        deliver(w1, WorkDenied("w4", 1, exhausted=True))
        assert w1.outstanding_request is None
        assert w1.stats.walks_exhausted == 1
        assert w1.recovery.consecutive_failures == 2
        pause = pacing.request_pause(w1.avg_node_cost, w1.avg_transit, True)
        assert pause == pytest.approx(1.5 * pacing.push_interval(3.35))
        w1.handle_starvation(0.99 * pause)
        assert w1.stats.work_requests_sent == 1
        w1.handle_starvation(pause)
        assert w1.stats.work_requests_sent == 2
        # A denial that is not exhausted paces the next request as usual.
        deliver(w1, WorkDenied("w4", 2))
        assert w1.outstanding_request is None
        assert not w1.walk_exhausted


class TestPushedDonations:
    """A starved peer's table delta doubles as a work request."""

    @staticmethod
    def busy_worker_heard_from_w1(heard_ago):
        """w0 holds three subproblems; w1's delta was merged ``heard_ago`` s
        before w0's next step (node cost 3.35 s: one request timeout)."""
        engine, network, problem, tree, (w0, w1) = make_worker_pair(
            expected_node_cost=3.35, with_root=False
        )
        left, right = (node.code for node in tree.children(ROOT))
        for code in [right, *(node.code for node in tree.children(left))]:
            w0.pool.push(problem.rebuild_subproblem(code))
        assert len(w0.pool) == 3
        delta = w1.tracker.build_delta_snapshot("w0")
        w0.receive(DeltaGossipMsg(delta), 10.0 - heard_ago)
        sent = []
        w0.send = lambda target, payload: sent.append((target, payload))
        # The pool size when the worker pops its own next node.
        kept = []
        next_uncovered = w0.next_uncovered_subproblem

        def recording_pick():
            kept.append(len(w0.pool))
            return next_uncovered()

        w0.next_uncovered_subproblem = recording_pick
        return w0, right, sent, kept

    @staticmethod
    def step_at_ten(w0):
        """One expansion boundary at t = 10 s: the core's step, then the
        expansion of the subproblem it picked, as the simulated step does."""
        sub = w0.step(10.0)
        if sub is not None:
            w0.expand(sub, 10.0)

    def test_fresh_starved_peer_gets_one_subproblem_unasked(self):
        w0, shallowest, sent, kept = self.busy_worker_heard_from_w1(1.0)
        self.step_at_ten(w0)
        grants = [(to, msg.codes) for to, msg in sent if isinstance(msg, WorkGrant)]
        assert grants == [("w1", (shallowest,))]
        assert w0.stats.work_pushes_sent == 1 and w0.stats.work_grants_sent == 0
        assert kept == [2]
        # w1 was forgotten: the next boundary pushes nothing more.
        assert len(w0.pool) >= 2
        self.step_at_ten(w0)
        assert w0.stats.work_pushes_sent == 1

    def test_stale_signal_pushes_nothing(self):
        w0, _, sent, kept = self.busy_worker_heard_from_w1(3.5)
        self.step_at_ten(w0)
        assert not any(isinstance(msg, WorkGrant) for _, msg in sent)
        assert kept == [3]
        assert w0.stats.work_pushes_sent == 0


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
        assert not w1.may_recover(now)
        # After the bootstrap timeout of uninterrupted blank starvation it may.
        assert w1.may_recover(now + w1.bootstrap_timeout() + 1.0)

    def test_recovery_allowed_once_table_nonempty(self):
        engine, network, problem, tree, (w0, w1) = make_worker_pair()
        w1.tracker.table.add(ROOT.child(0, 0))
        assert w1.may_recover(0.0)

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
        msg = WorkReportMsg(WorkReport.build("w0", [ROOT.child(0, 1)]))
        deliver(w1, msg)
        deliver(w1, msg)  # the same code again: redundant
        w1.reset_for_rejoin()  # the tracker that counted those is discarded
        deliver(w1, msg)  # news again to the blank table
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
        # A high report threshold and no staleness timer means most steps
        # have an empty inbox and nothing due: the fast path must fire.
        engine, network, problem, tree, (w0, w1) = make_worker_pair(
            report_threshold=1000,
            report_staleness=None,
        )
        w0.on_start()
        w1.on_start()
        engine.run(stop_when=lambda: all(w.terminated for w in (w0, w1)))
        assert w0.stats.fast_path_steps > 0
        assert "fast_path_steps" in w0.stats.as_dict()

    def test_fast_path_does_not_starve_reports(self):
        # With reporting enabled, quiet steps may skip the machinery but the
        # run must still exchange reports and terminate correctly.  The low
        # threshold makes the reports due while w0 is busy, so they go out
        # through the step's report path, not as a side effect of recovery.
        engine, network, problem, tree, (w0, w1) = make_worker_pair(report_threshold=2)
        w0.on_start()
        w1.on_start()
        engine.run(stop_when=lambda: all(w.terminated for w in (w0, w1)))
        assert w0.terminated and w1.terminated
        assert w0.stats.reports_sent > 0
        assert w0.stats.fast_path_steps > 0
        assert w0.recovery.stats.activations == w1.recovery.stats.activations == 0
        assert w0.incumbent.value == pytest.approx(tree.optimal_value())

    def test_report_work_due_mirrors_report_triggers(self):
        engine, network, problem, tree, (w0, w1) = make_worker_pair(report_threshold=2)
        w0.on_start()
        assert not w0.report_work_due(0.0)
        w0.tracker.record_completed(ROOT.child(0, 0), now=0.0)
        assert not w0.report_work_due(0.0)  # below threshold, no staleness
        w0.tracker.record_completed(ROOT.child(0, 1), now=0.0)
        assert w0.report_work_due(0.0)  # threshold reached


class TestIdleGossipCadence:
    """The starved-worker table push is floored by the pace cap, paced by node cost."""

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
        send_table_gossip = w1.send_table_gossip

        def recording(now):
            times.append(now)
            return send_table_gossip(now)

        w1.send_table_gossip = recording
        w0.on_start()
        w1.on_start()
        engine.run(until=self.STARVED_SECONDS)
        # Every attempt is accounted for: shipped, or suppressed as empty.
        assert len(times) == (
            w1.stats.delta_gossips_sent + w1.stats.delta_gossips_suppressed
        )
        return times

    def test_coarse_grain_pushes_are_paced_by_node_cost(self):
        times = self._push_times(3.35)
        pace = IDLE_GOSSIP_NODE_COST_FRACTION * 3.35
        assert pace > IDLE_PACE_CAP
        gaps = [later - earlier for earlier, later in zip(times, times[1:])]
        assert min(gaps) >= pace
        assert len(times) <= self.STARVED_SECONDS / pace + 1
        # Paced, not switched off: the next poll (one cap apart at coarse
        # grain) after the pace still pushes.
        assert max(gaps) <= pace + 2 * IDLE_PACE_CAP

    def test_fine_grain_pushes_keep_the_cap_cadence(self):
        # A fraction of 0.01 s is far below the cap, so the cap decides: the
        # worker polls more often than the cap but pushes only once per cap.
        times = self._push_times(0.01)
        gaps = [later - earlier for earlier, later in zip(times, times[1:])]
        assert min(gaps) >= IDLE_PACE_CAP
        assert len(times) >= 0.95 * self.STARVED_SECONDS / IDLE_PACE_CAP
        assert max(gaps) <= 1.5 * IDLE_PACE_CAP


class TestNewsForRedoneWork:
    """Redone work asks for news: a report whose every code the table
    already covered, or an empty delta (a pull), is answered with the
    table's delta, and a recovery pulls news from ``report_fanout`` peers."""

    @staticmethod
    def recording(n_workers=3, **config_overrides):
        """A blank worker ``w1`` whose sends are recorded, and three codes of
        the tree: the root's children and one grandchild under the left."""
        engine, network, problem, tree, workers = make_worker_pair(
            n_workers, with_root=False, **config_overrides
        )
        w1 = workers[1]
        sent = []
        w1.send = lambda target, payload: sent.append((target, payload))
        left, right = (node.code for node in tree.children(ROOT))
        grandchild = next(iter(tree.children(left))).code
        return w1, sent, left, grandchild, right

    @staticmethod
    def deltas(sent):
        return [(to, msg.delta) for to, msg in sent if isinstance(msg, DeltaGossipMsg)]

    def test_report_that_teaches_nothing_is_answered_with_one_delta(self):
        w1, sent, left, grandchild, right = self.recording()
        deliver(w1, WorkReportMsg(WorkReport.build("w0", [grandchild, right])))
        assert sent == []
        # w2 completed only a code w1 already covered: it lacks w1's news.
        deliver(w1, WorkReportMsg(WorkReport.build("w2", [grandchild])))
        assert [(to, delta.codes) for to, delta in self.deltas(sent)] == [
            ("w2", frozenset({right}))
        ]
        assert len(sent) == 1
        assert w1.stats.news_answers_sent == 1

    def test_fresh_report_is_not_answered(self):
        w1, sent, left, grandchild, right = self.recording()
        deliver(w1, WorkReportMsg(WorkReport.build("w0", [right])))
        deliver(w1, WorkReportMsg(WorkReport.build("w2", [grandchild])))
        assert sent == []
        assert w1.stats.news_answers_sent == 0

    def test_report_with_any_news_is_not_answered(self):
        # One covered code next to a new one reads as gossip that outran
        # the report, not as redone work.
        w1, sent, left, grandchild, right = self.recording()
        deliver(w1, WorkReportMsg(WorkReport.build("w0", [right])))
        deliver(
            w1, "w2", WorkReportMsg(WorkReport.build("w2", [right, grandchild.sibling()]))
        )
        assert sent == []

    def test_sender_that_knows_everything_gets_no_answer(self):
        w1, sent, left, grandchild, right = self.recording()
        deliver(w1, WorkReportMsg(WorkReport.build("w0", [right])))
        # w0 re-reports what it sent: w1 knows nothing w0 does not.
        deliver(w1, WorkReportMsg(WorkReport.build("w0", [right])))
        assert sent == []

    def test_pull_is_answered_with_the_receivers_delta_not_an_ack(self):
        w1, sent, left, grandchild, right = self.recording()
        deliver(w1, WorkReportMsg(WorkReport.build("w0", [right])))
        pull = DeltaSnapshot("w2", frozenset(), full_digest=table_digest(frozenset()))
        deliver(w1, DeltaGossipMsg(pull))
        assert [(to, delta.codes) for to, delta in self.deltas(sent)] == [
            ("w2", frozenset({right}))
        ]
        assert len(sent) == 1  # no TableGossipAck: there is nothing to acknowledge
        assert w1.stats.news_answers_sent == 1 and w1.stats.gossip_acks_sent == 0

    def test_pull_gets_nothing_when_the_receiver_has_no_news(self):
        w1, sent, left, grandchild, right = self.recording()
        blank = DeltaSnapshot("w2", frozenset(), full_digest=table_digest(frozenset()))
        deliver(w1, DeltaGossipMsg(blank))
        assert sent == []
        # A puller whose table equals the receiver's gets nothing either.
        deliver(w1, WorkReportMsg(WorkReport.build("w0", [right])))
        same = DeltaSnapshot("w2", frozenset(), full_digest=w1.tracker.table_digest_now())
        deliver(w1, DeltaGossipMsg(same))
        assert sent == []
        assert w1.stats.news_answers_sent == 0

    def test_starting_a_recovery_pulls_from_report_fanout_peers(self):
        w1, sent, left, grandchild, right = self.recording(n_workers=5, report_fanout=3)
        deliver(w1, WorkReportMsg(WorkReport.build("w0", [right])))
        w1.start_recovery(grandchild, 0.0)
        assert len(w1.pool) == 1  # the worker expands at once, not after answers
        pulls = self.deltas(sent)
        assert len(pulls) == len(sent) == 3 == w1.stats.news_pulls_sent
        assert len({to for to, _ in pulls}) == 3 and "w1" not in {to for to, _ in pulls}
        digest = w1.tracker.table_digest_now()
        assert all(d.is_empty and d.full_digest == digest for _, d in pulls)

    def test_terminated_worker_answers_nothing(self):
        w1, sent, left, grandchild, right = self.recording()
        deliver(w1, WorkReportMsg(WorkReport.build("w0", [left, right])))
        assert w1.terminated
        # A report that teaches nothing, and a pull: neither is answered.
        deliver(w1, WorkReportMsg(WorkReport.build("w2", [grandchild])))
        blank = DeltaSnapshot("w2", frozenset(), full_digest=table_digest(frozenset()))
        deliver(w1, DeltaGossipMsg(blank))
        assert sent == []
        assert w1.stats.news_answers_sent == 0


class TestOneRecordPerWorker:
    """Time and storage land in ``stats``; states become tracer spans."""

    def test_time_starts_at_zero_in_every_category(self):
        _, _, _, _, (w0, _) = make_worker_pair()
        assert w0.stats.time == dict.fromkeys(TIME_CATEGORIES, 0.0)
        assert w0._charge("bb", 2.0) == 2.0
        assert w0._charge("idle", 0.0) == 0.0
        assert w0.stats.time["bb"] == 2.0 and w0.stats.time["idle"] == 0.0
        with pytest.raises(KeyError):
            w0._charge("bogus", 1.0)

    def test_storage_keeps_the_redundant_share_read_at_the_peak(self, monkeypatch):
        _, _, _, _, (w0, _) = make_worker_pair()
        monkeypatch.setattr(w0.pool, "storage_bytes", lambda: 0)
        for footprint, share, peak, redundant in (
            (100, 0.1, 100, 10),
            (50, 0.8, 100, 10),
            (200, 0.3, 200, 60),
        ):
            monkeypatch.setattr(w0.tracker, "storage_bytes", lambda f=footprint: f)
            monkeypatch.setattr(w0.tracker, "remote_information_share", lambda s=share: s)
            w0._update_storage_metric()
            assert (w0.stats.storage_peak_bytes, w0.stats.storage_redundant_bytes) == (
                peak,
                redundant,
            )

    @staticmethod
    def _states(changes, end):
        """The spans of ``w0`` after entering each ``(time, state)``."""
        engine, _, _, _, (w0, _) = make_worker_pair()
        w0.tracer = Tracer()
        for time, state in changes:
            engine.schedule_at(time, lambda s=state: w0._trace_state(s))
        engine.run()
        w0.close_state(end)
        return [span[1:] for span in worker_spans(w0.tracer.iter_records())]

    def test_same_state_twice_is_one_span(self):
        spans = self._states([(0.0, "working"), (1.0, "working"), (2.0, "idle")], 3.0)
        assert spans == [("working", 0.0, 2.0), ("idle", 2.0, 1.0)]

    def test_zero_length_spans_are_dropped(self):
        spans = self._states([(1.0, "working"), (1.0, "idle")], 2.0)
        assert spans == [("idle", 1.0, 1.0)]

    def test_state_entered_at_the_end_leaves_no_tail(self):
        assert self._states([(0.0, "working"), (3.0, "idle")], 3.0) == [
            ("working", 0.0, 3.0)
        ]

    def test_closing_before_the_state_opened_records_nothing(self):
        # An end time before the open state's start yields no span, never
        # a negative-duration one.
        engine, _, _, _, (w0, _) = make_worker_pair()
        w0.tracer = Tracer()
        engine.schedule_at(5.0, lambda: w0._trace_state("working"))
        engine.run()
        w0.close_state(3.0)
        w0.close_state(5.0)
        assert worker_spans(w0.tracer.iter_records()) == []
        w0.close_state(6.0)
        assert worker_spans(w0.tracer.iter_records()) == [("w0", "working", 5.0, 1.0)]

    def test_untraced_worker_keeps_no_state(self):
        _, _, _, _, (w0, _) = make_worker_pair()
        w0._trace_state("working")
        assert w0._state is None
