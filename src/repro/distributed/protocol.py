"""The worker protocol, once: one core that both drivers run.

:class:`ProtocolCore` is one process of the distributed B&B computation of
the paper's Section 5, with no clock and no transport of its own.  Its
inputs are a received payload (:meth:`~ProtocolCore.receive`) and a due
timer (:meth:`~ProtocolCore.on_timer`), each with the driver's ``now``; its
outputs are sends, timers and the subproblem to expand next
(:meth:`~ProtocolCore.step`).  It owns the pool and the node expansion, the
completed table (work reports, delta gossip, news for redone work), the
recovery policy, the pacing state and every wait of
:mod:`repro.distributed.pacing`, the walk past idle peers, pushed
donations, the incumbent and almost-implicit termination detection.  The
worker looks at what arrived only between node expansions, as the paper's
simulator does.

Two drivers subclass it: :class:`~repro.distributed.worker.WorkerEntity`
charges the work the core reports as simulated time through the cost hooks,
and :func:`repro.realexec.node.worker_main` moves bytes on a wall clock,
where the hooks cost nothing.  docs/ARCHITECTURE.md, "One protocol core,
two drivers", lists what each side owns.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence

from ..bnb.pool import SubproblemPool
from ..bnb.problem import BranchAndBoundProblem, Subproblem
from ..bnb.sequential import NodeExpander
from ..core.arena import TrieArena
from ..core.completion import CompletionTracker
from ..core.encoding import PathCode
from ..core.recovery import RecoveryPolicy
from ..core.termination import TerminationDetector, make_root_report
from ..core.work_report import BestSolution
from . import pacing
from .config import AlgorithmConfig
from .messages import (
    DeltaGossipMsg,
    TableGossipAck,
    WorkDenied,
    WorkGrant,
    WorkReportMsg,
    WorkRequest,
)
from .stats import WorkerRunStats

__all__ = ["ProtocolCore", "DELTA_BYTES_BUCKETS"]

#: Histogram buckets for gossip-delta wire sizes (bytes).
DELTA_BYTES_BUCKETS = (64, 256, 1024, 4096, 16384, 65536)


class ProtocolCore:
    """The driver-neutral worker protocol (see the module docstring).

    Parameters
    ----------
    name:
        Unique worker name (also its address).
    problem:
        The optimisation problem; every worker holds the full initial data.
    config:
        Algorithm tunables.
    peers:
        Every other member (a sequence the worker may ``remove`` from).
    rng:
        Seeded random stream for this worker's choices.
    initial_work:
        Subproblems this worker starts with (pushed by :meth:`start`).
    expected_node_cost:
        A-priori node cost; seeds the moving average the pacing rules scale
        by, so start-up starvation does not read as lost work.
    """

    def __init__(
        self,
        name: str,
        problem: BranchAndBoundProblem,
        config: AlgorithmConfig,
        peers: Sequence[str],
        *,
        rng: random.Random,
        initial_work: Sequence[Subproblem] = (),
        expected_node_cost: float = 0.0,
        arena: Optional[TrieArena] = None,
        tracer: Optional[Any] = None,
        obs_metrics: Optional[Any] = None,
    ) -> None:
        self.name = name
        self.problem = problem
        self.config = config
        self.peers = peers
        self.rng = rng
        #: Optional :class:`repro.obs.Tracer` (``None`` keeps the hot paths
        #: on one attribute check).
        self.tracer = tracer
        self._delta_bytes_hist = (
            obs_metrics.histogram("gossip_delta_bytes", buckets=DELTA_BYTES_BUCKETS)
            if obs_metrics is not None
            else None
        )
        self.expander = NodeExpander(problem)
        self.stats = WorkerRunStats(name=name)
        self._initial_work = list(initial_work)
        self._reset_state(arena)

        # Pacing state -------------------------------------------------- #
        #: Sequence number of the work request awaiting an answer.
        self.outstanding_request: Optional[int] = None
        self._request_seq = 0
        self._last_lb_attempt: Optional[float] = None
        #: The last request's walk met only idle peers: the next one waits
        #: longer (:func:`~repro.distributed.pacing.request_pause`).
        self.walk_exhausted = False
        #: Moving average of the one-way transit of received messages; it
        #: floors the request timeout when nodes are shorter than a round trip.
        self.avg_transit = 0.0
        #: Moving average of recent node costs: every wait scales by it.
        self.avg_node_cost = max(0.0, expected_node_cost)
        self._last_table_gossip = 0.0
        self._idle_poll_armed = False
        #: When this worker first found itself starved knowing nothing (the
        #: blank-worker gate).
        self._starved_blank_since: Optional[float] = None
        #: Peers whose table delta this worker processed, and when: the push
        #: signal of :func:`~repro.distributed.pacing.push_targets`.
        self._starved_peers: Dict[str, float] = {}
        self._expanded_codes: set = set()
        #: Set by :meth:`step` when it returns a subproblem: the cost of the
        #: protocol work done before it.
        self.step_overhead = 0.0

    def _reset_state(self, arena: Optional[TrieArena]) -> None:
        """Fresh pool, table, detector, recovery policy and incumbent."""
        config = self.config
        self.pool: SubproblemPool = SubproblemPool(
            config.selection_rule, minimize=self.problem.minimize
        )
        self.tracker = CompletionTracker(
            self.name,
            report_threshold=config.report_threshold,
            report_staleness=config.report_staleness,
            arena=arena,
        )
        self.termination = TerminationDetector(self.tracker)
        self.recovery = RecoveryPolicy(
            failed_request_threshold=config.recovery_failed_threshold, rng=self.rng
        )
        self.incumbent = BestSolution()
        self._finished = False

    # ------------------------------------------------------------------ #
    # Driver hooks
    # ------------------------------------------------------------------ #
    def send(self, destination: str, payload: Any) -> Any:
        """Deliver ``payload`` to the member ``destination`` (or lose it)."""
        raise NotImplementedError

    def set_timer(self, delay: float, reason: str) -> None:
        """Call :meth:`on_timer` with ``reason`` after ``delay`` seconds."""
        raise NotImplementedError

    # Cost hooks: the simulated driver turns units of protocol work into
    # simulated CPU time, charges it and returns it; a real process pays in
    # wall time, so the defaults cost nothing.
    def _charge(self, category: str, amount: float) -> float:
        return 0.0

    def _sent(self, category: str) -> float:
        return 0.0

    def _received(self, category: str, size_bytes: int) -> float:
        return 0.0

    def _contracted(self, ops: int) -> float:
        return 0.0

    def _rebuild_cost(self, code: PathCode) -> float:
        return 0.0

    # Observation hooks (the simulated driver's timeline and accounting).
    def _trace_state(self, state: str) -> None:
        pass

    def _on_idle(self, idle_from: float) -> None:
        pass

    def _on_finished(self, now: float) -> None:
        pass

    def _receive_other(self, payload: Any, size_bytes: int) -> float:
        """A payload the protocol does not know (a driver may)."""
        return self._received("communication", size_bytes)

    # ------------------------------------------------------------------ #
    # Small helpers
    # ------------------------------------------------------------------ #
    @property
    def terminated(self) -> bool:
        """True once this worker has detected global termination."""
        return self.termination.terminated

    def _update_incumbent(self, value: Optional[float], origin: str) -> bool:
        """Adopt a better incumbent value; returns True when it improved."""
        if value is None:
            return False
        if self.problem.is_improvement(value, self.incumbent.value):
            self.incumbent = BestSolution(value=value, origin=origin)
            return True
        return False

    def _absorb_best(self, payload) -> None:
        if not self.config.share_best_solution:
            return
        best = getattr(payload, "best", None)
        if isinstance(best, BestSolution) and best.value is not None:
            self._update_incumbent(best.value, best.origin or "remote")

    def _my_best(self) -> BestSolution:
        return self.incumbent if self.config.share_best_solution else BestSolution()

    # ------------------------------------------------------------------ #
    # Inputs
    # ------------------------------------------------------------------ #
    def start(self, now: float) -> None:
        """Pool the initial work; table pushes are paced from ``now``."""
        for sub in self._initial_work:
            self.pool.push(sub, bound=self.problem.bound(sub.state))
        self._last_table_gossip = now

    def on_timer(self, reason: str, now: float) -> bool:
        """A timer armed through :meth:`set_timer` fell due; returns whether
        it was the protocol's (the driver then runs :meth:`step`)."""
        if reason.startswith("lb-timeout:"):
            seq = int(reason.split(":", 1)[1])
            if self.outstanding_request == seq:
                # The request went unanswered (lost message, dead or busy
                # victim): that counts as a failed attempt for the recovery
                # policy's starvation rule.
                self.outstanding_request = None
                self.recovery.note_request_failed(now)
            return True
        if reason == "idle-poll":
            self._idle_poll_armed = False
            return True
        return False

    def receive(
        self, payload: Any, now: float, transit: float = 0.0, size_bytes: int = 0
    ) -> float:
        """Handle one received payload; returns the cost charged."""
        self.avg_transit = pacing.moving_average(self.avg_transit, transit)
        self._absorb_best(payload)

        if isinstance(payload, WorkRequest):
            return self._received("load_balancing", size_bytes) + self._answer_work_request(
                payload
            )
        if isinstance(payload, WorkGrant):
            return self._received("load_balancing", size_bytes) + self._accept_work_grant(
                payload, now
            )
        if isinstance(payload, WorkDenied):
            # Only the echo of the outstanding sequence number frees the
            # request slot: a walked request may be answered by any peer on
            # its path, and a busy donor reads a request at its next
            # expansion boundary, so its denial can arrive after the request
            # timed out and another was sent.  It still counts as a failed
            # attempt.
            if self.outstanding_request == payload.seq:
                self.outstanding_request = None
                if payload.exhausted:
                    self.walk_exhausted = True
                    self._last_lb_attempt = now
                    self.stats.walks_exhausted += 1
            self.recovery.note_request_failed(now)
            return self._received("load_balancing", size_bytes)
        if isinstance(payload, WorkReportMsg):
            cost = self._received("communication", size_bytes)
            return cost + self._merge_report(payload, now)
        if isinstance(payload, DeltaGossipMsg):
            cost = self._received("communication", size_bytes)
            return cost + self._merge_delta(payload, now)
        if isinstance(payload, TableGossipAck):
            self.tracker.note_snapshot_ack(payload.sender, payload.digest)
            if payload.table_digest and payload.table_digest == self.tracker.table_digest_now():
                # The acker's table equals ours: it covers everything we have.
                self.tracker.note_peer_converged(payload.sender)
            return self._received("communication", size_bytes)
        return self._receive_other(payload, size_bytes)

    # ------------------------------------------------------------------ #
    # The step: everything between two node expansions
    # ------------------------------------------------------------------ #
    def step(self, now: float, handled: bool = False, overhead: float = 0.0) -> Optional[Subproblem]:
        """Run the protocol after the driver handed over what arrived
        (``handled``: anything did; ``overhead``: its cost) and return the
        subproblem to expand next, or ``None`` when the worker went idle
        (the idle poll is armed) or terminated."""
        # Dirty-flag fast path: most steps of a busy worker arrive with an
        # empty inbox and nothing due to send, so the report machinery is
        # only entered when there is actually work for it.
        if handled:
            if self.terminated:
                # Termination may have been detected while merging reports;
                # the detector knows whether this worker still owes the final
                # root broadcast (only the "local" detection path does).
                self._finish_termination(now, broadcast=self.config.send_root_report)
                return None
            overhead += self._maybe_send_reports(now)
        elif self.report_work_due(now):
            overhead += self._maybe_send_reports(now)
        else:
            self.stats.fast_path_steps += 1

        if self.check_termination(now):
            return None

        if not self.pool:
            # Flush pending completions the moment the pool runs dry.  The
            # paper observes that lightly loaded processes "suspect
            # termination and send more work reports"; flushing on idle is
            # the deterministic version of that behaviour and is what lets
            # the last completions reach the rest of the group promptly.
            if self.tracker.pending_report_size:
                overhead += self._flush_report(now)
                if self.check_termination(now):
                    return None
            overhead += self.handle_starvation(now)
            if not self.pool:
                # Still nothing to do: go idle until a message or the poll.
                self.go_idle(now + overhead, overhead)
                return None

        if self._starved_peers and len(self.pool) >= 2:
            overhead += self._push_surplus(now)

        # Expand the next subproblem that is not already known completed.
        sub = self.next_uncovered_subproblem()
        if sub is None:
            self.go_idle(now + overhead, overhead)
            return None
        self.step_overhead = overhead
        return sub

    def go_idle(self, idle_from: float, overhead: float) -> None:
        """Enter the idle state and make sure exactly one poll timer is armed."""
        self._on_idle(idle_from)
        if not self._idle_poll_armed:
            self._idle_poll_armed = True
            pace = pacing.idle_pace(self.avg_node_cost, self.avg_transit)
            self.set_timer(max(overhead, 0.0) + pace, "idle-poll")

    # ------------------------------------------------------------------ #
    # Expansion
    # ------------------------------------------------------------------ #
    def next_uncovered_subproblem(self) -> Optional[Subproblem]:
        """Pop subproblems until one not already covered by the table is found."""
        # Hoisted lookups: this loop may discard long runs of covered
        # subproblems after a big report merge, and ``covers`` is the hot
        # O(depth) trie probe.
        pool = self.pool
        covers = self.tracker.table.covers
        active_recoveries = self.recovery.active_recoveries
        while pool:
            sub = pool.pop()
            if covers(sub.code):
                # Someone else already completed this subtree (a received
                # report or gossip said so): drop it and record the aborted
                # (would-have-been-redundant) work.
                self.stats.nodes_skipped_covered += 1
                if sub.code in active_recoveries:
                    self.recovery.note_recovery_aborted(sub.code)
                    self.stats.recovery_aborted += 1
                continue
            return sub
        return None

    def expand(self, sub: Subproblem, now: float):
        """Expand one subproblem: record its completions, pool its children,
        and return the expander's outcome (its ``cost`` is the driver's)."""
        outcome = self.expander.expand(sub, self.incumbent.value)
        self.stats.nodes_expanded += 1
        if outcome.status == "pruned":
            self.stats.nodes_pruned += 1
        if sub.code in self._expanded_codes:
            self.stats.redundant_expansions += 1
        else:
            self._expanded_codes.add(sub.code)

        if outcome.incumbent_value is not None:
            self._update_incumbent(outcome.incumbent_value, self.name)

        tracker = self.tracker
        table_stats = tracker.table.stats
        active_recoveries = self.recovery.active_recoveries
        before = table_stats.elementary_operations()
        for code in outcome.completed:
            tracker.record_completed(code, now=now)
            self.stats.completed_codes_local += 1
            if code in active_recoveries:
                self.recovery.note_recovery_finished(code, redundant=False)
        self._contracted(table_stats.elementary_operations() - before)

        for child, child_bound in outcome.children:
            self.pool.push(child, bound=child_bound)
        return outcome

    def note_node_cost(self, cost: float) -> None:
        """Fold one measured node cost into the pacing estimate."""
        self.avg_node_cost = pacing.moving_average(self.avg_node_cost, cost)

    # ------------------------------------------------------------------ #
    # Merging what arrived
    # ------------------------------------------------------------------ #
    def _merge_report(self, msg: WorkReportMsg, now: float) -> float:
        before_ops = self.tracker.table.stats.elementary_operations()
        news = self.tracker.merge_report(msg.report)
        if news:
            self.recovery.note_progress(now)
        # Reverse-channel learning: the sender provably covers every code it
        # just reported, so future deltas to it can skip them.
        self.tracker.note_peer_covers(msg.report.sender, msg.report.codes)
        newly_terminated = self.termination.observe_report(msg.report, now)
        ops = self.tracker.table.stats.elementary_operations() - before_ops
        cost = self._contracted(ops)
        if newly_terminated:
            self.stats.terminated_via = self.termination.detected_via
        self._abort_covered_recoveries()
        if not news and msg.report.codes:
            # Every code the sender completed was already covered here: it
            # is working inside a region this table knows done, so answer
            # with the news.
            cost += self._answer_with_news(msg.report.sender)
        return cost

    def _merge_delta(self, msg: DeltaGossipMsg, now: float) -> float:
        """Merge a received delta gossip and acknowledge it to the sender."""
        delta = msg.delta
        self._starved_peers[delta.sender] = now
        before_ops = self.tracker.table.stats.elementary_operations()
        if self.tracker.merge_delta(delta):
            self.recovery.note_progress(now)
        self.tracker.note_peer_covers(delta.sender, delta.codes)
        self.termination.observe_report(delta.as_report(), now)
        ops = self.tracker.table.stats.elementary_operations() - before_ops
        cost = self._contracted(ops)
        my_digest = self.tracker.table_digest_now()
        if my_digest == delta.full_digest:
            # Post-merge our table equals the sender's: it covers all of it.
            self.tracker.note_peer_converged(delta.sender)
        if delta.is_empty:
            # A pull from a peer starting a recovery: there is nothing to
            # acknowledge, so the answer is our news, or nothing.
            return cost + self._answer_with_news(delta.sender)
        # Echo the sender's table digest so its per-peer basis advances; a
        # lost ack only costs a redundant re-send, never correctness.
        if not self.terminated:
            self.send(
                delta.sender,
                TableGossipAck(
                    sender=self.name,
                    digest=delta.full_digest,
                    table_digest=my_digest,
                    best=self._my_best(),
                ),
            )
            self.stats.gossip_acks_sent += 1
            cost += self._sent("communication")
        self._abort_covered_recoveries()
        return cost

    def _answer_with_news(self, peer: str) -> float:
        """Send ``peer`` this table's delta, unless it is empty or this
        worker has terminated (:meth:`~repro.core.completion.
        CompletionTracker.news_for`)."""
        if self.terminated:
            return 0.0
        delta = self.tracker.news_for(peer, best=self._my_best())
        if delta is None:
            return 0.0
        self.send(peer, DeltaGossipMsg(delta))
        self.stats.news_answers_sent += 1
        return self._sent("communication")

    def _abort_covered_recoveries(self) -> None:
        """Drop active recovery subproblems that turned out to be completed."""
        for code in list(self.recovery.active_recoveries):
            if self.recovery.should_abort(self.tracker, code):
                self.recovery.note_recovery_aborted(code)
                self.stats.recovery_aborted += 1

    # ------------------------------------------------------------------ #
    # Load balancing
    # ------------------------------------------------------------------ #
    def _answer_work_request(self, request: WorkRequest) -> float:
        # Idle where walking applies (pacing.walk_hops): pass the request on
        # to a random peer other than the requester; at the hop limit the
        # denial says the walk is exhausted.
        peers = self.peers
        limit = 0
        if not self.pool:
            limit = pacing.walk_hops(self.avg_node_cost, self.avg_transit, len(peers))
        if request.hops < limit and len(peers) > (request.requester in peers):
            target = self.rng.choice(peers)
            while target == request.requester:
                target = self.rng.choice(peers)
            self.send(target, request.forwarded())
            self.stats.work_requests_forwarded += 1
            return self._sent("load_balancing")
        donated = self.pool.take_donation()
        if donated:
            grant = WorkGrant(
                donor=self.name,
                codes=tuple(sub.code for sub in donated),
                best=self._my_best(),
            )
            self.send(request.requester, grant)
            self.stats.work_grants_sent += 1
            self._starved_peers.pop(request.requester, None)
        else:
            denial = WorkDenied(self.name, request.seq, limit > 0, self._my_best())
            self.send(request.requester, denial)
            self.stats.work_denials_sent += 1
        return self._sent("load_balancing")

    def _push_surplus(self, now: float) -> float:
        """Give one subproblem to each peer freshly heard starving, unasked,
        while at least two remain (:func:`~repro.distributed.pacing.
        push_targets`, :meth:`~repro.bnb.pool.SubproblemPool.take_push`)."""
        cost = 0.0
        starved = self._starved_peers
        for peer in pacing.push_targets(starved, now, self.request_timeout()):
            sub = self.pool.take_push()
            if sub is None:
                break
            del starved[peer]
            self.send(peer, WorkGrant(donor=self.name, codes=(sub.code,), best=self._my_best()))
            self.stats.work_pushes_sent += 1
            cost += self._sent("load_balancing")
        return cost

    def _accept_work_grant(self, grant: WorkGrant, now: float) -> float:
        self.outstanding_request = None
        rebuild_cost = 0.0
        accepted = 0
        covers = self.tracker.table.covers
        rebuild = self.problem.rebuild_subproblem
        for code in grant.codes:
            if covers(code):
                continue  # already known completed; no point rebuilding
            sub = rebuild(code)
            rebuild_cost += self._rebuild_cost(code)
            if sub is None:
                # The code replays to an infeasible state: it is a completed
                # leaf by construction and can be recorded as such.
                self.tracker.record_completed(code, now=now)
                continue
            self.pool.push(sub, bound=self.problem.bound(sub.state))
            accepted += 1
        if accepted:
            self.recovery.note_work_obtained()
            self.stats.work_grants_received += 1
        else:
            self.recovery.note_request_failed(now)
        return self._charge("load_balancing", rebuild_cost)

    # The pacing rules live in :mod:`repro.distributed.pacing`; these bind
    # them to this worker's estimates.
    def stall_threshold(self) -> Optional[float]:
        """Starvation with no news required before loss is suspected."""
        return pacing.stall_threshold(self.avg_node_cost, self.bootstrap_timeout())

    def request_timeout(self) -> float:
        """How long a request may go unanswered before it counts as failed."""
        return pacing.request_timeout(self.avg_node_cost, self.avg_transit)

    def bootstrap_timeout(self) -> float:
        """Starvation a blank worker must endure before regenerating the root."""
        return pacing.bootstrap_timeout(
            self.avg_node_cost, self.config.recovery_bootstrap_timeout
        )

    def may_recover(self, now: float) -> bool:
        """The blank-worker gate (:func:`~repro.distributed.pacing.blank_gate`)."""
        blank = self.stats.nodes_expanded == 0 and len(self.tracker.table) == 0
        allowed, self._starved_blank_since = pacing.blank_gate(
            blank, self._starved_blank_since, now, self.bootstrap_timeout()
        )
        return allowed

    def handle_starvation(self, now: float) -> float:
        """Pool is empty: try recovery, then load balancing."""
        cost = 0.0

        self.recovery.forget_lost_recoveries(self.tracker)

        # First, see whether starvation already justifies regenerating work.
        self.recovery.idle_time_threshold = self.stall_threshold()
        if self.may_recover(now):
            decision = self.recovery.evaluate(self.tracker, now)
            if decision.code is not None:
                cost += self.start_recovery(decision.code, now)
                return cost

        if not self.peers:
            # Single-process group: there is nobody to ask, so every poll
            # counts as a failed load-balancing attempt and recovery kicks in
            # after the configured threshold.
            self.recovery.note_request_failed(now)
            decision = self.recovery.evaluate(self.tracker, now)
            if decision.code is not None:
                cost += self.start_recovery(decision.code, now)
            return cost

        # Starved workers have spare capacity: use it to converge the
        # completed-table views, which is what unblocks termination detection
        # (and prevents needless recovery of work that is already done) —
        # paced by how fast news can exist, not by how often we poll
        # (``pacing.push_interval``).
        if now - self._last_table_gossip >= pacing.push_interval(self.avg_node_cost):
            cost += self.send_table_gossip(now)

        pause = pacing.request_pause(self.avg_node_cost, self.avg_transit, self.walk_exhausted)
        may_request = self._last_lb_attempt is None or now - self._last_lb_attempt >= pause
        if self.outstanding_request is None and may_request:
            victim = self.rng.choice(self.peers)
            self._request_seq += 1
            self.send(victim, WorkRequest(self.name, self._request_seq, best=self._my_best()))
            self.stats.work_requests_sent += 1
            self.walk_exhausted = False
            self.outstanding_request = self._request_seq
            self._last_lb_attempt = now
            self.set_timer(self.request_timeout(), f"lb-timeout:{self._request_seq}")
            cost += self._sent("load_balancing")
        return cost

    def start_recovery(self, code: PathCode, now: float) -> float:
        """Regenerate an uncompleted subproblem from its code."""
        sub = self.problem.rebuild_subproblem(code)
        rebuild_cost = self._rebuild_cost(code)
        self.recovery.note_recovery_started(code)
        self.stats.recovery_activations += 1
        if self.tracer is not None:
            self.tracer.event(
                "recovery_start",
                ts=now,
                process=self.name,
                category="recovery",
                args={"depth": code.depth},
            )
        if sub is None:
            # Replaying the code hits an infeasible decision: the subproblem
            # is trivially completed.
            self.tracker.record_completed(code, now=now)
            self.recovery.note_recovery_finished(code, redundant=False)
            return self._charge("load_balancing", rebuild_cost)
        self.pool.push(sub, bound=self.problem.bound(sub.state))
        cost = self._charge("load_balancing", rebuild_cost)
        # Ask before going far: answers that prove the subtree done let the
        # covered-skip drop it (the worker expands meanwhile).
        pull = DeltaGossipMsg(self.tracker.news_pull(best=self._my_best()))
        for target in self._choose_report_targets(self.config.report_fanout):
            self.send(target, pull)
            self.stats.news_pulls_sent += 1
            cost += self._sent("communication")
        return cost

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def _flush_report(self, now: float) -> float:
        """Build and send a work report from the pending completed codes."""
        cost = 0.0
        pending = self.tracker.pending_report_size
        if pending == 0:
            return cost
        report = self.tracker.build_report(
            now=now,
            best=self._my_best(),
            compress=self.config.compress_reports,
        )
        if report.is_empty:
            return cost
        cost += self._contracted(pending)
        for target in self._choose_report_targets(self.config.report_fanout):
            self.send(target, WorkReportMsg(report))
            cost += self._sent("communication")
        self.stats.reports_sent += 1
        return cost

    def _periodic_gossip_due(self, now: float) -> bool:
        """True when the periodic table-gossip interval has elapsed."""
        elapsed = now - self._last_table_gossip
        return bool(self.peers) and elapsed >= pacing.TABLE_GOSSIP_INTERVAL

    def report_work_due(self, now: float) -> bool:
        """True when :meth:`_maybe_send_reports` would do anything.

        The step's fast path and :meth:`_maybe_send_reports` share the same
        two trigger predicates, so the fast path can never silently skip
        work the reporting machinery would have done.
        """
        return self.tracker.should_send_report(now) or self._periodic_gossip_due(now)

    def _maybe_send_reports(self, now: float) -> float:
        cost = 0.0
        if self.tracker.should_send_report(now):
            cost += self._flush_report(now)
        if self._periodic_gossip_due(now):
            cost += self.send_table_gossip(now)
        return cost

    def send_table_gossip(self, now: float) -> float:
        """Push a table delta to one random peer.

        Only the codes the chosen peer's acknowledged basis does not cover
        are shipped (the whole table to a peer that has acknowledged
        nothing); an empty delta (the peer is known to be up to date)
        suppresses the send entirely, so a converged idle group stops paying
        table-gossip bytes altogether.
        """
        target = self.rng.choice(self.peers)
        self._last_table_gossip = now
        delta = self.tracker.build_delta_snapshot(target, best=self._my_best())
        if delta.is_empty:
            self.stats.delta_gossips_suppressed += 1
            return 0.0
        self.send(target, DeltaGossipMsg(delta))
        self.stats.delta_gossips_sent += 1
        if self._delta_bytes_hist is not None:
            self._delta_bytes_hist.observe(delta.wire_size())
        cost = self._sent("communication")
        if self.tracer is not None:
            self.tracer.span(
                "delta_gossip",
                now,
                cost,
                process=self.name,
                category="gossip",
                args={"target": target},
            )
        return cost

    def _choose_report_targets(self, fanout: int) -> List[str]:
        if not self.peers:
            return []
        count = min(fanout, len(self.peers))
        return self.rng.sample(self.peers, count)

    # ------------------------------------------------------------------ #
    # Termination
    # ------------------------------------------------------------------ #
    def check_termination(self, now: float) -> bool:
        """Finish if the table contracted to the root (or a root report
        arrived); returns whether this worker is done."""
        if self.termination.check_local(now):
            self.stats.terminated_via = "local"
            self._finish_termination(now, broadcast=self.config.send_root_report)
            return True
        if self.terminated:
            self._finish_termination(now, broadcast=False)
            return True
        return False

    def _finish_termination(self, now: float, *, broadcast: bool) -> None:
        if self._finished:
            return
        self._finished = True
        if broadcast and self.termination.needs_root_broadcast():
            root_report = make_root_report(self.name, best=self._my_best())
            for member in self.peers:
                self.send(member, WorkReportMsg(root_report))
                self._sent("communication")
            self.termination.mark_root_broadcast_sent()
        self.pool.clear()
        self.stats.terminated = True
        self.stats.terminated_at = now
        if self.stats.terminated_via is None:
            self.stats.terminated_via = self.termination.detected_via
        self.stats.best_value = self.incumbent.value
        self._on_finished(now)
