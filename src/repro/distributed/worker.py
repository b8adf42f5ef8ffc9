"""The simulated worker: one process of the distributed B&B computation.

A :class:`WorkerEntity` combines every piece of the algorithm described in
Section 5 of the paper:

* a local pool of active subproblems and the shared node-expansion logic
  (:mod:`repro.bnb`), driven asynchronously — the worker only looks at its
  message queue between node expansions, exactly as the paper's simulator
  does ("each process, after it has solved a B&B subproblem, checks to see
  whether any messages are pending");
* on-demand load balancing: a starving worker asks a randomly chosen member
  for work, the receiver donates part of its pool if it has "enough";
* the fault-tolerance mechanism: completed codes are tracked and gossiped as
  compressed work reports, received reports are merged and contracted, and a
  worker that stays starved complements its table and regenerates an
  uncompleted subproblem from its self-contained code;
* table dissemination: occasional table gossip to one random member — by
  default as per-peer *deltas* (only the codes the chosen peer is not known
  to cover, acknowledged with digest echoes; see
  :meth:`~repro.core.completion.CompletionTracker.build_delta_snapshot`),
  or as the paper's literal whole-table snapshots when
  :attr:`~repro.distributed.config.AlgorithmConfig.delta_gossip` is off;
* almost-implicit termination detection: when a worker's table contracts to
  the root code it broadcasts one final root report and stops;
* incumbent sharing: the best-known solution piggy-backs on every message.

Every unit of algorithmic work is converted into simulated time through the
cost knobs of :class:`~repro.distributed.config.AlgorithmConfig` and charged
to one of the paper's five accounting categories (B&B, communication, list
contraction, load balancing, idle), which is what the Figure 3 / Table 1
benchmarks read back out.
"""

from __future__ import annotations

import random
from collections.abc import Sequence as _SequenceABC
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..bnb.pool import SubproblemPool
from ..bnb.problem import BranchAndBoundProblem, Subproblem
from ..bnb.sequential import NodeExpander
from ..core.arena import TrieArena
from ..core.completion import CompletionTracker
from ..core.encoding import PathCode
from ..core.recovery import RecoveryPolicy
from ..core.termination import TerminationDetector, make_root_report
from ..core.work_report import BestSolution
from ..gossip.failure_detector import GossipFailureDetector
from ..simulation.entity import Entity, QueuedMessage
from ..simulation.metrics import MetricsCollector
from ..simulation.tracing import TimelineTrace
from .config import AlgorithmConfig
from .messages import (
    DeltaGossipMsg,
    HeartbeatGossipMsg,
    MessageKinds,
    TableGossipAck,
    TableGossipMsg,
    WorkDenied,
    WorkGrant,
    WorkReportMsg,
    WorkRequest,
)
from .stats import WorkerRunStats

__all__ = ["PeerRoster", "WorkerEntity", "DELTA_BYTES_BUCKETS"]

#: Histogram buckets for gossip-delta wire sizes (bytes).
DELTA_BYTES_BUCKETS = (64, 256, 1024, 4096, 16384, 65536)

#: A starved worker pushes its table at most once per this fraction of its
#: measured node cost (never faster than ``idle_poll_interval``).  A table
#: gains a locally completed code at most once per node cost, so more than
#: a few pushes per node time mostly re-ship what the peer already heard
#: from someone else: at 100 workers × 3.35 s nodes the 0.1 s poll cadence
#: delivered 5.7 % novel codes, this one 22 %, for 30 % of the bytes.  The
#: knee of the measured sweep is 0.2–0.5; 0.25 is the cheapest value whose
#: speedup and work ratio stayed within 6 % of the poll cadence's on every
#: one of 18 seeds.  Gossip also repairs lost reports, so a larger value
#: costs work under message loss (docs/ARCHITECTURE.md has both sweeps).
IDLE_GOSSIP_NODE_COST_FRACTION = 0.25


class PeerRoster(_SequenceABC):
    """Constant-memory sequence view of "every member except me".

    A 10k-worker group holding one private ``peers`` list per worker costs
    O(n²) references before the first event fires.  This view shares the
    runner's single roster list and skips the owner by index arithmetic, so
    a worker's peer set costs O(1) memory while behaving exactly like the
    list it replaces: same order, same ``len``, same indexing — which keeps
    ``rng.choice`` / ``rng.sample`` draws bit-identical to the seed engine.

    Eviction is the rare path (it only happens once a membership layer
    declares a peer dead), so :meth:`remove` materialises a private list on
    first use and delegates from then on.
    """

    __slots__ = ("_members", "_owner", "_skip", "_materialized")

    def __init__(self, members: Sequence[str], owner: str) -> None:
        self._members = members
        self._owner = owner
        try:
            self._skip = members.index(owner)
        except ValueError:
            self._skip = len(members)
        self._materialized: Optional[List[str]] = None

    def _list(self) -> List[str]:
        if self._materialized is None:
            self._materialized = [m for m in self._members if m != self._owner]
        return self._materialized

    def __len__(self) -> int:
        if self._materialized is not None:
            return len(self._materialized)
        return len(self._members) - (1 if self._skip < len(self._members) else 0)

    def __getitem__(self, index: Union[int, slice]):
        if self._materialized is not None:
            return self._materialized[index]
        if isinstance(index, slice):
            return self._list()[index]
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("peer index out of range")
        return self._members[index if index < self._skip else index + 1]

    def __contains__(self, name: object) -> bool:
        if self._materialized is not None:
            return name in self._materialized
        return name != self._owner and name in self._members

    def __iter__(self):
        if self._materialized is not None:
            return iter(self._materialized)
        owner = self._owner
        return (m for m in self._members if m != owner)

    def remove(self, name: str) -> None:
        self._list().remove(name)

    def add(self, name: str) -> None:
        """Re-admit a previously removed peer (appended at the end)."""
        if name == self._owner or name in self:
            return
        self._list().append(name)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PeerRoster):
            other = list(other)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # mutable sequence semantics, like the list it replaces

    def __repr__(self) -> str:  # pragma: no cover - repr formatting only
        return f"PeerRoster(n={len(self)}, owner={self._owner!r})"


class WorkerEntity(Entity):
    """One simulated process running the fault-tolerant distributed B&B.

    Parameters
    ----------
    name:
        Unique worker name (also its network address).
    problem:
        The optimisation problem (typically a
        :class:`~repro.bnb.tree_problem.TreeReplayProblem`).  Every worker
        holds the full initial data, as in the paper (handed out by a gossip
        server on join).
    config:
        Algorithm tunables.
    members:
        Names of all participating workers (static membership, as in the
        paper's simulations).  The worker excludes itself when choosing
        victims and report targets.
    rng:
        Seeded random stream for this worker's choices.
    metrics, trace:
        Shared collectors owned by the runner.
    initial_work:
        Subproblems this worker starts with (usually only worker 0 receives
        the root problem).
    expected_node_cost:
        A-priori estimate of the per-node cost (e.g. the workload tree's mean
        node time).  Seeds the moving average used by the adaptive recovery
        threshold so that a worker that has not expanded anything yet does not
        treat ordinary start-up starvation as lost work.
    """

    def __init__(
        self,
        name: str,
        problem: BranchAndBoundProblem,
        config: AlgorithmConfig,
        members: Sequence[str],
        *,
        rng: Optional[random.Random] = None,
        metrics: Optional[MetricsCollector] = None,
        trace: Optional[TimelineTrace] = None,
        initial_work: Sequence[Subproblem] = (),
        expected_node_cost: float = 0.0,
        arena: Optional[TrieArena] = None,
        tracer: Optional[Any] = None,
        speed: float = 1.0,
        obs_metrics: Optional[Any] = None,
    ) -> None:
        super().__init__(name)
        self.problem = problem
        self.config = config
        # Share the runner's roster rather than copying it: a 10k-worker run
        # would otherwise hold 10k private copies (O(n^2) references).
        self.members = members if isinstance(members, (list, tuple)) else list(members)
        self.peers = PeerRoster(self.members, name)
        self.rng = rng if rng is not None else random.Random(0)
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.metrics.register(name)
        self._time_account = self.metrics.time[name]
        self.trace = trace
        #: Optional :class:`repro.obs.Tracer` for gossip/recovery telemetry
        #: (``None`` keeps the hot paths on one attribute check).
        self.tracer = tracer
        #: Relative machine speed: node-expansion cost divides by this, so a
        #: 2.0 worker models a machine twice as fast as the calibration host.
        if speed <= 0:
            raise ValueError("speed must be positive")
        self.speed = speed
        #: Optional :class:`repro.obs.MetricsRegistry` shared across the run.
        #: Histograms are resolved once here so the observe sites stay cheap.
        self.obs_metrics = obs_metrics
        self._delta_bytes_hist = (
            obs_metrics.histogram("gossip_delta_bytes", buckets=DELTA_BYTES_BUCKETS)
            if obs_metrics is not None
            else None
        )
        self._eviction_latency_hist = (
            obs_metrics.histogram("fd_eviction_latency_seconds")
            if obs_metrics is not None
            else None
        )

        # Algorithm state ------------------------------------------------- #
        self.expander = NodeExpander(problem)
        self.pool: SubproblemPool = SubproblemPool(
            config.selection_rule, minimize=problem.minimize
        )
        self.tracker = CompletionTracker(
            name,
            report_threshold=config.report_threshold,
            report_staleness=config.report_staleness,
            arena=arena,
        )
        self.termination = TerminationDetector(self.tracker)
        self.recovery = RecoveryPolicy(
            failed_request_threshold=config.recovery_failed_threshold,
            idle_time_threshold=config.recovery_idle_threshold,
            strategy=config.recovery_strategy,
            rng=self.rng,
        )
        self.incumbent: BestSolution = BestSolution()
        self.stats = WorkerRunStats(name=name)
        self._initial_work = list(initial_work)

        # Scheduling state ------------------------------------------------- #
        self._step_scheduled = False
        self._idle_since: Optional[float] = None
        self._outstanding_request: Optional[Tuple[str, float, int]] = None
        self._request_seq = 0
        self._last_lb_attempt: Optional[float] = None
        self._last_table_gossip = 0.0
        self._idle_poll_armed = False
        self._finished = False
        self._steps = 0
        self._step_label = f"{name}:step"
        self._expanded_codes: set = set()
        #: Exponential moving average of recent node costs, used to scale the
        #: recovery starvation threshold to the workload's granularity.
        self._avg_node_cost = max(0.0, expected_node_cost)
        #: Time at which this worker first found itself starved with nothing
        #: known about the computation (used by the bootstrap gate).
        self._starved_blank_since: Optional[float] = None

        # Churn / failure detection state ---------------------------------- #
        #: Restart count: bumped by :meth:`reset_for_rejoin`, gossiped so
        #: peers can distinguish a restarted worker's reset heartbeat counter
        #: from a stale one.
        self.incarnation = 0
        #: Highest incarnation observed per member (sparse: zero omitted).
        self._known_incarnations: Dict[str, int] = {}
        #: Live failure detector (created in :meth:`on_start` when
        #: ``config.failure_detector`` is on).
        self._fd: Optional[GossipFailureDetector] = None
        #: Sequence guard for the ``fd-tick`` timer chain (a revival arms a
        #: fresh chain; stale timers carry an old sequence and are ignored).
        self._fd_seq = 0
        #: ``gossip_views_pruned`` accumulated by trackers discarded on
        #: restart (the live tracker's counter restarts from zero).
        self._views_pruned_base = 0
        #: Recovery activations accumulated by policies discarded on restart.
        self._recoveries_base = 0
        #: ``codes_received`` / ``redundant_codes_received`` accumulated by
        #: trackers discarded on restart.
        self._codes_received_base = 0
        self._codes_redundant_base = 0
        self._unavailable_since: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Small helpers
    # ------------------------------------------------------------------ #
    @property
    def terminated(self) -> bool:
        """True once this worker has detected global termination."""
        return self.termination.terminated

    def _now(self) -> float:
        assert self.engine is not None
        return self.engine.now

    def _charge(self, category: str, amount: float) -> float:
        """Charge simulated time to an accounting category and return it."""
        if amount > 0:
            # Equivalent to ``self.metrics.charge(self.name, category,
            # amount)`` against the account registered in ``__init__``, with
            # the per-call name lookup and category validation hoisted out of
            # this hot path (every message and step charges something).
            account = self._time_account
            setattr(account, category, getattr(account, category) + amount)
            return amount
        return 0.0

    def _trace_state(self, state: str) -> None:
        if self.trace is not None:
            self.trace.set_state(self.name, state, self._now())

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

    def _update_storage_metric(self) -> None:
        footprint = self.tracker.storage_bytes() + self.pool.storage_bytes()
        redundant = int(round(footprint * self.tracker.remote_information_share()))
        self.metrics.update_storage(self.name, footprint, redundant)

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #
    def evict_peer(self, peer: str) -> bool:
        """Forget a peer the membership layer has declared dead.

        Called by whoever drives membership for this worker (a failure
        detector's cleanup pass, a membership view removal): the peer leaves
        the report/gossip/load-balancing target lists and its delta-gossip
        :class:`~repro.core.completion.PeerGossipView` — the per-peer
        ``known`` trie that otherwise grows with the group size — is dropped
        (counted in ``stats.gossip_views_pruned``).  A false suspicion only
        costs one full-table first delta when the peer reappears.

        Returns ``True`` when anything was actually forgotten.
        """
        removed = False
        if peer in self.peers:
            self.peers.remove(peer)
            removed = True
        pruned = self.tracker.prune_peer_view(peer)
        self._sync_views_pruned()
        return removed or pruned

    def _sync_views_pruned(self) -> None:
        self.stats.gossip_views_pruned = (
            self._views_pruned_base + self.tracker.gossip_views_pruned
        )

    # ------------------------------------------------------------------ #
    # Live failure detection (heartbeat gossip)
    # ------------------------------------------------------------------ #
    def _start_failure_detector(self) -> None:
        """Create the heartbeat detector, pre-seeded with the full roster."""
        cfg = self.config
        self._fd = GossipFailureDetector(
            self.name,
            fail_timeout=cfg.fd_fail_timeout,
            cleanup_timeout=cfg.fd_cleanup_timeout,
            gossip_interval=cfg.fd_heartbeat_interval,
            fanout=cfg.fd_fanout,
            rng=self.rng,
        )
        now = self._now()
        self._fd.merge(
            tuple((member, 0) for member in self.members if member != self.name), now
        )
        self._arm_fd_timer()

    def _arm_fd_timer(self) -> None:
        self._fd_seq += 1
        self.set_timer(self.config.fd_heartbeat_interval, f"fd-tick:{self._fd_seq}")

    def _incarnation_digest(self) -> Tuple[Tuple[str, int], ...]:
        """Sparse ``(member, incarnation)`` pairs (only non-zero entries)."""
        if not self._known_incarnations:
            return ()
        return tuple(sorted(self._known_incarnations.items()))

    def _membership_round(self) -> float:
        """One heartbeat round: tick, gossip, and evict stale peers."""
        fd = self._fd
        assert fd is not None
        now = self._now()
        digest = fd.tick(now)
        cost = 0.0
        targets = fd.choose_targets(now)
        if targets:
            message = HeartbeatGossipMsg(
                sender=self.name,
                digest=digest,
                incarnations=self._incarnation_digest(),
                best=self._my_best(),
            )
            for target in targets:
                self.send(target, message)
                cost += self._charge("communication", self.config.msg_send_cost)
            self.stats.heartbeats_sent += 1
        # Staleness must be read *before* cleanup deletes the entries.
        stale = {name: fd.staleness(name, now) for name in fd.suspected(now)}
        for peer in fd.cleanup(now):
            if not self.evict_peer(peer):
                continue
            self.stats.peers_evicted += 1
            if self._eviction_latency_hist is not None:
                staleness = stale.get(peer)
                if staleness is not None:
                    self._eviction_latency_hist.observe(staleness)
            if self.tracer is not None:
                self.tracer.event(
                    "peer_evicted",
                    ts=now,
                    process=self.name,
                    category="membership",
                    args={"peer": peer},
                )
        return cost

    def _readmit_peer(self, peer: str) -> None:
        """Put an evicted (or restarted) peer back on the target lists."""
        if peer == self.name or peer in self.peers or peer not in self.members:
            return
        self.peers.add(peer)
        self.stats.peers_readmitted += 1
        if self.tracer is not None:
            self.tracer.event(
                "peer_readmitted",
                ts=self._now(),
                process=self.name,
                category="membership",
                args={"peer": peer},
            )

    def _on_peer_restarted(self, peer: str, now: float) -> None:
        """A peer restarted (higher incarnation): reset everything we knew.

        The restarted process lost its completed-table view, so the per-peer
        acknowledged basis must be dropped — the next delta to it goes
        through the gossip *first-contact* path (one bounded full-basis
        delta), never a whole-table snapshot.  Its heartbeat counter also
        restarted from zero, which plain digest merging would read as stale.
        """
        self.tracker.prune_peer_view(peer)
        self._sync_views_pruned()
        if self._fd is not None:
            self._fd.restart_member(peer, now)
        self._readmit_peer(peer)

    def _handle_heartbeat(self, msg: HeartbeatGossipMsg, receive_cost: float) -> float:
        cost = self._charge("communication", receive_cost)
        fd = self._fd
        if fd is None:
            return cost
        now = self._now()
        for name, incarnation in msg.incarnations:
            if name == self.name:
                continue
            if incarnation > self._known_incarnations.get(name, 0):
                self._known_incarnations[name] = incarnation
                self._on_peer_restarted(name, now)
        for name in fd.merge(msg.digest, now):
            self._readmit_peer(name)
        return cost

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def on_start(self) -> None:
        for sub in self._initial_work:
            self.pool.push(sub, bound=self.problem.bound(sub.state))
        self._last_table_gossip = self._now()
        self._trace_state("idle" if not self.pool else "working")
        if self.config.failure_detector:
            self._start_failure_detector()
        self._schedule_step(0.0)

    def on_crash(self) -> None:
        self.stats.crashed = True
        self.stats.crashed_at = self._now()
        self._trace_state("crashed")

    def on_suspend(self) -> None:
        """Churn leave: go dark (messages drop, timers die) but survivably."""
        now = self._now()
        self.stats.leaves += 1
        self._unavailable_since = now
        # Until (unless) the worker returns, it is indistinguishable from a
        # crashed one — result aggregation treats it accordingly.
        self.stats.crashed = True
        self.stats.crashed_at = now
        self._trace_state("offline")
        if self.tracer is not None:
            self.tracer.event(
                "churn_leave", ts=now, process=self.name, category="churn"
            )

    def on_revive(self) -> None:
        """Churn return: close the unavailability window and resume."""
        now = self._now()
        self.stats.rejoins += 1
        self.stats.crashed = False
        self.stats.crashed_at = None
        if self._unavailable_since is not None:
            self.stats.unavailable_time += now - self._unavailable_since
            self._unavailable_since = None
        # Every timer chain died while the entity was down (set_timer guards
        # on ``alive``), so the scheduling flags they maintained are stale.
        self._step_scheduled = False
        self._idle_poll_armed = False
        self._idle_since = None
        self._outstanding_request = None
        self._last_lb_attempt = None
        self._starved_blank_since = None
        self._last_table_gossip = now
        if self.config.failure_detector:
            if self._fd is None:
                self._start_failure_detector()
            else:
                # Suspend-mode return: our heartbeat view of every peer is
                # uniformly stale.  Give the whole roster a fresh grace
                # period (counter reset to 0 so any real digest refreshes
                # it) instead of mass-evicting on the first tick back.
                for peer in list(self._fd.members()):
                    if peer != self.name:
                        self._fd.restart_member(peer, now)
                self._arm_fd_timer()
        self._trace_state("idle")
        if self.tracer is not None:
            self.tracer.event(
                "churn_return", ts=now, process=self.name, category="churn"
            )
        if not self.terminated:
            self._schedule_step(0.0)

    def reset_for_rejoin(self) -> None:
        """Wipe volatile algorithm state before a ``restart``-mode revival.

        Models a reboot: the pool, the completed-table view, termination
        state and the incumbent are all lost; only identity, accumulated
        statistics and the shared arena survive.  The incarnation bump is
        what tells peers (via heartbeat gossip) to reset their view of us,
        so our re-convergence rides the delta-gossip first-contact path.
        """
        self.incarnation += 1
        self._known_incarnations[self.name] = self.incarnation
        self._views_pruned_base += self.tracker.gossip_views_pruned
        self._recoveries_base += self.recovery.stats.activations
        self._codes_received_base += self.tracker.codes_received
        self._codes_redundant_base += self.tracker.redundant_codes_received
        arena = self.tracker.arena
        self.pool = SubproblemPool(
            self.config.selection_rule, minimize=self.problem.minimize
        )
        self.tracker = CompletionTracker(
            self.name,
            report_threshold=self.config.report_threshold,
            report_staleness=self.config.report_staleness,
            arena=arena,
        )
        self.termination = TerminationDetector(self.tracker)
        self.recovery = RecoveryPolicy(
            failed_request_threshold=self.config.recovery_failed_threshold,
            idle_time_threshold=self.config.recovery_idle_threshold,
            strategy=self.config.recovery_strategy,
            rng=self.rng,
        )
        self.incumbent = BestSolution()
        # A restarted worker re-reads the full membership list (the paper's
        # join-time gossip-server handshake): evictions it made before the
        # restart are forgotten with the rest of its volatile state.
        self.peers = PeerRoster(self.members, self.name)
        self._fd = None
        self._finished = False
        self.stats.terminated = False
        self.stats.terminated_at = None
        self.stats.terminated_via = None

    def on_message_queued(self, message: QueuedMessage) -> None:
        # A worker busy expanding nodes leaves the message in its queue until
        # the current expansion finishes (a step is already scheduled).  An
        # idle worker reacts immediately.
        if self.alive and not self.terminated and not self._step_scheduled:
            self._schedule_step(0.0)
        elif (
            self.alive
            and self.terminated
            and self.config.termination_echo
            and not isinstance(message.payload, (WorkReportMsg, TableGossipAck))
        ):
            # Termination echo: a terminated worker answers late traffic (a
            # rejoined worker bootstrapping) with the final root report, so
            # the sender converges immediately instead of re-deriving
            # termination alone.  Never echo a report (two terminated
            # workers would ping-pong root reports forever) or an ack.
            self.inbox.clear()
            self.send(
                message.sender,
                WorkReportMsg(make_root_report(self.name, best=self._my_best())),
            )
            self._charge("communication", self.config.msg_send_cost)

    def on_wakeup(self, reason: str) -> None:
        if not self.alive or self.terminated:
            return
        if reason.startswith("lb-timeout:"):
            seq = int(reason.split(":", 1)[1])
            if self._outstanding_request is not None and self._outstanding_request[2] == seq:
                # The request went unanswered (lost message, dead or busy
                # victim): that counts as a failed attempt for the recovery
                # policy's starvation rule.
                self._outstanding_request = None
                self.recovery.note_request_failed(self._now())
            if not self._step_scheduled:
                self._schedule_step(0.0)
        elif reason == "idle-poll":
            self._idle_poll_armed = False
            if not self._step_scheduled:
                self._schedule_step(0.0)
        elif reason.startswith("fd-tick:"):
            seq = int(reason.split(":", 1)[1])
            if self._fd is not None and seq == self._fd_seq:
                self._membership_round()
                self._arm_fd_timer()

    # ------------------------------------------------------------------ #
    # Step scheduling
    # ------------------------------------------------------------------ #
    def _schedule_step(self, delay: float) -> None:
        if not self.alive or self.terminated or self._step_scheduled:
            return
        self._step_scheduled = True
        assert self.engine is not None
        self.engine.post(delay, self._step, label=self._step_label)

    def _step(self) -> None:
        self._step_scheduled = False
        if not self.alive or self.terminated:
            return
        self._steps += 1
        now = self._now()

        # Close an idle period if one was open.
        if self._idle_since is not None:
            self._charge("idle", now - self._idle_since)
            self._idle_since = None

        overhead = 0.0
        # Dirty-flag fast path: most steps of a busy worker arrive with an
        # empty inbox and nothing due to send, so the message and report
        # machinery is only entered when there is actually work for it.
        if self.inbox:
            overhead += self._process_messages()
            if self.terminated:
                # Termination may have been detected while merging reports;
                # the detector knows whether this worker still owes the final
                # root broadcast (only the "local" detection path does).
                self._finish_termination(broadcast=self.config.send_root_report)
                return
            overhead += self._maybe_send_reports()
        elif self._report_work_due(now):
            overhead += self._maybe_send_reports()
        else:
            self.stats.fast_path_steps += 1

        if self._check_local_termination():
            return

        if not self.pool:
            if self.config.flush_report_when_idle and self.tracker.pending_report_size:
                overhead += self._flush_report()
                if self._check_local_termination():
                    return
            overhead += self._handle_starvation()
            if not self.pool:
                # Still nothing to do: go idle until a message or poll timer
                # wakes us up.
                self._go_idle(now + overhead, overhead)
                return

        # Expand the next subproblem that is not already known completed.
        sub = self._next_uncovered_subproblem()
        if sub is None:
            self._go_idle(now + overhead, overhead)
            return

        self._trace_state("working")
        cost = self._expand(sub)
        self._update_storage_metric()

        if self._check_local_termination():
            return
        self._schedule_step(overhead + cost)

    def _go_idle(self, idle_from: float, overhead: float) -> None:
        """Enter the idle state and make sure exactly one poll timer is armed."""
        self._idle_since = idle_from
        self._trace_state("idle")
        if not self._idle_poll_armed:
            self._idle_poll_armed = True
            self.set_timer(max(overhead, 0.0) + self.config.idle_poll_interval, "idle-poll")

    # ------------------------------------------------------------------ #
    # Expansion
    # ------------------------------------------------------------------ #
    def _next_uncovered_subproblem(self) -> Optional[Subproblem]:
        """Pop subproblems until one not already covered by the table is found."""
        # Hoisted lookups: this loop may discard long runs of covered
        # subproblems after a big report merge, and ``covers`` is the hot
        # O(depth) trie probe.
        pool = self.pool
        abort_redundant = self.config.abort_redundant_work
        covers = self.tracker.table.covers
        active_recoveries = self.recovery.active_recoveries
        while pool:
            sub = pool.pop()
            if abort_redundant and covers(sub.code):
                # Someone else already completed this subtree: drop it and
                # record the aborted (would-have-been-redundant) work.
                self.stats.nodes_skipped_covered += 1
                if sub.code in active_recoveries:
                    self.recovery.note_recovery_aborted(sub.code)
                    self.stats.recovery_aborted += 1
                continue
            return sub
        return None

    def _expand(self, sub: Subproblem) -> float:
        """Expand one subproblem; returns the B&B time charged."""
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

        now = self._now()
        tracker = self.tracker
        table_stats = tracker.table.stats
        active_recoveries = self.recovery.active_recoveries
        before = table_stats.elementary_operations()
        for code in outcome.completed:
            tracker.record_completed(code, now=now)
            self.stats.completed_codes_local += 1
            if code in active_recoveries:
                self.recovery.note_recovery_finished(code, redundant=False)
        ops = table_stats.elementary_operations() - before
        self._charge("contraction", ops * self.config.contraction_cost_per_op)

        for child, child_bound in outcome.children:
            self.pool.push(child, bound=child_bound)

        # Heterogeneous machine speeds: a faster worker spends less simulated
        # time on the same node (the cost model is calibrated at speed 1.0).
        cost = outcome.cost if self.speed == 1.0 else outcome.cost / self.speed
        if cost > 0:
            if self._avg_node_cost <= 0:
                self._avg_node_cost = cost
            else:
                self._avg_node_cost = 0.9 * self._avg_node_cost + 0.1 * cost

        return self._charge("bb", cost)

    # ------------------------------------------------------------------ #
    # Message processing
    # ------------------------------------------------------------------ #
    def _process_messages(self) -> float:
        """Handle every queued message; returns the overhead time charged."""
        overhead = 0.0
        while self.inbox and self.alive:
            message = self.inbox.popleft()
            overhead += self._handle_message(message)
            if self.terminated:
                break
        return overhead

    def _handle_message(self, message: QueuedMessage) -> float:
        payload = message.payload
        now = self._now()
        receive_cost = (
            self.config.msg_processing_base
            + self.config.msg_processing_per_byte * message.size_bytes
        )
        self._absorb_best(payload)

        if isinstance(payload, WorkRequest):
            return self._charge("load_balancing", receive_cost) + self._answer_work_request(payload)
        if isinstance(payload, WorkGrant):
            return self._charge("load_balancing", receive_cost) + self._accept_work_grant(payload)
        if isinstance(payload, WorkDenied):
            self._outstanding_request = None
            self.recovery.note_request_failed(now)
            return self._charge("load_balancing", receive_cost)
        if isinstance(payload, WorkReportMsg):
            cost = self._charge("communication", receive_cost)
            return cost + self._merge_report(payload)
        if isinstance(payload, TableGossipMsg):
            cost = self._charge("communication", receive_cost)
            return cost + self._merge_snapshot(payload)
        if isinstance(payload, DeltaGossipMsg):
            cost = self._charge("communication", receive_cost)
            return cost + self._merge_delta(payload)
        if isinstance(payload, TableGossipAck):
            self.tracker.note_snapshot_ack(payload.sender, payload.digest)
            if payload.table_digest and payload.table_digest == self.tracker.table_digest_now():
                # The acker's table equals ours: it covers everything we have.
                self.tracker.note_peer_converged(payload.sender)
            return self._charge("communication", receive_cost)
        if isinstance(payload, HeartbeatGossipMsg):
            return self._handle_heartbeat(payload, receive_cost)
        # Unknown payloads (e.g. membership gossip when layered) are charged
        # as plain communication handling.
        return self._charge("communication", receive_cost)

    def _merge_report(self, msg: WorkReportMsg) -> float:
        now = self._now()
        before_ops = self.tracker.table.stats.elementary_operations()
        self.tracker.merge_report(msg.report)
        if self.config.delta_gossip:
            # Reverse-channel learning: the sender provably covers every code
            # it just reported, so future deltas to it can skip them.
            self.tracker.note_peer_covers(msg.report.sender, msg.report.codes)
        newly_terminated = self.termination.observe_report(msg.report, now)
        ops = self.tracker.table.stats.elementary_operations() - before_ops
        cost = self._charge("contraction", ops * self.config.contraction_cost_per_op)
        if newly_terminated:
            self.stats.terminated_via = self.termination.detected_via
        self._abort_covered_recoveries()
        return cost

    def _merge_snapshot(self, msg: TableGossipMsg) -> float:
        now = self._now()
        before_ops = self.tracker.table.stats.elementary_operations()
        self.tracker.merge_snapshot(msg.snapshot)
        if self.config.delta_gossip:
            self.tracker.note_peer_covers(msg.snapshot.sender, msg.snapshot.codes)
        self.termination.observe_report(msg.snapshot.as_report(), now)
        ops = self.tracker.table.stats.elementary_operations() - before_ops
        cost = self._charge("contraction", ops * self.config.contraction_cost_per_op)
        self._abort_covered_recoveries()
        return cost

    def _merge_delta(self, msg: DeltaGossipMsg) -> float:
        """Merge a received delta gossip and acknowledge it to the sender."""
        now = self._now()
        delta = msg.delta
        before_ops = self.tracker.table.stats.elementary_operations()
        self.tracker.merge_delta(delta)
        self.tracker.note_peer_covers(delta.sender, delta.codes)
        self.termination.observe_report(delta.as_report(), now)
        ops = self.tracker.table.stats.elementary_operations() - before_ops
        cost = self._charge("contraction", ops * self.config.contraction_cost_per_op)
        my_digest = self.tracker.table_digest_now()
        if my_digest == delta.full_digest:
            # Post-merge our table equals the sender's: it covers all of it.
            self.tracker.note_peer_converged(delta.sender)
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
            cost += self._charge("communication", self.config.msg_send_cost)
        self._abort_covered_recoveries()
        return cost

    def _abort_covered_recoveries(self) -> None:
        """Drop active recovery subproblems that turned out to be completed."""
        if not self.config.abort_redundant_work:
            return
        for code in list(self.recovery.active_recoveries):
            if self.recovery.should_abort(self.tracker, code):
                self.recovery.note_recovery_aborted(code)
                self.stats.recovery_aborted += 1

    # ------------------------------------------------------------------ #
    # Load balancing
    # ------------------------------------------------------------------ #
    def _answer_work_request(self, request: WorkRequest) -> float:
        cost = 0.0
        if self.pool.can_donate(keep_at_least=self.config.lb_keep_at_least):
            share = max(1, int(len(self.pool) * self.config.lb_donation_fraction))
            donated = self.pool.take_for_donation(
                max_count=min(self.config.lb_donation_max, share),
                keep_at_least=self.config.lb_keep_at_least,
                prefer_shallow=self.config.lb_prefer_shallow,
            )
            grant = WorkGrant(
                donor=self.name,
                codes=tuple(sub.code for sub in donated),
                best=self._my_best(),
            )
            self.send(request.requester, grant)
            self.stats.work_grants_sent += 1
        else:
            self.send(request.requester, WorkDenied(donor=self.name, best=self._my_best()))
            self.stats.work_denials_sent += 1
        cost += self._charge("load_balancing", self.config.msg_send_cost)
        return cost

    def _accept_work_grant(self, grant: WorkGrant) -> float:
        self._outstanding_request = None
        rebuild_cost = 0.0
        accepted = 0
        covers = self.tracker.table.covers
        rebuild = self.problem.rebuild_subproblem
        rebuild_cost_per_decision = self.config.rebuild_cost_per_decision
        for code in grant.codes:
            if covers(code):
                continue  # already known completed; no point rebuilding
            sub = rebuild(code)
            rebuild_cost += rebuild_cost_per_decision * max(1, code.depth)
            if sub is None:
                # The code replays to an infeasible state: it is a completed
                # leaf by construction and can be recorded as such.
                self.tracker.record_completed(code, now=self._now())
                continue
            self.pool.push(sub, bound=self.problem.bound(sub.state))
            accepted += 1
        if accepted:
            self.recovery.note_work_obtained()
            self.stats.work_grants_received += 1
        else:
            self.recovery.note_request_failed(self._now())
        return self._charge("load_balancing", rebuild_cost)

    def _effective_idle_threshold(self) -> Optional[float]:
        """Starvation time required before loss is suspected (granularity-aware)."""
        base = self.config.recovery_idle_threshold or 0.0
        adaptive = self.config.recovery_idle_cost_factor * self._avg_node_cost
        threshold = max(base, adaptive)
        return threshold if threshold > 0 else None

    def _idle_gossip_interval(self) -> float:
        """Minimum pause between a starved worker's table pushes (granularity-aware)."""
        return max(
            self.config.idle_poll_interval,
            IDLE_GOSSIP_NODE_COST_FRACTION * self._avg_node_cost,
        )

    def _bootstrap_timeout(self) -> float:
        """Starvation a blank worker must endure before regenerating the root."""
        if self.config.recovery_bootstrap_timeout is not None:
            return self.config.recovery_bootstrap_timeout
        return max(10.0, 30.0 * self._avg_node_cost)

    def _may_recover(self, now: float) -> bool:
        """Gate against mistaking start-up starvation for lost work.

        A worker that has expanded at least one node, or whose table records
        any completed work, has evidence the computation is under way and may
        suspect loss normally.  A completely blank worker (fresh join, nothing
        heard yet) only falls back to recovery after the bootstrap timeout —
        otherwise every idle member would regenerate the root problem during
        ramp-up and the whole tree would be solved n times over.
        """
        if self.stats.nodes_expanded > 0 or len(self.tracker.table) > 0:
            self._starved_blank_since = None
            return True
        if self._starved_blank_since is None:
            self._starved_blank_since = now
            return False
        return (now - self._starved_blank_since) >= self._bootstrap_timeout()

    def _handle_starvation(self) -> float:
        """Pool is empty: try recovery, then load balancing."""
        now = self._now()
        cost = 0.0

        # With an empty pool nothing is genuinely "in progress" any more: a
        # recovery subproblem that is still uncovered must have been lost
        # again (for example donated to a peer that crashed, or shipped in a
        # grant that the network dropped).  Forget it so the complement can
        # offer that subtree again — otherwise the exclusion would block the
        # last missing piece forever.
        active_recoveries = self.recovery.active_recoveries
        if active_recoveries:
            covers = self.tracker.table.covers
            for code in list(active_recoveries):
                if not covers(code):
                    active_recoveries.discard(code)

        # First, see whether starvation already justifies regenerating work.
        self.recovery.idle_time_threshold = self._effective_idle_threshold()
        if self._may_recover(now):
            decision = self.recovery.evaluate(self.tracker, now)
            if decision.code is not None:
                cost += self._start_recovery(decision.code)
                return cost

        if not self.peers:
            # Single-process group: there is nobody to ask, so every poll
            # counts as a failed load-balancing attempt and recovery kicks in
            # after the configured threshold.
            self.recovery.note_request_failed(now)
            decision = self.recovery.evaluate(self.tracker, now)
            if decision.code is not None:
                cost += self._start_recovery(decision.code)
            return cost

        # Starved workers have spare capacity: use it to converge the
        # completed-table views, which is what unblocks termination detection
        # (and prevents needless recovery of work that is already done) —
        # paced by how fast news can exist, not by how often we poll.
        if (
            self.config.table_gossip_when_idle
            and self.peers
            and (now - self._last_table_gossip) >= self._idle_gossip_interval()
        ):
            cost += self._send_table_gossip(now)

        may_request = (
            self._last_lb_attempt is None
            or (now - self._last_lb_attempt) >= self.config.lb_retry_backoff
        )
        if self._outstanding_request is None and may_request:
            victim = self.rng.choice(self.peers)
            self.send(victim, WorkRequest(requester=self.name, best=self._my_best()))
            self.stats.work_requests_sent += 1
            self._request_seq += 1
            self._outstanding_request = (victim, now, self._request_seq)
            self._last_lb_attempt = now
            self.set_timer(self.config.work_request_timeout, f"lb-timeout:{self._request_seq}")
            cost += self._charge("load_balancing", self.config.msg_send_cost)
        self._trace_state("load_balancing")
        return cost

    def _start_recovery(self, code: PathCode) -> float:
        """Regenerate an uncompleted subproblem from its code."""
        sub = self.problem.rebuild_subproblem(code)
        rebuild_cost = self.config.rebuild_cost_per_decision * max(1, code.depth)
        self.recovery.note_recovery_started(code)
        self.stats.recovery_activations += 1
        self._trace_state("recovery")
        if self.tracer is not None:
            self.tracer.event(
                "recovery_start",
                ts=self._now(),
                process=self.name,
                category="recovery",
                args={"depth": code.depth},
            )
        if sub is None:
            # Replaying the code hits an infeasible decision: the subproblem
            # is trivially completed.
            self.tracker.record_completed(code, now=self._now())
            self.recovery.note_recovery_finished(code, redundant=False)
        else:
            self.pool.push(sub, bound=self.problem.bound(sub.state))
        return self._charge("load_balancing", rebuild_cost)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def _flush_report(self) -> float:
        """Build and send a work report from the pending completed codes."""
        now = self._now()
        cost = 0.0
        pending = self.tracker.pending_report_size
        if pending == 0:
            return cost
        report = self.tracker.build_report(
            now=now,
            best=self._my_best(),
            compress=self.config.compress_reports,
            compress_against_table=self.config.compress_against_table,
        )
        if report.is_empty:
            return cost
        cost += self._charge("contraction", pending * self.config.contraction_cost_per_op)
        targets = self._choose_report_targets(self.config.report_fanout)
        for target in targets:
            self.send(target, WorkReportMsg(report))
            cost += self._charge("communication", self.config.msg_send_cost)
        self.stats.reports_sent += 1
        return cost

    def _periodic_gossip_due(self, now: float) -> bool:
        """True when the periodic table-gossip interval has elapsed."""
        interval = self.config.table_gossip_interval
        return (
            interval is not None
            and bool(self.peers)
            and (now - self._last_table_gossip) >= interval
        )

    def _report_work_due(self, now: float) -> bool:
        """True when :meth:`_maybe_send_reports` would do anything.

        The step fast path and :meth:`_maybe_send_reports` share the same
        two trigger predicates, so the fast path can never silently skip
        work the reporting machinery would have done.
        """
        return self.tracker.should_send_report(now) or self._periodic_gossip_due(now)

    def _maybe_send_reports(self) -> float:
        now = self._now()
        cost = 0.0

        if self.tracker.should_send_report(now):
            cost += self._flush_report()

        if self._periodic_gossip_due(now):
            cost += self._send_table_gossip(now)
        return cost

    def _send_table_gossip(self, now: float) -> float:
        """Push table state to one random peer: a delta or a whole snapshot.

        With :attr:`~repro.distributed.config.AlgorithmConfig.delta_gossip`
        on, only the codes the chosen peer's acknowledged basis does not
        cover are shipped; an empty delta (the peer is known to be up to
        date) suppresses the send entirely, so a converged idle group stops
        paying table-gossip bytes altogether.
        """
        target = self.rng.choice(self.peers)
        self._last_table_gossip = now
        if self.config.delta_gossip:
            delta = self.tracker.build_delta_snapshot(target, best=self._my_best())
            if delta.is_empty:
                self.stats.delta_gossips_suppressed += 1
                return 0.0
            self.send(target, DeltaGossipMsg(delta))
            self.stats.delta_gossips_sent += 1
            if self._delta_bytes_hist is not None:
                self._delta_bytes_hist.observe(delta.wire_size())
            gossip_kind = "delta_gossip"
        else:
            snapshot = self.tracker.build_table_snapshot(best=self._my_best())
            self.send(target, TableGossipMsg(snapshot))
            self.stats.table_gossips_sent += 1
            gossip_kind = "table_gossip"
        if self.tracer is not None:
            self.tracer.span(
                gossip_kind,
                now,
                self.config.msg_send_cost,
                process=self.name,
                category="gossip",
                args={"target": target},
            )
        return self._charge("communication", self.config.msg_send_cost)

    def _choose_report_targets(self, fanout: int) -> List[str]:
        if not self.peers:
            return []
        count = min(fanout, len(self.peers))
        return self.rng.sample(self.peers, count)

    # ------------------------------------------------------------------ #
    # Termination
    # ------------------------------------------------------------------ #
    def _check_local_termination(self) -> bool:
        now = self._now()
        if self.termination.check_local(now):
            self.stats.terminated_via = "local"
            self._finish_termination(broadcast=self.config.send_root_report)
            return True
        if self.terminated:
            self._finish_termination(broadcast=False)
            return True
        return False

    def _finish_termination(self, *, broadcast: bool) -> None:
        if self._finished:
            return
        self._finished = True
        now = self._now()
        if broadcast and self.termination.needs_root_broadcast():
            root_report = make_root_report(self.name, best=self._my_best())
            for member in self.peers:
                self.send(member, WorkReportMsg(root_report))
                self._charge("communication", self.config.msg_send_cost)
            self.termination.mark_root_broadcast_sent()
        if self._idle_since is not None:
            self._charge("idle", now - self._idle_since)
            self._idle_since = None
        self.pool.clear()
        self.stats.terminated = True
        self.stats.terminated_at = now
        if self.stats.terminated_via is None:
            self.stats.terminated_via = self.termination.detected_via
        self.stats.best_value = self.incumbent.value
        self._trace_state("terminated")
        self._update_storage_metric()

    # ------------------------------------------------------------------ #
    # Final statistics
    # ------------------------------------------------------------------ #
    def finalize_stats(self) -> WorkerRunStats:
        """Fill in the derived fields of the per-worker statistics."""
        self.stats.nodes_pruned = self.expander.nodes_pruned
        self.stats.best_value = self.incumbent.value
        self.stats.recovery_activations = (
            self._recoveries_base + self.recovery.stats.activations
        )
        self._sync_views_pruned()
        self.stats.codes_received = (
            self._codes_received_base + self.tracker.codes_received
        )
        self.stats.codes_received_redundant = (
            self._codes_redundant_base + self.tracker.redundant_codes_received
        )
        self.stats.entity_steps = self._steps
        if self._unavailable_since is not None:
            # Left and never returned: close the window at the crash time so
            # unavailable-time accounting does not silently lose the tail.
            self.stats.unavailable_time += max(
                0.0, self._now() - self._unavailable_since
            )
            self._unavailable_since = None
        if self._steps:
            self.metrics.count(self.name, "entity_steps", self._steps)
        account = self.metrics.time.get(self.name)
        if account is not None:
            self.stats.time = account.as_dict()
        storage = self.metrics.storage.get(self.name)
        if storage is not None:
            self.stats.storage_peak_bytes = storage.peak_bytes
            self.stats.storage_redundant_bytes = storage.redundant_bytes
        return self.stats
