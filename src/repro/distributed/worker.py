"""The simulated worker: the protocol core driven by simulated time.

:class:`WorkerEntity` is the simulation-engine adapter of
:class:`~repro.distributed.protocol.ProtocolCore`, which holds the whole
worker protocol (pool, table, recovery, pacing, walk, news, pushes,
termination).  What stays here is what only a simulated process has:

* simulated time: every unit of protocol work the core reports (a send, a
  received byte, a contraction operation, a rebuilt decision) is charged
  through this module's overhead-cost constants (``MSG_SEND_COST`` …) to one
  of the paper's five accounting categories (B&B, communication, list
  contraction, load balancing, idle), which is what the Figure 3 / Table 1
  benchmarks read back out; a step is scheduled after the cost it charged;
* the engine's timers, the inbox, the storage metric and, when the run has
  a tracer, the worker's timeline: one ``worker``-category span per state
  (``working``, ``idle``, ``offline`` …), the Figures 5/6 Gantt rows;
* churn (suspend, restart, revival), the termination echo, and the live
  failure detector with its heartbeat gossip, evictions and incarnations;
* :class:`PeerRoster`, the constant-memory peer list of a 10k-worker group.

The real-process worker (:func:`repro.realexec.node.worker_main`) runs the
same core on a wall clock.
"""

from __future__ import annotations

import random
from collections.abc import Sequence as _SequenceABC
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..bnb.problem import BranchAndBoundProblem, Subproblem
from ..core.arena import TrieArena
from ..core.encoding import PathCode
from ..core.termination import make_root_report
from ..gossip.failure_detector import GossipFailureDetector
from ..simulation.entity import Entity, QueuedMessage
from .config import AlgorithmConfig
from .messages import HeartbeatGossipMsg, TableGossipAck, WorkReportMsg
from .protocol import ProtocolCore
from .stats import WorkerRunStats

__all__ = ["PeerRoster", "WorkerEntity"]

# Simulated overhead costs: the CPU time each unit of protocol work is
# charged, which is what the Figure 3 / Table 1 breakdown reads back.  They
# are paper-era guesses; ROADMAP item 5 calibrates them against the
# real-process worker (``repro.realexec.node``).
#: Fixed CPU cost of handling one received message (s).
MSG_PROCESSING_BASE = 2.0e-4
#: Additional CPU cost per received byte (s/byte).
MSG_PROCESSING_PER_BYTE = 2.0e-7
#: Fixed CPU cost of sending one message (s).
MSG_SEND_COST = 1.0e-4
#: CPU cost per elementary contraction operation (merge/subsume/insert).
CONTRACTION_COST_PER_OP = 2.0e-5
#: CPU cost to replay one ``<variable, value>`` decision when rebuilding a
#: subproblem from its code (work grants and recovery).
REBUILD_COST_PER_DECISION = 1.0e-5


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


class WorkerEntity(Entity, ProtocolCore):
    """One simulated process running the fault-tolerant distributed B&B.

    ``problem``, ``config``, ``rng``, ``initial_work`` (usually only worker 0
    holds the root) and ``expected_node_cost`` (e.g. the workload tree's mean
    node time) are the core's (:class:`~repro.distributed.protocol.
    ProtocolCore`).  ``members`` names every participant, itself included
    (static membership, as in the paper's simulations); ``tracer`` is the
    run's :class:`~repro.obs.Tracer` (``None`` records no timeline), and
    ``speed`` the relative machine speed.
    """

    def __init__(
        self,
        name: str,
        problem: BranchAndBoundProblem,
        config: AlgorithmConfig,
        members: Sequence[str],
        *,
        rng: Optional[random.Random] = None,
        initial_work: Sequence[Subproblem] = (),
        expected_node_cost: float = 0.0,
        arena: Optional[TrieArena] = None,
        tracer: Optional[Any] = None,
        speed: float = 1.0,
        obs_metrics: Optional[Any] = None,
    ) -> None:
        Entity.__init__(self, name)
        # Share the runner's roster rather than copying it: a 10k-worker run
        # would otherwise hold 10k private copies (O(n^2) references).
        self.members = members if isinstance(members, (list, tuple)) else list(members)
        ProtocolCore.__init__(
            self,
            name,
            problem,
            config,
            PeerRoster(self.members, name),
            rng=rng if rng is not None else random.Random(0),
            initial_work=initial_work,
            expected_node_cost=expected_node_cost,
            arena=arena,
            tracer=tracer,
            obs_metrics=obs_metrics,
        )
        #: The state this worker is in and since when: the open span of its
        #: timeline (only kept when the run has a tracer).
        self._state: Optional[str] = None
        self._state_since = 0.0
        #: Relative machine speed: node-expansion cost divides by this, so a
        #: 2.0 worker models a machine twice as fast as the calibration host.
        if speed <= 0:
            raise ValueError("speed must be positive")
        self.speed = speed
        self._eviction_latency_hist = (
            obs_metrics.histogram("fd_eviction_latency_seconds")
            if obs_metrics is not None
            else None
        )

        # Scheduling state ------------------------------------------------- #
        self._step_scheduled = False
        self._idle_since: Optional[float] = None
        self._steps = 0
        self._step_label = f"{name}:step"

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
    # Simulated time: the core's cost and observation hooks
    # ------------------------------------------------------------------ #
    def _now(self) -> float:
        assert self.engine is not None
        return self.engine.now

    def _charge(self, category: str, amount: float) -> float:
        """Charge simulated time to an accounting category and return it."""
        if amount > 0:
            self.stats.time[category] += amount
            return amount
        return 0.0

    def _sent(self, category: str) -> float:
        return self._charge(category, MSG_SEND_COST)

    def _received(self, category: str, size_bytes: int) -> float:
        return self._charge(category, MSG_PROCESSING_BASE + MSG_PROCESSING_PER_BYTE * size_bytes)

    def _contracted(self, ops: int) -> float:
        return self._charge("contraction", ops * CONTRACTION_COST_PER_OP)

    def _rebuild_cost(self, code: PathCode) -> float:
        return REBUILD_COST_PER_DECISION * max(1, code.depth)

    def _trace_state(self, state: str) -> None:
        if self.tracer is not None and state != self._state:
            now = self._now()
            self.close_state(now)
            self._state = state
            self._state_since = now

    def close_state(self, now: float) -> None:
        """Record the open state as a ``worker`` span ending at ``now``
        (a zero-length one is dropped); the runner calls this at the end."""
        since = self._state_since
        if self._state is not None and now > since:
            self.tracer.span(
                self._state, since, now - since, process=self.name, category="worker"
            )

    def _on_idle(self, idle_from: float) -> None:
        self._idle_since = idle_from
        self._trace_state("idle")

    def _on_finished(self, now: float) -> None:
        if self._idle_since is not None:
            self._charge("idle", now - self._idle_since)
            self._idle_since = None
        self._trace_state("terminated")
        self._update_storage_metric()

    def _receive_other(self, payload: Any, size_bytes: int) -> float:
        if isinstance(payload, HeartbeatGossipMsg):
            return self._handle_heartbeat(payload, size_bytes)
        return ProtocolCore._receive_other(self, payload, size_bytes)

    def _update_storage_metric(self) -> None:
        """Raise the storage peak; the redundant share is read at the peak."""
        footprint = self.tracker.storage_bytes() + self.pool.storage_bytes()
        stats = self.stats
        if footprint > stats.storage_peak_bytes:
            stats.storage_peak_bytes = footprint
            stats.storage_redundant_bytes = max(
                0, int(round(footprint * self.tracker.remote_information_share()))
            )

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #
    def evict_peer(self, peer: str) -> bool:
        """Forget a peer the membership layer has declared dead.

        Called by whoever drives membership for this worker (the failure
        detector's cleanup pass, or a test): the peer leaves
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
        self._starved_peers.pop(peer, None)
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
                cost += self._sent("communication")
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
        delta).  Its heartbeat counter also restarted from zero, which plain
        digest merging would read as stale.
        """
        self.tracker.prune_peer_view(peer)
        self._sync_views_pruned()
        if self._fd is not None:
            self._fd.restart_member(peer, now)
        self._readmit_peer(peer)

    def _handle_heartbeat(self, msg: HeartbeatGossipMsg, size_bytes: int) -> float:
        cost = self._received("communication", size_bytes)
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
        self.start(self._now())
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
        self.outstanding_request = None
        self._last_lb_attempt = None
        self.walk_exhausted = False
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
        self._reset_state(self.tracker.arena)
        # A restarted worker re-reads the full membership list (the paper's
        # join-time gossip-server handshake): evictions it made before the
        # restart are forgotten with the rest of its volatile state.
        self.peers = PeerRoster(self.members, self.name)
        self._starved_peers.clear()
        self._fd = None
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
            self._sent("communication")

    def on_wakeup(self, reason: str) -> None:
        if not self.alive or self.terminated:
            return
        if self.on_timer(reason, self._now()):
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

        handled = bool(self.inbox)
        sub = self.step(now, handled, self._process_messages(now) if handled else 0.0)
        if sub is None:
            return
        self._trace_state("working")
        cost = self._expand(sub, now)
        self._update_storage_metric()

        if self.check_termination(now):
            return
        self._schedule_step(self.step_overhead + cost)

    def _process_messages(self, now: float) -> float:
        """Hand every queued message to the core; returns the cost charged."""
        overhead = 0.0
        while self.inbox and self.alive:
            message = self.inbox.popleft()
            overhead += self.receive(
                message.payload,
                now,
                message.delivered_at - message.sent_at,
                message.size_bytes,
            )
            if self.terminated:
                break
        return overhead

    def _expand(self, sub: Subproblem, now: float) -> float:
        """Expand one subproblem; returns the B&B time charged."""
        outcome = self.expand(sub, now)
        # Heterogeneous machine speeds: a faster worker spends less simulated
        # time on the same node (the cost model is calibrated at speed 1.0).
        cost = outcome.cost if self.speed == 1.0 else outcome.cost / self.speed
        if cost > 0:
            self.note_node_cost(cost)
        return self._charge("bb", cost)

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
        return self.stats
