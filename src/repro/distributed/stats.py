"""Run results and the derived quantities reported in the paper's evaluation.

:class:`WorkerRunStats` captures what one simulated worker did;
:class:`RunResult` aggregates a whole run and exposes the exact columns of the
paper's Figure 3 (per-category execution time), Table 1 (execution time, %B&B
time, %contraction time, storage total/redundant, MB/hour/processor) and
Figure 4 (speedup and communication curves), plus the correctness fields the
fault-tolerance experiments assert on (best value found, termination detected,
crashed processes).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from ..simulation.network import TrafficStats

__all__ = ["TIME_CATEGORIES", "WorkerRunStats", "RunResult"]

#: The five execution-time buckets of Figure 3: branch-and-bound,
#: communication, list contraction, load balancing and idle time.
TIME_CATEGORIES = ("bb", "communication", "contraction", "load_balancing", "idle")


@dataclass
class WorkerRunStats:
    """Everything one worker did during a run."""

    name: str
    nodes_expanded: int = 0
    nodes_pruned: int = 0
    nodes_skipped_covered: int = 0
    completed_codes_local: int = 0
    reports_sent: int = 0
    delta_gossips_sent: int = 0
    delta_gossips_suppressed: int = 0
    gossip_acks_sent: int = 0
    #: Per-peer gossip views dropped after membership declared the peer dead.
    gossip_views_pruned: int = 0
    #: Completed codes received in reports and deltas, and how many of them
    #: the table already covered: ``(received − redundant) ÷ received`` is
    #: the share of what dissemination shipped here that was news.
    codes_received: int = 0
    codes_received_redundant: int = 0
    work_requests_sent: int = 0
    work_grants_sent: int = 0
    #: Grants pushed unasked to a peer heard starving (disjoint from
    #: ``work_grants_sent``, which counts answers to work requests).
    work_pushes_sent: int = 0
    work_denials_sent: int = 0
    #: Work requests this worker passed on, idle, instead of denying them
    #: (coarse grain: :func:`~repro.distributed.pacing.walk_hops`).
    work_requests_forwarded: int = 0
    #: This worker's own requests whose walk reached its hop limit meeting
    #: only idle peers (each paused its next request).
    walks_exhausted: int = 0
    work_grants_received: int = 0
    #: Empty deltas sent to ``report_fanout`` peers on starting a recovery
    #: (a pull: "send me what you know").
    news_pulls_sent: int = 0
    #: Table deltas sent in answer to a pull or to a report whose every code
    #: the table already covered (disjoint from ``delta_gossips_sent``).
    news_answers_sent: int = 0
    recovery_activations: int = 0
    recovery_aborted: int = 0
    redundant_expansions: int = 0
    #: Steps that skipped the message/report machinery entirely (empty inbox,
    #: nothing due) via the worker's dirty-flag fast path.
    fast_path_steps: int = 0
    # ----- churn & live failure detection --------------------------------- #
    #: Heartbeat-gossip rounds this worker sent.
    heartbeats_sent: int = 0
    #: Peers evicted because their heartbeat went stale (live detection).
    peers_evicted: int = 0
    #: Peers readmitted after eviction or restart (rejoin handling).
    peers_readmitted: int = 0
    #: Churn leaves this worker suffered (suspend/restart departures).
    leaves: int = 0
    #: Churn returns this worker completed (revivals).
    rejoins: int = 0
    #: Total simulated time this worker spent unavailable to churn.
    unavailable_time: float = 0.0
    #: Total scheduled entity steps this worker executed (scale diagnostics).
    entity_steps: int = 0
    crashed: bool = False
    crashed_at: Optional[float] = None
    terminated: bool = False
    terminated_at: Optional[float] = None
    terminated_via: Optional[str] = None
    best_value: Optional[float] = None
    #: Peak completion-state footprint (table plus pool), and the part of
    #: it learned from other members at that peak (Table 1 "Total" and
    #: "Redundant" storage).
    storage_peak_bytes: int = 0
    storage_redundant_bytes: int = 0
    #: Simulated seconds charged to each of the :data:`TIME_CATEGORIES`.
    time: Dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(TIME_CATEGORIES, 0.0)
    )

    def as_dict(self) -> dict:
        """Flat dictionary (report/CSV friendly): every field, with ``time``
        spread into one ``time_<category>`` column per category."""
        row = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "time"}
        for category in TIME_CATEGORIES:
            row[f"time_{category}"] = self.time.get(category, 0.0)
        return row


@dataclass
class RunResult:
    """Aggregate result of one simulated distributed run."""

    #: Number of workers the run started with.
    n_workers: int
    #: Simulated time at which the last surviving worker terminated.
    makespan: float
    #: Best objective value known to the surviving workers at termination.
    best_value: Optional[float]
    #: Reference optimum of the workload (from the basic tree), if known.
    reference_optimum: Optional[float]
    #: True when every surviving worker detected termination.
    all_terminated: bool
    #: Names of workers that crashed during the run.
    crashed_workers: List[str] = field(default_factory=list)
    #: Per-worker statistics.
    workers: Dict[str, WorkerRunStats] = field(default_factory=dict)
    #: Total nodes expanded across all workers (including redundant work).
    total_nodes_expanded: int = 0
    #: Nodes expanded more than once system-wide (redundant work).
    redundant_nodes_expanded: int = 0
    #: Sum of per-node costs actually executed (busy B&B time system-wide).
    total_bb_time: float = 0.0
    #: Uniprocessor reference time of the workload (sum of all node costs).
    uniprocessor_time: Optional[float] = None
    #: Global network traffic statistics.
    network: Optional[TrafficStats] = None
    #: Total bytes injected into the network.
    total_bytes_sent: int = 0
    #: Message counts by kind.
    messages_by_kind: Dict[str, int] = field(default_factory=dict)
    #: Bytes injected into the network by payload kind (wire-size model), as
    #: classified by :class:`~repro.distributed.messages.MessageKinds` — the
    #: delta-gossip benchmark compares the table-dissemination family here.
    bytes_by_kind: Dict[str, int] = field(default_factory=dict)
    #: Engine-level scale counters: ``events_processed``, ``peak_heap_len``,
    #: ``entity_steps``, ``arena_nodes_peak`` and ``arena_collections``.
    engine_counters: Dict[str, int] = field(default_factory=dict)
    #: Collected run telemetry (a :class:`repro.obs.Telemetry`) when the run
    #: was started with a telemetry config; ``None`` otherwise.
    telemetry: Optional[object] = None

    # ------------------------------------------------------------------ #
    # Correctness checks
    # ------------------------------------------------------------------ #
    @property
    def solved_correctly(self) -> Optional[bool]:
        """True when the surviving system knows the reference optimum.

        ``None`` when the workload has no recorded reference optimum.
        """
        if self.reference_optimum is None:
            return None
        if self.best_value is None:
            return False
        return abs(self.best_value - self.reference_optimum) <= 1e-9 * max(
            1.0, abs(self.reference_optimum)
        )

    # ------------------------------------------------------------------ #
    # Paper-style derived metrics
    # ------------------------------------------------------------------ #
    def execution_time_hours(self) -> float:
        """Makespan in hours (Table 1 'Execution Time')."""
        return self.makespan / 3600.0

    def time_fraction(self, category: str) -> float:
        """System-wide fraction of a time category (Figure 3 / Table 1 %)."""
        workers = self.workers.values()
        total = sum(sum(stats.time.values()) for stats in workers)
        if total <= 0:
            return 0.0
        return sum(stats.time.get(category, 0.0) for stats in workers) / total

    def bb_time_percent(self) -> float:
        """Table 1 'B&B Time (%)'."""
        return 100.0 * self.time_fraction("bb")

    def contraction_time_percent(self) -> float:
        """Table 1 'Contraction Time (%)'."""
        return 100.0 * self.time_fraction("contraction")

    def communication_time_percent(self) -> float:
        """Communication-handling share of total time."""
        return 100.0 * self.time_fraction("communication")

    def load_balancing_time_percent(self) -> float:
        """Load-balancing share of total time."""
        return 100.0 * self.time_fraction("load_balancing")

    def idle_time_percent(self) -> float:
        """Idle share of total time."""
        return 100.0 * self.time_fraction("idle")

    def overhead_percent(self) -> float:
        """Everything that is not B&B time, as a percentage (Figure 3 text)."""
        return 100.0 - self.bb_time_percent()

    def storage_total_mb(self) -> float:
        """Table 1 'Storage Space Total (MB)': peak completion state, system-wide."""
        return sum(stats.storage_peak_bytes for stats in self.workers.values()) / 1e6

    def storage_redundant_mb(self) -> float:
        """Table 1 'Storage Space Redundant (MB)': replicated information received."""
        return sum(stats.storage_redundant_bytes for stats in self.workers.values()) / 1e6

    def communication_mb_per_hour_per_processor(self) -> float:
        """Table 1 'Communication (MB/hour/processor)'."""
        hours = self.execution_time_hours()
        if hours <= 0 or self.n_workers == 0:
            return 0.0
        return (self.total_bytes_sent / 1e6) / hours / self.n_workers

    def speedup(self) -> Optional[float]:
        """Speedup against the uniprocessor reference time (Figure 4)."""
        if self.uniprocessor_time is None or self.makespan <= 0:
            return None
        return self.uniprocessor_time / self.makespan

    def efficiency(self) -> Optional[float]:
        """Parallel efficiency (speedup / processors)."""
        s = self.speedup()
        if s is None or self.n_workers == 0:
            return None
        return s / self.n_workers

    def redundant_work_fraction(self) -> float:
        """Fraction of expansions that were redundant (re-expanded nodes)."""
        if self.total_nodes_expanded == 0:
            return 0.0
        return self.redundant_nodes_expanded / self.total_nodes_expanded

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, object]:
        """One-row summary with the paper's headline columns."""
        return {
            "processors": self.n_workers,
            "makespan_s": round(self.makespan, 3),
            "execution_time_h": round(self.execution_time_hours(), 4),
            "bb_time_pct": round(self.bb_time_percent(), 2),
            "contraction_time_pct": round(self.contraction_time_percent(), 2),
            "communication_time_pct": round(self.communication_time_percent(), 2),
            "lb_time_pct": round(self.load_balancing_time_percent(), 2),
            "idle_time_pct": round(self.idle_time_percent(), 2),
            "storage_total_mb": round(self.storage_total_mb(), 3),
            "storage_redundant_mb": round(self.storage_redundant_mb(), 3),
            "comm_mb_per_hour_per_proc": round(self.communication_mb_per_hour_per_processor(), 3),
            "speedup": None if self.speedup() is None else round(self.speedup(), 2),
            "best_value": self.best_value,
            "solved_correctly": self.solved_correctly,
            "crashed_workers": len(self.crashed_workers),
            "redundant_work_fraction": round(self.redundant_work_fraction(), 4),
        }
