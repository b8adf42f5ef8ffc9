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

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..simulation.metrics import MetricsCollector, TIME_CATEGORIES
from ..simulation.network import TrafficStats
from ..simulation.tracing import TimelineTrace

__all__ = ["WorkerRunStats", "RunResult"]


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
    storage_peak_bytes: int = 0
    storage_redundant_bytes: int = 0
    time: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Flat dictionary (report/CSV friendly)."""
        row = {
            "name": self.name,
            "nodes_expanded": self.nodes_expanded,
            "nodes_pruned": self.nodes_pruned,
            "nodes_skipped_covered": self.nodes_skipped_covered,
            "completed_codes_local": self.completed_codes_local,
            "reports_sent": self.reports_sent,
            "delta_gossips_sent": self.delta_gossips_sent,
            "delta_gossips_suppressed": self.delta_gossips_suppressed,
            "gossip_acks_sent": self.gossip_acks_sent,
            "gossip_views_pruned": self.gossip_views_pruned,
            "codes_received": self.codes_received,
            "codes_received_redundant": self.codes_received_redundant,
            "work_requests_sent": self.work_requests_sent,
            "work_grants_sent": self.work_grants_sent,
            "work_pushes_sent": self.work_pushes_sent,
            "work_denials_sent": self.work_denials_sent,
            "work_requests_forwarded": self.work_requests_forwarded,
            "walks_exhausted": self.walks_exhausted,
            "work_grants_received": self.work_grants_received,
            "news_pulls_sent": self.news_pulls_sent,
            "news_answers_sent": self.news_answers_sent,
            "recovery_activations": self.recovery_activations,
            "recovery_aborted": self.recovery_aborted,
            "redundant_expansions": self.redundant_expansions,
            "fast_path_steps": self.fast_path_steps,
            "heartbeats_sent": self.heartbeats_sent,
            "peers_evicted": self.peers_evicted,
            "peers_readmitted": self.peers_readmitted,
            "leaves": self.leaves,
            "rejoins": self.rejoins,
            "unavailable_time": self.unavailable_time,
            "entity_steps": self.entity_steps,
            "crashed": self.crashed,
            "crashed_at": self.crashed_at,
            "terminated": self.terminated,
            "terminated_at": self.terminated_at,
            "terminated_via": self.terminated_via,
            "best_value": self.best_value,
            "storage_peak_bytes": self.storage_peak_bytes,
            "storage_redundant_bytes": self.storage_redundant_bytes,
        }
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
    #: Shared metrics collector (time/storage accounts per worker).
    metrics: Optional[MetricsCollector] = None
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
    #: Optional execution timeline (Figures 5/6).
    trace: Optional[TimelineTrace] = None
    #: Engine-level scale counters: ``events_processed``, ``peak_heap_len``,
    #: ``compactions`` and ``entity_steps``.
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
        if self.metrics is None:
            return 0.0
        return self.metrics.system_fractions().get(category, 0.0)

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
        if self.metrics is None:
            return 0.0
        return self.metrics.total_storage_bytes() / 1e6

    def storage_redundant_mb(self) -> float:
        """Table 1 'Storage Space Redundant (MB)': replicated information received."""
        if self.metrics is None:
            return 0.0
        return self.metrics.redundant_storage_bytes() / 1e6

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
