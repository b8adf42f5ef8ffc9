"""Configuration of the distributed fault-tolerant B&B algorithm.

Every tunable the paper mentions (and a few the ablation benchmarks need) is
collected in :class:`AlgorithmConfig`, so experiments are fully described by a
workload (a basic tree), a processor count, a network model, a failure
schedule and one of these objects.  The important knobs, with the paper's
terminology:

* ``report_threshold`` (the paper's *c*) and ``report_fanout`` (*m*) — when a
  work report is emitted and to how many random members it is pushed;
* ``report_staleness`` — the "has not been updated for a long time" rule;
* ``table_gossip_interval`` — how often a full completed-table snapshot is
  pushed to one random member;
* ``recovery_failed_threshold`` / ``recovery_idle_threshold`` — "how soon
  failure is suspected after a machine unsuccessfully tries to get work";
* ``granularity`` — the constant factor applied to all node times;
* the per-operation costs (message handling, list contraction, subproblem
  rebuild) that turn algorithmic work into simulated time, so the Figure 3 /
  Table 1 overhead decomposition can be measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..core.complement import SelectionStrategy
from ..bnb.pool import SelectionRule

__all__ = ["AlgorithmConfig"]


@dataclass(frozen=True, slots=True)
class AlgorithmConfig:
    """Tunables of the distributed algorithm (see module docstring)."""

    # ----------------------- work reports (Section 5.3.2) ----------------- #
    #: Number of newly completed codes that triggers a work report (paper: c).
    report_threshold: int = 10
    #: Number of random members each work report is sent to (paper: m).
    report_fanout: int = 2
    #: Send a report anyway if the pending list has been idle this long (s).
    report_staleness: Optional[float] = 2.0
    #: Flush any pending completed codes as a report the moment the worker
    #: runs out of work.  The paper observes that lightly loaded processes
    #: "suspect termination and send more work reports"; flushing on idle is
    #: the deterministic version of that behaviour and is what lets the last
    #: completions reach the rest of the group promptly.
    flush_report_when_idle: bool = True
    #: Interval between full-table gossip pushes to one random member (s).
    table_gossip_interval: Optional[float] = 30.0
    #: When starved, push the table to a random member without waiting for
    #: the regular interval: at most once per ``idle_poll_interval`` (the
    #: floor) and, for coarse-grained work, once per quarter of the measured
    #: node cost — a table cannot gain news faster than nodes complete
    #: (``IDLE_GOSSIP_NODE_COST_FRACTION`` in ``worker.py``).  Idle processes
    #: have spare capacity, and converging the completed-table views quickly
    #: is exactly what lets them detect termination instead of redoing work.
    table_gossip_when_idle: bool = True
    #: Gossip table *deltas* instead of whole snapshots: track per peer what
    #: it last acknowledged covering and ship only the uncovered codes
    #: (acknowledged with tiny digest echoes).  Steady-state table-gossip
    #: bytes drop by an order of magnitude on the paper workloads
    #: (``benchmarks/bench_delta_gossip.py`` gates ≥3×); disabling restores
    #: the paper's literal whole-snapshot push, which the convergence
    #: property tests use as the reference behaviour.
    delta_gossip: bool = True
    #: Compress outgoing reports (sibling merge + ancestor drop).  Disabling
    #: this is the ABL-COMPRESS ablation.
    compress_reports: bool = True
    #: Additionally drop report codes already covered by the local table.
    compress_against_table: bool = False

    # ----------------------- load balancing ------------------------------ #
    #: Keep at least this many subproblems when answering a work request.
    lb_keep_at_least: int = 2
    #: Donate at most this many subproblems per grant.
    lb_donation_max: int = 4
    #: Donate roughly this fraction of the pool (bounded by lb_donation_max).
    lb_donation_fraction: float = 0.5
    #: Give up on a work request after this long without an answer (s).
    work_request_timeout: float = 0.25
    #: How often an idle worker re-polls (retry requests, suspect loss) (s).
    #: Also the floor of the starved-worker table push, which node cost
    #: paces above it (see ``table_gossip_when_idle``).
    idle_poll_interval: float = 0.1
    #: Minimum pause between consecutive work requests from a starving worker.
    #: Without it a burst of immediate denials makes the worker suspect loss
    #: within milliseconds and redo work that is simply still in flight.
    lb_retry_backoff: float = 0.1
    #: Prefer donating shallow (large) subproblems.
    lb_prefer_shallow: bool = True

    # ----------------------- failure detection (churn) -------------------- #
    #: Run the counter-based epidemic failure detector (van Renesse et al.)
    #: inside every worker: heartbeat gossip rounds, staleness-driven peer
    #: eviction, and incarnation-based readmission of restarted workers.
    #: Off by default — the scenario layer enables it for churn runs; the
    #: non-churn seeded runs stay byte-identical with it disabled.
    failure_detector: bool = False
    #: Interval between heartbeat increments/gossip rounds (s).
    fd_heartbeat_interval: float = 0.5
    #: A peer whose heartbeat has not increased for this long is suspected.
    fd_fail_timeout: float = 2.0
    #: A suspected peer is evicted after this long without an increase.
    fd_cleanup_timeout: float = 4.0
    #: Heartbeat-gossip fanout per round.
    fd_fanout: int = 1
    #: A terminated worker answers late traffic with one root report per
    #: sender, so a worker rejoining after global termination converges
    #: immediately instead of idling until its own caps fire.  Enabled
    #: together with the failure detector on churn runs.
    termination_echo: bool = False

    # ----------------------- fault tolerance ------------------------------ #
    #: Consecutive unsuccessful work requests before loss is suspected.
    recovery_failed_threshold: int = 4
    #: Optional minimum starvation time before recovery may run (s).
    recovery_idle_threshold: Optional[float] = None
    #: Additional adaptive starvation floor: loss is suspected only after the
    #: worker has been starved for at least this many times its recent average
    #: node cost.  This is the paper's "how soon failure is suspected" knob,
    #: made granularity-aware so the same configuration behaves sensibly for
    #: 0.01 s and 3.47 s subproblems.
    recovery_idle_cost_factor: float = 3.0
    #: A worker that has never done any work and knows of no completed work
    #: cannot tell "work was lost" from "work has not reached me yet", so it
    #: only falls back to regenerating the root region after this much
    #: uninterrupted starvation.  ``None`` derives the value from the node
    #: cost estimate (max(10 s, 30 × expected node cost)).
    recovery_bootstrap_timeout: Optional[float] = None
    #: How the recovery candidate is picked from the complement.
    recovery_strategy: SelectionStrategy = SelectionStrategy.DEEPEST
    #: Abort subproblems (including recoveries) that a received report shows
    #: to be already completed elsewhere.
    abort_redundant_work: bool = True
    #: Broadcast the final root report to the whole membership list.
    send_root_report: bool = True

    # ----------------------- search behaviour ----------------------------- #
    #: Pool selection rule used by every worker.
    selection_rule: SelectionRule = SelectionRule.BEST_FIRST
    #: Constant factor applied to every node time (the paper's granularity).
    granularity: float = 1.0
    #: Piggy-back the best-known solution on every message.
    share_best_solution: bool = True

    # ----------------------- simulated overhead costs --------------------- #
    #: Fixed CPU cost of handling one received message (s).
    msg_processing_base: float = 2.0e-4
    #: Additional CPU cost per received byte (s/byte).
    msg_processing_per_byte: float = 2.0e-7
    #: Fixed CPU cost of sending one message (s).
    msg_send_cost: float = 1.0e-4
    #: CPU cost per elementary contraction operation (merge/subsume/insert).
    contraction_cost_per_op: float = 2.0e-5
    #: CPU cost to replay one ``<variable, value>`` decision when rebuilding a
    #: subproblem from its code (work grants and recovery).
    rebuild_cost_per_decision: float = 1.0e-5

    # ----------------------------------------------------------------------#
    def __post_init__(self) -> None:
        if self.report_threshold < 1:
            raise ValueError("report_threshold must be at least 1")
        if self.report_fanout < 1:
            raise ValueError("report_fanout must be at least 1")
        if self.lb_keep_at_least < 1:
            raise ValueError("lb_keep_at_least must be at least 1")
        if self.lb_donation_max < 1:
            raise ValueError("lb_donation_max must be at least 1")
        if not (0.0 < self.lb_donation_fraction <= 1.0):
            raise ValueError("lb_donation_fraction must be in (0, 1]")
        if self.work_request_timeout <= 0 or self.idle_poll_interval <= 0:
            raise ValueError("timeouts must be positive")
        if self.recovery_failed_threshold < 1:
            raise ValueError("recovery_failed_threshold must be at least 1")
        if self.failure_detector:
            if self.fd_heartbeat_interval <= 0:
                raise ValueError("fd_heartbeat_interval must be positive")
            if self.fd_fail_timeout <= 0 or self.fd_cleanup_timeout < self.fd_fail_timeout:
                raise ValueError("fd_cleanup_timeout must be >= fd_fail_timeout > 0")
            if self.fd_fanout < 1:
                raise ValueError("fd_fanout must be at least 1")
        if self.granularity < 0:
            raise ValueError("granularity must be non-negative")

    def with_overrides(self, **changes) -> "AlgorithmConfig":
        """Return a copy with some fields replaced (sweep helper)."""
        return replace(self, **changes)

    @classmethod
    def paper_default(cls) -> "AlgorithmConfig":
        """Configuration matching the paper's described, unoptimised setup.

        "Work reports are sent to randomly chosen resources, without
        eliminating redundant messages.  When out of work, resources ask
        randomly chosen resources for work, without using previous experience
        to increase performance."
        """
        return cls()
