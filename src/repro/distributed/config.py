"""Configuration of the distributed fault-tolerant B&B algorithm.

:class:`AlgorithmConfig` holds the tunables of the mechanism that some
scenario, benchmark or test sets to a non-default value, so experiments are
fully described by a workload (a basic tree, scaled by the scenario's
granularity), a processor count, a network model, a failure schedule and one
of these objects.  The important knobs, with the paper's terminology:

* ``report_threshold`` (the paper's *c*) and ``report_fanout`` (*m*) — when a
  work report is emitted and to how many random members it is pushed;
* ``report_staleness`` — the "has not been updated for a long time" rule;
* ``recovery_failed_threshold`` — "how soon failure is suspected after a
  machine unsuccessfully tries to get work".

Granularity is not a field: it scales the workload, so it lives on the
scenario (``Scenario.granularity``) and on ``run_tree_simulation``.  The
per-operation costs that turn algorithmic work into simulated time (message
handling, list contraction, subproblem rebuild) are constants of
:mod:`repro.distributed.worker`, their only reader.  Behaviour no run turns
off is unconditional: a starved worker flushes its pending report and
gossips its table, and work a received report shows completed is aborted.
Table dissemination is per-peer delta gossip, pushed to one random member
at least every :data:`~repro.distributed.pacing.TABLE_GOSSIP_INTERVAL`.

How much a donor gives away is deliberately *not* a field: the simulated and
the real-process workers share one donation rule,
:meth:`repro.bnb.pool.SubproblemPool.take_donation`, so the two drivers
cannot drift apart on it.  Nor is how long a starved worker waits, or how
long progress must stall before it suspects loss: both drivers call the
rules of :mod:`repro.distributed.pacing`, which measure every wait in the
worker's own node cost (a request timeout floored at two network round
trips, polls capped by ``IDLE_PACE_CAP``, loss suspected after
``STALL_NODE_COSTS`` node costs with no news).  Both drivers also pick the
recovery candidate at random from the worker's seeded stream (the
:class:`~repro.core.recovery.RecoveryPolicy` default), so starved survivors
do not all regenerate the same subtree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

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
    #: Compress outgoing reports (sibling merge + ancestor drop).  Disabling
    #: this is the ABL-COMPRESS ablation.
    compress_reports: bool = True

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
    #: A terminated worker answers late traffic with one root report per
    #: sender, so a worker rejoining after global termination converges
    #: immediately instead of idling until its own caps fire.  Enabled
    #: together with the failure detector on churn runs.
    termination_echo: bool = False

    # ----------------------- fault tolerance ------------------------------ #
    #: Consecutive unsuccessful work requests before loss is suspected.  The
    #: second condition, starvation with no news for three node costs, is a
    #: shared rule (``STALL_NODE_COSTS`` in ``pacing.py``), not a field.
    recovery_failed_threshold: int = 4
    #: A worker that has never done any work and knows of no completed work
    #: cannot tell "work was lost" from "work has not reached me yet", so it
    #: only falls back to regenerating the root region after this much
    #: uninterrupted starvation.  ``None`` derives the value from the node
    #: cost estimate (max(10 s, 30 × node cost), ``pacing.bootstrap_timeout``).
    recovery_bootstrap_timeout: Optional[float] = None
    #: Broadcast the final root report to the whole membership list.
    send_root_report: bool = True

    # ----------------------- search behaviour ----------------------------- #
    #: Pool selection rule used by every worker.
    selection_rule: SelectionRule = SelectionRule.BEST_FIRST
    #: Piggy-back the best-known solution on every message.
    share_best_solution: bool = True

    # ----------------------------------------------------------------------#
    def __post_init__(self) -> None:
        if self.report_threshold < 1:
            raise ValueError("report_threshold must be at least 1")
        if self.report_fanout < 1:
            raise ValueError("report_fanout must be at least 1")
        if self.recovery_failed_threshold < 1:
            raise ValueError("recovery_failed_threshold must be at least 1")
        if self.failure_detector:
            if self.fd_heartbeat_interval <= 0:
                raise ValueError("fd_heartbeat_interval must be positive")
            if self.fd_fail_timeout <= 0 or self.fd_cleanup_timeout < self.fd_fail_timeout:
                raise ValueError("fd_cleanup_timeout must be >= fd_fail_timeout > 0")

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
