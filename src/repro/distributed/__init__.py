"""The distributed fault-tolerant B&B algorithm (the paper's Section 5).

* :mod:`repro.distributed.config` — every algorithm tunable
  (:class:`AlgorithmConfig`);
* :mod:`repro.distributed.messages` — the wire messages (work requests,
  grants, denials, work reports, delta gossip);
* :mod:`repro.distributed.protocol` — the worker protocol, once: the local
  B&B loop, load balancing, the fault-tolerance mechanism and termination
  detection, driven by a simulated or a real process;
* :mod:`repro.distributed.worker` — the simulated worker, the protocol core
  on simulated time;
* :mod:`repro.distributed.runner` — experiment orchestration
  (:class:`DistributedBnBSimulation`, :func:`run_tree_simulation`);
* :mod:`repro.distributed.stats` — per-worker and per-run statistics exposing
  the paper's reported metrics.
"""

from .config import AlgorithmConfig
from .messages import (
    MessageKinds,
    WorkDenied,
    WorkGrant,
    WorkReportMsg,
    WorkRequest,
)
from .runner import DistributedBnBSimulation, NetworkConfig, run_tree_simulation, worker_names
from .stats import RunResult, WorkerRunStats
from .worker import WorkerEntity

__all__ = [
    "AlgorithmConfig",
    "MessageKinds",
    "WorkRequest",
    "WorkGrant",
    "WorkDenied",
    "WorkReportMsg",
    "WorkerEntity",
    "DistributedBnBSimulation",
    "NetworkConfig",
    "run_tree_simulation",
    "worker_names",
    "RunResult",
    "WorkerRunStats",
]
