"""Baseline parallel B&B designs the paper positions itself against.

* :mod:`repro.baselines.central` — the classic centralised manager/worker
  design (Section 3's related work), whose manager is a single point of
  failure;
* :mod:`repro.baselines.dib` — a DIB-style decentralised design with
  responsibility tracking (Finkel & Manber 1987, Sections 3 and 5.5), which
  recovers from worker failures by redoing handed-out work but depends on a
  reliable root machine for termination.

Both run on one harness, :mod:`repro.baselines.harness`: one runner sets up
the engine, network and failure injector, stops the run and assembles one
:class:`BaselineRunResult` with the same counters for either design.  The
harness runs on the same simulation substrate and problem interface as the
paper's algorithm, so the fault-tolerance benchmarks compare mechanisms,
not implementations.
"""

from .central import (
    CentralManagerEntity,
    CentralWorkerEntity,
    central_worker_names,
    run_central_simulation,
)
from .dib import DibWorkerEntity, dib_worker_names, run_dib_simulation
from .harness import BaselineEntity, BaselineRunResult, run_baseline

__all__ = [
    "BaselineEntity",
    "BaselineRunResult",
    "run_baseline",
    "CentralManagerEntity",
    "CentralWorkerEntity",
    "central_worker_names",
    "run_central_simulation",
    "DibWorkerEntity",
    "dib_worker_names",
    "run_dib_simulation",
]
