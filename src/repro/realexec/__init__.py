"""Real (multiprocessing) execution backend.

Runs the same core algorithm objects used by the simulator on real operating
system processes that exchange :mod:`repro.wire` binary frames over TCP (no
protocol payload is pickled; see ``docs/WIRE_FORMAT.md``).  Small-scale by
design: it demonstrates that the mechanism is not an artefact of the
simulator and lets the test-suite kill real processes, while the
quantitative evaluation stays on the simulator as in the paper.

* :mod:`repro.realexec.transport` — the envelope codec and the one router:
  a TCP listener on a single ``selectors`` event loop;
* :mod:`repro.realexec.node` — the per-process worker loop;
* :mod:`repro.realexec.driver` — the local cluster driver with fault
  injection and churn.
"""

from .driver import LocalCluster, LocalClusterResult
from .node import RealWorkerConfig, WorkerOutcome, worker_main
from .transport import Envelope, TcpRouter, create_router

__all__ = [
    "Envelope",
    "TcpRouter",
    "create_router",
    "RealWorkerConfig",
    "WorkerOutcome",
    "worker_main",
    "LocalCluster",
    "LocalClusterResult",
]
