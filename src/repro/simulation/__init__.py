"""Discrete-event simulation substrate (the Parsec replacement).

The paper evaluates its algorithm in simulation, using UCLA's Parsec.  This
package provides the equivalent functionality in pure Python:

* :mod:`repro.simulation.engine` — deterministic event heap and logical clock;
* :mod:`repro.simulation.entity` — logical processes with inboxes, timers and
  Crash-model failure semantics;
* :mod:`repro.simulation.network` — the ``1.5 ms + 0.005 ms/byte`` latency
  model, message loss, temporary partitions and traffic accounting;
* :mod:`repro.simulation.failures` — crash-failure injection schedules; and
* :mod:`repro.simulation.rng` — named, seeded random streams.
"""

from .engine import SimulationEngine, SimulationError
from .entity import Entity, QueuedMessage
from .failures import (
    CrashEvent,
    FailureInjector,
    fractional_crash_schedule,
    random_crash_schedule,
)
from .network import LatencyModel, Network, Partition, TrafficStats
from .rng import RngRegistry

__all__ = [
    "SimulationEngine",
    "SimulationError",
    "Entity",
    "QueuedMessage",
    "LatencyModel",
    "Network",
    "Partition",
    "TrafficStats",
    "CrashEvent",
    "FailureInjector",
    "random_crash_schedule",
    "fractional_crash_schedule",
    "RngRegistry",
]
