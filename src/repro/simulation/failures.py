"""Crash-failure injection.

The failure model is Crash (Section 4): "a processor fails by halting.  Once
it halts, the processor remains in that state.  The fact that a processor has
failed may not be detectable by other processors."  The simulator reproduces
this by scheduling :meth:`~repro.simulation.entity.Entity.crash` calls; no
notification of any kind is generated.

Schedules can be specified three ways, matching the experiments in the paper
and in the extended fault-tolerance benchmarks:

* absolute crash times per entity (:class:`CrashEvent`);
* a *fraction of the failure-free makespan* (used for the Figures 5/6
  scenario, "two of the three processors fail at about 85% of the execution
  time"), resolved by the runner once the failure-free makespan is known; and
* random crashes of ``k`` entities drawn from a seeded stream
  (:func:`random_crash_schedule`), used by the reliability sweeps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from .engine import SimulationEngine
from .network import Network

__all__ = [
    "CrashEvent",
    "FailureInjector",
    "ChurnInjector",
    "random_crash_schedule",
    "fractional_crash_schedule",
]


@dataclass(frozen=True, slots=True)
class CrashEvent:
    """One scheduled crash: ``entity`` halts at simulated ``time``."""

    time: float
    entity: str

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("crash time must be non-negative")


class FailureInjector:
    """Installs crash events on a simulation engine."""

    def __init__(self, schedule: Iterable[CrashEvent] = ()) -> None:
        self.schedule: List[CrashEvent] = sorted(schedule, key=lambda e: (e.time, e.entity))
        #: Entities actually crashed so far (filled in during the run).
        self.crashed: List[str] = []

    def install(self, engine: SimulationEngine, network: Network) -> None:
        """Schedule every crash event on the engine."""
        for event in self.schedule:
            engine.schedule_at(event.time, self._make_crash(network, event.entity),
                               label=f"crash:{event.entity}")

    def _make_crash(self, network: Network, name: str):
        def _crash() -> None:
            try:
                entity = network.entity(name)
            except KeyError:
                return
            if entity.alive:
                entity.crash()
                self.crashed.append(name)

        return _crash

    def add(self, event: CrashEvent) -> None:
        """Append a crash event (before :meth:`install` is called)."""
        self.schedule.append(event)
        self.schedule.sort(key=lambda e: (e.time, e.entity))

    def __len__(self) -> int:
        return len(self.schedule)


class ChurnInjector:
    """Installs non-permanent leave/return (churn) events on an engine.

    Unlike :class:`FailureInjector`, a "leave" here is survivable: the
    entity is :meth:`~repro.simulation.entity.Entity.suspend`-ed, and a
    later "return" event revives it.  ``mode`` selects the paper-relevant
    return semantics:

    * ``"suspend"`` — the worker resumes with its state intact (SIGSTOP /
      closed laptop lid);
    * ``"restart"`` — the worker's volatile state is wiped before revival
      (the entity's duck-typed ``reset_for_rejoin()`` is invoked, if
      present), modelling a reboot: the worker must re-converge through the
      gossip first-contact path.

    The injector only revives entities *it* suspended: a worker crashed
    permanently by a concurrent :class:`FailureInjector` schedule is never
    resurrected.  ``pending_returns`` counts returns still in the future so
    the runner's stop condition can refuse to declare global termination
    while a rejoin is imminent.
    """

    def __init__(
        self, events: Iterable[Tuple[float, str, str]] = (), *, mode: str = "restart"
    ) -> None:
        if mode not in ("restart", "suspend"):
            raise ValueError(f"unknown churn mode {mode!r}")
        self.events: List[Tuple[float, str, str]] = sorted(events)
        self.mode = mode
        #: ``(time, name)`` log of leaves/returns that actually happened.
        self.left: List[Tuple[float, str]] = []
        self.returned: List[Tuple[float, str]] = []
        #: Return events not yet fired (guards the runner's stop condition).
        self.pending_returns = sum(1 for _, _, action in self.events if action == "return")
        self._suspended: Set[str] = set()

    def install(self, engine: SimulationEngine, network: Network) -> None:
        """Schedule every churn event on the engine."""
        for time, name, action in self.events:
            if action == "leave":
                engine.schedule_at(time, self._make_leave(engine, network, name),
                                   label=f"churn-leave:{name}")
            elif action == "return":
                engine.schedule_at(time, self._make_return(engine, network, name),
                                   label=f"churn-return:{name}")
            else:
                raise ValueError(f"unknown churn action {action!r}")

    def _make_leave(self, engine: SimulationEngine, network: Network, name: str):
        def _leave() -> None:
            try:
                entity = network.entity(name)
            except KeyError:
                return
            if entity.alive:
                entity.suspend()
                self._suspended.add(name)
                self.left.append((engine.now, name))

        return _leave

    def _make_return(self, engine: SimulationEngine, network: Network, name: str):
        def _return() -> None:
            # Decrement first: even a skipped return (worker crashed for
            # good in the meantime) must release the stop-condition guard.
            self.pending_returns -= 1
            if name not in self._suspended:
                return
            self._suspended.discard(name)
            try:
                entity = network.entity(name)
            except KeyError:
                return
            if entity.alive:
                return
            if self.mode == "restart":
                reset = getattr(entity, "reset_for_rejoin", None)
                if reset is not None:
                    reset()
            entity.revive()
            self.returned.append((engine.now, name))

        return _return

    def __len__(self) -> int:
        return len(self.events)


def random_crash_schedule(
    entity_names: Sequence[str],
    *,
    n_failures: int,
    start: float,
    end: float,
    seed: int = 0,
    spare: Optional[str] = None,
) -> List[CrashEvent]:
    """Crash ``n_failures`` distinct entities at uniform random times.

    ``spare`` names an entity that must never be crashed — used by the
    "all but one" reliability experiments, which require at least one survivor
    to finish the computation.
    """
    if n_failures < 0:
        raise ValueError("n_failures must be non-negative")
    candidates = [n for n in entity_names if n != spare]
    if n_failures > len(candidates):
        raise ValueError("cannot crash more entities than exist (minus the spare)")
    if end < start:
        raise ValueError("end must not precede start")
    rng = random.Random(seed)
    victims = rng.sample(list(candidates), n_failures)
    return [CrashEvent(time=rng.uniform(start, end), entity=name) for name in victims]


def fractional_crash_schedule(
    entity_names: Sequence[str],
    *,
    victims: Sequence[str],
    fraction: float,
    reference_makespan: float,
) -> List[CrashEvent]:
    """Crash the named victims at ``fraction`` of a reference makespan.

    This is how the Figures 5/6 experiment is expressed: the reference
    makespan is the failure-free execution time of the same configuration and
    ``fraction`` is 0.85.
    """
    if not (0.0 <= fraction <= 1.0):
        raise ValueError("fraction must be in [0, 1]")
    if reference_makespan < 0:
        raise ValueError("reference_makespan must be non-negative")
    known = set(entity_names)
    for victim in victims:
        if victim not in known:
            raise ValueError(f"unknown victim entity: {victim!r}")
    crash_time = fraction * reference_makespan
    return [CrashEvent(time=crash_time, entity=victim) for victim in victims]
