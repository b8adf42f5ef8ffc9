"""The one harness both baselines run on.

:func:`run_baseline` owns everything the two designs share: the RNG
registry, the engine, the :class:`~repro.simulation.network.Network` with
its link settings, the :class:`~repro.simulation.failures.FailureInjector`,
the stop condition and the assembly of the one :class:`BaselineRunResult`.
A baseline module supplies only its messages (each class carries its
``kind`` label), its entities (subclasses of :class:`BaselineEntity`) and a
*cast* function that builds them.  The run's one
:class:`~repro.core.arena.TrieArena` (for the tables of completed codes an
entity keeps) is the harness's too, collected between events by its rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..bnb.problem import BranchAndBoundProblem
from ..core.arena import TrieArena
from ..core.encoding import PathCode
from ..distributed.runner import NetworkConfig
from ..simulation.engine import SimulationEngine
from ..simulation.entity import Entity, QueuedMessage
from ..simulation.failures import CrashEvent, FailureInjector
from ..simulation.network import Network
from ..simulation.rng import RngRegistry

__all__ = ["BaselineEntity", "BaselineRunResult", "Cast", "better_incumbent", "run_baseline"]


def better_incumbent(
    problem: BranchAndBoundProblem, incumbent: Optional[float], candidate: Optional[float]
) -> Optional[float]:
    """The better of two incumbent values; ``None`` means no value yet."""
    if candidate is not None and problem.is_improvement(candidate, incumbent):
        return candidate
    return incumbent


class BaselineEntity(Entity):
    """What every baseline entity keeps: incumbent, termination and counters."""

    def __init__(self, name: str, problem: BranchAndBoundProblem) -> None:
        super().__init__(name)
        self.problem = problem
        self.incumbent: Optional[float] = None
        self.terminated = False
        self.terminated_at: Optional[float] = None
        self.nodes_expanded = 0
        #: Codes this entity expanded (for the run's redundant-work count).
        self.expanded_codes: Set[PathCode] = set()
        #: Recovery actions taken: subproblems the central manager re-queued
        #: after their worker went silent, or problems a DIB machine redid.
        self.recoveries = 0

    def on_message_queued(self, message: QueuedMessage) -> None:
        self.process_pending_messages()

    def requeue(self, code: PathCode) -> bool:
        """Pool the subproblem ``code`` (entities that keep a ``pool``);
        ``False`` when it cannot be rebuilt, so it has no work left."""
        sub = self.problem.rebuild_subproblem(code)
        if sub is not None:
            self.pool.push(sub, bound=self.problem.bound(sub.state))
        return sub is not None

    def record_expansion(self, code: PathCode) -> None:
        """Count one expansion of the subproblem ``code``."""
        self.nodes_expanded += 1
        self.expanded_codes.add(code)

    def adopt(self, value: Optional[float]) -> None:
        """Take ``value`` as the incumbent when it improves on the current one."""
        self.incumbent = better_incumbent(self.problem, self.incumbent, value)


#: A baseline's workers, in name order, and its coordinator: the central
#: manager, or ``None`` when the first worker is the critical node.
Cast = Tuple[List[BaselineEntity], Optional[BaselineEntity]]


@dataclass
class BaselineRunResult:
    """Result of one run of either baseline."""

    n_workers: int
    makespan: float
    best_value: Optional[float]
    terminated: bool
    #: The critical node crashed: the central manager, or the DIB root
    #: machine that alone can decide termination.
    critical_crashed: bool
    #: Crashed entities: workers in name order, then the central manager.
    crashed_workers: List[str]
    nodes_expanded: int
    #: Expansions beyond the first of each code anywhere in the run.
    redundant_nodes_expanded: int
    total_bytes_sent: int
    #: Messages injected into the network.
    messages_sent: int
    #: Bytes injected per protocol message kind (each message's ``kind``).
    bytes_by_kind: Dict[str, int]
    #: Nodes expanded per worker.
    nodes_by_worker: Dict[str, int]
    #: Recovery actions per entity (:attr:`BaselineEntity.recoveries`).
    recoveries: Dict[str, int]
    #: Workers that learned of termination before the run ended.
    terminated_workers: List[str]


def run_baseline(
    problem: BranchAndBoundProblem,
    n_workers: int,
    worker_names: Callable[[int], List[str]],
    cast: Callable[[List[str], RngRegistry, TrieArena], Cast],
    *,
    failures: Sequence[CrashEvent] = (),
    seed: int = 0,
    network: Optional[NetworkConfig] = None,
    max_sim_time: float = 10_000.0,
) -> BaselineRunResult:
    """Run one baseline design and return its result.

    ``cast`` builds the design's entities for the given worker names, with
    the run's arena.  The coordinator (if any) registers and starts first,
    then the workers.
    ``network`` takes a full :class:`~repro.distributed.runner.NetworkConfig`
    (latency, loss *and* partitions); ``None`` is the paper's lossless
    network.  The Scenario API (``repro.scenario``, backends ``"central"``
    and ``"dib"``) supersedes the baselines' entry points for experiments.

    The run has terminated once every living *judge* has — the coordinator,
    or every worker of a design without one — and it stops right then.  A
    run with no living judge cannot terminate.  It stops as soon as no
    *worker* is alive, since no node can be expanded after that (a lone
    coordinator expands nothing); while any worker lives it goes on to
    ``max_sim_time`` (or until nothing is left to happen).
    """
    if n_workers < 1:
        raise ValueError("n_workers must be at least 1")
    rng = RngRegistry(seed)
    engine = SimulationEngine()
    link = network if network is not None else NetworkConfig.paper_default()
    net = Network(
        engine,
        latency=link.latency,
        loss_probability=link.loss_probability,
        partitions=link.partitions,
        rng=rng.stream("network"),
    )
    net.classify = attrgetter("kind")
    arena = TrieArena()

    try:
        workers, coordinator = cast(worker_names(n_workers), rng, arena)
        entities = ([coordinator] if coordinator is not None else []) + workers
        for entity in entities:
            net.register(entity)
        FailureInjector(failures).install(engine, net)
        for entity in entities:
            entity.on_start()

        judges = [coordinator] if coordinator is not None else workers

        def _terminated() -> bool:
            living = [judge for judge in judges if judge.alive]
            return bool(living) and all(judge.terminated for judge in living)

        def _finished() -> bool:
            # Between events: the arena's collection rule may run.
            arena.collect_if_outgrown()
            # No node can be expanded once no worker is alive.
            return _terminated() or not any(worker.alive for worker in workers)

        engine.run(until=max_sim_time, stop_when=_finished)

        # The coordinator's incumbent counts even after it crashed; a worker's
        # only while it is alive.
        best = coordinator.incumbent if coordinator is not None else None
        for worker in workers:
            if worker.alive:
                best = better_incumbent(problem, best, worker.incumbent)
        makespan = max(
            (j.terminated_at for j in judges if j.alive and j.terminated_at is not None),
            default=engine.now,
        )
        nodes_expanded = sum(w.nodes_expanded for w in workers)
        distinct_codes = set().union(*(w.expanded_codes for w in workers))
        crashed = [w.name for w in workers if not w.alive]
        if coordinator is not None and not coordinator.alive:
            crashed.append(coordinator.name)
        return BaselineRunResult(
            n_workers=n_workers,
            makespan=makespan,
            best_value=best,
            terminated=_terminated(),
            critical_crashed=not entities[0].alive,  # the coordinator, else worker 0
            crashed_workers=crashed,
            nodes_expanded=nodes_expanded,
            redundant_nodes_expanded=nodes_expanded - len(distinct_codes),
            total_bytes_sent=net.stats.bytes_sent,
            messages_sent=net.stats.messages_sent,
            bytes_by_kind=dict(net.kind_bytes),
            nodes_by_worker={w.name: w.nodes_expanded for w in workers},
            recoveries={e.name: e.recoveries for e in entities},
            terminated_workers=[w.name for w in workers if w.alive and w.terminated],
        )
    finally:
        # A finished run frees itself: with no pending event and no
        # registered entity left, nothing of the run is cyclic.
        engine.close()
        net.close()
