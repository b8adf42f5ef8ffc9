"""Run configuration and orchestration of simulated distributed B&B runs.

:class:`DistributedBnBSimulation` builds the whole experiment — engine,
network (latency / loss / partitions), workers, crash schedule and telemetry
— runs it to termination and returns a
:class:`~repro.distributed.stats.RunResult` with the paper's metrics filled
in.  :func:`run_tree_simulation` is the one-call convenience wrapper used by
the examples and most benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..bnb.basic_tree import BasicTree
from ..bnb.problem import BranchAndBoundProblem
from ..bnb.tree_problem import TreeReplayProblem
from ..core.arena import TrieArena
from ..obs import MetricsRegistry, Telemetry, TelemetryConfig, Tracer
from ..obs.ingest import ingest_run_result
from ..simulation.engine import SimulationEngine
from ..simulation.failures import ChurnInjector, CrashEvent, FailureInjector
from ..simulation.network import LatencyModel, Network, Partition, TrafficStats
from ..simulation.rng import RngRegistry
from .config import AlgorithmConfig
from .messages import MessageKinds
from .stats import RunResult, WorkerRunStats
from .worker import WorkerEntity

__all__ = [
    "NetworkConfig",
    "DistributedBnBSimulation",
    "assemble_run_result",
    "run_tree_simulation",
    "sequential_reference_time",
    "worker_names",
]


def worker_names(n: int, prefix: str = "worker") -> List[str]:
    """Canonical worker names (``worker-00``, ``worker-01``, …)."""
    width = max(2, len(str(max(0, n - 1))))
    return [f"{prefix}-{i:0{width}d}" for i in range(n)]


@dataclass(frozen=True, slots=True)
class NetworkConfig:
    """Network-side parameters of a run."""

    latency: LatencyModel = field(default_factory=LatencyModel.paper_default)
    loss_probability: float = 0.0
    partitions: Sequence[Partition] = ()

    @classmethod
    def paper_default(cls) -> "NetworkConfig":
        """The paper's 1.5 ms + 0.005 ms/byte, lossless network."""
        return cls()


def assemble_run_result(
    workers: Sequence[WorkerEntity],
    *,
    n_workers: int,
    end_time: float,
    problem: BranchAndBoundProblem,
    reference_optimum: Optional[float],
    uniprocessor_time: Optional[float],
    network_stats: Optional[TrafficStats],
    kind_bytes: Optional[Dict[str, int]] = None,
    kind_messages: Optional[Dict[str, int]] = None,
    engine_counters: Optional[Dict[str, int]] = None,
) -> RunResult:
    """Aggregate per-worker outcomes into a :class:`RunResult`."""
    worker_stats: Dict[str, WorkerRunStats] = {}
    crashed: List[str] = []
    best_value: Optional[float] = None
    all_terminated = True
    makespan = 0.0
    total_expanded = 0
    total_bb_time = 0.0
    expanded_union: set = set()

    for worker in workers:
        stats = worker.finalize_stats()
        worker_stats[worker.name] = stats
        total_expanded += stats.nodes_expanded
        total_bb_time += stats.time.get("bb", 0.0)
        expanded_union |= worker._expanded_codes
        if stats.crashed:
            crashed.append(worker.name)
            continue
        if not stats.terminated:
            all_terminated = False
        if stats.terminated_at is not None:
            makespan = max(makespan, stats.terminated_at)
        if stats.best_value is not None:
            if best_value is None or problem.is_improvement(stats.best_value, best_value):
                best_value = stats.best_value

    if makespan == 0.0:
        makespan = end_time

    # Every send the network injected, by kind: the counts sum to
    # ``network.messages_sent``, copies to each report target, forwarded
    # requests and sends to dead or partitioned peers included.
    messages_by_kind = dict.fromkeys(MessageKinds.COUNT_KEYS.values(), 0)
    for kind, count in (kind_messages or {}).items():
        key = MessageKinds.COUNT_KEYS.get(kind, kind)
        messages_by_kind[key] = messages_by_kind.get(key, 0) + count
    counters = dict(engine_counters) if engine_counters else {}
    counters["entity_steps"] = sum(worker.stats.entity_steps for worker in workers)

    return RunResult(
        n_workers=n_workers,
        makespan=makespan,
        best_value=best_value,
        reference_optimum=reference_optimum,
        all_terminated=all_terminated,
        crashed_workers=crashed,
        workers=worker_stats,
        total_nodes_expanded=total_expanded,
        # Every expansion beyond the first of its code anywhere in the run,
        # a worker's re-expansion of its own code after a restart included.
        redundant_nodes_expanded=total_expanded - len(expanded_union),
        total_bb_time=total_bb_time,
        uniprocessor_time=uniprocessor_time,
        network=network_stats,
        total_bytes_sent=network_stats.bytes_sent if network_stats is not None else 0,
        messages_by_kind=messages_by_kind,
        bytes_by_kind=dict(kind_bytes) if kind_bytes else {},
        engine_counters=counters,
    )


class DistributedBnBSimulation:
    """Builds and runs one simulated distributed B&B execution."""

    def __init__(
        self,
        problem: BranchAndBoundProblem,
        n_workers: int,
        *,
        config: Optional[AlgorithmConfig] = None,
        network: Optional[NetworkConfig] = None,
        failures: Iterable[CrashEvent] = (),
        seed: int = 0,
        reference_optimum: Optional[float] = None,
        uniprocessor_time: Optional[float] = None,
        expected_node_cost: float = 0.0,
        max_sim_time: Optional[float] = None,
        max_events: Optional[int] = None,
        telemetry: Optional[TelemetryConfig] = None,
        churn_events: Sequence[Tuple[float, str, str]] = (),
        churn_mode: str = "restart",
        worker_speeds: Optional[Mapping[str, float]] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        self.problem = problem
        self.n_workers = n_workers
        self.expected_node_cost = expected_node_cost
        self.config = config if config is not None else AlgorithmConfig.paper_default()
        self.network_config = network if network is not None else NetworkConfig.paper_default()
        self.failures = list(failures)
        self.seed = seed
        self.reference_optimum = reference_optimum
        self.uniprocessor_time = uniprocessor_time
        self.max_sim_time = max_sim_time
        self.max_events = max_events

        # Built lazily by :meth:`build`.
        self.engine: Optional[SimulationEngine] = None
        self.net: Optional[Network] = None
        self.workers: List[WorkerEntity] = []
        #: The run's one trie arena, shared by every worker's tracker and
        #: collected between events (:meth:`_after_event`).
        self.arena: Optional[TrieArena] = None
        #: Persistent scan position for :meth:`_stop_condition` (see there).
        self._stop_scan = 0
        self.injector = FailureInjector(self.failures)
        self.worker_speeds: Dict[str, float] = dict(worker_speeds or {})
        #: Non-permanent leave/return schedule (churn).
        self.churn_injector: Optional[ChurnInjector] = (
            ChurnInjector(churn_events, mode=churn_mode) if churn_events else None
        )

        # Run-wide telemetry (repro.obs).  The tracer is also the workers'
        # timeline: each records its states as ``worker`` spans.
        self.telemetry_config = telemetry
        self.tracer: Optional[Tracer] = (
            Tracer(process="engine") if telemetry is not None and telemetry.trace else None
        )
        # When metrics are requested the registry exists *before* the run so
        # workers can observe histograms (gossip delta sizes, eviction
        # latencies) into it live; ingestion at the end reuses it.
        self.obs_registry: Optional[MetricsRegistry] = (
            MetricsRegistry() if telemetry is not None and telemetry.metrics else None
        )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def build(self) -> "DistributedBnBSimulation":
        """Instantiate the engine, network, workers and failure schedule."""
        rng = RngRegistry(self.seed)
        self.engine = SimulationEngine()
        self.net = Network(
            self.engine,
            latency=self.network_config.latency,
            loss_probability=self.network_config.loss_probability,
            partitions=self.network_config.partitions,
            rng=rng.stream("network"),
        )
        # Per-kind traffic accounting (the network is protocol-agnostic, so
        # the classifier is installed here, where the protocol is known).
        self.net.classify = MessageKinds.of
        self.net.tracer = self.tracer

        names = worker_names(self.n_workers)
        root_sub = self.problem.root_subproblem()
        # One process-wide arena: every worker's completed table and all of
        # its per-peer gossip views intern their trie nodes here, so shared
        # completion state is stored once instead of once per view.
        arena = TrieArena()
        self.arena = arena
        self.workers = []
        self._stop_scan = 0
        for index, name in enumerate(names):
            worker = WorkerEntity(
                name,
                self.problem,
                self.config,
                names,
                rng=rng.stream(f"worker:{name}"),
                initial_work=[root_sub] if index == 0 else [],
                expected_node_cost=self.expected_node_cost,
                arena=arena,
                tracer=self.tracer,
                speed=self.worker_speeds.get(name, 1.0),
                obs_metrics=self.obs_registry,
            )
            self.net.register(worker)
            self.workers.append(worker)

        self.injector.install(self.engine, self.net)
        if self.churn_injector is not None:
            self.churn_injector.install(self.engine, self.net)
        return self

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _after_event(self) -> bool:
        """Apply the arena's collection rule, then test whether the run is
        over.

        Runs between events, never inside an arena call, so no raw node id
        outside a registered holder is alive when the arena renumbers.
        """
        self.arena.collect_if_outgrown()
        return self._stop_condition()

    def _stop_condition(self) -> bool:
        # Evaluated after every event, so the naive all()-scan would cost
        # O(workers) per event.  "Dead or terminated" is monotone — a worker
        # that passed the test once passes it forever — so scanning resumes
        # where the last call found its counterexample: O(1) amortised.
        # (A churn return breaks monotonicity, so nothing is scanned while a
        # return is still pending: the scan starts after the last one.)
        if self.churn_injector is not None and self.churn_injector.pending_returns > 0:
            return False
        workers = self.workers
        i = self._stop_scan
        n = len(workers)
        while i < n:
            worker = workers[i]
            if worker.alive and not worker.terminated:
                self._stop_scan = i
                return False
            i += 1
        return True

    def run(self) -> RunResult:
        """Run the simulation to completion and assemble the result."""
        if self.engine is None:
            self.build()
        assert self.engine is not None and self.net is not None

        try:
            for worker in self.workers:
                worker.on_start()

            self.engine.run(
                until=self.max_sim_time,
                max_events=self.max_events,
                stop_when=self._after_event,
            )
            end_time = self.engine.now
            if self.tracer is not None:
                for worker in self.workers:
                    worker.close_state(end_time)

            result = self._collect_results(end_time)
            result.telemetry = self._build_telemetry(end_time, result)
            return result
        finally:
            # A finished run frees itself: with no pending event and no
            # registered entity left, nothing of the run is cyclic.
            self.engine.close()
            self.net.close()

    # ------------------------------------------------------------------ #
    # Result assembly
    # ------------------------------------------------------------------ #
    def _collect_results(self, end_time: float) -> RunResult:
        assert self.net is not None and self.engine is not None
        return assemble_run_result(
            self.workers,
            n_workers=self.n_workers,
            end_time=end_time,
            problem=self.problem,
            reference_optimum=self.reference_optimum,
            uniprocessor_time=self.uniprocessor_time,
            network_stats=self.net.stats,
            kind_bytes=self.net.kind_bytes,
            kind_messages=self.net.kind_messages,
            engine_counters={
                "events_processed": self.engine.events_processed,
                "peak_heap_len": self.engine.peak_heap_len,
                "arena_nodes_peak": max(self.arena.nodes_peak, len(self.arena)),
                "arena_collections": self.arena.collections,
            },
        )

    def _build_telemetry(
        self, end_time: float, result: RunResult
    ) -> Optional[Telemetry]:
        """Assemble the run's :class:`~repro.obs.Telemetry`, if configured."""
        cfg = self.telemetry_config
        if cfg is None or not cfg.enabled:
            return None
        tracer = self.tracer
        if tracer is not None:
            tracer.span(
                "run",
                0.0,
                end_time,
                process="engine",
                category="engine",
                args={"workers": self.n_workers},
            )
            for name, stats in result.workers.items():
                if stats.crashed and stats.crashed_at is not None:
                    tracer.event(
                        "crash", ts=stats.crashed_at, process=name, category="engine"
                    )
        metrics: Optional[MetricsRegistry] = None
        if cfg.metrics:
            metrics = ingest_run_result(
                self.obs_registry if self.obs_registry is not None else MetricsRegistry(),
                result,
            )
        return Telemetry(
            tracer=tracer,
            metrics=metrics,
            meta={"backend": "simulated", "clock": "sim-seconds"},
        )


def sequential_reference_time(
    tree: BasicTree, *, granularity: float = 1.0, prune: bool = True
) -> float:
    """Uniprocessor execution time of a tree: the cost of a sequential run.

    This is the reference the speedup curve of Figure 4 is measured against —
    the time a single processor would need on the same workload.  With
    ``prune=False`` (the paper's treatment of random test trees) this is just
    the sum of all node times; with pruning it is measured by an actual
    sequential run.
    """
    from ..bnb.pool import SelectionRule
    from ..bnb.sequential import SequentialSolver

    if not prune:
        return tree.total_node_time() * granularity
    problem = TreeReplayProblem(tree, granularity=granularity, prune=True)
    result = SequentialSolver(problem).solve()
    return result.total_cost


def run_tree_simulation(
    tree: BasicTree,
    n_workers: int,
    *,
    config: Optional[AlgorithmConfig] = None,
    network: Optional[NetworkConfig] = None,
    failures: Iterable[CrashEvent] = (),
    seed: int = 0,
    granularity: float = 1.0,
    prune: bool = True,
    max_sim_time: Optional[float] = None,
    max_events: Optional[int] = None,
    uniprocessor_time: Optional[float] = None,
    compute_uniprocessor_time: bool = True,
    telemetry: Optional[TelemetryConfig] = None,
    churn_events: Sequence[Tuple[float, str, str]] = (),
    churn_mode: str = "restart",
    worker_speeds: Optional[Mapping[str, float]] = None,
) -> RunResult:
    """Run the distributed algorithm on a basic tree and return the result.

    This is the entry point the paper's experiments map onto: a precomputed
    (or random) basic tree, a processor count, a network model, an optional
    crash schedule, and the algorithm configuration.  ``uniprocessor_time``
    may be passed explicitly (parameter sweeps compute it once and reuse it);
    otherwise it is measured with a sequential pruned run unless
    ``compute_uniprocessor_time`` is disabled.

    As an *experiment-facing* entry point this is superseded by the unified
    Scenario API (``repro.scenario``, backend ``"simulated"``), which wraps
    it; it remains the supported programmatic runner underneath.
    """
    if uniprocessor_time is None and compute_uniprocessor_time:
        uniprocessor_time = sequential_reference_time(tree, granularity=granularity, prune=prune)
    problem = TreeReplayProblem(tree, granularity=granularity, prune=prune)
    expected_node_cost = tree.mean_node_time() * granularity
    sim = DistributedBnBSimulation(
        problem,
        n_workers,
        config=config,
        network=network,
        failures=failures,
        seed=seed,
        reference_optimum=tree.optimal_value(),
        uniprocessor_time=uniprocessor_time,
        expected_node_cost=expected_node_cost,
        max_sim_time=max_sim_time,
        max_events=max_events,
        telemetry=telemetry,
        churn_events=churn_events,
        churn_mode=churn_mode,
        worker_speeds=worker_speeds,
    )
    return sim.run()
