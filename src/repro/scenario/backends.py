"""The :class:`Backend` protocol and the four registered implementations.

A backend turns one :class:`~repro.scenario.spec.Scenario` into one
:class:`~repro.scenario.result.ScenarioResult`:

* ``simulated`` — the paper's mechanism on the discrete-event engine
  (:class:`~repro.distributed.runner.DistributedBnBSimulation`);
* ``central``   — the centralised manager/worker baseline
  (:func:`~repro.baselines.central.run_central_simulation`);
* ``dib``       — the DIB-style responsibility-tracking baseline
  (:func:`~repro.baselines.dib.run_dib_simulation`); both baselines run on
  one harness and share one :class:`BaselineBackend`;
* ``realexec``  — real OS processes exchanging wire frames over TCP
  (:class:`~repro.realexec.driver.LocalCluster`).

Backends translate the scenario's canonical worker names (``worker-NN``)
into their own naming, resolve fractional failure times by running
themselves on the failure-free variant first, and normalise their native
results into the one shared shape.  New backends register through :func:`register_backend`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple, runtime_checkable

from ..baselines import (
    BaselineRunResult,
    central_worker_names,
    dib_worker_names,
    run_central_simulation,
    run_dib_simulation,
)
from ..bnb.tree_problem import TreeReplayProblem
from ..distributed.runner import NetworkConfig, run_tree_simulation
from ..obs import MetricsRegistry, Telemetry, get_logger
from ..obs.ingest import ingest_scenario_totals
from ..simulation.failures import CrashEvent
from ..simulation.network import Partition
from .result import ScenarioResult, WorkerSummary
from .spec import ChurnSchedule, Scenario, translate_canonical

logger = get_logger("scenario.runner")

__all__ = [
    "Backend",
    "register_backend",
    "get_backend",
    "backend_names",
    "run_scenario",
    "compare_backends",
    "SimulatedBackend",
    "BaselineBackend",
    "RealexecBackend",
]


@runtime_checkable
class Backend(Protocol):
    """Anything that can execute a scenario and return the normalised result."""

    name: str

    def run(self, scenario: Scenario) -> ScenarioResult:  # pragma: no cover - protocol
        ...


_BACKENDS: Dict[str, Backend] = {}


def register_backend(backend: Backend) -> Backend:
    """Register a backend under its ``name`` (replacing any previous one)."""
    _BACKENDS[backend.name] = backend
    return backend


def get_backend(name: str) -> Backend:
    """Look up a registered backend by name."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r} (registered: {', '.join(sorted(_BACKENDS))})"
        ) from None


def backend_names() -> List[str]:
    """Names of every registered backend."""
    return sorted(_BACKENDS)


def run_scenario(scenario: Scenario, backend: str = "simulated") -> ScenarioResult:
    """Run one scenario on one backend — the library's single entry point."""
    logger.info(
        "running scenario %r on backend %r (%d workers)",
        scenario.name,
        backend,
        scenario.n_workers,
    )
    result = get_backend(backend).run(scenario)
    logger.info(
        "scenario %r finished: makespan=%.3f terminated=%s",
        scenario.name,
        result.makespan,
        result.terminated,
    )
    return result


def compare_backends(
    scenario: Scenario, backends: Sequence[str] = ("simulated", "central", "dib")
) -> Dict[str, ScenarioResult]:
    """Run the same scenario on several backends; results keyed by backend."""
    return {name: run_scenario(scenario, name) for name in backends}


# --------------------------------------------------------------------------- #
# Shared translation helpers
# --------------------------------------------------------------------------- #
def _translate_network(network: NetworkConfig, names: Sequence[str]) -> NetworkConfig:
    """Rewrite partition groups from canonical names to backend names.

    Uses the same strict :func:`~repro.scenario.spec.translate_canonical`
    mapping as failure victims, so a partition naming a worker that does not
    exist at this worker count raises instead of silently becoming a no-op
    partition (every backend translates, including ``simulated``, where the
    mapping is the identity but the validation still applies).
    """
    if not network.partitions:
        return network
    translated = tuple(
        Partition(
            start=p.start,
            end=p.end,
            group_a=frozenset(translate_canonical(n, names) for n in p.group_a),
            group_b=frozenset(translate_canonical(n, names) for n in p.group_b),
        )
        for p in network.partitions
    )
    return replace(network, partitions=translated)


def _resolve_failures(
    scenario: Scenario, names: Sequence[str], backend_name: str, *, critical: str
) -> Tuple[List[CrashEvent], Optional[float]]:
    """Turn the backend-agnostic failure specs into scheduled crash events.

    Also returns the backend's failure-free reference makespan when the
    scenario needs one (fractional failure times, churn without a horizon).
    """
    reference = None
    if scenario.needs_reference_run():
        reference = _reference_makespan(backend_name, _reference_key(scenario))
    events: List[CrashEvent] = []
    for spec in scenario.failures:
        if spec.at_time is not None:
            when = spec.at_time
        else:
            assert spec.at_fraction is not None and reference is not None
            when = spec.at_fraction * reference
        for victim in spec.resolve_victims(names, critical=critical):
            events.append(CrashEvent(when, victim))
    return events, reference


def _baseline_time_cap(scenario: Scenario, reference: Optional[float]) -> float:
    """Simulated-time cap for the baseline runs (they may never terminate)."""
    if scenario.max_sim_time is not None:
        return scenario.max_sim_time
    if reference is not None:
        return max(60.0, 30.0 * reference)
    return 10_000.0


def _reference_key(scenario: Scenario) -> Scenario:
    """The failure-free variant fractional failure times are measured against.

    Presentation-only fields are normalised away so scenarios differing only
    by name (or by their failure schedule) share one reference run.
    """
    return scenario.with_overrides(
        name="__reference__",
        description="",
        failures=(),
        churn=None,
        telemetry=None,
        compute_uniprocessor_time=False,
        uniprocessor_time=None,
    )


def _resolve_churn(
    scenario: Scenario, names: Sequence[str], reference: Optional[float]
) -> Optional["ChurnSchedule"]:
    """Materialise the scenario's churn spec against one backend's names.

    A distribution-driven spec without an explicit horizon gets one from the
    backend's failure-free ``reference`` makespan (×1.5, so the churn
    process outlives the undisturbed run — mirroring how fractional failure
    times resolve).
    """
    if scenario.churn is None:
        return None
    horizon = scenario.churn.horizon
    if scenario.churn.needs_horizon():
        assert reference is not None
        horizon = 1.5 * reference
    return scenario.churn.resolve(names, default_seed=scenario.seed, horizon=horizon)


def _baseline_telemetry(
    scenario: Scenario, result: ScenarioResult, backend: str
) -> Optional[Telemetry]:
    """Metrics-only telemetry for the baseline backends.

    The ``central`` and ``dib`` runners have no per-layer instrumentation, so
    their telemetry is the normalised cross-backend totals folded into a
    registry; structured tracing is not supported there (documented in
    ``docs/OBSERVABILITY.md``).
    """
    cfg = scenario.telemetry
    if cfg is None or not cfg.metrics:
        return None
    return Telemetry(
        metrics=ingest_scenario_totals(MetricsRegistry(), result),
        meta={"backend": backend, "scenario": scenario.name},
    )


@lru_cache(maxsize=16)
def _reference_makespan(backend_name: str, key: Scenario) -> float:
    """Failure-free makespan of ``key`` on one backend, memoised.

    The reference run is the backend's own :meth:`Backend.run` on the
    failure-free key, so the protocol is the whole contract it relies on.
    Scenarios are frozen and the runs deterministic, so equal keys always
    produce the same makespan; the cache spares sweeps (e.g. the
    fault-tolerance comparison, whose cases differ only by failure
    schedule) one redundant reference simulation per case.
    """
    return get_backend(backend_name).run(key).makespan


# --------------------------------------------------------------------------- #
# simulated — the paper's mechanism on the discrete-event engine
# --------------------------------------------------------------------------- #
class SimulatedBackend:
    """The fully decentralised, fault-tolerant algorithm (the paper's)."""

    name = "simulated"

    def run(self, scenario: Scenario) -> ScenarioResult:
        tree = scenario.build_tree()
        names = scenario.canonical_worker_names()
        # Identity mapping on this backend, but the translation still
        # validates partition members against the worker count.
        network = _translate_network(scenario.network, names)
        events, reference = _resolve_failures(scenario, names, self.name, critical=names[0])
        churn = _resolve_churn(scenario, names, reference)
        config = scenario.config
        churn_events: List[Tuple[float, str, str]] = []
        churn_mode = "restart"
        worker_speeds: Dict[str, float] = {}
        if churn is not None:
            # Churn makes fault handling emergent: peer eviction must come
            # from the live failure detector, and a terminated group must be
            # able to answer a late rejoiner — flip both on for this run.
            config = config.with_overrides(failure_detector=True, termination_echo=True)
            churn_events = churn.events()
            churn_mode = churn.mode
            worker_speeds = dict(churn.speeds)
        result = run_tree_simulation(
            tree,
            scenario.n_workers,
            config=config,
            network=network,
            failures=events,
            churn_events=churn_events,
            churn_mode=churn_mode,
            worker_speeds=worker_speeds,
            seed=scenario.seed,
            granularity=scenario.granularity,
            prune=scenario.prune,
            max_sim_time=scenario.max_sim_time,
            max_events=scenario.max_events,
            uniprocessor_time=scenario.uniprocessor_time,
            compute_uniprocessor_time=(
                scenario.compute_uniprocessor_time and scenario.uniprocessor_time is None
            ),
            telemetry=scenario.telemetry,
        )
        if result.telemetry is not None:
            result.telemetry.meta.setdefault("scenario", scenario.name)

        workers = {
            name: WorkerSummary(
                name=name,
                nodes_expanded=stats.nodes_expanded,
                reports_sent=stats.reports_sent,
                recoveries=stats.recovery_activations,
                best_value=stats.best_value,
                crashed=stats.crashed,
                terminated=stats.terminated,
            )
            for name, stats in result.workers.items()
        }
        return ScenarioResult(
            scenario=scenario.name,
            backend=self.name,
            n_workers=scenario.n_workers,
            makespan=result.makespan,
            best_value=result.best_value,
            reference_optimum=result.reference_optimum,
            terminated=result.all_terminated,
            crashed_workers=tuple(result.crashed_workers),
            total_nodes_expanded=result.total_nodes_expanded,
            redundant_nodes_expanded=result.redundant_nodes_expanded,
            recoveries=sum(w.recoveries for w in workers.values()),
            evictions=sum(s.peers_evicted for s in result.workers.values()),
            rejoins=sum(s.rejoins for s in result.workers.values()),
            unavailable_time=sum(s.unavailable_time for s in result.workers.values()),
            news_pulls_sent=sum(s.news_pulls_sent for s in result.workers.values()),
            news_answers_sent=sum(s.news_answers_sent for s in result.workers.values()),
            messages_total=result.network.messages_sent if result.network else 0,
            bytes_total=result.total_bytes_sent,
            bytes_by_kind=dict(result.bytes_by_kind),
            uniprocessor_time=result.uniprocessor_time,
            workers=workers,
            engine_counters=dict(result.engine_counters),
            raw=result,
            telemetry=result.telemetry,
        )


# --------------------------------------------------------------------------- #
# central and dib — the two baselines on their shared harness
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class BaselineBackend:
    """A comparison baseline run by :func:`~repro.baselines.harness.run_baseline`.

    Parameterised by the baseline's runner, its worker-name function and its
    critical node (the target of ``CRITICAL`` failure victims).
    """

    name: str
    runner: Callable[..., BaselineRunResult]
    worker_names: Callable[[int], List[str]]
    critical: str

    def run(self, scenario: Scenario) -> ScenarioResult:
        tree = scenario.build_tree()
        names = self.worker_names(scenario.n_workers)
        network = _translate_network(scenario.network, names)
        events, reference = _resolve_failures(scenario, names, self.name, critical=self.critical)
        churn = _resolve_churn(scenario, names, reference)
        if churn is not None:
            # Neither baseline has a rejoin path: a churned worker's first
            # leave becomes a permanent crash (later windows are moot).
            for victim, when in sorted(churn.first_leaves().items()):
                events.append(CrashEvent(when, victim))
        result = self.runner(
            TreeReplayProblem(tree, granularity=scenario.granularity, prune=scenario.prune),
            scenario.n_workers,
            failures=events,
            seed=scenario.seed,
            network=network,
            max_sim_time=_baseline_time_cap(scenario, reference),
        )

        workers = {
            name: WorkerSummary(
                name=name,
                nodes_expanded=result.nodes_by_worker[name],
                recoveries=result.recoveries[name],
                best_value=result.best_value,
                crashed=name in result.crashed_workers,
                terminated=name in result.terminated_workers,
            )
            for name in names
        }
        scenario_result = ScenarioResult(
            scenario=scenario.name,
            backend=self.name,
            n_workers=scenario.n_workers,
            makespan=result.makespan,
            best_value=result.best_value,
            reference_optimum=tree.optimal_value(),
            terminated=result.terminated,
            crashed_workers=tuple(result.crashed_workers),
            total_nodes_expanded=result.nodes_expanded,
            redundant_nodes_expanded=result.redundant_nodes_expanded,
            recoveries=sum(result.recoveries.values()),
            messages_total=result.messages_sent,
            bytes_total=result.total_bytes_sent,
            bytes_by_kind=dict(result.bytes_by_kind),
            workers=workers,
            raw=result,
        )
        scenario_result.telemetry = _baseline_telemetry(
            scenario, scenario_result, self.name
        )
        return scenario_result


# --------------------------------------------------------------------------- #
# realexec — real OS processes over TCP
# --------------------------------------------------------------------------- #
class RealexecBackend:
    """The same core objects on real ``multiprocessing`` workers.

    Honours ``node_sleep`` and ``max_seconds``.  Failure times are wall-clock
    (:meth:`~repro.scenario.spec.FailureSpec.wall_clock_delay`).
    """

    name = "realexec"

    def run(self, scenario: Scenario) -> ScenarioResult:
        from ..realexec.driver import LocalCluster

        tree = scenario.build_tree()
        cluster = LocalCluster(
            tree,
            scenario.n_workers,
            seed=scenario.seed,
            node_sleep=scenario.node_sleep,
            max_seconds=scenario.max_seconds,
            prune=scenario.prune,
            config=scenario.config,
            telemetry=scenario.telemetry,
        )
        kill_schedule = [
            (
                spec.wall_clock_delay(),
                spec.resolve_victims(cluster.names, critical=cluster.names[0]),
            )
            for spec in scenario.failures
        ]
        churn = None
        if scenario.churn is not None:
            # Churn times are wall-clock seconds here.  A distribution-driven
            # spec without an explicit horizon uses the run's wall-clock cap
            # (there is no cheap failure-free reference run to measure).
            # Per-worker speed multipliers are simulation-only and ignored.
            horizon = scenario.churn.horizon
            if scenario.churn.needs_horizon():
                horizon = scenario.max_seconds
            churn = scenario.churn.resolve(
                cluster.names, default_seed=scenario.seed, horizon=horizon
            )
        result = cluster.run(
            kill_schedule=kill_schedule,
            churn_schedule=churn.events() if churn is not None else (),
            churn_mode=churn.mode if churn is not None else "restart",
        )

        departed = set(result.killed) | set(result.churned_out)
        workers = {
            name: WorkerSummary(
                name=name,
                nodes_expanded=outcome.nodes_expanded,
                reports_sent=outcome.reports_sent,
                recoveries=outcome.recoveries,
                best_value=outcome.best_value,
                crashed=name in departed,
                terminated=outcome.terminated,
            )
            for name, outcome in result.outcomes.items()
        }
        for name in departed:
            workers.setdefault(name, WorkerSummary(name=name, crashed=True))
        survivors = [w for w in workers.values() if not w.crashed]
        total_nodes_expanded = sum(w.nodes_expanded for w in workers.values())
        uniprocessor_time = scenario.uniprocessor_time
        if uniprocessor_time is None and scenario.node_sleep > 0:
            # Each expansion sleeps node_sleep, so that is one process's
            # time for the whole tree (protocol overhead aside).
            uniprocessor_time = len(tree) * scenario.node_sleep
        scenario_result = ScenarioResult(
            scenario=scenario.name,
            backend=self.name,
            n_workers=scenario.n_workers,
            makespan=result.wall_time,
            best_value=result.best_value,
            reference_optimum=result.reference_optimum,
            terminated=result.surviving_terminated,
            crashed_workers=tuple(result.killed) + tuple(result.churned_out),
            total_nodes_expanded=total_nodes_expanded,
            # Every expansion beyond one per tree node was done twice
            # somewhere (pruning can push the total below the tree size).
            redundant_nodes_expanded=max(0, total_nodes_expanded - len(tree)),
            uniprocessor_time=uniprocessor_time,
            recoveries=sum(w.recoveries for w in survivors),
            rejoins=len(result.rejoined),
            unavailable_time=result.unavailable_time,
            messages_total=result.messages_forwarded,
            bytes_total=result.bytes_forwarded,
            bytes_by_kind=dict(result.bytes_by_kind),
            workers=workers,
            raw=result,
        )
        if result.telemetry is not None:
            result.telemetry.meta.setdefault("scenario", scenario.name)
            scenario_result.telemetry = result.telemetry
            metrics = result.telemetry.metrics
            if metrics is not None:
                scenario_result.news_pulls_sent = int(metrics.total("worker_news_pulls_sent"))
                scenario_result.news_answers_sent = int(
                    metrics.total("worker_news_answers_sent")
                )
        return scenario_result


register_backend(SimulatedBackend())
register_backend(
    BaselineBackend("central", run_central_simulation, central_worker_names, critical="manager")
)
register_backend(
    BaselineBackend("dib", run_dib_simulation, dib_worker_names, critical="dworker-00")
)
register_backend(RealexecBackend())
