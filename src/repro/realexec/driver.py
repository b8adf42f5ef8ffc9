"""Driver for small real (multiprocessing) runs of the algorithm.

:class:`LocalCluster` spawns one OS process per worker, wires them through a
:class:`~repro.realexec.transport.TcpRouter`, optionally kills a subset of
them mid-run (real fault injection), collects each survivor's
:class:`~repro.realexec.node.WorkerOutcome` and checks that the surviving
workers agree on the optimum.  It is intentionally small-scale — the paper's
performance evaluation belongs to the simulator — but it closes the loop on
"the same algorithm objects run outside the simulator".
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..bnb.basic_tree import BasicTree
from ..distributed.config import AlgorithmConfig
from ..obs import MetricsRegistry, Telemetry, TelemetryConfig, Tracer, get_logger
from ..obs.ingest import ingest_router
from ..wire import WireFormatError
from .node import RealWorkerConfig, WorkerOutcome, WorkerTelemetry, worker_main
from .transport import TcpRouter, recv_envelope, resolve_connection

logger = get_logger("realexec.driver")

__all__ = ["LocalClusterResult", "LocalCluster"]


@dataclass
class LocalClusterResult:
    """Result of one real multiprocessing run."""

    n_workers: int
    outcomes: Dict[str, WorkerOutcome] = field(default_factory=dict)
    killed: List[str] = field(default_factory=list)
    #: Workers that left through churn and returned (rejoined) during the run.
    rejoined: List[str] = field(default_factory=list)
    #: Workers that left through churn and never returned.
    churned_out: List[str] = field(default_factory=list)
    #: Expected survivors (neither killed nor churned out) whose
    #: :class:`WorkerOutcome` never reached the driver.  Non-empty means the
    #: run cannot claim termination, whatever the reporting workers said.
    missing_outcomes: List[str] = field(default_factory=list)
    #: Total worker-seconds spent unavailable to churn (wall clock).
    unavailable_time: float = 0.0
    wall_time: float = 0.0
    reference_optimum: Optional[float] = None
    #: Router traffic counters (real encoded bytes, not the analytic model).
    messages_forwarded: int = 0
    messages_dropped: int = 0
    bytes_forwarded: int = 0
    #: Forwarded bytes per payload kind (frame-tag classification).
    bytes_by_kind: Dict[str, int] = field(default_factory=dict)
    #: Merged :class:`repro.obs.Telemetry` (driver + workers + router) when
    #: the cluster ran with telemetry enabled; ``None`` otherwise.
    telemetry: Optional[Telemetry] = None

    def _departed(self) -> set:
        """Workers excluded from the surviving set (killed or churned out).

        A worker that was churn-killed and rejoined is *not* departed — its
        post-rejoin outcome counts like any survivor's.
        """
        return set(self.killed) | set(self.churned_out)

    @property
    def surviving_terminated(self) -> bool:
        """True when every surviving worker reported in and detected
        termination — never a verdict over "whoever reported"."""
        if self.missing_outcomes:
            return False
        departed = self._departed()
        survivors = [o for name, o in self.outcomes.items() if name not in departed]
        return bool(survivors) and all(o.terminated for o in survivors)

    @property
    def best_value(self) -> Optional[float]:
        """Best value reported by any surviving worker."""
        departed = self._departed()
        values = [
            o.best_value
            for name, o in self.outcomes.items()
            if name not in departed and o.best_value is not None
        ]
        if not values:
            return None
        return min(values) if self._minimize else max(values)

    # Set by the driver so best_value knows the optimisation sense.
    _minimize: bool = True

    @property
    def solved_correctly(self) -> Optional[bool]:
        """True when the surviving workers found the reference optimum
        (``None`` only without a reference; no surviving best is wrong)."""
        if self.reference_optimum is None:
            return None
        if self.best_value is None:
            return False
        return abs(self.best_value - self.reference_optimum) <= 1e-9 * max(
            1.0, abs(self.reference_optimum)
        )


class LocalCluster:
    """Spawns and supervises a small cluster of real worker processes."""

    #: Once every process has exited, how long the driver's link may stay
    #: silent before outcomes still missing are declared lost.
    _QUIESCENT_SECONDS = 0.2

    def __init__(
        self,
        tree: BasicTree,
        n_workers: int,
        *,
        seed: int = 0,
        node_sleep: float = 0.0,
        max_seconds: float = 30.0,
        prune: bool = True,
        config: AlgorithmConfig = RealWorkerConfig.config,
        telemetry: Optional[TelemetryConfig] = None,
    ) -> None:
        """``config`` holds the algorithm's tunables, read by every worker
        as the simulated worker reads them."""
        if n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        self.tree = tree
        self.n_workers = n_workers
        self.seed = seed
        self.node_sleep = node_sleep
        self.max_seconds = max_seconds
        self.prune = prune
        self.config = config
        self.telemetry = telemetry
        self.names = [f"rworker-{i:02d}" for i in range(n_workers)]
        self._tree_data = None

    def _worker_config(
        self, name: str, *, has_root: bool, seed: int, telemetry_on: bool
    ) -> RealWorkerConfig:
        """Build one worker's config (shared by initial spawn and rejoin)."""
        return RealWorkerConfig(
            name=name,
            members=tuple(self.names),
            tree_data=self._tree_data,
            has_root=has_root,
            seed=seed,
            node_sleep=self.node_sleep,
            max_seconds=self.max_seconds,
            prune=self.prune,
            config=self.config,
            telemetry=telemetry_on,
        )

    def run(
        self,
        *,
        kill: Sequence[str] = (),
        kill_after: float = 0.5,
        kill_schedule: Sequence[Tuple[float, Sequence[str]]] = (),
        churn_schedule: Sequence[Tuple[float, str, str]] = (),
        churn_mode: str = "restart",
    ) -> LocalClusterResult:
        """Run the cluster, optionally killing workers mid-run.

        ``kill``/``kill_after`` terminate one group of workers after one
        delay; ``kill_schedule`` generalises that to several
        ``(delay_seconds, worker_names)`` groups, each fired at its own
        wall-clock offset (the scenario backend maps one ``FailureSpec``
        per group).  Both forms may be combined.

        ``churn_schedule`` is a sequence of ``(delay_seconds, worker,
        action)`` events with ``action`` in ``{"leave", "return"}`` — the
        resolved form of a :class:`~repro.scenario.spec.ChurnSpec`.  In
        ``"suspend"`` mode a leave sends SIGSTOP and a return SIGCONT (the
        worker resumes with its state intact); in ``"restart"`` mode a leave
        terminates the process and a return respawns it fresh (``has_root=
        False``), so the rejoiner must re-converge through the gossip
        first-contact path.  A worker that leaves and never returns is
        recorded in :attr:`LocalClusterResult.churned_out`.
        """
        if churn_mode not in ("restart", "suspend"):
            raise ValueError(f"unknown churn mode {churn_mode!r}")
        ctx = mp.get_context()
        router = TcpRouter()
        driver_handle = router.add_worker("__driver__")

        telemetry_cfg = self.telemetry
        telemetry_on = telemetry_cfg is not None and telemetry_cfg.enabled
        tracer: Optional[Tracer] = None
        if telemetry_cfg is not None and telemetry_cfg.trace:
            # Workers record absolute wall timestamps; the driver's tracer
            # shifts everything onto the cluster-start origin at export.
            tracer = Tracer(process="driver", clock=time.time)
            router.tracer = tracer
        if telemetry_cfg is not None and telemetry_cfg.metrics:
            # The router observes per-link forward-latency histograms into
            # this live registry; ingest_router folds it into the merged
            # telemetry after the run.
            router.metrics = MetricsRegistry()

        self._tree_data = self.tree.to_dict()
        processes: Dict[str, mp.Process] = {}
        for index, name in enumerate(self.names):
            endpoint = router.add_worker(name)
            config = self._worker_config(
                name, has_root=(index == 0), seed=self.seed + index,
                telemetry_on=telemetry_on,
            )
            process = ctx.Process(target=worker_main, args=(config, endpoint), daemon=True)
            processes[name] = process

        # The router must be listening before the driver and the workers
        # can connect.
        router.start()
        driver_end = resolve_connection(driver_handle)
        logger.info("starting cluster: %d workers", self.n_workers)
        start = time.monotonic()
        start_wall = time.time()
        for process in processes.values():
            process.start()

        result = LocalClusterResult(
            n_workers=self.n_workers,
            reference_optimum=self.tree.optimal_value(),
        )
        result._minimize = self.tree.minimize

        killed: List[str] = []
        worker_telemetry: Dict[str, WorkerTelemetry] = {}
        deadline = start + self.max_seconds + 5.0
        pending_kills: List[Tuple[float, Tuple[str, ...]]] = sorted(
            [(start + delay, tuple(names)) for delay, names in kill_schedule]
            + ([(start + kill_after, tuple(kill))] if kill else []),
            key=lambda entry: entry[0],
        )
        pending_churn: List[Tuple[float, str, str]] = sorted(
            (start + delay, name, action) for delay, name, action in churn_schedule
        )
        churn_down: Dict[str, float] = {}
        rejoined: List[str] = []
        unavailable_time = 0.0
        respawns: Dict[str, int] = {}

        def churn_leave(name: str) -> None:
            nonlocal unavailable_time
            process = processes.get(name)
            if process is None or not process.is_alive() or name in churn_down:
                return
            if churn_mode == "suspend":
                try:
                    os.kill(process.pid, signal.SIGSTOP)
                except (ProcessLookupError, OSError):  # pragma: no cover - raced exit
                    return
                router.paused.add(name)
            else:
                process.terminate()
                router.remove_worker(name)
                # Only the post-rejoin incarnation's outcome may count.
                result.outcomes.pop(name, None)
            churn_down[name] = time.monotonic()
            logger.info("churn: %s left (%s)", name, churn_mode)
            if tracer is not None:
                tracer.event(
                    "churn_leave", process="driver", category="churn",
                    args={"worker": name, "mode": churn_mode},
                )

        def churn_return(name: str) -> None:
            nonlocal unavailable_time
            if name not in churn_down:
                return
            process = processes.get(name)
            if churn_mode == "suspend":
                if process is None or not process.is_alive():
                    churn_down.pop(name)
                    return
                router.paused.discard(name)
                try:
                    os.kill(process.pid, signal.SIGCONT)
                except (ProcessLookupError, OSError):  # pragma: no cover - raced exit
                    churn_down.pop(name)
                    return
            else:
                if process is not None:
                    process.join(timeout=2.0)
                index = self.names.index(name)
                respawns[name] = respawns.get(name, 0) + 1
                endpoint = router.add_worker(name)
                config = self._worker_config(
                    name, has_root=False,
                    seed=self.seed + index + 1009 * respawns[name],
                    telemetry_on=telemetry_on,
                )
                fresh = ctx.Process(target=worker_main, args=(config, endpoint), daemon=True)
                processes[name] = fresh
                fresh.start()
            unavailable_time += time.monotonic() - churn_down.pop(name)
            rejoined.append(name)
            logger.info("churn: %s returned (%s)", name, churn_mode)
            if tracer is not None:
                tracer.event(
                    "churn_return", process="driver", category="churn",
                    args={"worker": name, "mode": churn_mode},
                )

        def expected_survivors() -> set:
            return {n for n in self.names if n not in killed and n not in churn_down}

        try:
            while time.monotonic() < deadline:
                while pending_kills and time.monotonic() >= pending_kills[0][0]:
                    _, due = pending_kills.pop(0)
                    for name in due:
                        process = processes.get(name)
                        if process is not None and process.is_alive():
                            process.terminate()
                            if name not in killed:
                                killed.append(name)
                                logger.info("killed worker %s (fault injection)", name)
                                if tracer is not None:
                                    tracer.event(
                                        "kill",
                                        process="driver",
                                        category="driver",
                                        args={"worker": name},
                                    )
                while pending_churn and time.monotonic() >= pending_churn[0][0]:
                    _, name, action = pending_churn.pop(0)
                    if action == "leave":
                        churn_leave(name)
                    elif action == "return":
                        churn_return(name)
                    else:
                        raise ValueError(f"unknown churn action {action!r}")
                if driver_end.poll(0.05):
                    try:
                        envelope = recv_envelope(driver_end)
                    except (EOFError, OSError):
                        break  # the fabric is gone; nothing more can arrive
                    except WireFormatError:
                        continue
                    if isinstance(envelope.payload, WorkerOutcome):
                        result.outcomes[envelope.payload.name] = envelope.payload
                    elif isinstance(envelope.payload, WorkerTelemetry):
                        worker_telemetry[envelope.payload.name] = envelope.payload
                if pending_churn:
                    # A scheduled leave/return is still due; completion can
                    # only be judged once the churn process has played out.
                    continue
                # Checked after every frame, so the run ends with the last
                # expected outcome rather than one empty poll later.
                if expected_survivors().issubset(result.outcomes.keys()):
                    break
                if all(not p.is_alive() for p in processes.values()):
                    # Every process has exited: keep reading while frames
                    # still trickle out of the router, then give up.
                    if not driver_end.poll(self._QUIESCENT_SECONDS):
                        break
        finally:
            # Completion time excludes router/process teardown below.
            result.wall_time = time.monotonic() - start
            if churn_mode == "suspend":
                # A SIGSTOPped process ignores SIGTERM until continued.
                for name in list(churn_down):
                    process = processes.get(name)
                    if process is not None and process.is_alive():
                        try:
                            os.kill(process.pid, signal.SIGCONT)
                        except (ProcessLookupError, OSError):  # pragma: no cover
                            pass
            for process in processes.values():
                if process.is_alive():
                    process.terminate()
            for process in processes.values():
                process.join(timeout=2.0)
            try:
                driver_end.close()
            except OSError:  # pragma: no cover - platform dependent
                pass
            router.stop()

        result.killed = killed
        result.rejoined = rejoined
        result.churned_out = sorted(churn_down)
        for name in result.churned_out:
            # A worker that left and never came back is not a survivor; any
            # outcome it managed to flush before leaving must not count.
            result.outcomes.pop(name, None)
        expected = expected_survivors()
        result.missing_outcomes = sorted(expected - result.outcomes.keys())
        if result.missing_outcomes:
            logger.warning(
                "no outcome from %d of %d expected workers (%s): the run is "
                "reported as not terminated",
                len(result.missing_outcomes),
                len(expected),
                ", ".join(result.missing_outcomes),
            )
        result.unavailable_time = unavailable_time + sum(
            max(0.0, result.wall_time - (down_at - start)) for down_at in churn_down.values()
        )
        result.messages_forwarded = router.forwarded
        result.messages_dropped = router.dropped
        result.bytes_forwarded = router.bytes_forwarded
        result.bytes_by_kind = dict(router.kind_bytes)
        if telemetry_on:
            result.telemetry = self._merge_telemetry(
                result, router, tracer, worker_telemetry, start_wall
            )
        logger.info(
            "cluster finished: wall=%.3fs outcomes=%d killed=%d forwarded=%d",
            result.wall_time,
            len(result.outcomes),
            len(result.killed),
            result.messages_forwarded,
        )
        return result

    def _merge_telemetry(
        self,
        result: LocalClusterResult,
        router,
        tracer: Optional[Tracer],
        worker_telemetry: Dict[str, WorkerTelemetry],
        start_wall: float,
    ) -> Telemetry:
        """Merge driver, router and worker telemetry into one view.

        Worker records arrive as JSON payloads with absolute wall
        timestamps; the merged tracer rebases everything on the cluster's
        start time so the exported trace begins near zero.
        """
        decoded = {}
        for name, frame in worker_telemetry.items():
            try:
                decoded[name] = frame.decoded()
            except ValueError:  # pragma: no cover - defensive
                logger.warning("discarding corrupt telemetry frame from %s", name)
        metrics = MetricsRegistry()
        for payload in decoded.values():
            snapshot = payload.get("metrics")
            if snapshot:
                metrics.merge_snapshot(snapshot)
        ingest_router(metrics, router)
        metrics.counter("cluster_workers_killed").inc(len(result.killed))
        merged = tracer if tracer is not None else Tracer(process="driver", clock=time.time)
        merged.span(
            "run",
            start_wall,
            result.wall_time,
            process="driver",
            category="driver",
            args={"workers": self.n_workers},
        )
        for payload in decoded.values():
            merged.merge_records(payload.get("records", []))
        merged.time_origin = start_wall
        cfg = self.telemetry
        return Telemetry(
            tracer=merged if (cfg is None or cfg.trace) else None,
            metrics=metrics if (cfg is None or cfg.metrics) else None,
            meta={
                "backend": "realexec",
                "clock": "wall",
                "workers": self.n_workers,
            },
        )

