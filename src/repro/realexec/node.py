"""A real worker process: the protocol core on a wall clock.

:func:`worker_main` runs :class:`~repro.distributed.protocol.ProtocolCore` —
the same object the simulator's :class:`~repro.distributed.worker.
WorkerEntity` drives — on a real OS process.  What stays here is I/O: decode
an envelope and hand its payload to the core, block on the link until the
core's next timer is due, expand the subproblem the core picks (an optional
``time.sleep`` emulates heavier nodes), and report the outcome.  Node cost is
not simulated, so the core's cost hooks charge nothing; real processes can
be killed in the fault-injection tests.

All protocol traffic is encoded with the :mod:`repro.wire` binary codec (no
pickling of protocol payloads): the worker decodes each incoming envelope
frame at the link boundary and encodes every outgoing message the same way.
The final :class:`WorkerOutcome` is itself a registered wire message
(extension tag next to the transport's envelope).  Every worker speaks the
one wire format; a frame it cannot decode (corrupt, or of another version)
is dropped at the link boundary like a lost message.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..bnb.basic_tree import BasicTree
from ..bnb.pool import SelectionRule
from ..bnb.tree_problem import TreeReplayProblem
from ..core.arena import TrieArena
from ..distributed.config import AlgorithmConfig
from ..distributed.pacing import IDLE_PACE_CAP
from ..distributed.protocol import ProtocolCore
from ..obs import MetricsRegistry, Tracer
from ..obs.ingest import ingest_worker_stats
from ..wire import WireFormatError
from ..wire.frame import Tag, register
from ..wire.varint import (
    NameCoder,
    read_bool,
    read_float64,
    read_string,
    read_uvarint,
    write_bool,
    write_float64,
    write_string,
    write_uvarint,
)
from .transport import (
    Envelope,
    recv_envelope,
    register_payload_kind,
    resolve_connection,
    send_envelope,
)

__all__ = ["RealWorkerConfig", "WorkerOutcome", "WorkerTelemetry", "worker_main"]

#: Wire tag of the worker-outcome message (transport extension range).
WORKER_OUTCOME_TAG = int(Tag.EXTENSION_BASE) + 1
#: Wire tag of the worker-telemetry message (transport extension range).
WORKER_TELEMETRY_TAG = int(Tag.EXTENSION_BASE) + 2

#: ``worker_handle_us`` histogram buckets (microseconds per received frame).
HANDLE_US_BUCKETS = (10, 25, 50, 100, 250, 500, 1000, 2500, 10000)


@dataclass(frozen=True)
class RealWorkerConfig:
    """Configuration shipped (pickled) to every real worker process."""

    name: str
    members: tuple
    tree_data: dict
    has_root: bool = False
    #: The mechanism's knobs, read as the simulated worker reads them, so a
    #: scenario means the same thing on both drivers (the default is the
    #: scenario default: depth-first selection).
    config: AlgorithmConfig = AlgorithmConfig(selection_rule=SelectionRule.DEPTH_FIRST)
    node_sleep: float = 0.0
    seed: int = 0
    max_seconds: float = 30.0
    prune: bool = True
    #: Collect run telemetry (trace records + a metrics snapshot) and ship it
    #: to the driver as a :class:`WorkerTelemetry` frame before the outcome.
    telemetry: bool = False


@dataclass(frozen=True)
class WorkerOutcome:
    """What a real worker reports back to the driver when it finishes."""

    name: str
    terminated: bool
    best_value: Optional[float]
    nodes_expanded: int
    reports_sent: int
    recoveries: int


def _write_worker_outcome(out: bytearray, outcome: WorkerOutcome, names: NameCoder) -> None:
    """Outcome body: name, terminated flag, optional best value, counters."""
    names.write(out, outcome.name)
    write_bool(out, outcome.terminated)
    write_bool(out, outcome.best_value is not None)
    if outcome.best_value is not None:
        write_float64(out, float(outcome.best_value))
    write_uvarint(out, outcome.nodes_expanded)
    write_uvarint(out, outcome.reports_sent)
    write_uvarint(out, outcome.recoveries)


def _read_worker_outcome(data, pos: int, names: NameCoder) -> Tuple[WorkerOutcome, int]:
    """Read an outcome body written by :func:`_write_worker_outcome`."""
    name, pos = names.read(data, pos)
    terminated, pos = read_bool(data, pos)
    has_best, pos = read_bool(data, pos)
    best_value = None
    if has_best:
        best_value, pos = read_float64(data, pos)
    nodes_expanded, pos = read_uvarint(data, pos)
    reports_sent, pos = read_uvarint(data, pos)
    recoveries, pos = read_uvarint(data, pos)
    return (
        WorkerOutcome(
            name=name,
            terminated=terminated,
            best_value=best_value,
            nodes_expanded=nodes_expanded,
            reports_sent=reports_sent,
            recoveries=recoveries,
        ),
        pos,
    )


register(WORKER_OUTCOME_TAG, WorkerOutcome, _write_worker_outcome, _read_worker_outcome)
register_payload_kind(WORKER_OUTCOME_TAG, "worker_outcome")


@dataclass(frozen=True)
class WorkerTelemetry:
    """One worker's telemetry, shipped to the driver before the outcome.

    ``payload`` is a JSON document ``{"records": [...], "metrics": {...}}`` —
    the tracer's exported records (wall-clock timestamps, so the driver can
    merge every process onto one axis) and the worker's metrics-registry
    snapshot.  JSON keeps the frame body self-describing and forward
    compatible; telemetry volume is tiny next to the protocol traffic.
    """

    name: str
    payload: str

    def decoded(self) -> dict:
        """The parsed payload document."""
        return json.loads(self.payload)


def _write_worker_telemetry(out: bytearray, msg: WorkerTelemetry, names: NameCoder) -> None:
    """Telemetry body: worker name, then the JSON document."""
    names.write(out, msg.name)
    write_string(out, msg.payload)


def _read_worker_telemetry(data, pos: int, names: NameCoder) -> Tuple[WorkerTelemetry, int]:
    """Read a telemetry body written by :func:`_write_worker_telemetry`."""
    name, pos = names.read(data, pos)
    payload, pos = read_string(data, pos)
    return WorkerTelemetry(name=name, payload=payload), pos


register(
    WORKER_TELEMETRY_TAG,
    WorkerTelemetry,
    _write_worker_telemetry,
    _read_worker_telemetry,
)
register_payload_kind(WORKER_TELEMETRY_TAG, "worker_telemetry")


class RealWorker(ProtocolCore):
    """The protocol core on a real process: a send is a frame on the link,
    a timer a wall-clock deadline the loop blocks until."""

    def __init__(self, config: RealWorkerConfig, connection, tracer, registry) -> None:
        problem = TreeReplayProblem(BasicTree.from_dict(config.tree_data), prune=config.prune)
        super().__init__(
            config.name,
            problem,
            config.config,
            [member for member in config.members if member != config.name],
            rng=random.Random(config.seed),
            initial_work=[problem.root_subproblem()] if config.has_root else (),
            # The node sleep seeds the node-cost average, as the simulator
            # seeds it with the expected node cost.
            expected_node_cost=config.node_sleep,
            # A real process has its own arena, collected by the loop.
            arena=TrieArena(),
            tracer=tracer,
            obs_metrics=registry,
        )
        self.connection = connection
        self.timers: List[Tuple[float, str]] = []

    def send(self, destination: str, payload) -> None:
        try:
            send_envelope(self.connection, Envelope(self.name, destination, payload))
        except (BrokenPipeError, OSError):  # pragma: no cover - driver gone
            pass

    def set_timer(self, delay: float, reason: str) -> None:
        self.timers.append((time.monotonic() + delay, reason))

    def fire_timers(self, now: float) -> None:
        """Hand every timer due by ``now`` to the core, earliest first."""
        due = sorted(timer for timer in self.timers if timer[0] <= now)
        if due:
            self.timers = [timer for timer in self.timers if timer[0] > now]
            for _, reason in due:
                self.on_timer(reason, now)

    def wait(self, now: float) -> float:
        """How long the link may block before the next timer is due."""
        if not self.timers:
            return IDLE_PACE_CAP
        return max(0.0, min(due for due, _ in self.timers) - now)


def worker_main(config: RealWorkerConfig, endpoint) -> None:
    """Entry point executed in the child process.

    ``endpoint`` is the :class:`~repro.realexec.transport.TcpEndpoint` the
    child connects first.  Each pass decodes what arrived and hands it to
    the core (blocking, when idle, until the core's next timer is due), runs
    the core's step, and expands the subproblem it returns.  The loop ends
    when the core detects termination (it sends the final root report
    itself), the link closes or ``max_seconds`` pass; the
    :class:`WorkerOutcome` then goes to the driver over the same channel.
    """
    connection = resolve_connection(endpoint)
    run_start = time.monotonic()
    # Telemetry is opt-in; every recording site checks ``registry`` once.
    tracer: Optional[Tracer] = None
    registry: Optional[MetricsRegistry] = None
    if config.telemetry:
        tracer = Tracer(process=config.name, clock=time.monotonic)
        registry = MetricsRegistry()
        # Microseconds from the start of a frame's decode until the core
        # has handled it: the per-message cost the simulator models.
        handle_us = registry.histogram(
            "worker_handle_us", buckets=HANDLE_US_BUCKETS, worker=config.name
        )
    worker = RealWorker(config, connection, tracer, registry)
    worker.start(run_start)
    deadline = run_start + config.max_seconds
    linked = True
    wait = 0.0
    while linked and time.monotonic() < deadline:
        handled = False
        while connection.poll(wait):
            started = time.monotonic()
            try:
                envelope = recv_envelope(connection)
            except (EOFError, OSError):
                linked = False
                break
            except WireFormatError:
                # A corrupt frame is indistinguishable from a lost message
                # in the paper's unreliable-channel model: drop it.
                if registry is not None:
                    registry.counter("worker_frames_dropped", worker=config.name).inc()
                continue
            worker.receive(envelope.payload, started)
            handled, wait = True, 0.0
            if registry is not None:
                registry.counter("worker_frames_received", worker=config.name).inc()
                handle_us.observe((time.monotonic() - started) * 1e6)
            if worker.terminated:
                break
        # Between passes no raw node id is held: the arena's rule may run.
        worker.tracker.arena.collect_if_outgrown()
        now = time.monotonic()
        worker.fire_timers(now)
        sub = worker.step(now, handled)
        if worker.terminated:
            break
        if sub is None:
            wait = worker.wait(time.monotonic())
            continue
        started = time.monotonic()
        worker.expand(sub, started)
        if config.node_sleep > 0:
            time.sleep(config.node_sleep)
        worker.note_node_cost(time.monotonic() - started)
        wait = 0.0

    stats = worker.stats
    if tracer is not None and registry is not None:
        # Whole-lifetime span for this worker.  The records leave in wall
        # time, so the driver can merge every process onto one axis.
        tracer.span(
            "run",
            run_start,
            time.monotonic() - run_start,
            category="worker",
            args={"nodes_expanded": stats.nodes_expanded},
        )
        tracer.time_origin = time.monotonic() - time.time()
        ingest_worker_stats(registry, stats, keep_zeros=True)
        # The telemetry frame must precede the outcome: the connection and
        # the router deliver in order, and the driver stops reading once the
        # outcome triggers the completion check.
        payload = {"records": list(tracer.iter_records()), "metrics": registry.snapshot()}
        worker.send("__driver__", WorkerTelemetry(name=config.name, payload=json.dumps(payload)))
    worker.send(
        "__driver__",
        WorkerOutcome(
            name=config.name,
            terminated=worker.terminated,
            best_value=worker.incumbent.value,
            nodes_expanded=stats.nodes_expanded,
            reports_sent=stats.reports_sent,
            recoveries=stats.recovery_activations,
        ),
    )
    # Teardown is outcome -> half-close -> drain to EOF: ``close`` keeps
    # reading (and discarding) the peers' late reports and acks until the
    # router has forwarded the outcome and closed its side, so the kernel
    # never resets the connection over it.
    try:
        connection.close()
    except OSError:  # pragma: no cover
        pass
