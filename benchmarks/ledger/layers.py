"""The traced pass: per-layer metrics, measured from outside.

A layer is a module under ``src/repro/``.  Its numbers come from three
sources, none of which touches the library:

* **T** — timing wrappers this file installs around a fixed table of public
  callables (``WRAPPED_SIM`` / ``WRAPPED_REAL``) for the one traced rep, and
  removes again.  Each call becomes a span in a :class:`spans.SpanLog`; a
  layer's self time is the summed self time of its spans.  Engine event
  callbacks are wrapped where they are scheduled (``SimulationEngine.post`` /
  ``schedule_at``) and named after their label.
* **R** — read from the public result (``ScenarioResult``, its ``.raw``
  ``RunResult`` / ``LocalClusterResult``, the ``TelemetryConfig(metrics=True)``
  registry snapshot).
* **P** — replay of the payloads captured through the public
  ``DistributedBnBSimulation.net.classify`` hook through ``repro.wire``.  The
  realexec workload has no such hook, so its payloads come from a simulated
  twin: same tree, same worker count.

The pass runs rep 0 twice, untraced then traced, so that
``obs.trace_overhead_frac`` has a base and — on the simulated backend — so
that a wrapper which perturbs the run shows as a changed makespan and is
counted as a failure.  A metric whose layer is not on a workload's path
reads 0.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from repro.distributed.messages import DeltaGossipMsg, MessageKinds, WorkDenied, WorkRequest
from repro.realexec.transport import (
    Envelope,
    create_router,
    recv_envelope,
    resolve_connection,
    send_envelope,
)
from repro.scenario import Scenario, TelemetryConfig, WorkloadSpec, run_scenario
from repro.wire import WireFormatError, decode, encode

from spans import SpanLog, histogram_quantile, layer_self_seconds
from workloads import NODE_SLEEP, Setup, Workload, rep_seed, run_rep

__all__ = ["PER_LAYER", "WRAPPED_SIM", "WRAPPED_REAL", "Wrappers", "event_span", "traced_pass"]

#: Per-layer metrics: name -> unit (definitions in README.md).
PER_LAYER: Dict[str, str] = {
    # core — T
    "core.self_s": "s",
    "core.merge_calls": "count",
    "core.merge_us": "us",
    "core.record_us": "us",
    "core.delta_build_us": "us",
    "core.recovery_query_us": "us",
    # core — R, P
    "core.storage_total_mb": "MB",
    "core.storage_redundant_mb": "MB",
    "core.delta_codes_per_msg": "count",
    # bnb — T
    "bnb.self_s": "s",
    "bnb.expand_us": "us",
    "bnb.pool_ops": "count",
    "bnb.seq_nodes_per_s": "1/s",
    # distributed — T
    "distributed.self_s": "s",
    "distributed.step_us": "us",
    # distributed — R
    "distributed.bb_time_pct": "%",
    "distributed.comm_time_pct": "%",
    "distributed.contraction_time_pct": "%",
    "distributed.lb_time_pct": "%",
    "distributed.idle_time_pct": "%",
    "distributed.balance": "x",
    "distributed.grant_ratio": "1",
    "distributed.recoveries": "count",
    "distributed.recoveries_aborted": "count",
    "distributed.reports_sent": "count",
    "distributed.delta_gossips_sent": "count",
    "distributed.delta_suppressed_frac": "1",
    "distributed.table_bytes_frac": "1",
    # gossip — T, R
    "gossip.self_s": "s",
    "gossip.heartbeats_sent": "count",
    "gossip.evictions": "count",
    "gossip.evictions_per_departure": "1",
    "gossip.rejoins": "count",
    "gossip.eviction_latency_p50_s": "s",
    "gossip.delta_bytes_p50": "B",
    # simulation — T, R
    "simulation.events": "count",
    "simulation.events_per_s": "1/s",
    "simulation.events_per_node": "1",
    "simulation.self_s": "s",
    "simulation.send_us": "us",
    "simulation.peak_heap_len": "count",
    "simulation.msgs_dropped": "count",
    # wire — P
    "wire.frames": "count",
    "wire.bytes_per_msg": "B",
    "wire.encode_mb_per_s": "MB/s",
    "wire.decode_mb_per_s": "MB/s",
    "wire.model_over_encoded": "1",
    # realexec — T (driver side only), R
    "realexec.self_s": "s",
    "realexec.frames_forwarded": "count",
    "realexec.frames_dropped": "count",
    "realexec.frames_per_s": "1/s",
    "realexec.fwd_p50_us": "us",
    "realexec.fwd_p99_us": "us",
    "realexec.rtt_p50_us": "us",
    "realexec.per_node_overhead_us": "us",
    "realexec.balance": "x",
    "realexec.spurious_recoveries": "count",
    "realexec.outcomes_missing": "count",
    # scenario, obs
    "scenario.self_s": "s",
    "scenario.build_tree_s": "s",
    "obs.trace_overhead_frac": "1",
}

_TRACKER = "repro.core.completion:CompletionTracker"
_MERGES = ("merge_report", "merge_delta", "merge_snapshot")
_RECOVERY_QUERIES = ("missing_subtrees", "choose_recovery_problem")
_POOL_OPS = ("push", "pop", "take_for_donation")

#: ``(layer, "module:Class", public methods)`` wrapped for a simulated rep:
#: what ``repro.distributed.worker`` and the runner call across a layer
#: boundary.  ``PathCode`` is a value type used by every layer; its time is
#: charged to the caller.  A renamed method fails the install loudly.
WRAPPED_SIM: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    (
        "core",
        _TRACKER,
        _MERGES
        + _RECOVERY_QUERIES
        + (
            "record_completed",
            "build_delta_snapshot",
            "build_report",
            "build_table_snapshot",
            "table_digest_now",
            "should_send_report",
            "note_peer_covers",
            "note_snapshot_ack",
            "note_peer_converged",
            "prune_peer_view",
            "is_tree_complete",
            "storage_bytes",
            "remote_information_share",
        ),
    ),
    ("core", "repro.core.codeset:CodeSet", ("covers",)),
    ("core", "repro.core.recovery:RecoveryPolicy", ("evaluate", "should_abort")),
    ("core", "repro.core.termination:TerminationDetector", ("check_local", "observe_report")),
    ("bnb", "repro.bnb.sequential:NodeExpander", ("expand",)),
    ("bnb", "repro.bnb.pool:SubproblemPool", _POOL_OPS + ("can_donate", "storage_bytes", "clear")),
    (
        "gossip",
        "repro.gossip.failure_detector:GossipFailureDetector",
        (
            "tick",
            "merge",
            "suspected",
            "cleanup",
            "choose_targets",
            "staleness",
            "restart_member",
            "members",
        ),
    ),
    ("simulation", "repro.simulation.network:Network", ("send",)),
    ("simulation", "repro.simulation.engine:SimulationEngine", ("run",)),
    ("distributed", "repro.distributed.runner:DistributedBnBSimulation", ("build", "run")),
)

#: Wrapped for a realexec rep.  Worker processes are forked from the driver,
#: so nothing they execute may be wrapped: only the driver-side run is.
WRAPPED_REAL: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("realexec", "repro.realexec.driver:LocalCluster", ("run",)),
)

_ENGINE = "repro.simulation.engine:SimulationEngine"
_SIMULATION = "repro.distributed.runner:DistributedBnBSimulation"

#: Payloads replayed through the codec per traced pass (an evenly strided
#: sample of everything captured).
_REPLAY_SAMPLE = 4000

#: Request/reply round trips of the idle-router microbenchmark.
_ROUND_TRIPS = 500


def _resolve(path: str) -> type:
    module, _, name = path.partition(":")
    return getattr(importlib.import_module(module), name)


def event_span(label: str) -> Tuple[str, str]:
    """``(layer, span name)`` of an engine event, from its diagnostic label.

    Worker events are labelled ``<worker>:<reason>[:<seq>]`` (``step``,
    ``idle-poll``, ``lb-timeout``, ``fd-tick``) and run ``repro.distributed``
    code; message deliveries and the failure/churn injectors belong to
    ``repro.simulation``.
    """
    head, _, rest = label.partition(":")
    if not rest:
        return "simulation", f"event:{head or 'unlabelled'}"
    if head in ("crash", "churn-leave", "churn-return"):
        return "simulation", f"event:{head}"
    return "distributed", f"event:{rest.partition(':')[0]}"


class Wrappers:
    """Installs the timing wrappers of one table, and removes them again."""

    def __init__(
        self, log: SpanLog, table: Sequence[Tuple[str, str, Tuple[str, ...]]]
    ) -> None:
        self.log = log
        self.table = table
        #: Every payload sent during the traced rep, in send order.
        self.payloads: List[object] = []
        self._originals: List[Tuple[type, str, Callable]] = []

    def _patch(self, cls: type, name: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``cls.name`` by ``make(current)``; undone in reverse order."""
        current = cls.__dict__[name]
        if not inspect.isfunction(current):
            raise TypeError(f"{cls.__name__}.{name} is not a plain method")
        self._originals.append((cls, name, current))
        setattr(cls, name, make(current))

    def __enter__(self) -> "Wrappers":
        log = self.log
        try:
            for layer, path, methods in self.table:
                cls = _resolve(path)
                for name in methods:
                    span = f"{cls.__name__}.{name}"
                    self._patch(cls, name, lambda fn, a=layer, b=span: log.wrap(a, b, fn))
                if path == _ENGINE:
                    self._patch(cls, "post", self._timing_callbacks)
                    self._patch(cls, "schedule_at", self._timing_callbacks)
                if path == _SIMULATION:
                    self._patch(cls, "build", self._capturing)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._originals:
            cls, name, original = self._originals.pop()
            setattr(cls, name, original)

    def _timing_callbacks(self, schedule: Callable) -> Callable:
        """``post`` / ``schedule_at`` that time the callback they are given."""
        log = self.log

        def scheduling(engine, when, callback, *, label=""):
            return schedule(engine, when, log.wrap(*event_span(label), callback), label=label)

        return scheduling

    def _capturing(self, build: Callable) -> Callable:
        """``build`` that then chains a recorder onto ``net.classify``."""
        payloads = self.payloads

        def building(simulation):
            built = build(simulation)
            classify = simulation.net.classify

            def capture(payload):
                payloads.append(payload)
                return classify(payload)

            simulation.net.classify = capture
            return built

        return building


# --------------------------------------------------------------------------- #
# T — from the span log
# --------------------------------------------------------------------------- #
def timing_metrics(log: SpanLog) -> Dict[str, float]:
    totals = log.totals()

    def calls(layer: str, names: Sequence[str]) -> int:
        return sum(totals.get((layer, name), (0, 0.0, 0.0))[0] for name in names)

    def mean_us(layer: str, names: Sequence[str], column: int = 1) -> float:
        count = calls(layer, names)
        total = sum(totals.get((layer, name), (0, 0.0, 0.0))[column] for name in names)
        return 1e6 * total / count if count else 0.0

    tracker = [f"CompletionTracker.{name}" for name in _MERGES]
    steps = [name for layer, name in totals if layer == "distributed" and name.startswith("event:")]
    metrics = {f"{layer}.self_s": seconds for layer, seconds in layer_self_seconds(totals).items()}
    metrics.update(
        {
            "core.merge_calls": calls("core", tracker),
            "core.merge_us": mean_us("core", tracker),
            "core.record_us": mean_us("core", ["CompletionTracker.record_completed"]),
            "core.delta_build_us": mean_us("core", ["CompletionTracker.build_delta_snapshot"]),
            "core.recovery_query_us": mean_us(
                "core", [f"CompletionTracker.{name}" for name in _RECOVERY_QUERIES]
            ),
            "bnb.expand_us": mean_us("bnb", ["NodeExpander.expand"]),
            "bnb.pool_ops": calls("bnb", [f"SubproblemPool.{name}" for name in _POOL_OPS]),
            # Self time: what the worker's own code costs per event, with the
            # calls into other layers taken out.
            "distributed.step_us": mean_us("distributed", steps, column=2),
            "simulation.send_us": mean_us("simulation", ["Network.send"]),
        }
    )
    return metrics


def router_rtt_us(round_trips: int = _ROUND_TRIPS) -> float:
    """Median request/reply round trip through an idle TCP router (µs)."""
    router = create_router("tcp")
    handles = [router.add_worker(name) for name in ("ping", "pong")]
    router.start()
    try:
        ping, pong = (resolve_connection(handle) for handle in handles)
        try:
            request = Envelope("ping", "pong", WorkRequest("ping"))
            reply = Envelope("pong", "ping", WorkDenied("pong"))
            samples = []
            for _ in range(round_trips):
                start = time.perf_counter()
                send_envelope(ping, request)
                if not pong.poll(5.0):
                    raise RuntimeError("router round trip: request never arrived")
                recv_envelope(pong)
                send_envelope(pong, reply)
                if not ping.poll(5.0):
                    raise RuntimeError("router round trip: reply never arrived")
                recv_envelope(ping)
                samples.append(time.perf_counter() - start)
        finally:
            ping.close()
            pong.close()
    finally:
        router.stop()
    return 1e6 * statistics.median(samples)


# --------------------------------------------------------------------------- #
# R — from the public result
# --------------------------------------------------------------------------- #
def _balance(result) -> float:
    expanded = [worker.nodes_expanded for worker in result.workers.values()]
    mean = sum(expanded) / len(expanded) if expanded else 0.0
    return max(expanded) / mean if mean else 0.0


def _merged_quantile(snapshot: dict, name: str, q: float) -> float:
    """Quantile over every histogram called ``name``, whatever its labels."""
    bounds: List[float] = []
    counts: List[int] = []
    for key, state in snapshot.get("histograms", {}).items():
        if key == name or key.startswith(name + "{"):
            if not bounds:
                bounds, counts = list(state["bounds"]), [0] * len(state["counts"])
            if list(state["bounds"]) != bounds:
                raise ValueError(f"histograms named {name} disagree on buckets")
            counts = [a + b for a, b in zip(counts, state["counts"])]
    return histogram_quantile(bounds, counts, q) if bounds else 0.0


def simulated_metrics(result, setup: Setup, plain_wall_s: float) -> Dict[str, float]:
    raw = result.raw
    stats = list(raw.workers.values())
    sent = sum(s.delta_gossips_sent for s in stats)
    suppressed = sum(s.delta_gossips_suppressed for s in stats)
    requests = raw.messages_by_kind.get("work_requests", 0)
    table_bytes = sum(raw.bytes_by_kind.get(k, 0) for k in MessageKinds.TABLE_DISSEMINATION)
    departures = len(result.crashed_workers) + sum(s.leaves for s in stats)
    events = result.engine_counters["events_processed"]
    network = raw.network
    snapshot = result.telemetry.snapshot()
    return {
        "core.storage_total_mb": raw.storage_total_mb(),
        "core.storage_redundant_mb": raw.storage_redundant_mb(),
        "distributed.bb_time_pct": raw.bb_time_percent(),
        "distributed.comm_time_pct": raw.communication_time_percent(),
        "distributed.contraction_time_pct": raw.contraction_time_percent(),
        "distributed.lb_time_pct": raw.load_balancing_time_percent(),
        "distributed.idle_time_pct": raw.idle_time_percent(),
        "distributed.balance": _balance(result),
        "distributed.grant_ratio": (
            raw.messages_by_kind.get("work_grants", 0) / requests if requests else 0.0
        ),
        "distributed.recoveries": result.recoveries,
        "distributed.recoveries_aborted": sum(s.recovery_aborted for s in stats),
        "distributed.reports_sent": sum(s.reports_sent for s in stats),
        "distributed.delta_gossips_sent": sent,
        "distributed.delta_suppressed_frac": (
            suppressed / (sent + suppressed) if sent + suppressed else 0.0
        ),
        "distributed.table_bytes_frac": (
            table_bytes / result.bytes_total if result.bytes_total else 0.0
        ),
        "gossip.heartbeats_sent": sum(s.heartbeats_sent for s in stats),
        "gossip.evictions": result.evictions,
        "gossip.evictions_per_departure": result.evictions / departures if departures else 0.0,
        "gossip.rejoins": result.rejoins,
        "gossip.eviction_latency_p50_s": _merged_quantile(
            snapshot, "fd_eviction_latency_seconds", 0.5
        ),
        "gossip.delta_bytes_p50": _merged_quantile(snapshot, "gossip_delta_bytes", 0.5),
        "simulation.events": events,
        "simulation.events_per_s": events / plain_wall_s,
        "simulation.events_per_node": events / setup.nodes,
        "simulation.peak_heap_len": result.engine_counters["peak_heap_len"],
        "simulation.msgs_dropped": (
            network.messages_lost + network.messages_blocked + network.messages_to_dead
        ),
    }


def realexec_metrics(result, setup: Setup) -> Dict[str, float]:
    raw = result.raw
    snapshot = result.telemetry.snapshot()
    latency = "router_forward_latency_seconds"
    return {
        "realexec.frames_forwarded": raw.messages_forwarded,
        "realexec.frames_dropped": raw.messages_dropped,
        "realexec.frames_per_s": raw.messages_forwarded / result.makespan,
        "realexec.fwd_p50_us": 1e6 * _merged_quantile(snapshot, latency, 0.5),
        "realexec.fwd_p99_us": 1e6 * _merged_quantile(snapshot, latency, 0.99),
        "realexec.rtt_p50_us": router_rtt_us(),
        # What a real worker costs per node beyond the sleep that stands for
        # the node's work, from the 1-worker baseline of set-up.
        "realexec.per_node_overhead_us": 1e6 * (setup.sequential_s / setup.nodes - NODE_SLEEP),
        "realexec.balance": _balance(result),
        # No failure is injected, so every worker that recovered did so
        # needlessly.
        "realexec.spurious_recoveries": sum(
            1 for worker in result.workers.values() if worker.recoveries
        ),
        "realexec.outcomes_missing": result.n_workers - len(raw.outcomes),
    }


# --------------------------------------------------------------------------- #
# P — replay of captured payloads
# --------------------------------------------------------------------------- #
def wire_metrics(payloads: Sequence[object]) -> Dict[str, float]:
    deltas = [len(p.delta.codes) for p in payloads if isinstance(p, DeltaGossipMsg)]
    metrics = {"core.delta_codes_per_msg": sum(deltas) / len(deltas) if deltas else 0.0}
    stride = max(1, -(-len(payloads) // _REPLAY_SAMPLE))
    frames: List[bytes] = []
    model_bytes = 0
    encode_s = 0.0
    for payload in payloads[::stride]:
        start = time.perf_counter()
        try:
            frame = encode(payload)
        except WireFormatError:
            # Heartbeat gossip has no codec (README.md, known gaps).
            continue
        encode_s += time.perf_counter() - start
        frames.append(frame)
        model_bytes += payload.wire_size()
    if not frames:
        return metrics
    start = time.perf_counter()
    for frame in frames:
        decode(frame)
    decode_s = time.perf_counter() - start
    encoded = sum(len(frame) for frame in frames)
    metrics.update(
        {
            "wire.frames": len(frames),
            "wire.bytes_per_msg": encoded / len(frames),
            "wire.encode_mb_per_s": encoded / 1e6 / encode_s,
            "wire.decode_mb_per_s": encoded / 1e6 / decode_s,
            "wire.model_over_encoded": model_bytes / encoded,
        }
    )
    return metrics


# --------------------------------------------------------------------------- #
# The pass
# --------------------------------------------------------------------------- #
def _twin_payloads(setup: Setup, n_workers: int, run_seed: int) -> List[object]:
    """Payloads of the simulated twin of a realexec rep."""
    twin = Scenario(
        name="twin",
        workload=WorkloadSpec(kind="tree", tree=setup.tree),
        n_workers=n_workers,
        seed=run_seed,
    )
    with Wrappers(SpanLog(), WRAPPED_SIM) as wrappers:
        result = run_scenario(twin, "simulated")
    if not (result.terminated and result.solved_correctly):
        raise RuntimeError("the simulated twin did not solve the tree")
    return wrappers.payloads


def traced_pass(workload: Workload, setup: Setup, *, seed: int, quick: bool, out: Path) -> dict:
    """Rep 0 untraced, then traced; returns every per-layer metric."""
    run_seed = rep_seed(seed, 0)
    simulated = workload.backend == "simulated"
    plain = run_rep(workload, setup, quick=quick, run_seed=run_seed)

    log = SpanLog()
    with Wrappers(log, WRAPPED_SIM if simulated else WRAPPED_REAL) as wrappers:
        with log.span("scenario", "run_scenario"):
            traced = run_rep(
                workload,
                setup,
                quick=quick,
                run_seed=run_seed,
                telemetry=TelemetryConfig(trace=False, metrics=True),
            )
    if plain.result is None or traced.result is None:
        raise RuntimeError(f"a rep of the traced pass of {workload.name} raised")
    failed = plain.failed + traced.failed
    if simulated and traced.result.makespan != plain.result.makespan:
        # The wrappers changed what the simulator computed.
        failed = plain.attempted + traced.attempted

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(timing_metrics(log))
    if simulated:
        metrics.update(simulated_metrics(traced.result, setup, plain.run_wall_s))
        payloads = wrappers.payloads
    else:
        metrics.update(realexec_metrics(traced.result, setup))
        payloads = _twin_payloads(setup, traced.result.n_workers, run_seed)
    metrics.update(wire_metrics(payloads))
    metrics["bnb.seq_nodes_per_s"] = setup.seq_nodes_per_s
    metrics["scenario.build_tree_s"] = setup.build_tree_s
    metrics["obs.trace_overhead_frac"] = (traced.run_wall_s - plain.run_wall_s) / plain.run_wall_s
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise RuntimeError(f"per-layer metrics outside the dictionary: {sorted(unknown)}")

    out.mkdir(parents=True, exist_ok=True)
    trace_file = out / f"{workload.name}-seed{seed}.trace.json"
    log.write_chrome_trace(
        trace_file, meta={"workload": workload.name, "seed": seed, "quick": quick}
    )
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": failed,
        "metrics": metrics,
        "reps": 1,
        "traced_run_wall_s": traced.run_wall_s,
        "trace_file": str(trace_file),
    }
