"""A real worker process running the fault-tolerant algorithm.

The worker reuses the exact core objects the simulator uses — the tree
encoding, :class:`~repro.core.completion.CompletionTracker`, the recovery
policy and the work-report payloads — but drives them with a plain loop on a
real OS process, receiving messages over a ``multiprocessing`` pipe.  Node
"cost" is not simulated: the process simply does the Python work of expanding
the replayed tree node (an optional ``time.sleep`` can emulate heavier nodes).

All protocol traffic is encoded with the :mod:`repro.wire` binary codec (no
pickling of protocol payloads): the worker decodes each incoming envelope
frame at the pipe boundary and encodes every outgoing message the same way.
The final :class:`WorkerOutcome` is itself a registered wire message
(extension tag next to the transport's envelope).

Each worker speaks a configurable **wire-format generation**
(:attr:`RealWorkerConfig.wire_generation`).  A generation-2 worker gossips
its completed table as deltas (:class:`~repro.distributed.messages.
DeltaGossipMsg`, acknowledged with digest echoes) while starved; a
generation-1 worker sends whole-table snapshots and *rejects* generation-2
frames at the pipe boundary exactly like the original release would — so a
mixed-generation :class:`~repro.realexec.driver.LocalCluster` run is a real
rolling upgrade: deltas to old workers are dropped as unsupported, the
generation-1 report/snapshot traffic keeps every worker converging, and the
computation still terminates on the optimum.  A generation-3 worker also
walks its work requests at coarse grain
(:func:`~repro.distributed.pacing.walk_hops`); a generation-2 worker drops
the walking frames like lost messages and never sends one.

The protocol is the simulator's (:mod:`repro.distributed.worker`), driven by
a wall clock instead of simulated time.  The rules that decide it are shared,
not copied: how much a donor gives away
(:meth:`~repro.bnb.pool.SubproblemPool.take_donation`), what it pushes unasked
to peers whose table delta it just processed
(:meth:`~repro.bnb.pool.SubproblemPool.take_push` and
:func:`~repro.distributed.pacing.push_targets`), how long a starved
worker waits and when it suspects loss (:mod:`repro.distributed.pacing`: the
request timeout and pace, the table-push interval, the stall rule, the
blank-worker gate and the walk past idle peers), which missing subtree it
regenerates (:class:`~repro.core.recovery.RecoveryPolicy`), and how redone
work asks for news (:meth:`~repro.core.completion.CompletionTracker.news_pull`
and :meth:`~repro.core.completion.CompletionTracker.news_for`).  What stays here
is the I/O loop, without the simulator's time accounting, so real processes
can be killed in the fault-injection tests.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..bnb.basic_tree import BasicTree
from ..bnb.pool import SelectionRule, SubproblemPool
from ..bnb.sequential import NodeExpander
from ..bnb.tree_problem import TreeReplayProblem
from ..core.completion import CompletionTracker
from ..core.recovery import RecoveryPolicy
from ..core.termination import make_root_report
from ..core.work_report import BestSolution
from ..distributed import pacing
from ..distributed.config import AlgorithmConfig
from ..distributed.messages import (
    DeltaGossipMsg,
    TableGossipAck,
    TableGossipMsg,
    WalkDenied,
    WalkRequest,
    WorkDenied,
    WorkGrant,
    WorkReportMsg,
    WorkRequest,
)
from ..obs import MetricsRegistry, Tracer
from ..wire import FRAME_VERSION, WireFormatError
from ..wire.frame import Tag, register
from ..wire.varint import (
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
    # The mechanism's knobs default to the simulated worker's values, so a
    # scenario means the same thing on both drivers.
    report_threshold: int = AlgorithmConfig().report_threshold
    report_fanout: int = AlgorithmConfig().report_fanout
    recovery_failed_threshold: int = AlgorithmConfig().recovery_failed_threshold
    node_sleep: float = 0.0
    seed: int = 0
    max_seconds: float = 30.0
    prune: bool = True
    #: Wire-format generation this worker speaks: 3 accepts the whole
    #: protocol and walks its work requests at coarse grain; 2 gossips table
    #: deltas but neither walks nor reads walking frames; 1 models a
    #: not-yet-upgraded binary that sends whole-table snapshots and rejects
    #: generation-2 frames.
    wire_generation: int = FRAME_VERSION
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


def _write_worker_outcome(out: bytearray, outcome: WorkerOutcome) -> None:
    """Outcome body: name, terminated flag, optional best value, counters."""
    write_string(out, outcome.name)
    write_bool(out, outcome.terminated)
    write_bool(out, outcome.best_value is not None)
    if outcome.best_value is not None:
        write_float64(out, float(outcome.best_value))
    write_uvarint(out, outcome.nodes_expanded)
    write_uvarint(out, outcome.reports_sent)
    write_uvarint(out, outcome.recoveries)


def _read_worker_outcome(data, pos: int) -> Tuple[WorkerOutcome, int]:
    """Read an outcome body written by :func:`_write_worker_outcome`."""
    name, pos = read_string(data, pos)
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


def _write_worker_telemetry(out: bytearray, message: WorkerTelemetry) -> None:
    """Telemetry body: worker name, then the JSON document."""
    write_string(out, message.name)
    write_string(out, message.payload)


def _read_worker_telemetry(data, pos: int) -> Tuple[WorkerTelemetry, int]:
    """Read a telemetry body written by :func:`_write_worker_telemetry`."""
    name, pos = read_string(data, pos)
    payload, pos = read_string(data, pos)
    return WorkerTelemetry(name=name, payload=payload), pos


register(
    WORKER_TELEMETRY_TAG,
    WorkerTelemetry,
    _write_worker_telemetry,
    _read_worker_telemetry,
)
register_payload_kind(WORKER_TELEMETRY_TAG, "worker_telemetry")


def worker_main(config: RealWorkerConfig, connection) -> None:
    """Entry point executed in the child process.

    ``connection`` is either a ready pipe Connection or a transport endpoint
    (:class:`~repro.realexec.transport.WorkerEndpoint`) the child connects
    first — the loop below is transport-agnostic.

    The loop: drain the transport, merge reports, answer work requests,
    push surplus to peers heard starving, expand one node, occasionally emit
    work reports, recover starved work from the complement, and stop when
    the completed table contracts to the
    root code (sending the final root report first).  The final
    :class:`WorkerOutcome` is sent to the driver over the same channel.

    A starved worker waits by the rules of :mod:`repro.distributed.pacing`,
    in wall-clock node costs: it blocks on its link until the next thing
    falls due (its request's timeout, its next request, its next table
    push), and an answer to its request ends the wait at once.
    """
    connection = resolve_connection(connection)
    run_start = time.time()
    # Telemetry is opt-in; the loop below guards every recording site with
    # one ``is not None`` check so disabled runs pay nothing.
    tracer: Optional[Tracer] = None
    registry: Optional[MetricsRegistry] = None
    handle_us = None
    if config.telemetry:
        tracer = Tracer(process=config.name, clock=time.time)
        registry = MetricsRegistry()
        # Microseconds from the start of a frame's decode until the loop
        # has handled it: the per-message cost the simulator models.
        handle_us = registry.histogram(
            "worker_handle_us", buckets=HANDLE_US_BUCKETS, worker=config.name
        )
    tree = BasicTree.from_dict(config.tree_data)
    problem = TreeReplayProblem(tree, prune=config.prune)
    expander = NodeExpander(problem)
    pool: SubproblemPool = SubproblemPool(SelectionRule.DEPTH_FIRST, minimize=problem.minimize)
    tracker = CompletionTracker(config.name, report_threshold=config.report_threshold)
    rng = random.Random(config.seed)
    recovery = RecoveryPolicy(failed_request_threshold=config.recovery_failed_threshold, rng=rng)
    peers = [m for m in config.members if m != config.name]
    incumbent: Optional[float] = None
    reports_sent = 0
    deadline = time.monotonic() + config.max_seconds
    root_broadcast_sent = False
    # Moving average of wall seconds per node (expand plus sleep), seeded
    # with ``node_sleep`` as the simulator seeds it with the expected cost.
    node_cost = config.node_sleep
    # ``(victim, sent_at, seq)`` of the work request awaiting an answer, and
    # when the last request went out (or timed out): the next waits one
    # pace, or longer after a walk that met only idle peers.
    outstanding: Optional[Tuple[str, float, int]] = None
    last_request: Optional[float] = None
    request_seq = 0
    walk_exhausted = False
    last_push = 0.0
    blank_since: Optional[float] = None
    # Peers whose table delta was processed, and when (pacing.push_targets).
    starved: Dict[str, float] = {}
    pushes_sent = 0
    news_pulls_sent = 0
    news_answers_sent = 0
    requests_forwarded = 0
    walks_exhausted = 0

    if config.has_root:
        pool.push(problem.root_subproblem(), bound=problem.bound(problem.root_state()))

    def send(destination: str, payload) -> None:
        try:
            send_envelope(connection, Envelope(config.name, destination, payload))
        except (BrokenPipeError, OSError):  # pragma: no cover - driver gone
            pass

    def my_best() -> BestSolution:
        return BestSolution(value=incumbent, origin=config.name)

    def absorb_best(payload) -> None:
        nonlocal incumbent
        best = getattr(payload, "best", None)
        if isinstance(best, BestSolution) and best.value is not None:
            if problem.is_improvement(best.value, incumbent):
                incumbent = best.value

    def flush_report(force: bool = False) -> None:
        nonlocal reports_sent
        if tracker.pending_report_size == 0:
            return
        if not force and tracker.pending_report_size < config.report_threshold:
            return
        report = tracker.build_report(best=my_best())
        if report.is_empty:
            return
        for target in rng.sample(peers, min(config.report_fanout, len(peers))) if peers else []:
            send(target, WorkReportMsg(report))
        reports_sent += 1

    def answer_with_news(peer: str) -> None:
        """Send ``peer`` this table's delta unless it is empty or the tree
        is complete (:meth:`~repro.core.completion.CompletionTracker.news_for`)."""
        nonlocal news_answers_sent
        if tracker.is_tree_complete():
            return
        delta = tracker.news_for(peer, best=my_best())
        if delta is not None:
            send(peer, DeltaGossipMsg(delta))
            news_answers_sent += 1

    def pass_on(request: WalkRequest) -> None:
        """Idle: forward a walking request to a random peer other than the
        requester, or deny it as exhausted at the hop limit."""
        nonlocal requests_forwarded
        others = [peer for peer in peers if peer != request.requester]
        if others and request.hops < pacing.walk_hops(node_cost, 0.0, len(peers)):
            send(rng.choice(others), request.forwarded())
            requests_forwarded += 1
        else:
            send(
                request.requester,
                WalkDenied(config.name, request.seq, exhausted=True, best=my_best()),
            )

    def can_push() -> bool:
        return bool(peers) and len(tracker.table) > 0

    def starved_wait(now: float) -> float:
        """Seconds a starved worker may block on its link: until its next
        request times out or may go, or its next table push is due.  On one
        host a round trip is well under 1 % of a node, so transit is 0."""
        if outstanding is not None:
            due = outstanding[1] + pacing.request_timeout(node_cost, 0.0)
        elif last_request is not None:
            due = last_request + pacing.request_pause(node_cost, 0.0, walk_exhausted)
        else:
            due = now
        if can_push():
            due = min(due, last_push + pacing.push_interval(node_cost))
        return min(pacing.IDLE_PACE_CAP, max(0.0, due - now))

    terminated = False
    while not terminated and time.monotonic() < deadline:
        # ------------------------------------------------------------ drain
        # A worker with work only reads what has arrived; a starved one
        # blocks until its next due time, or until its request is answered.
        wait = 0.0 if pool else starved_wait(time.monotonic())
        while connection.poll(wait):
            now = time.monotonic()
            try:
                envelope = recv_envelope(connection, max_version=config.wire_generation)
            except (EOFError, OSError):
                terminated = True
                break
            except WireFormatError:
                # A corrupt frame — or, for a generation-1 worker, a
                # generation-2 payload from an upgraded peer — is
                # indistinguishable from a lost message in the paper's
                # unreliable-channel model: drop it and move on.
                if registry is not None:
                    registry.counter(
                        "worker_frames_dropped", worker=config.name
                    ).inc()
                continue
            if registry is not None:
                registry.counter("worker_frames_received", worker=config.name).inc()
            payload = envelope.payload
            absorb_best(payload)
            answered = False
            if isinstance(payload, WalkRequest) and not pool:
                pass_on(payload)
            elif isinstance(payload, (WorkRequest, WalkRequest)):
                donated = pool.take_donation()
                if donated:
                    send(
                        payload.requester,
                        WorkGrant(
                            donor=config.name,
                            codes=tuple(s.code for s in donated),
                            best=my_best(),
                        ),
                    )
                    starved.pop(payload.requester, None)
                elif isinstance(payload, WalkRequest):
                    send(payload.requester, WalkDenied(config.name, payload.seq, best=my_best()))
                else:
                    send(payload.requester, WorkDenied(donor=config.name, best=my_best()))
            elif isinstance(payload, WorkGrant):
                outstanding = None
                answered = True
                got_any = False
                for code in payload.codes:
                    if tracker.table.covers(code):
                        continue
                    sub = problem.rebuild_subproblem(code)
                    if sub is None:
                        tracker.record_completed(code)
                    else:
                        pool.push(sub, bound=problem.bound(sub.state))
                        got_any = True
                if got_any:
                    recovery.note_work_obtained()
                else:
                    recovery.note_request_failed(now)
            elif isinstance(payload, WorkDenied):
                # Only the donor asked last frees the request slot: a late
                # denial of a request that already timed out is still a
                # failed attempt, but the newer request stays outstanding.
                if outstanding is not None and outstanding[0] == payload.donor:
                    outstanding = None
                    answered = True
                recovery.note_request_failed(now)
            elif isinstance(payload, WalkDenied):
                # A walk may end at any peer on its path: the echoed
                # sequence number, not the donor, frees the slot.
                if outstanding is not None and outstanding[2] == payload.seq:
                    outstanding = None
                    answered = True
                    if payload.exhausted:
                        walk_exhausted = True
                        last_request = now
                        walks_exhausted += 1
                recovery.note_request_failed(now)
            elif isinstance(payload, (WorkReportMsg, TableGossipMsg)):
                report = (
                    payload.report
                    if isinstance(payload, WorkReportMsg)
                    else payload.snapshot.as_report()
                )
                news = tracker.merge_report(report)
                if news:
                    recovery.note_progress(now)
                if config.wire_generation >= 2:
                    tracker.note_peer_covers(envelope.sender, report.codes)
                    if isinstance(payload, WorkReportMsg) and not news and report.codes:
                        # Every code was already covered here: the sender
                        # works inside a region known done, so answer it.
                        answer_with_news(envelope.sender)
            elif isinstance(payload, DeltaGossipMsg):
                delta = payload.delta
                starved[delta.sender] = now
                if tracker.merge_delta(delta):
                    recovery.note_progress(now)
                tracker.note_peer_covers(delta.sender, delta.codes)
                my_digest = tracker.table_digest_now()
                if my_digest == delta.full_digest:
                    tracker.note_peer_converged(delta.sender)
                if delta.is_empty:
                    # A pull from a peer starting a recovery: nothing to
                    # acknowledge, so the answer is our news, or nothing.
                    answer_with_news(delta.sender)
                else:
                    send(
                        delta.sender,
                        TableGossipAck(
                            sender=config.name,
                            digest=delta.full_digest,
                            table_digest=my_digest,
                            best=my_best(),
                        ),
                    )
            elif isinstance(payload, TableGossipAck):
                tracker.note_snapshot_ack(payload.sender, payload.digest)
                if payload.table_digest and payload.table_digest == tracker.table_digest_now():
                    tracker.note_peer_converged(payload.sender)
            if handle_us is not None:
                handle_us.observe((time.monotonic() - now) * 1e6)
            if pool or answered or tracker.is_tree_complete():
                wait = 0.0
            elif wait > 0.0:
                wait = starved_wait(time.monotonic())

        if tracker.is_tree_complete():
            terminated = True
            break

        # ------------------------------------------------------------ work
        if starved and len(pool) >= 2:
            now = time.monotonic()
            timeout = pacing.request_timeout(node_cost, 0.0)
            for peer in pacing.push_targets(starved, now, timeout):
                pushed = pool.take_push()
                if pushed is None:
                    break
                del starved[peer]
                send(peer, WorkGrant(donor=config.name, codes=(pushed.code,), best=my_best()))
                pushes_sent += 1
        sub = None
        while pool:
            candidate = pool.pop()
            if not tracker.table.covers(candidate.code):
                sub = candidate
                break
        if sub is None:
            flush_report(force=True)
            recovery.forget_lost_recoveries(tracker)
            now = time.monotonic()
            if outstanding is not None and (
                now - outstanding[1] >= pacing.request_timeout(node_cost, 0.0)
            ):
                # Unanswered for a whole request timeout (lost message, dead
                # or busy victim): a failed attempt.  The next request waits
                # one pace from here, not from the send: a busy donor that a
                # grant left in step with this worker answers one loop period
                # after the request, just past one node cost, so asking
                # someone else at once would double the traffic per answer.
                outstanding = None
                last_request = now
                recovery.note_request_failed(now)
            bootstrap = pacing.bootstrap_timeout(node_cost)
            recovery.idle_time_threshold = pacing.stall_threshold(node_cost, bootstrap)
            may_recover, blank_since = pacing.blank_gate(
                expander.nodes_expanded == 0 and len(tracker.table) == 0,
                blank_since,
                now,
                bootstrap,
            )
            decision = recovery.evaluate(tracker, now) if may_recover else None
            if decision is not None and decision.code is not None:
                recovery.note_recovery_started(decision.code)
                if tracer is not None:
                    tracer.event(
                        "recovery_start",
                        category="recovery",
                        args={"depth": decision.code.depth},
                    )
                rebuilt = problem.rebuild_subproblem(decision.code)
                if rebuilt is None:
                    tracker.record_completed(decision.code)
                    continue
                pool.push(rebuilt, bound=problem.bound(rebuilt.state))
                if config.wire_generation >= 2 and peers:
                    # Ask before going far: answers that prove the subtree
                    # done let the covered-skip at pool pop drop it.
                    pull = DeltaGossipMsg(tracker.news_pull(best=my_best()))
                    for target in rng.sample(peers, min(config.report_fanout, len(peers))):
                        send(target, pull)
                        news_pulls_sent += 1
                continue
            # Starved workers use their spare capacity to converge the
            # completed-table views: deltas at generation 2, whole snapshots
            # at generation 1 (the paper's literal behaviour).
            if can_push() and now - last_push >= pacing.push_interval(node_cost):
                target = rng.choice(peers)
                last_push = now
                # One clock per process in the trace: the span is stamped
                # with the tracer's own (wall) clock; the monotonic clock
                # above only paces the push interval.
                span_start = tracer.now() if tracer is not None else 0.0
                gossip_kind = None
                if config.wire_generation >= 2:
                    gossip_delta = tracker.build_delta_snapshot(target, best=my_best())
                    if not gossip_delta.is_empty:
                        send(target, DeltaGossipMsg(gossip_delta))
                        gossip_kind = "delta_gossip"
                else:
                    send(target, TableGossipMsg(tracker.build_table_snapshot(best=my_best())))
                    gossip_kind = "table_gossip"
                if gossip_kind is not None and tracer is not None:
                    tracer.span(
                        gossip_kind,
                        span_start,
                        max(0.0, tracer.now() - span_start),
                        category="gossip",
                        args={"target": target},
                    )
            may_request = last_request is None or (
                now - last_request >= pacing.request_pause(node_cost, 0.0, walk_exhausted)
            )
            if outstanding is None and may_request:
                last_request = now
                walk_exhausted = False
                if peers:
                    victim = rng.choice(peers)
                    request_seq += 1
                    if config.wire_generation >= 3 and pacing.walk_hops(
                        node_cost, 0.0, len(peers)
                    ):
                        request = WalkRequest(config.name, request_seq, best=my_best())
                    else:
                        request = WorkRequest(requester=config.name, best=my_best())
                    send(victim, request)
                    outstanding = (victim, now, request_seq)
                else:
                    # Nobody to ask: every pace counts as a failed attempt.
                    recovery.note_request_failed(now)
            continue

        started = time.monotonic()
        outcome = expander.expand(sub, incumbent)
        if config.node_sleep > 0:
            time.sleep(config.node_sleep)
        node_cost = pacing.moving_average(node_cost, time.monotonic() - started)
        if outcome.incumbent_value is not None:
            incumbent = outcome.incumbent_value
        for code in outcome.completed:
            tracker.record_completed(code)
        for child, bound in outcome.children:
            pool.push(child, bound=bound)
        flush_report()

    # ------------------------------------------------------------ shutdown
    if tracker.is_tree_complete() and not root_broadcast_sent:
        root_report = make_root_report(config.name, best=my_best())
        for target in peers:
            send(target, WorkReportMsg(root_report))
        root_broadcast_sent = True

    outcome_message = WorkerOutcome(
        name=config.name,
        terminated=tracker.is_tree_complete(),
        best_value=incumbent,
        nodes_expanded=expander.nodes_expanded,
        reports_sent=reports_sent,
        recoveries=recovery.stats.activations,
    )
    if tracer is not None and registry is not None:
        # Whole-lifetime span for this worker, in absolute wall time: the
        # driver shifts everything onto a shared origin at export.
        tracer.span(
            "run",
            run_start,
            time.time() - run_start,
            category="worker",
            args={"nodes_expanded": expander.nodes_expanded},
        )
        registry.counter("worker_reports_sent", worker=config.name).inc(reports_sent)
        registry.counter("worker_pushes_sent", worker=config.name).inc(pushes_sent)
        registry.counter("worker_work_requests_forwarded", worker=config.name).inc(
            requests_forwarded
        )
        registry.counter("worker_walks_exhausted", worker=config.name).inc(walks_exhausted)
        registry.counter("worker_news_pulls_sent", worker=config.name).inc(news_pulls_sent)
        registry.counter("worker_news_answers_sent", worker=config.name).inc(
            news_answers_sent
        )
        registry.counter("worker_recoveries", worker=config.name).inc(
            recovery.stats.activations
        )
        # The telemetry frame must precede the outcome: pipe delivery is
        # FIFO, and the driver stops reading a worker once its outcome
        # triggers the completion check.
        send(
            "__driver__",
            WorkerTelemetry(
                name=config.name,
                payload=json.dumps(
                    {
                        "records": list(tracer.iter_records()),
                        "metrics": registry.snapshot(),
                    }
                ),
            ),
        )
    send("__driver__", outcome_message)
    # Teardown is outcome -> half-close -> drain to EOF: on the stream
    # transports ``close`` keeps reading (and discarding) the peers' late
    # reports and acks until the router has forwarded the outcome and closed
    # its side, so the kernel never resets the connection over it.
    try:
        connection.close()
    except OSError:  # pragma: no cover
        pass
