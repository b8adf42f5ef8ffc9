"""Binary-framed transport for the real execution backend.

The paper evaluates its algorithm purely in simulation; this backend runs the
*same* core objects (:class:`~repro.core.completion.CompletionTracker`,
:class:`~repro.core.recovery.RecoveryPolicy`, the tree encoding, the work
messages) on real operating-system processes connected by ``multiprocessing``
pipes.  It exists to demonstrate that the algorithm is not tied to the
simulator and to let the fault-injection tests kill actual processes.

Protocol payloads travel as :mod:`repro.wire` frames, not pickles: each
message on a pipe is one length-prefixed byte string (``Connection.
send_bytes``) containing an :class:`Envelope` frame — sender, destination and
the nested payload frame.  The router parses only the envelope's routing
header and forwards the raw bytes untouched, so the parent process never
decodes (or re-encodes) payload bodies; full decoding happens once, at the
receiving worker.  Byte-for-byte forwarding also gives the router exact
per-link traffic counters, the real-execution counterpart of the simulator's
:class:`~repro.simulation.network.TrafficStats`.

The transport remains deliberately simple: a star topology terminated at a
small router thread in the parent process.  Messages are addressed by worker
name; the router forwards them and never retries — an unreliable,
asynchronous channel, like the paper assumes.  Frames that do not parse as
envelopes (truncated, corrupt, or foreign bytes) are counted and dropped.

The star's *links* are pluggable (the ``Transport`` seam): the shared
:class:`EnvelopeRouter` owns the traffic counters and forward accounting,
and a concrete transport decides how worker connections are established and
multiplexed — :class:`PipeRouter` over ``multiprocessing`` duplex pipes,
:class:`UdsRouter` over Unix-domain sockets and :class:`TcpRouter` over TCP
(workers connect to one listener socket and identify themselves by name).
The two socket transports share :class:`StreamRouter`: a single
non-blocking ``selectors`` event loop that multiplexes every worker
connection in one thread, reassembles the self-delimiting wire frames at
the stream boundary and applies per-connection write-queue backpressure so
one slow or frozen worker can never stall forwarding for the rest.  Every
transport hands each worker process a Connection-compatible endpoint, so
the payload code in :mod:`repro.realexec.node` is transport-agnostic; the
driver selects the transport by name (``LocalCluster(transport="tcp")``, or
``Scenario(transport="tcp")`` through the scenario API).
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection as mpc
import os
import select
import selectors
import socket
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..obs import get_logger
from ..wire import FRAME_VERSION, WireFormatError, decode, encode
from ..wire.frame import Tag, TruncatedFrameError, read_header, register
from ..wire.varint import read_string, read_uvarint, write_string, write_uvarint

logger = get_logger("realexec.transport")

__all__ = [
    "Envelope",
    "EnvelopeRouter",
    "StreamRouter",
    "PipeRouter",
    "UdsRouter",
    "TcpRouter",
    "WorkerEndpoint",
    "UdsEndpoint",
    "TcpEndpoint",
    "StreamConnection",
    "create_router",
    "resolve_connection",
    "register_payload_kind",
    "payload_kind",
    "encode_envelope",
    "decode_envelope",
    "envelope_route",
    "envelope_route_info",
    "frame_extent",
    "send_envelope",
    "recv_envelope",
]

#: Wire tag of the realexec envelope (transport extension range).
ENVELOPE_TAG = int(Tag.EXTENSION_BASE)


@dataclass(frozen=True)
class Envelope:
    """One routed message: sender, destination and an arbitrary payload."""

    sender: str
    destination: str
    payload: Any


def _write_envelope(out: bytearray, envelope: Envelope) -> None:
    """Envelope body: sender, destination, then the nested payload frame."""
    write_string(out, envelope.sender)
    write_string(out, envelope.destination)
    payload = encode(envelope.payload)
    write_uvarint(out, len(payload))
    out += payload


def _read_envelope_body(
    data, pos: int, *, max_version: int = FRAME_VERSION
) -> Tuple[Envelope, int]:
    """Parse an envelope body (the single definition of its layout).

    ``max_version`` bounds the wire-format generation accepted for the
    *nested payload* frame (see :func:`decode_envelope`).
    """
    sender, pos = read_string(data, pos)
    destination, pos = read_string(data, pos)
    length, pos = read_uvarint(data, pos)
    end = pos + length
    if end > len(data):
        raise WireFormatError("envelope payload runs past end of frame")
    payload = decode(bytes(data[pos:end]), max_version=max_version)
    return Envelope(sender, destination, payload), end


def _read_envelope(data, pos: int) -> Tuple[Envelope, int]:
    """Registry reader: an envelope body at the current generation."""
    return _read_envelope_body(data, pos)


register(ENVELOPE_TAG, Envelope, _write_envelope, _read_envelope)


def encode_envelope(envelope: Envelope) -> bytes:
    """Encode an envelope (and its payload) into one frame."""
    return encode(envelope)


def decode_envelope(data: bytes, *, max_version: int = FRAME_VERSION) -> Envelope:
    """Decode an envelope frame produced by :func:`encode_envelope`.

    ``max_version`` bounds the wire-format generation of the *nested
    payload*: a worker running an older protocol generation passes its own
    (``RealWorkerConfig.wire_generation``), so payloads from newer peers are
    rejected exactly as its real decoder would reject them — the frame is
    dropped like a lost message, which is the rolling-upgrade behaviour the
    mixed-version cluster tests exercise.  The envelope itself is a
    generation-1 frame, so routing keeps working across generations.
    """
    _version, tag, body_start, body_len = read_header(data)
    if tag != ENVELOPE_TAG:
        raise WireFormatError(f"expected envelope tag {ENVELOPE_TAG}, got {tag}")
    body_end = body_start + body_len
    if body_end != len(data):
        raise WireFormatError(f"{len(data) - body_end} trailing bytes after frame")
    try:
        envelope, pos = _read_envelope_body(data, body_start, max_version=max_version)
    except WireFormatError:
        raise
    except ValueError as exc:
        raise WireFormatError(f"corrupt envelope body: {exc}") from exc
    if pos != body_end:
        raise WireFormatError(
            f"envelope body consumed {pos - body_start} bytes but frame declared {body_len}"
        )
    return envelope


def envelope_route_info(data) -> Tuple[str, str, Optional[int]]:
    """Parse ``(sender, destination, payload_tag)`` from an envelope frame.

    This is the router's fast path: it validates the frame header and reads
    the two routing strings without touching the payload *body*.  The nested
    payload frame's tag sits right behind the routing header, so the router
    can additionally account traffic per message kind (see
    :func:`payload_kind`) for the cost of three varint reads; a payload whose
    own header does not parse yields tag ``None`` (the frame is still
    forwarded — payload corruption is the receiver's business).  Any
    malformation in the envelope header or the routing strings themselves
    surfaces as :class:`~repro.wire.WireFormatError`, so the router can treat
    "unroutable" as a single error class.
    """
    _version, tag, pos, _body_len = read_header(data)
    if tag != ENVELOPE_TAG:
        raise WireFormatError(f"expected envelope tag {ENVELOPE_TAG}, got {tag}")
    try:
        sender, pos = read_string(data, pos)
        destination, pos = read_string(data, pos)
    except WireFormatError:
        raise
    except ValueError as exc:
        raise WireFormatError(f"corrupt envelope routing header: {exc}") from exc
    payload_tag: Optional[int] = None
    try:
        length, pos = read_uvarint(data, pos)
        if length >= 3 and pos + length <= len(data):
            # A zero-copy view suffices: read_header only touches the first
            # few bytes (magic, version, two varints) of the nested frame.
            _pver, ptag, _ppos, _plen = read_header(memoryview(data)[pos : pos + length])
            payload_tag = ptag
    except (ValueError, WireFormatError):
        payload_tag = None
    return sender, destination, payload_tag


def envelope_route(data) -> Tuple[str, str]:
    """Parse only ``(sender, destination)`` from an envelope frame."""
    sender, destination, _tag = envelope_route_info(data)
    return sender, destination


#: Payload-tag → kind label, for the router's per-kind traffic accounting.
#: Mirrors :class:`~repro.distributed.messages.MessageKinds` where the kinds
#: overlap, so simulated and real runs report comparable ``bytes_by_kind``.
_PAYLOAD_KINDS: Dict[int, str] = {
    int(Tag.WORK_REQUEST): "work_request",
    int(Tag.WORK_GRANT): "work_grant",
    int(Tag.WORK_DENIED): "work_denied",
    int(Tag.WORK_REPORT_MSG): "work_report",
    int(Tag.TABLE_GOSSIP_MSG): "table_gossip",
    int(Tag.DELTA_GOSSIP_MSG): "delta_gossip",
    int(Tag.TABLE_GOSSIP_ACK): "gossip_ack",
    int(Tag.VIEW_GOSSIP): "view_gossip",
    int(Tag.JOIN_ANNOUNCEMENT): "join_announcement",
}


def register_payload_kind(tag: int, name: str) -> None:
    """Name the traffic kind of an extension tag (used by ``node``)."""
    _PAYLOAD_KINDS[int(tag)] = name


def payload_kind(tag: Optional[int]) -> str:
    """Kind label of a payload tag (``unknown`` when it could not be read)."""
    if tag is None:
        return "unknown"
    return _PAYLOAD_KINDS.get(tag, f"tag_{tag}")


def send_envelope(connection, envelope: Envelope) -> None:
    """Encode and send one envelope over a pipe connection."""
    connection.send_bytes(encode_envelope(envelope))


def recv_envelope(connection, *, max_version: int = FRAME_VERSION) -> Envelope:
    """Receive and decode one envelope from a pipe connection.

    Raises :class:`~repro.wire.WireFormatError` on corrupt frames (including
    payloads from a newer wire-format generation than ``max_version``) and
    the usual ``EOFError``/``OSError`` on closed pipes.
    """
    return decode_envelope(connection.recv_bytes(), max_version=max_version)


# --------------------------------------------------------------------------- #
# Stream framing: reassembly of self-delimiting frames on a byte boundary
# --------------------------------------------------------------------------- #

#: Bytes pulled off a stream socket per ``recv`` call.
STREAM_CHUNK = 65536

#: Upper bound on the identity preamble (uvarint length + utf-8 name).
_IDENTITY_LIMIT = 300

#: Forward-latency histogram buckets (seconds): forwarding one frame is a
#: sub-millisecond operation, so the buckets sit well below
#: :data:`repro.obs.metrics.DEFAULT_BUCKETS`.
FORWARD_LATENCY_BUCKETS = (
    0.00001, 0.00005, 0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5,
)


def frame_extent(data) -> Optional[int]:
    """Length of the single complete frame at the head of ``data``, if any.

    Wire frames are self-delimiting — the header declares the body length —
    so a byte stream needs no extra length prefix: try-parse the header and
    either the frame's extent is known or the buffer is still a prefix.
    Returns ``None`` when ``data`` holds only a partial frame (the caller
    keeps the bytes and waits for more — the partial-read invariant);
    raises :class:`~repro.wire.WireFormatError` when the head cannot start
    a frame at all (bad magic: the stream is desynchronised and cannot be
    trusted again).
    """
    try:
        _version, _tag, body_start, body_len = read_header(data)
    except TruncatedFrameError:
        return None
    return body_start + body_len


def _encode_identity(name: str) -> bytes:
    """The first bytes a stream client sends: uvarint length + utf-8 name."""
    encoded = name.encode("utf-8")
    out = bytearray()
    write_uvarint(out, len(encoded))
    out += encoded
    return bytes(out)


def _parse_identity(buffer) -> Optional[Tuple[str, int]]:
    """Parse the identity preamble; ``None`` while it is still incomplete.

    Raises :class:`~repro.wire.WireFormatError` for a preamble that can
    never become valid (oversized length or undecodable name).
    """
    try:
        length, pos = read_uvarint(buffer, 0)
    except ValueError:
        if len(buffer) > _IDENTITY_LIMIT:
            raise WireFormatError("unparseable identity preamble")
        return None
    if length > _IDENTITY_LIMIT:
        raise WireFormatError(f"identity name of {length} bytes exceeds limit")
    if pos + length > len(buffer):
        return None
    try:
        name = bytes(buffer[pos : pos + length]).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireFormatError(f"identity is not utf-8: {exc}") from exc
    return name, pos + length


class StreamConnection:
    """Connection-compatible adapter over a blocking stream socket.

    Gives worker processes the same ``poll``/``recv_bytes``/``send_bytes``
    surface as a ``multiprocessing`` pipe Connection, with message framing
    recovered from the byte stream via :func:`frame_extent`: ``poll`` is
    true once a *complete* frame is buffered, ``recv_bytes`` returns exactly
    one frame.  Sends are plain ``sendall`` — a worker blocking on a slow
    router mirrors a worker blocking on a full pipe; :meth:`close` is the
    worker's half of the lossless-teardown contract.
    """

    #: Upper bound (seconds) :meth:`close` waits for the router's EOF.
    CLOSE_LINGER = 1.0

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._rbuf = bytearray()
        self._eof = False

    def fileno(self) -> int:
        return self._sock.fileno()

    def send_bytes(self, data) -> None:
        self._sock.sendall(data)

    def _buffered_frame(self) -> Optional[int]:
        try:
            return frame_extent(self._rbuf)
        except WireFormatError:
            # Desync is surfaced from recv_bytes, inside callers' handlers.
            return len(self._rbuf)

    def poll(self, timeout: Optional[float] = 0.0) -> bool:
        """True once a complete frame (or EOF) is ready for ``recv_bytes``.

        ``poll(0)`` is one non-blocking read attempt, exactly like a pipe
        Connection's: whatever the kernel already holds is pulled into the
        buffer, so a busy worker that never blocks still sees its traffic.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._buffered_frame() is not None or self._eof:
                return True
            wait = None if deadline is None else max(0.0, deadline - time.monotonic())
            readable, _, _ = select.select([self._sock], [], [], wait)
            if not readable:
                return False
            try:
                chunk = self._sock.recv(STREAM_CHUNK)
            except BlockingIOError:  # pragma: no cover - spurious wakeup
                continue
            except OSError:
                self._eof = True
                return True
            if not chunk:
                self._eof = True
                return True
            self._rbuf += chunk

    def recv_bytes(self, maxlength: Optional[int] = None) -> bytes:
        """Return the next complete frame (blocking until it arrives)."""
        while True:
            try:
                extent = frame_extent(self._rbuf)
            except WireFormatError:
                # The stream can no longer be trusted; discard the buffer so
                # the error is raised once, not on every later call.
                del self._rbuf[:]
                raise
            if extent is not None:
                frame = bytes(self._rbuf[:extent])
                del self._rbuf[:extent]
                return frame
            if self._eof:
                raise EOFError
            try:
                chunk = self._sock.recv(STREAM_CHUNK)
            except OSError as exc:
                raise EOFError from exc
            if not chunk:
                self._eof = True
            else:
                self._rbuf += chunk

    def close(self) -> None:
        """Lossless teardown: half-close, drain to EOF, then close.

        Closing a socket with unread inbound data makes the kernel answer
        with RST, which can discard what this side sent last (a worker's
        outcome) before the router has read it.  So: ``shutdown(SHUT_WR)``
        delivers everything sent plus EOF, then inbound bytes are read and
        discarded until the router closes its side — which it does once it
        has forwarded our last frame — or :attr:`CLOSE_LINGER` expires.
        """
        try:
            self._sock.shutdown(socket.SHUT_WR)
            deadline = time.monotonic() + self.CLOSE_LINGER
            while not self._eof:
                wait = deadline - time.monotonic()
                if wait <= 0 or not select.select([self._sock], [], [], wait)[0]:
                    break
                self._eof = not self._sock.recv(STREAM_CHUNK)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - platform dependent
            pass


def _connect_with_retry(factory, deadline_seconds: float):
    """Dial until ``factory`` succeeds, with bounded exponential backoff.

    Workers regularly dial before the router's listener is up (the driver
    starts them concurrently); retrying with backoff instead of failing is
    what makes the socket transports usable on a real fabric.
    """
    deadline = time.monotonic() + deadline_seconds
    delay = 0.01
    while True:
        try:
            return factory()
        except (FileNotFoundError, ConnectionRefusedError, ConnectionResetError, OSError):
            if time.monotonic() >= deadline:
                raise
            time.sleep(delay)
            delay = min(delay * 2, 0.5)


class WorkerEndpoint:
    """A picklable handle a worker process turns into its connection.

    Concrete transports return either a ready Connection (pipes — the child
    inherits the pipe end) or an endpoint like :class:`UdsEndpoint` /
    :class:`TcpEndpoint` that the child must :meth:`connect` first;
    :func:`resolve_connection` accepts both, so driver and worker code stay
    transport-agnostic.
    """

    #: Seconds :meth:`connect` keeps retrying before giving up.
    CONNECT_DEADLINE = 10.0

    def connect(self):  # pragma: no cover - interface
        raise NotImplementedError


class UdsEndpoint(WorkerEndpoint):
    """Connects to a :class:`UdsRouter` socket and identifies by name."""

    def __init__(self, address: str, name: str) -> None:
        self.address = address
        self.name = name

    def _dial(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(self.address)
        except OSError:
            sock.close()
            raise
        return sock

    def connect(self) -> StreamConnection:
        """Connect to the router socket; retries while the listener comes up."""
        sock = _connect_with_retry(self._dial, self.CONNECT_DEADLINE)
        # The router reads this identity preamble to bind the connection to
        # a worker name; everything after it is ordinary envelope frames.
        sock.sendall(_encode_identity(self.name))
        return StreamConnection(sock)


class TcpEndpoint(WorkerEndpoint):
    """Connects to a :class:`TcpRouter` listener and identifies by name."""

    def __init__(self, host: str, port: int, name: str) -> None:
        self.host = host
        self.port = port
        self.name = name

    def _dial(self) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            # Envelope frames are small and latency-sensitive; without
            # NODELAY, Nagle + delayed ACK serialises the request/grant
            # ping-pong at ~40ms a round trip (bench_transport measures it).
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.connect((self.host, self.port))
        except OSError:
            sock.close()
            raise
        return sock

    def connect(self) -> StreamConnection:
        """Connect to the router's TCP listener; retries with backoff."""
        sock = _connect_with_retry(self._dial, self.CONNECT_DEADLINE)
        sock.sendall(_encode_identity(self.name))
        return StreamConnection(sock)


def resolve_connection(handle):
    """Turn an ``add_worker`` return value into a usable connection."""
    if hasattr(handle, "recv_bytes"):
        return handle
    return handle.connect()


class EnvelopeRouter:
    """Routes envelope frames between worker processes through the parent.

    The shared half of every transport: the per-link / per-payload-kind
    traffic accounting, the telemetry hooks and the thread lifecycle.  A
    background thread in the parent process moves frames between the
    router-side connections, parsing only each frame's routing header and
    forwarding the raw bytes to their destination.  Messages to unknown or
    finished workers, and frames that fail to parse, are dropped silently,
    matching the lossy network model of the paper.

    Subclasses implement :meth:`add_worker` (how a worker obtains its
    endpoint), connection establishment/teardown and the concrete
    forwarding loop (:meth:`_run`).
    """

    #: Transport name, for reporting (``LocalClusterResult.transport``).
    transport = "abstract"

    def __init__(self) -> None:
        #: Router-side connections, keyed by worker name.
        self._parent_ends: Dict[str, Any] = {}
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        #: Count of forwarded messages, for tests and reporting.
        self.forwarded = 0
        #: Count of dropped messages (unknown/closed destination, bad frame).
        self.dropped = 0
        #: Total payload-carrying bytes forwarded.
        self.bytes_forwarded = 0
        #: Per-link traffic: ``(sender, destination) -> bytes forwarded``.
        self.link_bytes: Dict[Tuple[str, str], int] = {}
        #: Per-link traffic: ``(sender, destination) -> messages forwarded``.
        self.link_messages: Dict[Tuple[str, str], int] = {}
        #: Forwarded bytes per payload kind (see :func:`payload_kind`).
        self.kind_bytes: Dict[str, int] = {}
        #: Forwarded messages per payload kind.
        self.kind_messages: Dict[str, int] = {}
        #: Optional :class:`repro.obs.Tracer` recording forward spans.  Set
        #: by the driver when telemetry is on; appends from the router
        #: thread are GIL-atomic list operations, so no extra locking.
        self.tracer = None
        #: Optional :class:`repro.obs.MetricsRegistry`.  Set by the driver
        #: when metrics are on; the router observes its forward latencies
        #: into ``router_forward_latency_seconds{link=...,transport=...}``.
        self.metrics = None
        self._latency_hists: Dict[Tuple[str, str], Any] = {}
        #: Workers whose traffic is currently dropped (SIGSTOP churn).  A
        #: stopped process cannot drain its pipe, so forwarding to it would
        #: eventually fill the buffer and block the router thread; dropping
        #: instead models the lossy network the paper assumes.  Mutated by
        #: the driver thread; set operations are GIL-atomic.
        self.paused: set = set()

    # ------------------------------------------------------------------ #
    # Transport interface
    # ------------------------------------------------------------------ #
    def add_worker(self, name: str):  # pragma: no cover - interface
        """Register a worker; returns its endpoint (or ready connection)."""
        raise NotImplementedError

    def remove_worker(self, name: str) -> None:
        """Forget a worker's registration so the name can be registered again.

        Used by churn restarts: the driver removes the departed worker,
        respawns the process and calls :meth:`add_worker` with the same name
        for a fresh endpoint.  Messages addressed to the name in between
        count as dropped, like any message to a dead entity.
        """
        self.paused.discard(name)
        conn = self._parent_ends.pop(name, None)
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - platform dependent
                pass

    def start(self) -> None:
        """Start the forwarding thread."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name=f"{self.transport}-router", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the forwarding thread and close the router-side connections.

        Idempotent.  A forwarding thread that fails to join within the
        timeout is abandoned (it is a daemon thread) with a loud warning —
        never a silently dangling reference — and the connections are
        closed regardless so the run's file descriptors are reclaimed.
        """
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=2.0)
            if thread.is_alive():
                logger.warning(
                    "%s router thread %r did not stop within 2.0s; "
                    "abandoning the daemon thread and closing its connections",
                    self.transport,
                    thread.name,
                )
            self._thread = None
        for conn in self._parent_ends.values():
            try:
                conn.close()
            except OSError:  # pragma: no cover - platform dependent
                pass

    # ------------------------------------------------------------------ #
    # Shared forward accounting
    # ------------------------------------------------------------------ #
    def _account(
        self, sender: str, dest: str, tag: Optional[int], size: int, start: float
    ) -> None:
        """Count one forwarded frame (counters, tracer span, histogram).

        Every concrete forwarding loop calls this at the hand-off point, so
        pipe and stream transports report identical counter families.
        """
        self.forwarded += 1
        elapsed = time.time() - start
        kind = payload_kind(tag)
        if self.tracer is not None:
            self.tracer.span(
                kind,
                start,
                elapsed,
                process="router",
                category="transport",
                args={"link": f"{sender}->{dest}", "bytes": size},
            )
        if self.metrics is not None:
            link = (sender, dest)
            hist = self._latency_hists.get(link)
            if hist is None:
                hist = self.metrics.histogram(
                    "router_forward_latency_seconds",
                    buckets=FORWARD_LATENCY_BUCKETS,
                    link=f"{sender}->{dest}",
                    transport=self.transport,
                )
                self._latency_hists[link] = hist
            hist.observe(elapsed)
        self.bytes_forwarded += size
        link = (sender, dest)
        self.link_bytes[link] = self.link_bytes.get(link, 0) + size
        self.link_messages[link] = self.link_messages.get(link, 0) + 1
        self.kind_bytes[kind] = self.kind_bytes.get(kind, 0) + size
        self.kind_messages[kind] = self.kind_messages.get(kind, 0) + 1

    def _run(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class PipeRouter(EnvelopeRouter):
    """The pipe transport: a star of ``multiprocessing`` duplex pipes.

    ``add_worker`` returns the child end of the worker's pipe directly —
    child processes inherit it through the ``Process`` arguments, so no
    connection step is needed.  The forwarding loop polls with ``mpc.wait``
    and sends with blocking ``send_bytes``, byte-identical to the original
    single-transport router.
    """

    transport = "pipe"

    def __init__(self) -> None:
        super().__init__()
        self._child_ends: Dict[str, mpc.Connection] = {}

    def add_worker(self, name: str) -> mpc.Connection:
        """Create the pipe pair for a worker; returns the child end."""
        if name in self._parent_ends:
            raise ValueError(f"duplicate worker name: {name!r}")
        parent_end, child_end = mp.Pipe(duplex=True)
        self._parent_ends[name] = parent_end
        self._child_ends[name] = child_end
        return child_end

    def child_end(self, name: str) -> mpc.Connection:
        """The connection a worker process should use."""
        return self._child_ends[name]

    def remove_worker(self, name: str) -> None:
        """Forget both pipe ends (the churn-restart path)."""
        super().remove_worker(name)
        child = self._child_ends.pop(name, None)
        if child is not None:
            try:
                child.close()
            except OSError:  # pragma: no cover - platform dependent
                pass

    # ------------------------------------------------------------------ #
    # Forwarding loop
    # ------------------------------------------------------------------ #
    def _drop_connection(self, conn) -> None:
        """Forget a dead connection so ``mpc.wait`` stops reporting it ready.

        Without this, a closed connection is permanently "ready" and the
        forwarding loop busy-spins on its EOF at 100% CPU for the rest of
        the run.  Later messages to the departed worker simply count as
        dropped, like any message to a dead entity.
        """
        for name, end in list(self._parent_ends.items()):
            if end is conn:
                del self._parent_ends[name]
                break
        try:
            conn.close()
        except OSError:  # pragma: no cover - platform dependent
            pass

    def _run(self) -> None:
        while not self._stop.is_set():
            ends = list(self._parent_ends.values())
            if not ends:
                self._stop.wait(0.05)
                continue
            ready = mpc.wait(ends, timeout=0.05)
            for conn in ready:
                try:
                    frame = conn.recv_bytes()
                except (EOFError, OSError):
                    self._drop_connection(conn)
                    continue
                try:
                    sender, dest, tag = envelope_route_info(frame)
                except WireFormatError:
                    self.dropped += 1
                    continue
                destination = self._parent_ends.get(dest)
                if destination is None or dest in self.paused:
                    self.dropped += 1
                    continue
                forward_start = time.time()
                try:
                    destination.send_bytes(frame)
                except (BrokenPipeError, OSError):
                    self.dropped += 1
                    continue
                self._account(sender, dest, tag, len(frame), forward_start)


class _StreamPeer:
    """Per-connection state of the stream router's event loop."""

    __slots__ = ("sock", "name", "rbuf", "wbuf", "identified", "identify_by", "write_dead")

    def __init__(self, sock: socket.socket, identify_by: float) -> None:
        self.sock = sock
        self.name: Optional[str] = None
        self.rbuf = bytearray()
        self.wbuf = bytearray()
        self.identified = False
        #: Set once a send to this peer failed: nothing more is written to
        #: it, but it is still *read* until EOF — a finishing worker's last
        #: frames are usually still in flight when its peers' late traffic
        #: bounces off it.
        self.write_dead = False
        #: Monotonic deadline for the identity preamble to arrive.
        self.identify_by = identify_by

    def fileno(self) -> int:
        return self.sock.fileno()

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - platform dependent
            pass


class StreamRouter(EnvelopeRouter):
    """Shared machinery of the socket transports: one event loop, no threads
    per connection.

    A single ``selectors``-based non-blocking loop multiplexes the listener
    socket, a wakeup channel and every worker connection in one thread:

    * **accept + identify** — new connections register for reads; the first
      bytes must be the identity preamble (uvarint length + utf-8 name)
      within :attr:`IDENTITY_TIMEOUT` seconds, or the connection is closed —
      a stillborn client can never stall later registrations, because
      nothing here blocks.
    * **partial-frame reassembly** — reads append to a per-connection buffer
      and :func:`frame_extent` carves out complete frames; a partial frame
      simply stays buffered (TCP segmentation never corrupts a message).
    * **write-queue backpressure** — forwards append to the destination's
      bounded write buffer and drain as the socket allows; when a slow or
      frozen (SIGSTOP) worker's buffer is full, further frames to *it* are
      dropped and counted, and every other link keeps flowing.  The
      driver-maintained :attr:`paused` set short-circuits the same way.
    * **lossless teardown** — a failed send makes a link *write-dead*
      (later frames to it count as dropped) but never read-dead: the peer
      is read until EOF and every complete frame it sent is forwarded
      before the connection is detached.  Together with
      :meth:`StreamConnection.close` (half-close, then drain) a finishing
      worker's last word always reaches its destination.

    Subclasses supply the listener socket (:meth:`_create_listener`), the
    worker endpoint (:meth:`_make_endpoint`) and per-socket options
    (:meth:`_configure_socket`).
    """

    #: Seconds a connected client has to send its identity preamble before
    #: the event loop gives up on it.
    IDENTITY_TIMEOUT = 2.0

    #: Per-connection write-buffer cap; frames beyond it are dropped, which
    #: bounds the router's memory against any one unresponsive worker.
    WRITE_BUFFER_LIMIT = 1 << 20

    #: Seconds an expected worker gets to dial in before frames addressed
    #: to it are dropped instead of deferred.  Unlike the pipe transport,
    #: whose links exist before any process starts, socket workers register
    #: asynchronously — an early frame to a peer that has not identified
    #: yet is a startup artefact, not a lost message.
    CONNECT_GRACE = 5.0

    #: Cap on frames parked for not-yet-connected workers.
    _DEFER_LIMIT = 4096

    def __init__(self) -> None:
        super().__init__()
        self._expected: set = set()
        self._listener: Optional[socket.socket] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._wake_r: Optional[socket.socket] = None
        self._wake_w: Optional[socket.socket] = None
        #: Peers detached by the driver thread; the loop thread reaps them.
        self._defunct: Deque[_StreamPeer] = deque()
        #: Accepted but not yet identified connections.
        self._pending: List[_StreamPeer] = []
        #: Expected name -> monotonic deadline for its connection to appear.
        self._connect_grace: Dict[str, float] = {}
        #: ``(destination, frame)`` parked until the destination identifies.
        self._deferred: Deque[Tuple[str, bytes]] = deque()

    # -- subclass hooks ------------------------------------------------- #
    def _create_listener(self) -> socket.socket:  # pragma: no cover - interface
        raise NotImplementedError

    def _make_endpoint(self, name: str) -> WorkerEndpoint:  # pragma: no cover
        raise NotImplementedError

    def _configure_socket(self, sock: socket.socket) -> None:
        """Per-connection socket options (e.g. ``TCP_NODELAY``)."""

    # -- transport interface -------------------------------------------- #
    def add_worker(self, name: str) -> WorkerEndpoint:
        """Register a worker; returns the endpoint it connects with."""
        if name in self._expected:
            raise ValueError(f"duplicate worker name: {name!r}")
        self._expected.add(name)
        self._connect_grace[name] = time.monotonic() + self.CONNECT_GRACE
        return self._make_endpoint(name)

    def remove_worker(self, name: str) -> None:
        """Drop the identity so a respawned worker may re-identify.

        Called from the driver thread while the event loop runs: the name
        is unlinked here (dict operations are GIL-atomic, so the loop
        either still saw the peer or no longer does — never half of it) and
        the socket itself is handed to the loop thread for unregistration,
        which is the only thread that touches the selector.
        """
        self.paused.discard(name)
        self._expected.discard(name)
        self._connect_grace.pop(name, None)
        peer = self._parent_ends.pop(name, None)
        if peer is not None:
            self._defunct.append(peer)
            if self._thread is not None and self._thread.is_alive():
                self._wake()
            else:
                self._reap_defunct()

    def _wake(self) -> None:
        """Nudge the event loop out of ``select`` (driver-thread safe)."""
        sock = self._wake_w
        if sock is not None:
            try:
                sock.send(b"\0")
            except (BlockingIOError, OSError):  # pragma: no cover - full/closed
                pass

    def start(self) -> None:
        if self._thread is not None:
            return
        if self._listener is None:
            self._listener = self._create_listener()
        self._listener.setblocking(False)
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, "listener")
        self._selector.register(self._wake_r, selectors.EVENT_READ, "wakeup")
        # The grace clock starts when the fabric is actually listening, not
        # when the driver pre-registered the names.
        now = time.monotonic()
        for name in self._expected:
            self._connect_grace[name] = now + self.CONNECT_GRACE
        super().start()

    def stop(self) -> None:
        self._stop.set()
        self._wake()
        super().stop()
        self._reap_defunct()
        for peer in self._pending:
            peer.close()
        self._pending.clear()
        for sock in (self._listener, self._wake_r, self._wake_w):
            if sock is not None:
                try:
                    sock.close()
                except OSError:  # pragma: no cover - platform dependent
                    pass
        self._listener = None
        self._wake_r = None
        self._wake_w = None
        if self._selector is not None:
            try:
                self._selector.close()
            except OSError:  # pragma: no cover - platform dependent
                pass
            self._selector = None

    # -- the event loop -------------------------------------------------- #
    def _run(self) -> None:
        selector = self._selector
        assert selector is not None
        while not self._stop.is_set():
            try:
                events = selector.select(timeout=0.05)
            except OSError:  # pragma: no cover - selector torn down under us
                return
            now = time.monotonic()
            for key, mask in events:
                data = key.data
                if data == "listener":
                    self._accept(now)
                elif data == "wakeup":
                    self._drain_wakeup()
                else:
                    peer = data
                    if peer.sock.fileno() < 0:
                        continue
                    if mask & selectors.EVENT_READ:
                        self._on_readable(peer)
                    if mask & selectors.EVENT_WRITE and peer.sock.fileno() >= 0:
                        self._on_writable(peer)
            self._reap_defunct()
            self._expire_unidentified(now)
            self._expire_deferred(now)

    def _drain_wakeup(self) -> None:
        sock = self._wake_r
        if sock is None:
            return
        try:
            while sock.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass

    def _accept(self, now: float) -> None:
        listener = self._listener
        selector = self._selector
        if listener is None or selector is None:
            return
        while True:
            try:
                sock, _addr = listener.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            self._configure_socket(sock)
            peer = _StreamPeer(sock, now + self.IDENTITY_TIMEOUT)
            self._pending.append(peer)
            try:
                selector.register(sock, selectors.EVENT_READ, peer)
            except (KeyError, ValueError, OSError):  # pragma: no cover
                peer.close()
                self._pending.remove(peer)

    def _detach(self, peer: _StreamPeer) -> None:
        """Unregister and close one connection (event-loop thread only)."""
        selector = self._selector
        if selector is not None:
            try:
                selector.unregister(peer.sock)
            except (KeyError, ValueError, OSError):
                pass
        if peer in self._pending:
            self._pending.remove(peer)
        if peer.name is not None and self._parent_ends.get(peer.name) is peer:
            del self._parent_ends[peer.name]
        peer.close()

    def _reap_defunct(self) -> None:
        while self._defunct:
            peer = self._defunct.popleft()
            selector = self._selector
            if selector is not None:
                try:
                    selector.unregister(peer.sock)
                except (KeyError, ValueError, OSError):
                    pass
            peer.close()

    def _expire_unidentified(self, now: float) -> None:
        for peer in list(self._pending):
            if now >= peer.identify_by:
                self._detach(peer)

    def _on_readable(self, peer: _StreamPeer) -> None:
        try:
            chunk = peer.sock.recv(STREAM_CHUNK)
        except BlockingIOError:  # pragma: no cover - spurious wakeup
            return
        except OSError:
            chunk = b""
        if not chunk:
            # EOF (or reset): whatever arrived complete is still forwarded.
            if peer.identified:
                self._pump_frames(peer)
            self._detach(peer)
            return
        peer.rbuf += chunk
        if not peer.identified and not self._try_identify(peer):
            return
        self._pump_frames(peer)

    def _try_identify(self, peer: _StreamPeer) -> bool:
        """Bind the connection to its worker name once the preamble is in."""
        try:
            parsed = _parse_identity(peer.rbuf)
        except WireFormatError:
            self._detach(peer)
            return False
        if parsed is None:
            return False
        name, consumed = parsed
        del peer.rbuf[:consumed]
        if name not in self._expected or name in self._parent_ends:
            self._detach(peer)
            return False
        peer.name = name
        peer.identified = True
        if peer in self._pending:
            self._pending.remove(peer)
        self._parent_ends[name] = peer
        self._flush_deferred(name)
        return True

    def _flush_deferred(self, name: str) -> None:
        """Forward frames parked for ``name`` now that it has identified."""
        if not self._deferred:
            return
        remaining: Deque[Tuple[str, bytes]] = deque()
        for dest, frame in self._deferred:
            if dest == name:
                self._forward(frame)
            else:
                remaining.append((dest, frame))
        self._deferred = remaining

    def _expire_deferred(self, now: float) -> None:
        """Drop parked frames whose destination's connect grace ran out."""
        if not self._deferred:
            return
        remaining: Deque[Tuple[str, bytes]] = deque()
        for dest, frame in self._deferred:
            grace = self._connect_grace.get(dest)
            if grace is not None and now < grace and dest in self._expected:
                remaining.append((dest, frame))
            else:
                self.dropped += 1
        self._deferred = remaining

    def _pump_frames(self, peer: _StreamPeer) -> None:
        """Carve complete frames out of the read buffer and forward them."""
        while True:
            try:
                extent = frame_extent(peer.rbuf)
            except WireFormatError:
                # The stream is desynchronised (bad magic mid-stream); no
                # later byte can be trusted to start a frame, so the only
                # safe recovery is to drop the connection.
                self.dropped += 1
                self._detach(peer)
                return
            if extent is None:
                return
            frame = bytes(peer.rbuf[:extent])
            del peer.rbuf[:extent]
            self._forward(frame)

    def _forward(self, frame: bytes) -> None:
        try:
            sender, dest, tag = envelope_route_info(frame)
        except WireFormatError:
            self.dropped += 1
            return
        if dest in self.paused:
            self.dropped += 1
            return
        peer = self._parent_ends.get(dest)
        if peer is None:
            grace = self._connect_grace.get(dest)
            if (
                grace is not None
                and dest in self._expected
                and time.monotonic() < grace
                and len(self._deferred) < self._DEFER_LIMIT
            ):
                # An expected worker that has not dialed in yet; park the
                # frame instead of losing it to the startup race.
                self._deferred.append((dest, frame))
            else:
                self.dropped += 1
            return
        forward_start = time.time()
        if not self._enqueue(peer, frame):
            self.dropped += 1
            return
        self._account(sender, dest, tag, len(frame), forward_start)

    def _enqueue(self, peer: _StreamPeer, frame: bytes) -> bool:
        """Queue ``frame`` for ``peer``; False when it has to be dropped
        (write-dead link or backpressure)."""
        if peer.write_dead:
            return False
        if peer.wbuf:
            if len(peer.wbuf) + len(frame) > self.WRITE_BUFFER_LIMIT:
                return False
            peer.wbuf += frame
            return True
        # Empty queue: try the kernel directly and only buffer the remainder,
        # so the common case costs no extra selector round trip.
        try:
            sent = peer.sock.send(frame)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._mark_write_dead(peer)
            return False
        if sent < len(frame):
            peer.wbuf += frame[sent:]
            self._set_write_interest(peer, True)
        return True

    def _on_writable(self, peer: _StreamPeer) -> None:
        if peer.wbuf:
            try:
                sent = peer.sock.send(peer.wbuf)
            except BlockingIOError:  # pragma: no cover - spurious wakeup
                return
            except OSError:
                self._mark_write_dead(peer)
                return
            del peer.wbuf[:sent]
        if not peer.wbuf:
            self._set_write_interest(peer, False)

    def _mark_write_dead(self, peer: _StreamPeer) -> None:
        """A send to ``peer`` failed: stop writing to it, keep reading it.

        The link is never read-dead before EOF — detaching here would close
        the socket over frames the peer sent before it went away (its
        :class:`~repro.realexec.node.WorkerOutcome`, typically).  Like
        :class:`PipeRouter`, a failed send only costs the frame.
        """
        peer.write_dead = True
        del peer.wbuf[:]
        self._set_write_interest(peer, False)

    def _set_write_interest(self, peer: _StreamPeer, on: bool) -> None:
        selector = self._selector
        if selector is None:
            return
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if on else 0)
        try:
            selector.modify(peer.sock, events, peer)
        except (KeyError, ValueError, OSError):  # pragma: no cover - detached
            pass


#: Listen backlog for the socket transports; 100+ workers dial at once in
#: the saturation benchmark, so this must exceed the default of a few dozen.
_LISTEN_BACKLOG = 256


class UdsRouter(StreamRouter):
    """The Unix-domain-socket transport, on the shared stream event loop.

    One listener socket in the parent; every worker (and the driver)
    connects to it and sends its identity preamble.  Unknown or duplicate
    identities are closed immediately.
    """

    transport = "uds"

    def __init__(self, address: Optional[str] = None) -> None:
        super().__init__()
        self._address = address
        self._socket_dir: Optional[str] = None

    @property
    def address(self) -> str:
        """The socket path; the backing temp directory is created lazily,
        so a router that is constructed but never used leaves no files."""
        if self._address is None:
            self._socket_dir = tempfile.mkdtemp(prefix="repro-uds-")
            self._address = os.path.join(self._socket_dir, "router.sock")
        return self._address

    def _make_endpoint(self, name: str) -> UdsEndpoint:
        return UdsEndpoint(self.address, name)

    def _create_listener(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.bind(self.address)
            sock.listen(_LISTEN_BACKLOG)
        except OSError:
            sock.close()
            raise
        return sock

    def stop(self) -> None:
        super().stop()
        if self._socket_dir is not None:
            try:
                if self._address is not None and os.path.exists(self._address):
                    os.unlink(self._address)
                os.rmdir(self._socket_dir)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            self._socket_dir = None


class TcpRouter(StreamRouter):
    """The TCP transport: the step off the single host.

    Behaves exactly like :class:`UdsRouter` — connect, identify by name,
    envelope frames — but listens on ``host:port`` (default loopback with an
    ephemeral port, resolved at bind time so endpoints carry the real port)
    and sets ``TCP_NODELAY`` on every connection: the protocol is a
    ping-pong of small frames, which Nagle + delayed ACK would serialise at
    tens of milliseconds a round trip.
    """

    transport = "tcp"

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        super().__init__()
        self._host = host
        self._port = port

    def _ensure_listener(self) -> socket.socket:
        """Bind lazily but *before* any endpoint is handed out, so an
        ephemeral port 0 is resolved to the real listening port."""
        if self._listener is None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                sock.bind((self._host, self._port))
                sock.listen(_LISTEN_BACKLOG)
            except OSError:
                sock.close()
                raise
            self._port = sock.getsockname()[1]
            self._listener = sock
        return self._listener

    @property
    def address(self) -> Tuple[str, int]:
        """The ``(host, port)`` workers dial (binds the listener if needed)."""
        self._ensure_listener()
        return (self._host, self._port)

    def _make_endpoint(self, name: str) -> TcpEndpoint:
        host, port = self.address
        return TcpEndpoint(host, port, name)

    def _create_listener(self) -> socket.socket:
        return self._ensure_listener()

    def _configure_socket(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


#: Registered transports, by the name ``LocalCluster``/``Scenario`` select.
TRANSPORTS = {
    "pipe": PipeRouter,
    "uds": UdsRouter,
    "tcp": TcpRouter,
}


def validate_transport(transport: str) -> str:
    """Check a transport name against the registry; returns it unchanged.

    The single validation point — ``Scenario``, ``LocalCluster`` and
    :func:`create_router` all call this, so registering a new transport in
    :data:`TRANSPORTS` is the only change needed to make it selectable.
    """
    if transport not in TRANSPORTS:
        raise ValueError(
            f"unknown transport {transport!r} (known: {', '.join(sorted(TRANSPORTS))})"
        )
    return transport


def create_router(transport: str) -> EnvelopeRouter:
    """Instantiate the router for a named transport."""
    return TRANSPORTS[validate_transport(transport)]()
