"""Contract tests of the one real-process transport: stream framing, the
identity preamble, the worker endpoint and the TCP router's event loop
(connect grace, the ``paused`` set, re-registration, FIFO links)."""

import pickle
import socket
import sys
import time
from contextlib import contextmanager

import pytest

from repro.core.work_report import BestSolution
from repro.distributed.messages import WorkRequest
from repro.realexec.transport import (
    Envelope,
    StreamConnection,
    TcpEndpoint,
    TcpRouter,
    _encode_identity,
    _parse_identity,
    encode_envelope,
    frame_extent,
    recv_envelope,
    resolve_connection,
    send_envelope,
)
from repro.wire import UnsupportedVersionError, WireFormatError
from repro.wire.frame import FRAME_MAGIC, FRAME_VERSION
from repro.wire.varint import write_uvarint

pytestmark = pytest.mark.skipif(
    sys.platform.startswith("win"), reason="POSIX sockets only"
)


def _frame(sender, dest, value=1.0):
    return encode_envelope(
        Envelope(sender, dest, WorkRequest(requester=sender, best=BestSolution(value, sender)))
    )


def _foreign(frame, version=2):
    """``frame`` restamped with another version byte."""
    return frame[:1] + bytes([version]) + frame[2:]


def _length_prefix(length):
    out = bytearray()
    write_uvarint(out, length)
    return bytes(out)


#: Headers no further byte can complete: a tag varint that runs past the
#: ten-byte cap, and a declared body of 2**60 bytes.
UNCOMPLETABLE_HEADERS = [
    pytest.param(bytes([FRAME_MAGIC, FRAME_VERSION]) + b"\xff" * 20, id="malformed-varint"),
    pytest.param(
        bytes([FRAME_MAGIC, FRAME_VERSION, 16]) + _length_prefix(2**60), id="body-over-cap"
    ),
]


def _wait_for(predicate, timeout=2.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)


def _reads_eof(sock, timeout=2.0):
    """True once the far side of ``sock`` has closed it."""
    sock.settimeout(timeout)
    try:
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                return True
    except ConnectionResetError:
        return True
    except socket.timeout:
        return False


@contextmanager
def _started(router, *names):
    """Register ``names``, start ``router`` and connect each; stop on exit."""
    endpoints = [router.add_worker(name) for name in names]
    router.start()
    links = [endpoint.connect() for endpoint in endpoints]
    try:
        _wait_for(lambda: set(names) <= set(router._peers))
        yield links
    finally:
        for link in links:
            link.close()
        router.stop()


@contextmanager
def _stream_pair():
    near, far = socket.socketpair()
    connection = StreamConnection(near)
    try:
        yield connection, far
    finally:
        far.close()
        near.close()


class TestFrameExtent:
    def test_every_proper_prefix_is_incomplete(self):
        frame = _frame("a", "b")
        for cut in range(len(frame)):
            assert frame_extent(frame[:cut]) is None
        assert frame_extent(frame) == len(frame)
        assert frame_extent(frame + _frame("b", "a")) == len(frame)

    def test_bad_magic_cannot_start_a_frame(self):
        with pytest.raises(WireFormatError):
            frame_extent(b"\xff" + _frame("a", "b"))

    @pytest.mark.parametrize("version", [0, 2, 3, FRAME_VERSION + 1])
    def test_extent_is_read_whatever_the_version(self, version):
        frame = _foreign(_frame("a", "b"), version)
        for cut in range(len(frame)):
            assert frame_extent(frame[:cut]) is None
        assert frame_extent(frame + _frame("b", "a")) == len(frame)

    @pytest.mark.parametrize("header", UNCOMPLETABLE_HEADERS)
    def test_a_header_that_can_never_complete_desynchronises(self, header):
        with pytest.raises(WireFormatError):
            frame_extent(header)


class TestIdentityPreamble:
    def test_round_trip_reports_the_bytes_consumed(self):
        preamble = _encode_identity("rworker-07")
        for cut in range(len(preamble)):
            assert _parse_identity(preamble[:cut]) is None
        trailing = _frame("rworker-07", "b")
        assert _parse_identity(preamble + trailing) == ("rworker-07", len(preamble))

    @pytest.mark.parametrize(
        "preamble",
        [
            pytest.param(_length_prefix(1000) + b"x" * 10, id="name-over-limit"),
            pytest.param(b"\x02\xff\xfe", id="not-utf8"),
            pytest.param(b"\xff" * 301, id="unparseable-length"),
        ],
    )
    def test_preamble_that_can_never_be_valid_raises(self, preamble):
        with pytest.raises(WireFormatError):
            _parse_identity(preamble)


class TestStreamConnection:
    def test_coalesced_frames_are_read_one_at_a_time(self):
        frames = [_frame("a", "b", float(value)) for value in range(3)]
        with _stream_pair() as (connection, far):
            far.sendall(b"".join(frames))
            for frame in frames:
                assert connection.poll(2.0)
                assert connection.recv_bytes() == frame
            assert not connection.poll(0)

    def test_eof_after_the_last_frame(self):
        frame = _frame("a", "b")
        with _stream_pair() as (connection, far):
            far.sendall(frame)
            far.shutdown(socket.SHUT_WR)
            assert connection.recv_bytes() == frame
            assert connection.poll(0)  # EOF counts as ready
            with pytest.raises(EOFError):
                connection.recv_bytes()

    def test_desync_is_raised_once_and_the_buffer_discarded(self):
        with _stream_pair() as (connection, far):
            far.sendall(b"\xff\xff\xff not a frame")
            assert connection.poll(2.0)
            with pytest.raises(WireFormatError):
                connection.recv_bytes()
            far.shutdown(socket.SHUT_WR)
            with pytest.raises(EOFError):
                connection.recv_bytes()


    def test_foreign_version_frame_is_returned_whole(self):
        """The frame is carved out and rejected by its decoder; the frame
        behind it stays buffered and is read next."""
        frame = _frame("a", "b")
        with _stream_pair() as (connection, far):
            far.sendall(_foreign(frame) + frame)
            assert connection.poll(2.0)
            with pytest.raises(UnsupportedVersionError):
                recv_envelope(connection)
            assert connection.poll(2.0)
            assert connection.recv_bytes() == frame

    @pytest.mark.parametrize("header", UNCOMPLETABLE_HEADERS)
    def test_a_header_that_can_never_complete_raises(self, header):
        with _stream_pair() as (connection, far):
            far.sendall(header)
            assert connection.poll(2.0)
            with pytest.raises(WireFormatError):
                connection.recv_bytes()


class TestTcpEndpoint:
    def test_pickled_endpoint_connects_and_identifies(self):
        router = TcpRouter()
        endpoint = pickle.loads(pickle.dumps(router.add_worker("spawned")))
        assert (endpoint.host, endpoint.port) == router.address
        router.start()
        try:
            connection = resolve_connection(endpoint)
            _wait_for(lambda: "spawned" in router._peers)
            assert "spawned" in router._peers
            connection.close()
        finally:
            router.stop()

    def test_connect_gives_up_after_its_deadline(self, monkeypatch):
        monkeypatch.setattr(TcpEndpoint, "CONNECT_DEADLINE", 0.1)
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens on the port any more
        started = time.monotonic()
        with pytest.raises(OSError):
            TcpEndpoint("127.0.0.1", port, "orphan").connect()
        assert time.monotonic() - started < 5.0


class TestConnectGrace:
    def test_frame_to_an_expected_worker_waits_for_it(self):
        router = TcpRouter()
        early_endpoint = router.add_worker("early")
        late_endpoint = router.add_worker("late")
        router.start()
        try:
            early = early_endpoint.connect()
            send_envelope(early, Envelope("early", "late", WorkRequest(requester="early")))
            _wait_for(lambda: len(router._deferred) == 1)
            assert router.forwarded == 0 and router.dropped == 0
            late = late_endpoint.connect()
            assert late.poll(2.0)
            assert recv_envelope(late).sender == "early"
            _wait_for(lambda: not router._deferred)
            assert not router._deferred
            early.close()
            late.close()
        finally:
            router.stop()
        assert router.forwarded == 1
        assert router.dropped == 0

    def test_parked_frame_is_dropped_when_the_grace_ends(self, monkeypatch):
        monkeypatch.setattr(TcpRouter, "CONNECT_GRACE", 0.2)
        router = TcpRouter()
        early_endpoint = router.add_worker("early")
        late_endpoint = router.add_worker("late")
        router.start()
        try:
            early = early_endpoint.connect()
            send_envelope(early, Envelope("early", "late", WorkRequest(requester="early")))
            _wait_for(lambda: router.dropped == 1)
            assert router.dropped == 1 and not router._deferred
            late = late_endpoint.connect()
            assert not late.poll(0.2)
            early.close()
            late.close()
        finally:
            router.stop()
        assert router.forwarded == 0

    def test_parked_frames_are_capped(self, monkeypatch):
        monkeypatch.setattr(TcpRouter, "_DEFER_LIMIT", 2)
        router = TcpRouter()
        early_endpoint = router.add_worker("early")
        late_endpoint = router.add_worker("late")
        router.start()
        try:
            early = early_endpoint.connect()
            for value in range(3):
                early.send_bytes(_frame("early", "late", float(value)))
            _wait_for(lambda: router.dropped == 1)
            assert len(router._deferred) == 2
            late = late_endpoint.connect()
            values = []
            for _ in range(2):
                assert late.poll(2.0)
                values.append(recv_envelope(late).payload.best.value)
            assert values == [0.0, 1.0]
            early.close()
            late.close()
        finally:
            router.stop()
        assert router.forwarded == 2
        assert router.dropped == 1


class TestRegistration:
    def test_paused_worker_loses_its_frames_until_resumed(self):
        router = TcpRouter()
        with _started(router, "a", "b") as (end_a, end_b):
            router.paused.add("b")
            end_a.send_bytes(_frame("a", "b", 1.0))
            _wait_for(lambda: router.dropped == 1)
            assert not end_b.poll(0.1)
            router.paused.discard("b")
            end_a.send_bytes(_frame("a", "b", 2.0))
            assert end_b.poll(2.0)
            assert recv_envelope(end_b).payload.best.value == 2.0
        assert router.forwarded == 1
        assert router.dropped == 1

    def test_removed_worker_can_register_again(self):
        router = TcpRouter()
        with _started(router, "a", "b") as (end_a, _old_b):
            router.remove_worker("b")
            _wait_for(lambda: "b" not in router._peers)
            end_a.send_bytes(_frame("a", "b", 1.0))
            _wait_for(lambda: router.dropped == 1)
            assert router.dropped == 1 and not router._deferred
            new_b = router.add_worker("b").connect()
            _wait_for(lambda: "b" in router._peers)
            end_a.send_bytes(_frame("a", "b", 2.0))
            assert new_b.poll(2.0)
            assert recv_envelope(new_b).payload.best.value == 2.0
            new_b.close()
        assert router.forwarded == 1

    def test_second_connection_under_a_taken_name_is_refused(self):
        router = TcpRouter()
        with _started(router, "a") as (end_a,):
            first = router._peers["a"]
            impostor = socket.create_connection(router.address)
            impostor.sendall(_encode_identity("a"))
            assert _reads_eof(impostor)
            impostor.close()
            assert router._peers["a"] is first
            send_envelope(end_a, Envelope("a", "a", WorkRequest(requester="a")))
            assert end_a.poll(2.0)
            recv_envelope(end_a)
        assert router.forwarded == 1

    def test_connection_that_never_identifies_is_closed(self, monkeypatch):
        monkeypatch.setattr(TcpRouter, "IDENTITY_TIMEOUT", 0.1)
        router = TcpRouter()
        router.add_worker("a")
        router.start()
        try:
            silent = socket.create_connection(router.address)
            assert _reads_eof(silent)
            silent.close()
            _wait_for(lambda: not router._pending)
            assert not router._pending and not router._peers
        finally:
            router.stop()

    def test_invalid_preamble_closes_the_connection(self):
        router = TcpRouter()
        router.add_worker("a")
        router.start()
        try:
            bad = socket.create_connection(router.address)
            bad.sendall(b"\x02\xff\xfe")  # a two-byte name that is not utf-8
            assert _reads_eof(bad)
            bad.close()
            assert not router._peers
        finally:
            router.stop()


class TestUnreadableFrames:
    def test_foreign_version_frame_is_dropped_and_the_link_kept(self):
        router = TcpRouter()
        with _started(router, "a", "b") as (end_a, end_b):
            end_a.send_bytes(_foreign(_frame("a", "b", 1.0)) + _frame("a", "b", 2.0))
            assert end_b.poll(2.0)
            assert recv_envelope(end_b).payload.best.value == 2.0
            assert "a" in router._peers
        assert router.dropped == 1
        assert router.forwarded == 1

    @pytest.mark.parametrize("header", UNCOMPLETABLE_HEADERS)
    def test_a_header_that_can_never_complete_detaches_the_sender(self, header):
        router = TcpRouter()
        with _started(router, "a", "b") as (end_a, _end_b):
            end_a.send_bytes(header)
            _wait_for(lambda: "a" not in router._peers)
            assert "a" not in router._peers and "b" in router._peers
        assert router.dropped == 1
        assert router.forwarded == 0


class TestLinkOrder:
    def test_frames_on_one_link_arrive_in_send_order(self):
        router = TcpRouter()
        with _started(router, "a", "b") as (end_a, end_b):
            end_a.send_bytes(b"".join(_frame("a", "b", float(i)) for i in range(50)))
            values = []
            for _ in range(50):
                assert end_b.poll(2.0)
                values.append(recv_envelope(end_b).payload.best.value)
        assert values == [float(i) for i in range(50)]
        assert router.link_messages[("a", "b")] == 50


class TestRouterLifecycle:
    def test_forward_spans_reach_the_tracer(self):
        from repro.obs import Tracer

        router = TcpRouter()
        router.tracer = Tracer(process="router", clock=time.time)
        frame = _frame("a", "b")
        with _started(router, "a", "b") as (end_a, end_b):
            end_a.send_bytes(frame)
            assert end_b.poll(2.0)
            end_b.recv_bytes()
        (record,) = list(router.tracer.iter_records())
        assert record["name"] == "work_request"
        assert record["category"] == "transport"
        assert record["process"] == "router"
        assert record["args"] == {"link": "a->b", "bytes": len(frame)}

    def test_stop_is_idempotent_and_closes_the_listener(self):
        TcpRouter().stop()  # never started
        router = TcpRouter()
        router.add_worker("a")
        address = router.address
        router.start()
        router.stop()
        router.stop()
        assert router._thread is None and router._listener is None
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=1.0).close()
