"""Tests for the real multiprocessing execution backend."""

import sys
import time
from contextlib import contextmanager

import pytest

from repro.bnb.random_tree import RandomTreeSpec, generate_random_tree
from repro.core.work_report import BestSolution
from repro.distributed.messages import WorkRequest
from repro.realexec.driver import LocalCluster, LocalClusterResult
from repro.realexec.node import WorkerOutcome, WorkerTelemetry
from repro.realexec.transport import (
    Envelope,
    TcpRouter,
    decode_envelope,
    encode_envelope,
    envelope_route,
    recv_envelope,
    send_envelope,
)
from repro.wire import WireFormatError


@pytest.fixture(scope="module")
def small_tree():
    return generate_random_tree(
        RandomTreeSpec(nodes=61, mean_node_time=0.0, seed=23, name="real-exec-tree")
    )


def _blob_frame(sender: str, dest: str, size: int) -> bytes:
    """An envelope frame routed ``sender -> dest`` carrying ``size`` zero bytes."""
    return encode_envelope(Envelope(sender, dest, WorkerTelemetry(sender, "\0" * size)))


def _wait_for(predicate, timeout=2.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)


@contextmanager
def _linked(router, *names):
    """Start ``router`` with one connected link per name; stop it on exit."""
    endpoints = [router.add_worker(name) for name in names]
    router.start()
    links = [endpoint.connect() for endpoint in endpoints]
    try:
        yield links
    finally:
        for link in links:
            link.close()
        router.stop()


class TestEnvelopeCodec:
    def test_envelope_round_trip(self):
        envelope = Envelope("a", "b", WorkRequest(requester="a", best=BestSolution(1.5, "a")))
        assert decode_envelope(encode_envelope(envelope)) == envelope

    def test_envelope_route_reads_header_only(self):
        frame = encode_envelope(Envelope("src", "dst", WorkRequest(requester="src")))
        assert envelope_route(frame) == ("src", "dst")

    def test_worker_outcome_round_trip(self):
        outcome = WorkerOutcome(
            name="w", terminated=True, best_value=-3.5,
            nodes_expanded=17, reports_sent=4, recoveries=1,
        )
        envelope = Envelope("w", "__driver__", outcome)
        assert decode_envelope(encode_envelope(envelope)).payload == outcome

    def test_non_envelope_frame_rejected(self):
        from repro import wire

        with pytest.raises(WireFormatError):
            decode_envelope(wire.encode(WorkRequest(requester="a")))

    def test_corrupt_body_length_rejected(self):
        """A frame whose declared body length disagrees with its bytes is
        corruption, never a delivered message."""
        frame = bytearray(
            encode_envelope(Envelope("a", "b", WorkRequest(requester="a")))
        )
        decode_envelope(bytes(frame))  # sanity: valid before corruption
        shrunk = bytearray(frame)
        shrunk[3] -= 1  # body-len varint now under-declares
        with pytest.raises(WireFormatError):
            decode_envelope(bytes(shrunk))
        grown = bytearray(frame)
        grown[3] += 1  # body-len varint now over-declares
        with pytest.raises(WireFormatError):
            decode_envelope(bytes(grown))


class TestRouterForwarding:
    def test_routing_between_workers(self):
        router = TcpRouter()
        with _linked(router, "a", "b") as (end_a, end_b):
            request = WorkRequest(requester="a", best=BestSolution(2.0, "a"))
            send_envelope(end_a, Envelope("a", "b", request))
            assert end_b.poll(2.0)
            envelope = recv_envelope(end_b)
            assert envelope.payload == request
            assert envelope.sender == "a"
        assert router.forwarded == 1

    def test_per_link_byte_counters(self):
        router = TcpRouter()
        with _linked(router, "a", "b") as (end_a, _end_b):
            frame = encode_envelope(Envelope("a", "b", WorkRequest(requester="a")))
            end_a.send_bytes(frame)
            end_a.send_bytes(frame)
            _wait_for(lambda: router.forwarded == 2)
        assert router.forwarded == 2
        assert router.bytes_forwarded == 2 * len(frame)
        assert router.link_bytes[("a", "b")] == 2 * len(frame)
        assert router.link_messages[("a", "b")] == 2

    def test_unknown_destination_dropped(self):
        router = TcpRouter()
        with _linked(router, "a") as (end_a,):
            send_envelope(end_a, Envelope("a", "ghost", WorkRequest(requester="a")))
            _wait_for(lambda: router.dropped > 0)
        assert router.dropped == 1

    def test_corrupt_routing_header_survivable(self):
        # A frame whose *header* parses but whose sender-length varint points
        # past the body must be dropped like any other corruption — and the
        # router thread must survive to forward later traffic (regression:
        # this used to leak a bare ValueError and kill the thread).
        from repro.realexec.transport import ENVELOPE_TAG
        from repro.wire.frame import FRAME_MAGIC, FRAME_VERSION
        from repro.wire.varint import write_uvarint

        evil = bytearray((FRAME_MAGIC, FRAME_VERSION))
        write_uvarint(evil, ENVELOPE_TAG)
        write_uvarint(evil, 1)  # body: a single byte...
        evil.append(0x7F)  # ...claiming a 127-byte sender name follows
        with pytest.raises(WireFormatError):
            envelope_route(bytes(evil))

        router = TcpRouter()
        with _linked(router, "a", "b") as (end_a, _end_b):
            end_a.send_bytes(bytes(evil))
            _wait_for(lambda: router.dropped >= 1)
            send_envelope(end_a, Envelope("a", "b", WorkRequest(requester="a")))
            _wait_for(lambda: router.forwarded >= 1)
        assert router.dropped == 1
        assert router.forwarded == 1
        assert router.link_messages[("a", "b")] == 1

    def test_malformed_frame_dropped(self):
        """A whole frame that is not an envelope is dropped and the link
        survives; bytes that cannot start a frame drop the link too."""
        from repro import wire

        router = TcpRouter()
        with _linked(router, "a", "b") as (end_a, _end_b):
            end_a.send_bytes(wire.encode(WorkRequest(requester="a")))
            _wait_for(lambda: router.dropped >= 1)
            assert "a" in router._peers
            end_a.send_bytes(b"\x00not a frame")
            _wait_for(lambda: router.dropped >= 2)
        assert router.dropped == 2
        assert router.forwarded == 0

    def test_duplicate_worker_rejected(self):
        router = TcpRouter()
        router.add_worker("a")
        with pytest.raises(ValueError):
            router.add_worker("a")
        router.stop()


@pytest.mark.skipif(sys.platform.startswith("win"), reason="POSIX multiprocessing only")
class TestLocalCluster:
    def test_single_process_run(self, small_tree):
        result = LocalCluster(small_tree, 1, prune=False, max_seconds=30.0).run()
        assert result.surviving_terminated
        assert result.solved_correctly
        outcome = result.outcomes["rworker-00"]
        assert outcome.nodes_expanded >= len(small_tree) - 1

    def test_three_process_run(self, small_tree):
        result = LocalCluster(small_tree, 3, prune=False, max_seconds=40.0).run()
        assert result.surviving_terminated
        assert result.solved_correctly

    def test_killed_worker_is_survivable(self, small_tree):
        # Slow the nodes down so the cluster is still working when the kill
        # fires; otherwise the run may legitimately finish first.
        cluster = LocalCluster(small_tree, 3, prune=False, max_seconds=60.0, node_sleep=0.02)
        result = cluster.run(kill=["rworker-02"], kill_after=0.1)
        if not result.killed:
            pytest.skip("cluster finished before the kill could be injected")
        assert "rworker-02" in result.killed
        assert result.surviving_terminated
        assert result.solved_correctly

    def test_invalid_worker_count(self, small_tree):
        with pytest.raises(ValueError):
            LocalCluster(small_tree, 0)


class TestNoVacuousSuccess:
    def test_survivors_without_a_best_value_are_not_correct(self):
        result = LocalClusterResult(n_workers=2, reference_optimum=5.0)
        result.outcomes = {
            name: WorkerOutcome(name, True, None, 3, 1, 0) for name in ("rworker-00", "rworker-01")
        }
        assert result.best_value is None
        assert result.solved_correctly is False
        # A departed worker's value does not count for the survivors.
        result.outcomes["rworker-02"] = WorkerOutcome("rworker-02", True, 5.0, 3, 1, 0)
        result.killed = ["rworker-02"]
        assert result.solved_correctly is False
        # Only a run with no reference optimum cannot be judged.
        result.reference_optimum = None
        assert result.solved_correctly is None


@pytest.mark.skipif(sys.platform.startswith("win"), reason="POSIX multiprocessing only")
class TestCoarseGrainWalk:
    """``node.py``'s half of the walk past idle peers: with nodes above the
    0.1 s pace cap an idle worker passes a work request on instead of
    denying it (10 ms nodes, as in the ledger's real-tcp-4w, never walk)."""

    def test_idle_workers_pass_requests_on(self, small_tree):
        from repro.obs import TelemetryConfig

        cluster = LocalCluster(
            small_tree,
            6,
            seed=3,
            prune=False,
            node_sleep=0.15,
            max_seconds=20.0,
            telemetry=TelemetryConfig(trace=False),
        )
        result = cluster.run()
        assert result.solved_correctly
        assert result.surviving_terminated
        assert len(result.outcomes) == 6
        assert all(outcome.terminated for outcome in result.outcomes.values())
        assert result.telemetry.metrics.total("worker_work_requests_forwarded") >= 1
        expanded = sum(outcome.nodes_expanded for outcome in result.outcomes.values())
        assert expanded <= 1.3 * len(small_tree)
        assert result.wall_time < 5.0


class TestPayloadKindAccounting:
    def test_router_counts_bytes_per_kind(self):
        router = TcpRouter()
        with _linked(router, "a", "b") as (end_a, _end_b):
            frame = encode_envelope(Envelope("a", "b", WorkRequest(requester="a")))
            end_a.send_bytes(frame)
            end_a.send_bytes(frame)
            _wait_for(lambda: router.forwarded == 2)
        assert router.kind_bytes == {"work_request": 2 * len(frame)}
        assert router.kind_messages == {"work_request": 2}

    def test_envelope_route_info_reads_payload_tag(self):
        from repro.realexec.transport import envelope_route_info, payload_kind
        from repro.wire.frame import Tag

        frame = encode_envelope(Envelope("src", "dst", WorkRequest(requester="src")))
        sender, dest, tag = envelope_route_info(frame)
        assert (sender, dest) == ("src", "dst")
        assert tag == int(Tag.WORK_REQUEST)
        assert payload_kind(tag) == "work_request"
        assert payload_kind(None) == "unknown"
        assert payload_kind(9999) == "tag_9999"


@pytest.mark.skipif(sys.platform.startswith("win"), reason="POSIX multiprocessing only")
class TestKillSchedule:
    def test_each_group_killed_at_its_own_delay(self, small_tree):
        cluster = LocalCluster(small_tree, 3, prune=False, max_seconds=60.0, node_sleep=0.02)
        result = cluster.run(
            kill_schedule=[(0.1, ["rworker-01"]), (0.3, ["rworker-02"])]
        )
        if len(result.killed) < 2:
            pytest.skip("cluster finished before both kills could be injected")
        assert result.killed == ["rworker-01", "rworker-02"]
        assert result.surviving_terminated
        assert result.solved_correctly


class TestDeadConnectionHandling:
    def test_closed_worker_connection_is_dropped(self):
        router = TcpRouter()
        with _linked(router, "a", "b") as (end_a, end_b):
            _wait_for(lambda: {"a", "b"} <= set(router._peers))
            end_a.close()  # worker "a" dies
            _wait_for(lambda: "a" not in router._peers)
            assert "a" not in router._peers
            # The router keeps forwarding for the survivors.
            send_envelope(end_b, Envelope("b", "b", WorkRequest(requester="b")))
            assert end_b.poll(2.0)
            recv_envelope(end_b)
        assert router.forwarded == 1

    def test_silent_client_does_not_block_registration(self, monkeypatch):
        import socket as socket_mod

        monkeypatch.setattr(TcpRouter, "IDENTITY_TIMEOUT", 0.1)
        router = TcpRouter()
        endpoint = router.add_worker("late")
        router.start()
        try:
            # A client that connects but never identifies (killed mid-start).
            silent = socket_mod.create_connection(router.address)
            conn = endpoint.connect()  # must still register despite the stall
            send_envelope(conn, Envelope("late", "late", WorkRequest(requester="late")))
            assert conn.poll(2.0)
            recv_envelope(conn)
            silent.close()
            conn.close()
        finally:
            router.stop()
        assert router.forwarded == 1


class TestTcpTransport:
    """The TCP listener, endpoints and stream reassembly of the router."""

    def test_routing_between_endpoints(self):
        router = TcpRouter()
        endpoint_a = router.add_worker("a")
        endpoint_b = router.add_worker("b")
        router.start()
        try:
            conn_a = endpoint_a.connect()
            conn_b = endpoint_b.connect()
            request = WorkRequest(requester="a", best=BestSolution(2.0, "a"))
            send_envelope(conn_a, Envelope("a", "b", request))
            assert conn_b.poll(2.0)
            envelope = recv_envelope(conn_b)
            assert envelope.payload == request and envelope.sender == "a"
            conn_a.close()
            conn_b.close()
        finally:
            router.stop()
        assert router.forwarded == 1
        assert router.kind_bytes.get("work_request", 0) > 0

    def test_ephemeral_port_resolved_before_start(self):
        router = TcpRouter()
        endpoint = router.add_worker("a")
        assert endpoint.port != 0
        assert endpoint.port == router.address[1]
        router.stop()

    def test_nodelay_set_on_both_sides(self):
        import socket

        router = TcpRouter()
        endpoint = router.add_worker("a")
        router.start()
        try:
            conn = endpoint.connect()
            assert conn._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
            _wait_for(lambda: "a" in router._peers)
            peer = router._peers["a"]
            assert peer.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
            conn.close()
        finally:
            router.stop()

    def test_unknown_identity_rejected(self):
        from repro.realexec.transport import TcpEndpoint

        router = TcpRouter()
        endpoint = router.add_worker("known")
        host, port = router.address
        router.start()
        try:
            stranger = TcpEndpoint(host, port, "stranger").connect()
            conn = endpoint.connect()
            send_envelope(conn, Envelope("known", "known", WorkRequest(requester="known")))
            assert conn.poll(2.0)  # loopback proves the router is healthy
            recv_envelope(conn)
            conn.close()
            stranger.close()
        finally:
            router.stop()
        assert "stranger" not in router._peers

    def test_worker_can_dial_before_listener_exists(self):
        import threading

        router = TcpRouter()
        endpoint = router.add_worker("early")
        received = []

        def dial():
            conn = endpoint.connect()  # retries with backoff until accept
            send_envelope(conn, Envelope("early", "early", WorkRequest(requester="early")))
            if conn.poll(5.0):
                received.append(recv_envelope(conn))
            conn.close()

        # The endpoint dials before start(); only the listener's backlog
        # exists (the socket is bound at add_worker), so the connection
        # parks until the event loop starts accepting.
        dialer = threading.Thread(target=dial)
        dialer.start()
        time.sleep(0.2)
        router.start()
        dialer.join(timeout=10.0)
        router.stop()
        assert len(received) == 1

    def test_partial_frames_reassembled(self):
        """A frame dribbled in one byte at a time still routes intact."""
        import socket as socket_mod

        from repro.realexec.transport import _encode_identity

        router = TcpRouter()
        router.add_worker("drip")
        receiver_endpoint = router.add_worker("sink")
        host, port = router.address
        router.start()
        try:
            sink = receiver_endpoint.connect()
            raw = socket_mod.create_connection((host, port))
            raw.sendall(_encode_identity("drip"))
            frame = encode_envelope(
                Envelope("drip", "sink", WorkRequest(requester="drip"))
            )
            for index in range(len(frame)):
                raw.sendall(frame[index : index + 1])
                time.sleep(0.001)
            assert sink.poll(2.0)
            envelope = recv_envelope(sink)
            assert envelope.sender == "drip" and envelope.destination == "sink"
            raw.close()
            sink.close()
        finally:
            router.stop()
        assert router.forwarded == 1

    def test_desynchronised_stream_dropped(self):
        """Garbage that cannot start a frame closes the connection."""
        import socket as socket_mod

        from repro.realexec.transport import _encode_identity

        router = TcpRouter()
        router.add_worker("noise")
        router.start()
        host, port = router.address
        try:
            raw = socket_mod.create_connection((host, port))
            raw.sendall(_encode_identity("noise"))
            _wait_for(lambda: "noise" in router._peers)
            raw.sendall(b"\xff\xff\xff not a frame")
            _wait_for(lambda: "noise" not in router._peers)
            assert "noise" not in router._peers
            raw.close()
        finally:
            router.stop()
        assert router.dropped >= 1

    def test_slow_receiver_does_not_block_other_links(self):
        """Write-queue backpressure: a worker that never drains its socket
        costs only its own frames; forwarding for everyone else continues."""
        import socket as socket_mod

        from repro.realexec.transport import StreamConnection, _encode_identity

        router = TcpRouter()
        router.WRITE_BUFFER_LIMIT = 8192
        src_endpoint = router.add_worker("src")
        router.add_worker("slow")
        fast_endpoint = router.add_worker("fast")
        host, port = router.address
        router.start()
        try:
            src = src_endpoint.connect()
            # The slow worker: tiny receive buffer, never reads — so the
            # kernel path to it fills almost immediately.
            slow_sock = socket_mod.socket(socket_mod.AF_INET, socket_mod.SOCK_STREAM)
            slow_sock.setsockopt(socket_mod.SOL_SOCKET, socket_mod.SO_RCVBUF, 4096)
            slow_sock.connect((host, port))
            slow_sock.sendall(_encode_identity("slow"))
            slow = StreamConnection(slow_sock)
            fast = fast_endpoint.connect()
            _wait_for(lambda: "slow" in router._peers)
            peer_sock = router._peers["slow"].sock
            peer_sock.setsockopt(socket_mod.SOL_SOCKET, socket_mod.SO_SNDBUF, 4096)
            flood = _blob_frame("src", "slow", 16384)
            for _ in range(200):  # ~3.2MB >> socket buffers + write cap
                src.send_bytes(flood)
            src.send_bytes(_blob_frame("src", "fast", 16384))
            assert fast.poll(5.0)
            fast.recv_bytes()
            _wait_for(lambda: router.dropped > 0, timeout=5.0)
            slow.close()
            fast.close()
            src.close()
        finally:
            router.stop()
        assert router.dropped > 0
        assert router.link_messages.get(("src", "fast")) == 1

    def test_create_router_tcp(self):
        from repro.realexec.transport import create_router

        router = create_router("tcp")
        assert isinstance(router, TcpRouter)
        router.stop()
        for name in ("pipe", "uds", "carrier-pigeon"):
            with pytest.raises(ValueError, match="tcp"):
                create_router(name)


class _WritesFail:
    """Socket stand-in whose sends fail while reads (and fileno) still work."""

    def __init__(self, sock):
        self._sock = sock

    def send(self, data):
        raise BrokenPipeError("peer went away")

    def __getattr__(self, name):
        return getattr(self._sock, name)


class TestStreamConnectionContract:
    """The connection contract of the TCP fabric: ``poll(0)`` is one
    non-blocking read, and teardown never loses a frame a peer sent."""

    @staticmethod
    def _frame(sender, dest):
        return Envelope(sender, dest, WorkRequest(requester=sender))

    def test_poll_zero_reads_what_the_router_delivered(self):
        router = TcpRouter()
        endpoint_a = router.add_worker("a")
        endpoint_b = router.add_worker("b")
        router.start()
        try:
            conn_a = endpoint_a.connect()
            conn_b = endpoint_b.connect()
            assert conn_b.poll(0) is False  # empty link: no frame, no block
            send_envelope(conn_a, self._frame("a", "b"))
            _wait_for(lambda: router.forwarded == 1)
            # The frame sits in b's kernel buffer; a busy worker only ever
            # polls with 0 and must still see it.
            _wait_for(lambda: conn_b.poll(0), timeout=1.0)
            assert conn_b.poll(0) is True
            assert recv_envelope(conn_b).sender == "a"
            assert conn_b.poll(0) is False
            conn_a.close()
            conn_b.close()
        finally:
            router.stop()

    def test_failed_write_keeps_reading_the_peer(self):
        """A link goes write-dead, never read-dead: the frame a peer sent
        before half-closing is forwarded although writes to it fail."""
        import socket as socket_mod

        router = TcpRouter()
        leaving_endpoint = router.add_worker("leaving")
        sink_endpoint = router.add_worker("sink")
        router.start()
        try:
            leaving = leaving_endpoint.connect()
            sink = sink_endpoint.connect()
            _wait_for(lambda: {"leaving", "sink"} <= set(router._peers))
            peer = router._peers["leaving"]
            peer.sock = _WritesFail(peer.sock)
            for _ in range(3):  # late traffic bouncing off the leaving peer
                send_envelope(sink, self._frame("sink", "leaving"))
            _wait_for(lambda: router.dropped == 3)
            assert router.dropped == 3 and router.forwarded == 0
            assert router._peers.get("leaving") is peer  # still attached
            # The leaving peer's last word, then its half-close.
            send_envelope(leaving, self._frame("leaving", "sink"))
            leaving._sock.shutdown(socket_mod.SHUT_WR)
            assert sink.poll(2.0)
            assert recv_envelope(sink).sender == "leaving"
            _wait_for(lambda: "leaving" not in router._peers)
            assert "leaving" not in router._peers  # detached at EOF
            leaving.close()
            sink.close()
        finally:
            router.stop()
        assert router.forwarded == 1
        assert router.dropped == 3

    def test_frames_buffered_at_eof_are_forwarded(self):
        """A peer that identifies, sends and closes before the router ever
        reads it still has every complete frame forwarded."""
        router = TcpRouter()
        hasty_endpoint = router.add_worker("hasty")
        sink_endpoint = router.add_worker("sink")
        hasty = hasty_endpoint.connect()
        frames = b"".join(
            encode_envelope(self._frame("hasty", "sink")) for _ in range(3)
        )
        # Three whole frames and half of a fourth, then gone.
        hasty.send_bytes(frames + encode_envelope(self._frame("hasty", "sink"))[:4])
        hasty.close()
        router.start()
        try:
            sink = sink_endpoint.connect()
            for _ in range(3):
                assert sink.poll(2.0)
                assert recv_envelope(sink).sender == "hasty"
            assert sink.poll(0.1) is False  # the partial frame is not a frame
            sink.close()
        finally:
            router.stop()
        assert router.forwarded == 3

    def test_frames_to_a_finished_worker_are_dropped_at_once(self):
        """A worker that identified and closed has finished: a frame sent to
        it afterwards is dropped, not parked until the connect grace ends."""
        router = TcpRouter()
        done_endpoint = router.add_worker("done")
        sink_endpoint = router.add_worker("sink")
        router.start()
        try:
            done = done_endpoint.connect()
            sink = sink_endpoint.connect()
            _wait_for(lambda: {"done", "sink"} <= set(router._peers))
            done.close()
            _wait_for(lambda: "done" not in router._peers)
            send_envelope(sink, self._frame("sink", "done"))
            _wait_for(lambda: router.dropped == 1)
            assert router.dropped == 1 and not router._deferred
            sink.close()
        finally:
            router.stop()
        assert router.forwarded == 0

    def test_close_drains_until_the_router_hangs_up(self):
        """Worker teardown is send -> half-close -> drain: the last frame
        arrives although the worker closes with unread inbound traffic."""
        router = TcpRouter()
        worker_endpoint = router.add_worker("worker")
        driver_endpoint = router.add_worker("driver")
        router.start()
        try:
            worker = worker_endpoint.connect()
            driver = driver_endpoint.connect()
            for _ in range(50):  # inbound traffic the worker never reads
                send_envelope(driver, self._frame("driver", "worker"))
            _wait_for(lambda: router.forwarded == 50)
            send_envelope(worker, self._frame("worker", "driver"))
            started = time.monotonic()
            worker.close()
            assert time.monotonic() - started < worker.CLOSE_LINGER
            assert driver.poll(2.0)
            assert recv_envelope(driver).sender == "worker"
            driver.close()
        finally:
            router.stop()


@pytest.mark.skipif(sys.platform.startswith("win"), reason="POSIX sockets only")
def test_frames_discarded_with_a_dead_link_count_as_dropped_not_forwarded():
    """Frames queued for a peer whose far end closes never arrive: when the
    link goes write-dead they move from the forwarded counters to dropped."""
    import socket as socket_mod

    from repro.realexec.transport import _StreamPeer

    router = TcpRouter()  # never started: the test drives the loop
    near, far = socket_mod.socketpair()
    near.setblocking(False)
    near.setsockopt(socket_mod.SOL_SOCKET, socket_mod.SO_SNDBUF, 4096)
    peer = _StreamPeer(near, identify_by=0.0)
    peer.name, peer.identified = "far", True
    router._peers["far"] = peer
    frame = _blob_frame("src", "far", 3000)
    try:
        sent = 0
        while not peer.wbuf:  # until the kernel buffer is full
            router._forward(frame)
            sent += 1
        for _ in range(3):
            router._forward(frame)
            sent += 1
        far.recv(len(frame) + 7)  # let part of the queue drain
        router._on_writable(peer)
        pending = len(peer.wbuf)
        assert pending and router.dropped == 0 and router.forwarded == sent
        far.close()
        router._on_writable(peer)  # the send fails: the link goes write-dead
        assert peer.write_dead and not peer.wbuf
        in_kernel = sent * len(frame) - pending
        delivered = in_kernel // len(frame)
        assert router.forwarded == delivered
        assert router.dropped == sent - delivered >= 1
        assert router.bytes_forwarded == delivered * len(frame)
        assert router.link_messages[("src", "far")] == delivered
        assert router.link_bytes[("src", "far")] == delivered * len(frame)
        assert sum(router.kind_messages.values()) == delivered
        assert sum(router.kind_bytes.values()) == delivered * len(frame)
        router._forward(frame)  # later frames to a write-dead link: dropped
        assert router.dropped == sent - delivered + 1
        assert router.forwarded == delivered
    finally:
        near.close()
        far.close()


@pytest.mark.skipif(sys.platform.startswith("win"), reason="POSIX multiprocessing only")
class TestLocalClusterOverTcp:
    def test_three_process_run_over_tcp(self, small_tree):
        result = LocalCluster(small_tree, 3, prune=False, max_seconds=40.0).run()
        assert result.surviving_terminated
        assert result.solved_correctly
        assert result.bytes_forwarded > 0
        assert result.bytes_by_kind.get("work_report", 0) > 0

    def test_traced_tcp_run_keeps_one_clock_per_process(self, small_tree):
        """Trace invariants: every exported span starts at or after the
        cluster start, has a non-negative duration and lies inside the
        driver's ``run`` span (regression: the gossip span mixed a
        ``time.monotonic()`` start into the ``time.time`` tracer)."""
        from repro.obs import TelemetryConfig

        cluster = LocalCluster(
            small_tree, 4, prune=False, max_seconds=40.0, node_sleep=0.01,
            telemetry=TelemetryConfig(),
        )
        result = cluster.run()
        assert result.surviving_terminated
        records = list(result.telemetry.tracer.iter_records())
        (run,) = [
            r for r in records if r["process"] == "driver" and r["name"] == "run"
        ]
        # The router may finish accounting the very last forward a moment
        # after the driver stopped its clock; nothing else may overshoot.
        run_end = run["ts"] + run["dur"] + 0.25
        assert any(r["category"] == "gossip" for r in records)
        for record in records:
            duration = record.get("dur", 0.0)
            assert record["ts"] >= 0.0, record
            assert duration >= 0.0, record
            assert record["ts"] + duration <= run_end, record
        # Every worker timed each frame it handled, decode included.
        registry = result.telemetry.metrics
        handled = {
            dict(labels)["worker"]: hist
            for (name, labels), hist in registry._histograms.items()
            if name == "worker_handle_us"
        }
        assert sorted(handled) == sorted(result.outcomes)
        for worker, hist in handled.items():
            frames = registry.counter("worker_frames_received", worker=worker).value
            assert hist.count == frames > 0, worker
            assert hist.sum > 0.0, worker


@contextmanager
def _capture_transport_warnings(logger_name="repro.realexec.transport"):
    """Collect WARNING+ records from the transport logger, handler-attached.

    ``caplog`` relies on propagation to the root logger, which
    ``repro.obs.logging.configure_logging`` disables on the ``repro``
    hierarchy — so any earlier test touching the CLI logging path would
    make a caplog-based assertion here order-dependent.
    """
    import logging

    records = []
    handler = logging.Handler(level=logging.WARNING)
    handler.emit = records.append
    logger = logging.getLogger(logger_name)
    previous_level = logger.level
    logger.setLevel(logging.WARNING)
    logger.addHandler(handler)
    try:
        yield records
    finally:
        logger.removeHandler(handler)
        logger.setLevel(previous_level)


class TestRouterStopRegression:
    """`stop()` must be idempotent and never silently leak a hung thread."""

    def test_hung_join_warns_instead_of_silently_leaking(self):
        import threading

        router = TcpRouter()
        router.add_worker("a")
        hang = threading.Event()

        def stubborn_run():
            hang.wait(30.0)  # ignores router._stop entirely

        router._run = stubborn_run
        router.start()
        original_join = threading.Thread.join

        def fast_join(self, timeout=None):
            return original_join(self, timeout=0.05 if timeout else timeout)

        threading.Thread.join = fast_join
        try:
            with _capture_transport_warnings() as records:
                router.stop()
        finally:
            threading.Thread.join = original_join
            hang.set()
        assert router._thread is None
        assert any("did not stop" in record.getMessage() for record in records)
        # Idempotent: a second stop is a quiet no-op.
        with _capture_transport_warnings() as records:
            router.stop()
        assert not records

    def test_clean_stop_does_not_warn(self):
        router = TcpRouter()
        router.add_worker("a")
        router.start()
        with _capture_transport_warnings() as records:
            router.stop()
            router.stop()  # idempotent
        assert not any("did not stop" in record.getMessage() for record in records)


class TestForwardLatencyHistograms:
    """Satellite: router forward latencies observe into MetricsRegistry."""

    def _route_one(self):
        from repro.obs import MetricsRegistry
        from repro.realexec.transport import resolve_connection

        router = TcpRouter()
        router.metrics = MetricsRegistry()
        end_a = router.add_worker("a")
        end_b = router.add_worker("b")
        router.start()
        try:
            conn_a = resolve_connection(end_a)
            conn_b = resolve_connection(end_b)
            send_envelope(conn_a, Envelope("a", "b", WorkRequest(requester="a")))
            assert conn_b.poll(2.0)
            recv_envelope(conn_b)
            _wait_for(lambda: router.forwarded == 1)
        finally:
            router.stop()
        return router

    def test_latency_histogram_per_link(self):
        router = self._route_one()
        snapshot = router.metrics.snapshot()
        key = "router_forward_latency_seconds{link=a->b}"
        assert key in snapshot["histograms"]
        state = snapshot["histograms"][key]
        assert state["count"] == 1
        assert state["sum"] >= 0.0

    def test_ingest_router_merges_live_histograms(self):
        from repro.obs import MetricsRegistry
        from repro.obs.ingest import ingest_router

        router = self._route_one()
        merged = MetricsRegistry()
        ingest_router(merged, router)
        snapshot = merged.snapshot()
        key = "router_forward_latency_seconds{link=a->b}"
        assert key in snapshot["histograms"]
        assert snapshot["histograms"][key]["count"] == 1
        # The counter families land beside the histograms, same registry.
        assert snapshot["counters"]["router_messages_forwarded"] == 1


@pytest.mark.skipif(sys.platform.startswith("win"), reason="POSIX multiprocessing only")
class TestSigstopIsolation:
    def test_suspended_tcp_worker_stalls_only_its_own_link(self, small_tree):
        """A SIGSTOPped worker's frames are dropped (paused set); every
        other link keeps its forward latency — the p99 acceptance bar."""
        from repro.obs import TelemetryConfig

        cluster = LocalCluster(
            small_tree,
            3,
            prune=False,
            max_seconds=60.0,
            node_sleep=0.02,
            telemetry=TelemetryConfig(trace=False, metrics=True),
        )
        result = cluster.run(
            churn_schedule=[(0.2, "rworker-02", "leave"), (0.6, "rworker-02", "return")],
            churn_mode="suspend",
        )
        assert result.surviving_terminated
        assert result.solved_correctly
        assert result.rejoined == ["rworker-02"]
        registry = result.telemetry.metrics
        assert registry is not None
        latency_links = {
            labels: hist
            for (name, labels), hist in registry._histograms.items()
            if name == "router_forward_latency_seconds"
        }
        assert latency_links, "no forward-latency histograms recorded"
        for labels, hist in latency_links.items():
            link = dict(labels)["link"]
            if "rworker-02" in link:
                continue
            p99 = hist.quantile(0.99)
            assert p99 is not None and p99 <= 0.1, (
                f"link {link} p99 regressed to {p99}"
            )


class _SpyConnection:
    """Wraps the driver's connection and logs each ``poll``/``recv_bytes``."""

    def __init__(self, connection, log):
        self._connection = connection
        self._log = log

    def poll(self, timeout=0.0):
        ready = self._connection.poll(timeout)
        self._log.append("poll")
        return ready

    def recv_bytes(self):
        data = self._connection.recv_bytes()
        self._log.append("recv")
        return data

    def close(self):
        self._connection.close()


@pytest.mark.skipif(sys.platform.startswith("win"), reason="POSIX multiprocessing only")
class TestDriverAccountsForEveryWorker:
    def test_silent_worker_is_named_and_fails_the_run(
        self, small_tree, monkeypatch
    ):
        """No success over "whoever reported": a survivor without an outcome
        is listed, logged, and makes the run not terminated."""
        import repro.realexec.driver as driver_mod
        from repro.realexec.transport import resolve_connection

        real_main = driver_mod.worker_main

        def main_with_one_mute(config, endpoint):
            if config.name == "rworker-02":
                # Dials in like everyone else, then leaves without a word.
                resolve_connection(endpoint).close()
                return
            real_main(config, endpoint)

        monkeypatch.setattr(driver_mod, "worker_main", main_with_one_mute)
        cluster = LocalCluster(
            small_tree, 3, prune=False, max_seconds=40.0
        )
        with _capture_transport_warnings("repro.realexec.driver") as records:
            result = cluster.run()
        assert result.missing_outcomes == ["rworker-02"]
        assert sorted(result.outcomes) == ["rworker-00", "rworker-01"]
        assert all(outcome.terminated for outcome in result.outcomes.values())
        assert not result.surviving_terminated
        assert any("rworker-02" in record.getMessage() for record in records)

    def test_collection_stops_with_the_last_expected_outcome(
        self, small_tree, monkeypatch
    ):
        """The run ends on the frame that completes the expected set, not
        one empty 50 ms poll later."""
        import repro.realexec.driver as driver_mod

        log = []
        real_resolve = driver_mod.resolve_connection
        monkeypatch.setattr(
            driver_mod,
            "resolve_connection",
            lambda handle: _SpyConnection(real_resolve(handle), log),
        )
        result = LocalCluster(
            small_tree, 3, prune=False, max_seconds=40.0
        ).run()
        assert len(result.outcomes) == 3
        assert log[-1] == "recv"


class TestOneTransport:
    """Real processes talk over one transport, TCP: the pipe and
    Unix-socket routers and every switch between transports are gone, and
    the two names the performance ledger calls still work."""

    def test_transport_module_has_one_router_and_one_endpoint(self):
        from repro.realexec import transport

        for gone in ("PipeRouter", "UdsRouter", "UdsEndpoint", "TRANSPORTS"):
            assert not hasattr(transport, gone), gone
        assert isinstance(transport.create_router("tcp"), transport.TcpRouter)

    def test_transport_names_module_is_gone(self):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.transport_names")

    def test_no_transport_setting_on_cluster_or_cli(self):
        import inspect

        from repro.scenario.cli import build_parser

        assert "transport" not in inspect.signature(LocalCluster).parameters
        build_parser().parse_args(["run", "quickstart"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "quickstart", "--transport", "tcp"])

    def test_scenario_transport_is_tcp_only(self):
        from repro.scenario import Scenario

        assert Scenario().transport == "tcp"
        assert Scenario(transport="tcp").transport == "tcp"
        for gone in ("pipe", "uds"):
            with pytest.raises(ValueError, match="tcp"):
                Scenario(transport=gone)
