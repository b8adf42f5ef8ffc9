"""The one wire version, and the codecs of the later message families.

The rule pinned here, spelled out in ``docs/WIRE_FORMAT.md``: every frame,
core or extension, is stamped with :data:`FRAME_VERSION`, and a frame
declaring any other version byte is rejected with
:class:`UnsupportedVersionError`; an envelope is one frame with one header.
Beside it, the delta-gossip family (``DeltaSnapshot``, ``DeltaGossipMsg``,
``TableGossipAck``), the one
work request and its denial (``WorkRequest``, ``WorkDenied``, with the walk's
sequence, hop and exhausted fields) and the failure detector's heartbeat
round (``HeartbeatGossipMsg``) round-trip, reject every truncation, keep
their tag values, and stay under the analytic ``wire_size()`` model within
the documented name-length limits; the tags of the retired whole-table push
(4, 9) and of the second request pair (32, 33) stay reserved, and the tag
table of ``docs/WIRE_FORMAT.md`` matches the registry.
"""

import dataclasses
import inspect
import random
import re
from pathlib import Path

import pytest

from repro import wire
from repro.core.encoding import PathCode
from repro.core.work_report import BestSolution, DeltaSnapshot, WorkReport, table_digest
from repro.distributed.messages import (
    DeltaGossipMsg,
    HeartbeatGossipMsg,
    TableGossipAck,
    WorkDenied,
    WorkGrant,
    WorkReportMsg,
    WorkRequest,
)
from repro.distributed.runner import worker_names
from repro.realexec.transport import Envelope, decode_envelope, encode_envelope
from repro.wire import codec
from repro.wire.frame import FRAME_MAGIC, FRAME_VERSION, Tag, read_header
from repro.wire.varint import NameCoder, write_string, write_uvarint


def rand_code(rng, max_depth=20, max_var=4000):
    depth = rng.randrange(0, max_depth)
    return PathCode(tuple((rng.randrange(max_var), rng.randrange(2)) for _ in range(depth)))


def rand_delta(rng, n_codes=None):
    n = rng.randrange(0, 25) if n_codes is None else n_codes
    codes = frozenset(rand_code(rng) for _ in range(n))
    return DeltaSnapshot(
        sender=f"worker-{rng.randrange(100):02d}",
        codes=codes,
        full_digest=table_digest(codes),
        sequence=rng.randrange(1 << 16),
        best=BestSolution(value=rng.uniform(-1e6, 1e6), origin=f"w{rng.randrange(10)}")
        if rng.random() < 0.5
        else BestSolution(),
    )


def rand_ack(rng):
    return TableGossipAck(
        sender=f"worker-{rng.randrange(100):02d}",
        digest=rng.getrandbits(64),
        table_digest=rng.getrandbits(64),
        best=BestSolution(value=rng.uniform(-1e6, 1e6)) if rng.random() < 0.5 else BestSolution(),
    )


class TestDeltaGossipRoundTrips:
    @pytest.mark.parametrize("seed", range(40))
    def test_delta_snapshot_round_trip(self, seed):
        rng = random.Random(seed)
        delta = rand_delta(rng)
        data = wire.encode(delta)
        assert data[1] == FRAME_VERSION
        decoded = wire.decode(data)
        assert decoded == delta
        assert decoded.full_digest == delta.full_digest

    @pytest.mark.parametrize("seed", range(20))
    def test_delta_gossip_msg_and_ack_round_trip(self, seed):
        rng = random.Random(1000 + seed)
        for msg in (DeltaGossipMsg(rand_delta(rng)), rand_ack(rng)):
            assert wire.decode(wire.encode(msg)) == msg

    def test_empty_and_adversarial_deltas(self):
        rng = random.Random(7)
        empty = DeltaSnapshot(sender="w", codes=frozenset())
        assert wire.decode(wire.encode(empty)) == empty
        deep = DeltaSnapshot(
            sender="w",
            codes=frozenset({PathCode(tuple((i, i % 2) for i in range(200)))}),
            full_digest=(1 << 64) - 1,
        )
        assert wire.decode(wire.encode(deep)) == deep

    @pytest.mark.parametrize("seed", range(20))
    def test_model_upper_bound_for_short_names(self, seed):
        """Documented bound: encoded ≤ analytic model (names ≤ 21 bytes)."""
        rng = random.Random(2000 + seed)
        delta = rand_delta(rng)
        assert wire.encoded_size(delta) <= delta.wire_size()
        ack = rand_ack(rng)
        assert wire.encoded_size(ack) <= ack.wire_size()
        msg = DeltaGossipMsg(delta)
        assert wire.encoded_size(msg) <= msg.wire_size()


def registered_samples():
    """One message per registered tag, core and extension alike."""
    from repro.realexec.node import WorkerOutcome, WorkerTelemetry
    from repro.wire.frame import _readers

    rng = random.Random(12)
    request, denied = rand_request_messages(rng)
    samples = {
        int(Tag.PATH_CODE): rand_code(rng),
        int(Tag.BEST_SOLUTION): BestSolution(value=1.5, origin="w"),
        int(Tag.WORK_REPORT): WorkReport(sender="w1", codes=frozenset({rand_code(rng)})),
        int(Tag.WORK_REQUEST): request,
        int(Tag.WORK_GRANT): WorkGrant(donor="w2", codes=(rand_code(rng),)),
        int(Tag.WORK_DENIED): denied,
        int(Tag.WORK_REPORT_MSG): WorkReportMsg(WorkReport(sender="w1", codes=frozenset())),
        int(Tag.DELTA_SNAPSHOT): rand_delta(rng),
        int(Tag.DELTA_GOSSIP_MSG): DeltaGossipMsg(rand_delta(rng)),
        int(Tag.TABLE_GOSSIP_ACK): rand_ack(rng),
        int(Tag.HEARTBEAT): rand_heartbeat(rng, 8),
        int(Tag.EXTENSION_BASE): Envelope("a", "b", WorkRequest(requester="a")),
        int(Tag.EXTENSION_BASE) + 1: WorkerOutcome("w", True, 3.0, 10, 2, 1),
        int(Tag.EXTENSION_BASE) + 2: WorkerTelemetry("w", "{}"),
    }
    # A tag registered without a sample here fails, so a new message cannot
    # escape the one-version check.
    assert set(samples) == set(_readers)
    return samples


class TestOneWireVersion:
    """Every frame carries :data:`FRAME_VERSION`, and no other version byte
    is ever accepted: the format has one version, checked."""

    def test_every_registered_tag_stamps_the_one_version(self):
        for tag, msg in registered_samples().items():
            data = wire.encode(msg)
            assert read_header(data)[:2] == (FRAME_VERSION, tag)
            assert wire.decode(data) == msg

    @pytest.mark.parametrize("version", [0, 1, 2, 3])
    def test_any_other_version_byte_is_rejected(self, version):
        assert version != FRAME_VERSION
        for msg in registered_samples().values():
            data = bytearray(wire.encode(msg))
            data[1] = version
            with pytest.raises(wire.UnsupportedVersionError):
                wire.decode(bytes(data))
        envelope = bytearray(encode_envelope(Envelope("a", "b", WorkRequest(requester="a"))))
        envelope[1] = version
        with pytest.raises(wire.UnsupportedVersionError):
            decode_envelope(bytes(envelope))

    def test_an_envelope_has_one_header(self):
        """Sender, destination, payload tag and payload body share the
        envelope's one header and name coder: no nested frame."""
        request = WorkRequest("rworker-01", 3, 0, BestSolution(12.5, "rworker-03"))
        data = encode_envelope(Envelope("rworker-01", "rworker-02", request))
        names = NameCoder()
        body = bytearray()
        names.write(body, "rworker-01")
        names.write(body, "rworker-02")
        write_uvarint(body, int(Tag.WORK_REQUEST))
        codec.write_work_request(body, request, names)
        header = bytes([FRAME_MAGIC, FRAME_VERSION, int(Tag.EXTENSION_BASE), len(body)])
        assert data == header + body
        assert data.count(FRAME_MAGIC) == 1
        # 64 bytes in version 3, which nested a whole payload frame.
        assert len(data) == 36
        assert decode_envelope(data) == Envelope("rworker-01", "rworker-02", request)

    @pytest.mark.parametrize("version", [0, 1, 2, 3])
    def test_routers_reject_any_other_version_byte(self, version):
        from repro.realexec.transport import envelope_route

        frame = bytearray(encode_envelope(Envelope("a", "b", WorkRequest(requester="a"))))
        assert envelope_route(bytes(frame)) == ("a", "b")
        frame[1] = version
        with pytest.raises(wire.UnsupportedVersionError):
            envelope_route(bytes(frame))

    def test_future_version_rejected(self):
        data = bytearray(wire.encode(TableGossipAck(sender="w", digest=1)))
        data[1] = FRAME_VERSION + 1
        with pytest.raises(wire.UnsupportedVersionError):
            wire.decode(bytes(data))

    def test_no_generation_parameter_or_field_remains(self):
        from repro.distributed.protocol import ProtocolCore
        from repro.realexec.driver import LocalCluster
        from repro.realexec.node import RealWorkerConfig
        from repro.realexec.transport import recv_envelope
        from repro.scenario import Scenario
        from repro.wire.frame import decode, register

        banned = {"max_version", "version", "wire_generation", "wire_generations", "walk"}
        for api in (
            read_header,
            decode,
            decode_envelope,
            recv_envelope,
            register,
            LocalCluster,
            RealWorkerConfig,
            Scenario,
            ProtocolCore,
        ):
            names = set(inspect.signature(api).parameters)
            if dataclasses.is_dataclass(api):
                names |= {f.name for f in dataclasses.fields(api)}
            assert not names & banned, (api.__name__, sorted(names & banned))

    def test_tag_values_are_frozen(self):
        """The delta-gossip tags sit in the core range, below 16."""
        assert int(Tag.DELTA_SNAPSHOT) == 13
        assert int(Tag.DELTA_GOSSIP_MSG) == 14
        assert int(Tag.TABLE_GOSSIP_ACK) == 15
        assert int(Tag.EXTENSION_BASE) == 16
        assert FRAME_VERSION == 4


def rand_request_messages(rng):
    best = (
        BestSolution(value=rng.uniform(-1e6, 1e6), origin=f"w{rng.randrange(10)}")
        if rng.random() < 0.5
        else BestSolution()
    )
    name = f"worker-{rng.randrange(10000):04d}"
    seq = rng.randrange(1 << 20)
    return (
        WorkRequest(name, seq, rng.randrange(15), best),
        WorkDenied(name, seq, rng.random() < 0.5, best),
    )


class TestRequestMessages:
    """The one work request and its denial (tags 5 and 7), in the layout
    that carries the walk: sequence, hops, exhausted flag."""

    @pytest.mark.parametrize("seed", range(20))
    def test_round_trip_and_version_stamp(self, seed):
        for msg in rand_request_messages(random.Random(3000 + seed)):
            data = wire.encode(msg)
            assert data[1] == FRAME_VERSION
            assert wire.decode(data) == msg

    @pytest.mark.parametrize("seed", range(20))
    def test_model_upper_bound_for_short_names(self, seed):
        for msg in rand_request_messages(random.Random(4000 + seed)):
            assert wire.encoded_size(msg) <= msg.wire_size()

    def test_truncation_is_rejected(self):
        for msg in rand_request_messages(random.Random(9)):
            data = wire.encode(msg)
            for cut in range(len(data)):
                with pytest.raises(wire.WireFormatError):
                    wire.decode(data[:cut])

    def test_tag_values_are_frozen(self):
        assert int(Tag.WORK_REQUEST) == 5
        assert int(Tag.WORK_DENIED) == 7

    def test_benchmark_constructors_keep_working(self):
        # One positional argument each, as the ledger's wire layer builds them.
        for msg in (WorkRequest("ping"), WorkDenied("pong")):
            assert wire.decode(wire.encode(msg)) == msg


class TestOneRequestMessage:
    """The second request/denial pair is gone, and its tags stay reserved:
    a frame bearing 32 or 33 fails loudly, never decodes into a request.
    So do the whole-table push's tags, 4 and 9."""

    def test_walk_classes_and_codecs_are_gone(self):
        from repro.distributed import messages

        for name in ("WalkRequest", "WalkDenied"):
            assert not hasattr(messages, name)
            assert name not in messages.__all__
            assert not hasattr(wire, name)
        for kind in ("request", "denied"):
            assert not hasattr(codec, f"write_walk_{kind}")
            assert not hasattr(codec, f"read_walk_{kind}")
        assert not {"WALK_REQUEST", "WALK_DENIED"} & set(Tag.__members__)

    def test_whole_table_push_is_gone(self):
        from repro.distributed import messages

        gone = ["TableGossipMsg"] + [
            f"{op}_table_{what}" for op in ("write", "read") for what in ("gossip_msg", "snapshot")
        ]
        modules = (messages, wire, codec)
        assert [(m.__name__, name) for m in modules for name in gone if hasattr(m, name)] == []

    @pytest.mark.parametrize("tag", [4, 9, 32, 33])
    def test_reserved_tags_are_rejected(self, tag):
        assert tag not in Tag._value2member_map_
        body = bytearray()
        write_string(body, "worker-0001")
        write_uvarint(body, 7)
        write_uvarint(body, 0)
        body.append(0)  # no incumbent
        frame = bytearray((FRAME_MAGIC, FRAME_VERSION))
        write_uvarint(frame, tag)
        write_uvarint(frame, len(body))
        with pytest.raises(wire.UnknownMessageTagError):
            wire.decode(bytes(frame + body))


WIRE_FORMAT_DOC = Path(__file__).resolve().parents[2] / "docs" / "WIRE_FORMAT.md"


def documented_tags():
    """``{tag value: message cell}`` of the doc's "Message tags" table, a
    row of a range (``10–12``) giving each of its values."""
    table = WIRE_FORMAT_DOC.read_text(encoding="utf-8").split("## Message tags", 1)[1]
    rows = {}
    for line in table.split("\n\n| tag ", 1)[1].split("\n\n", 1)[0].splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        values = re.fullmatch(r"(\d+)(?:–(\d+))?", cells[0])
        if values is None:
            continue  # the header and rule rows
        for value in range(int(values[1]), int(values[2] or values[1]) + 1):
            assert value not in rows, f"tag {value} has two rows"
            rows[value] = cells[1]
    return rows


def test_documented_tag_table_matches_the_registry():
    """Every registered tag has its row, naming its class; every other row
    up to the last is reserved or free and names no ``Tag`` member."""
    import repro.realexec.node  # noqa: F401 (registers the extension tags)
    from repro.wire.frame import _writers

    registered = {tag: cls.__name__ for cls, (tag, _writer) in _writers.items()}
    rows = documented_tags()
    assert set(int(member) for member in Tag) <= set(registered)
    assert sorted(rows) == list(range(1, max(rows) + 1))
    for value, message in rows.items():
        if value in registered:
            assert message.startswith(f"`{registered[value]}`"), (value, message)
        else:
            assert message.startswith(("*reserved, never reuse*", "*free,")), (value, message)
            assert value not in Tag._value2member_map_, value


#: Documented limits of the heartbeat's upper bound: members named the
#: canonical way (a shared prefix, then a zero-padded index) in clusters of
#: up to 10,000, heartbeat counters below 2**21, incarnations below 2**7.
HEARTBEAT_MAX_WORKERS = 10_000
HEARTBEAT_MAX_COUNTER = 2**21
HEARTBEAT_MAX_INCARNATION = 2**7


def rand_heartbeat(rng, n_workers, prefix="worker"):
    """A heartbeat as a worker sends it: a sorted digest that holds the
    sender, sorted non-zero incarnations, and maybe an incumbent."""
    names = worker_names(n_workers, prefix)
    members = sorted(rng.sample(names, rng.randint(1, min(n_workers, 200))))
    counters = (0, 1, 127, 128, HEARTBEAT_MAX_COUNTER - 1)
    digest = tuple(
        (m, rng.choice(counters + (rng.randrange(HEARTBEAT_MAX_COUNTER),))) for m in members
    )
    restarted = rng.sample(names, rng.randint(0, min(n_workers, 50)))
    incarnations = tuple(
        sorted((m, rng.randrange(1, HEARTBEAT_MAX_INCARNATION)) for m in restarted)
    )
    best = rng.choice(
        (BestSolution(), BestSolution(value=rng.uniform(-1e6, 1e6)),
         BestSolution(value=rng.uniform(-1e6, 1e6), origin=rng.choice(names)))
    )
    return HeartbeatGossipMsg(rng.choice(members), digest, incarnations, best)


class TestHeartbeat:
    """The failure detector's heartbeat round (tag 34).  Member names are front-coded from the sender's name on, so a canonical
    name costs its last digits, not its ``worker-`` prefix."""

    CLUSTERS = (1, 2, 8, 100, 1000, HEARTBEAT_MAX_WORKERS)

    @pytest.mark.parametrize("n_workers", CLUSTERS)
    def test_round_trip_and_version_stamp(self, n_workers):
        rng = random.Random(5000 + n_workers)
        for _ in range(30):
            msg = rand_heartbeat(rng, n_workers)
            data = wire.encode(msg)
            assert read_header(data)[:2] == (FRAME_VERSION, int(Tag.HEARTBEAT))
            assert wire.decode(data) == msg

    def test_entry_order_and_unsorted_names_survive(self):
        msg = HeartbeatGossipMsg(
            "b", (("zeta", 3), ("alpha", 0), ("alphabet", 2**40)), (("", 1), ("é", 9))
        )
        assert wire.decode(wire.encode(msg)) == msg
        assert wire.decode(wire.encode(HeartbeatGossipMsg("w", ()))) == HeartbeatGossipMsg("w", ())

    @pytest.mark.parametrize("prefix", ["worker", "rworker"])
    @pytest.mark.parametrize("n_workers", CLUSTERS)
    def test_model_bounds_the_encoding(self, n_workers, prefix):
        """Within the documented limits the analytic model is an upper
        bound, and it tracks the encoding within the documented factor."""
        rng = random.Random(6000 + n_workers)
        for _ in range(200):
            msg = rand_heartbeat(rng, n_workers, prefix)
            encoded = wire.encoded_size(msg)
            assert encoded <= msg.wire_size() <= 4 * encoded + 64

    def test_full_digest_costs_a_few_bytes_per_member(self):
        names = worker_names(100)
        msg = HeartbeatGossipMsg(names[0], tuple((n, 1000) for n in names))
        # The model charges 12 bytes a member; front coding pays 6.
        assert wire.encoded_size(msg) <= 6 * len(names) + 16
        assert msg.wire_size() == 32 + 12 * len(names)

    def test_truncation_is_rejected(self):
        data = wire.encode(rand_heartbeat(random.Random(11), 8))
        for cut in range(len(data)):
            with pytest.raises(wire.WireFormatError):
                wire.decode(data[:cut])

    def test_name_reuse_beyond_the_previous_name_is_rejected(self):
        # Sender "w", one digest entry claiming 5 shared characters.
        body = bytes([1]) + b"w" + bytes([1, 5, 1]) + b"x" + bytes([0, 0, 0])
        frame = bytes([wire.FRAME_MAGIC, FRAME_VERSION, int(Tag.HEARTBEAT), len(body)]) + body
        with pytest.raises(wire.WireFormatError):
            wire.decode(frame)

    def test_tag_value_is_frozen(self):
        assert int(Tag.HEARTBEAT) == 34
