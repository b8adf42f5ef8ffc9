"""Wire-format generations 2 and 3: their codecs and cross-version rules.

Generation 2 added the delta-gossip family (``DeltaSnapshot``,
``DeltaGossipMsg``, ``TableGossipAck``), generation 3 the walking work
request and its denial (``WalkRequest``, ``WalkDenied``) and the failure
detector's heartbeat round (``HeartbeatGossipMsg``).  The
compatibility contract pinned here, spelled out in ``docs/WIRE_FORMAT.md``
(each rule holds between every older and newer generation):

* generation-1 messages still encode as byte-identical generation-1 frames,
  so a generation-1 decoder keeps accepting them;
* generation-2 messages announce themselves with version byte 2 and are
  rejected by a generation-1 decoder (``decode(..., max_version=1)``) with
  :class:`UnsupportedVersionError` — dropped like a lost message by the
  realexec transport, which is what makes rolling upgrades safe;
* a generation-1 frame carrying a generation-2 tag is corruption, not a
  valid message;
* round-trips hold for every new payload, and the analytic ``wire_size()``
  model stays an upper bound on the encoded bytes within the documented
  name-length limits.
"""

import random

import pytest

from repro import wire
from repro.core.encoding import PathCode
from repro.core.work_report import BestSolution, DeltaSnapshot, table_digest
from repro.distributed.messages import (
    DeltaGossipMsg,
    HeartbeatGossipMsg,
    TableGossipAck,
    WalkDenied,
    WalkRequest,
)
from repro.distributed.runner import worker_names
from repro.realexec.transport import Envelope, decode_envelope, encode_envelope
from repro.wire.frame import FRAME_VERSION, FRAME_VERSION_V1, Tag, read_header


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


class TestGeneration2RoundTrips:
    @pytest.mark.parametrize("seed", range(40))
    def test_delta_snapshot_round_trip(self, seed):
        rng = random.Random(seed)
        delta = rand_delta(rng)
        data = wire.encode(delta)
        assert data[1] == 2  # generation-2 frame
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


class TestCrossVersionRules:
    def test_generation1_messages_still_stamp_version_1(self):
        from repro.core.work_report import CompletedTableSnapshot, WorkReport
        from repro.distributed.messages import WorkRequest

        rng = random.Random(3)
        for msg in (
            WorkRequest(requester="w1"),
            WorkReport(sender="w1", codes=frozenset({rand_code(rng)})),
            CompletedTableSnapshot(sender="w1", codes=frozenset()),
        ):
            data = wire.encode(msg)
            assert data[1] == FRAME_VERSION_V1
            # A generation-1 decoder accepts them unchanged.
            assert wire.decode(data, max_version=1) == msg

    def test_generation1_decoder_rejects_generation2_frames(self):
        rng = random.Random(4)
        for msg in (rand_delta(rng), rand_ack(rng), DeltaGossipMsg(rand_delta(rng))):
            data = wire.encode(msg)
            assert wire.decode(data) == msg  # current decoder: fine
            with pytest.raises(wire.UnsupportedVersionError):
                wire.decode(data, max_version=1)

    def test_future_generation_rejected(self):
        data = bytearray(wire.encode(TableGossipAck(sender="w", digest=1)))
        data[1] = FRAME_VERSION + 1
        with pytest.raises(wire.UnsupportedVersionError):
            wire.decode(bytes(data))

    def test_v1_frame_with_v2_tag_is_corruption(self):
        """Downgrading only the version byte must not smuggle a v2 message."""
        data = bytearray(wire.encode(TableGossipAck(sender="w", digest=9)))
        data[1] = FRAME_VERSION_V1
        with pytest.raises(wire.WireFormatError):
            wire.decode(bytes(data))

    def test_tag_values_are_frozen(self):
        """Generation-2 tags sit in the reserved core range, below 16."""
        assert int(Tag.DELTA_SNAPSHOT) == 13
        assert int(Tag.DELTA_GOSSIP_MSG) == 14
        assert int(Tag.TABLE_GOSSIP_ACK) == 15
        assert int(Tag.EXTENSION_BASE) == 16


class TestMixedVersionEnvelopes:
    """The realexec envelope is generation 1, so routing works across
    generations; only the *nested payload* is version-gated."""

    def test_v1_payload_reaches_v1_and_v2_receivers(self):
        from repro.distributed.messages import WorkRequest

        envelope = Envelope("a", "b", WorkRequest(requester="a"))
        data = encode_envelope(envelope)
        for max_version in (1, FRAME_VERSION):
            decoded = decode_envelope(data, max_version=max_version)
            assert decoded.payload == envelope.payload

    def test_v2_payload_rejected_by_v1_receiver_only(self):
        rng = random.Random(5)
        envelope = Envelope("a", "b", DeltaGossipMsg(rand_delta(rng, n_codes=3)))
        data = encode_envelope(envelope)
        assert decode_envelope(data).payload == envelope.payload
        with pytest.raises(wire.UnsupportedVersionError):
            decode_envelope(data, max_version=1)

    def test_routing_header_readable_regardless_of_payload_generation(self):
        from repro.realexec.transport import envelope_route

        rng = random.Random(6)
        envelope = Envelope("sender-x", "dest-y", rand_delta(rng, n_codes=2))
        assert envelope_route(encode_envelope(envelope)) == ("sender-x", "dest-y")


def rand_walk_messages(rng):
    best = (
        BestSolution(value=rng.uniform(-1e6, 1e6), origin=f"w{rng.randrange(10)}")
        if rng.random() < 0.5
        else BestSolution()
    )
    name = f"worker-{rng.randrange(10000):04d}"
    seq = rng.randrange(1 << 20)
    return (
        WalkRequest(name, seq, rng.randrange(15), best),
        WalkDenied(name, seq, rng.random() < 0.5, best),
    )


class TestGeneration3Walk:
    """Generation 3 added the walking work request and its denial (tags 32
    and 33): core tags continue past the 16-31 extension range."""

    @pytest.mark.parametrize("seed", range(20))
    def test_round_trip_and_generation_3_stamp(self, seed):
        for msg in rand_walk_messages(random.Random(3000 + seed)):
            data = wire.encode(msg)
            assert data[1] == 3
            assert wire.decode(data) == msg

    @pytest.mark.parametrize("seed", range(20))
    def test_model_upper_bound_for_short_names(self, seed):
        for msg in rand_walk_messages(random.Random(4000 + seed)):
            assert wire.encoded_size(msg) <= msg.wire_size()

    def test_older_decoders_drop_them_like_lost_messages(self):
        for msg in rand_walk_messages(random.Random(8)):
            data = wire.encode(msg)
            for generation in (FRAME_VERSION_V1, 2):
                with pytest.raises(wire.UnsupportedVersionError):
                    wire.decode(data, max_version=generation)
            envelope = encode_envelope(Envelope("a", "b", msg))
            assert decode_envelope(envelope).payload == msg
            with pytest.raises(wire.UnsupportedVersionError):
                decode_envelope(envelope, max_version=2)

    def test_generation_2_frame_with_a_walk_tag_is_corruption(self):
        data = bytearray(wire.encode(WalkRequest("w", 1)))
        data[1] = 2
        with pytest.raises(wire.WireFormatError):
            wire.decode(bytes(data), max_version=2)
        with pytest.raises(wire.WireFormatError):
            wire.decode(bytes(data))

    def test_truncation_is_rejected(self):
        for msg in rand_walk_messages(random.Random(9)):
            data = wire.encode(msg)
            for cut in range(len(data)):
                with pytest.raises(wire.WireFormatError):
                    wire.decode(data[:cut])

    def test_tag_values_are_frozen(self):
        assert int(Tag.WALK_REQUEST) == 32
        assert int(Tag.WALK_DENIED) == 33
        assert FRAME_VERSION == 3


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


class TestGeneration3Heartbeat:
    """The failure detector's heartbeat round (tag 34) joins generation 3.
    Member names are front-coded from the sender's name on, so a canonical
    name costs its last digits, not its ``worker-`` prefix."""

    CLUSTERS = (1, 2, 8, 100, 1000, HEARTBEAT_MAX_WORKERS)

    @pytest.mark.parametrize("n_workers", CLUSTERS)
    def test_round_trip_and_generation_3_stamp(self, n_workers):
        rng = random.Random(5000 + n_workers)
        for _ in range(30):
            msg = rand_heartbeat(rng, n_workers)
            data = wire.encode(msg)
            assert read_header(data)[:2] == (3, int(Tag.HEARTBEAT))
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

    def test_older_decoders_drop_it_like_a_lost_message(self):
        msg = rand_heartbeat(random.Random(10), 8)
        data = wire.encode(msg)
        for generation in (FRAME_VERSION_V1, 2):
            with pytest.raises(wire.UnsupportedVersionError):
                wire.decode(data, max_version=generation)
        envelope = encode_envelope(Envelope("a", "b", msg))
        assert decode_envelope(envelope).payload == msg

    def test_truncation_is_rejected(self):
        data = wire.encode(rand_heartbeat(random.Random(11), 8))
        for cut in range(len(data)):
            with pytest.raises(wire.WireFormatError):
                wire.decode(data[:cut])

    def test_name_reuse_beyond_the_previous_name_is_rejected(self):
        # Sender "w", one digest entry claiming 5 shared characters.
        body = bytes([1]) + b"w" + bytes([1, 5, 1]) + b"x" + bytes([0, 0, 0])
        frame = bytes([wire.FRAME_MAGIC, 3, int(Tag.HEARTBEAT), len(body)]) + body
        with pytest.raises(wire.WireFormatError):
            wire.decode(frame)

    def test_tag_value_is_frozen(self):
        assert int(Tag.HEARTBEAT) == 34
