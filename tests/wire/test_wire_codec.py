"""Property tests for the binary wire codec: round trips and rejection.

Seeded random generators build protocol payloads (including adversarially
deep, empty and wide-variable codes) and assert ``decode(encode(x)) == x``;
a second family of tests asserts that truncated or corrupted frames are
always rejected with :class:`~repro.wire.WireFormatError`, never decoded
into a wrong message or an unhandled low-level exception.
"""

import dataclasses
import random

import pytest

from repro import wire
from repro.core.codeset import CodeSet
from repro.core.encoding import ROOT, PathCode
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
from repro.wire import varint
from repro.wire.frame import FRAME_MAGIC, FRAME_VERSION, Tag, read_header


# ---------------------------------------------------------------------- #
# Seeded payload generators
# ---------------------------------------------------------------------- #
def rand_code(rng, max_depth=60, max_var=5000):
    depth = rng.randrange(0, max_depth)
    return PathCode(tuple((rng.randrange(max_var), rng.randrange(2)) for _ in range(depth)))


def rand_best(rng):
    choice = rng.randrange(4)
    if choice == 0:
        return BestSolution()
    if choice == 1:
        return BestSolution(value=rng.uniform(-1e9, 1e9))
    if choice == 2:
        return BestSolution(value=None, origin=f"w{rng.randrange(100)}")
    return BestSolution(value=rng.uniform(-1e9, 1e9), origin=f"worker-{rng.randrange(100)}")


def rand_report(rng, n_codes=None):
    n = rng.randrange(0, 40) if n_codes is None else n_codes
    return WorkReport(
        sender=f"worker-{rng.randrange(100):02d}",
        codes=frozenset(rand_code(rng) for _ in range(n)),
        best=rand_best(rng),
        sequence=rng.randrange(1 << 20),
    )


def rand_delta(rng, max_codes=20):
    codes = frozenset(rand_code(rng) for _ in range(rng.randrange(0, max_codes)))
    return DeltaSnapshot(
        sender=f"w{rng.randrange(100)}",
        codes=codes,
        full_digest=table_digest(codes),
        sequence=rng.randrange(1 << 16),
        best=rand_best(rng),
    )


#: One sample per core tag, in tag order: the tag each message type is
#: framed under, and the framed length of the sample drawn with the tag's
#: value as seed (a layout change shows here as a length change).
CORE_TAG_SAMPLES = [
    (Tag.PATH_CODE, rand_code, 21),
    (Tag.BEST_SOLUTION, rand_best, 5),
    (Tag.WORK_REPORT, rand_report, 873),
    (Tag.WORK_REQUEST, lambda rng: WorkRequest("w-1", 1, 2, rand_best(rng)), 15),
    (Tag.WORK_GRANT, lambda rng: WorkGrant(donor="w-2", codes=(rand_code(rng),)), 111),
    (Tag.WORK_DENIED, lambda rng: WorkDenied("w-3", 1, True, rand_best(rng)), 15),
    (Tag.WORK_REPORT_MSG, lambda rng: WorkReportMsg(rand_report(rng)), 821),
    (Tag.DELTA_SNAPSHOT, rand_delta, 482),
    (Tag.DELTA_GOSSIP_MSG, lambda rng: DeltaGossipMsg(rand_delta(rng)), 207),
    (
        Tag.TABLE_GOSSIP_ACK,
        lambda rng: TableGossipAck(sender="w-4", digest=rng.getrandbits(64), best=rand_best(rng)),
        25,
    ),
    (
        Tag.HEARTBEAT,
        lambda rng: HeartbeatGossipMsg(
            "w-7", (("w-7", rng.randrange(1 << 20)), ("w-8", 0)), (("w-8", 2),), rand_best(rng)
        ),
        23,
    ),
]


def assert_round_trip(msg):
    data = wire.encode(msg)
    back = wire.decode(data)
    assert back == msg
    assert type(back) is type(msg)
    return data


# ---------------------------------------------------------------------- #
# Varint primitives
# ---------------------------------------------------------------------- #
class TestVarint:
    @pytest.mark.parametrize(
        "value", [0, 1, 127, 128, 129, 16383, 16384, 2**21 - 1, 2**32, 2**63 - 1]
    )
    def test_uvarint_round_trip_boundaries(self, value):
        out = bytearray()
        varint.write_uvarint(out, value)
        assert len(out) == varint.uvarint_size(value)
        decoded, pos = varint.read_uvarint(out, 0)
        assert decoded == value and pos == len(out)

    def test_uvarint_seeded_round_trips(self):
        rng = random.Random(11)
        out = bytearray()
        values = [rng.randrange(1 << rng.randrange(1, 63)) for _ in range(500)]
        for value in values:
            varint.write_uvarint(out, value)
        pos = 0
        for value in values:
            decoded, pos = varint.read_uvarint(out, pos)
            assert decoded == value
        assert pos == len(out)

    def test_uvarint_rejects_negative(self):
        with pytest.raises(ValueError):
            varint.write_uvarint(bytearray(), -1)

    def test_uvarint_rejects_overlong_encoding(self):
        with pytest.raises(varint.MalformedVarintError):
            varint.read_uvarint(b"\x80\x00", 0)

    def test_uvarint_rejects_unterminated(self):
        with pytest.raises(varint.MalformedVarintError):
            varint.read_uvarint(b"\xff" * 11, 0)

    def test_uvarint_truncated(self):
        with pytest.raises(varint.TruncatedValueError):
            varint.read_uvarint(b"\x80", 0)

    @pytest.mark.parametrize("value", [0, -1, 1, -(2**40), 2**40, -(2**62), 2**62])
    def test_svarint_round_trip(self, value):
        out = bytearray()
        varint.write_svarint(out, value)
        decoded, pos = varint.read_svarint(out, 0)
        assert decoded == value and pos == len(out)

    @pytest.mark.parametrize("value", [0.0, -0.0, 1.5, -1e300, float("inf"), float("-inf")])
    def test_float64_round_trip_exact(self, value):
        out = bytearray()
        varint.write_float64(out, value)
        decoded, _ = varint.read_float64(out, 0)
        assert decoded == value

    def test_string_unicode_round_trip(self):
        out = bytearray()
        varint.write_string(out, "wörker-λ-0")
        text, pos = varint.read_string(out, 0)
        assert text == "wörker-λ-0" and pos == len(out)

    def test_bool_rejects_other_bytes(self):
        with pytest.raises(varint.MalformedVarintError):
            varint.read_bool(b"\x02", 0)


# ---------------------------------------------------------------------- #
# Round trips
# ---------------------------------------------------------------------- #
class TestRoundTrips:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_path_codes(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            assert_round_trip(rand_code(rng))

    def test_adversarial_codes(self):
        assert_round_trip(ROOT)
        deep = PathCode(tuple((i, i & 1) for i in range(500)))
        assert_round_trip(deep)
        wide = PathCode(((2**40, 1), (0, 0), (2**20, 1)))
        assert_round_trip(wide)
        # Decoded codes must behave like originals (hash/equality/relations).
        decoded = wire.decode(wire.encode(deep))
        assert hash(decoded) == hash(deep)
        assert decoded.parent() == deep.parent()

    @pytest.mark.parametrize("seed", range(8))
    def test_random_reports(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(10):
            assert_round_trip(rand_report(rng))

    def test_empty_report_and_root_report(self):
        assert_round_trip(WorkReport(sender="w", codes=frozenset()))
        data = assert_round_trip(WorkReport(sender="w", codes=frozenset([ROOT])))
        decoded = wire.decode(data)
        assert decoded.contains_root()

    @pytest.mark.parametrize("seed", range(5))
    def test_random_whole_table_deltas(self, seed):
        # A first delta to a peer carries the sender's whole table, so deltas
        # must round-trip at whole-table sizes too, bare and as gossip.
        rng = random.Random(200 + seed)
        delta = rand_delta(rng, max_codes=120)
        assert_round_trip(delta)
        assert_round_trip(DeltaGossipMsg(delta))

    def test_load_balancing_messages(self):
        rng = random.Random(3)
        assert_round_trip(WorkRequest(requester="w-07", best=rand_best(rng)))
        assert_round_trip(WorkDenied(donor="w-08"))
        grant = WorkGrant(
            donor="w-09",
            codes=tuple(rand_code(rng) for _ in range(6)),
            best=rand_best(rng),
        )
        data = assert_round_trip(grant)
        # Grant code order is semantic (donation order) and must survive.
        assert wire.decode(data).codes == grant.codes

    def test_wrapped_messages(self):
        rng = random.Random(4)
        assert_round_trip(WorkReportMsg(rand_report(rng)))
        assert_round_trip(DeltaGossipMsg(rand_delta(rng)))

    def test_empty_delta_pull_round_trips_in_18_bytes(self):
        # A recovering worker's pull: an empty delta carrying its digest.
        pull = DeltaGossipMsg(DeltaSnapshot("w1", frozenset(), full_digest=(1 << 64) - 1))
        data = assert_round_trip(pull)
        decoded = wire.decode(data)
        assert decoded.delta.is_empty and decoded.delta.full_digest == (1 << 64) - 1
        assert read_header(data)[:2] == (FRAME_VERSION, int(Tag.DELTA_GOSSIP_MSG))
        # 16 bytes plus the sender name; an incumbent adds its float64.
        assert len(data) == 18 == wire.encoded_size(pull)
        with_best = DeltaGossipMsg(
            DeltaSnapshot("w1", frozenset(), full_digest=7, best=BestSolution(3.0))
        )
        assert len(assert_round_trip(with_best)) == 18 + 8

    def test_best_solution_values(self):
        assert_round_trip(BestSolution())
        assert_round_trip(BestSolution(value=float("inf")))
        assert_round_trip(BestSolution(value=-1234.5678e-9, origin="w"))
        assert_round_trip(BestSolution(origin="only-origin"))

    def test_set_encoding_is_order_independent(self):
        rng = random.Random(9)
        codes = [rand_code(rng) for _ in range(30)]
        a = WorkReport(sender="w", codes=frozenset(codes))
        b = WorkReport(sender="w", codes=frozenset(reversed(codes)))
        assert wire.encode(a) == wire.encode(b)

    @pytest.mark.parametrize(
        "tag, make, length", CORE_TAG_SAMPLES, ids=[t.name for t, _, _ in CORE_TAG_SAMPLES]
    )
    def test_every_core_tag_frames_its_message(self, tag, make, length):
        # Pins the tag -> message map of the whole core range: retiring a
        # tag must never renumber the ones that stay.
        msg = make(random.Random(int(tag)))
        data = assert_round_trip(msg)
        version, frame_tag, body_start, body_len = read_header(data)
        assert (frame_tag, version) == (int(tag), FRAME_VERSION)
        assert body_start + body_len == len(data) == length

    def test_unregistered_type_rejected(self):
        with pytest.raises(wire.WireFormatError):
            wire.encode(object())

    def test_bare_tuple_rejected(self):
        # No message is a plain tuple: encoding one is an unregistered type,
        # not a half-written body.
        with pytest.raises(wire.WireFormatError):
            wire.encode(("w", 1))


class TestArenaBackedPayloads:
    """An in-process payload carries a :class:`CodeSet`; the codec writes its
    key paths and must frame exactly the bytes of the same codes as plain
    ``PathCode`` objects — the ``CORE_TAG_SAMPLES`` lengths included."""

    SAMPLES = {tag: (make, length) for tag, make, length in CORE_TAG_SAMPLES}

    @staticmethod
    def by_reference(msg):
        codes = CodeSet(msg.codes)
        assert codes == msg.codes  # the sample is already contracted
        return dataclasses.replace(msg, codes=codes)

    @pytest.mark.parametrize("tag", [Tag.WORK_REPORT, Tag.DELTA_SNAPSHOT], ids=lambda t: t.name)
    def test_round_trip_matches_the_sample_row(self, tag):
        make, length = self.SAMPLES[tag]
        plain = make(random.Random(int(tag)))
        msg = self.by_reference(plain)
        data = wire.encode(msg)
        assert data == wire.encode(plain)
        assert len(data) == length
        back = wire.decode(data)
        assert type(back) is type(plain)
        assert sorted(back.codes) == sorted(msg.codes.codes()) == sorted(plain.codes)
        assert back == msg

    def test_tracker_payloads_round_trip(self):
        from repro.core.completion import CompletionTracker

        rng = random.Random(5)
        tracker = CompletionTracker("w-1")
        for _ in range(40):
            tracker.record_completed(rand_code(rng, max_depth=12, max_var=3))
        delta = tracker.build_delta_snapshot("w-2")
        report = tracker.build_report()
        for msg in (delta, report):
            assert isinstance(msg.codes, CodeSet)
            back = wire.decode(wire.encode(msg))
            assert sorted(back.codes) == sorted(msg.codes.codes())
            assert back == msg


# ---------------------------------------------------------------------- #
# Truncation and corruption rejection
# ---------------------------------------------------------------------- #
class TestRejection:
    def _sample_frames(self):
        rng = random.Random(42)
        return [
            wire.encode(msg)
            for msg in (
                rand_code(rng),
                rand_best(rng),
                rand_report(rng, n_codes=12),
                rand_delta(rng),
                WorkGrant(donor="d", codes=tuple(rand_code(rng) for _ in range(3))),
                WorkDenied(donor="d", best=rand_best(rng)),
            )
        ]

    def test_every_truncation_rejected(self):
        for frame in self._sample_frames():
            for cut in range(len(frame)):
                with pytest.raises(wire.WireFormatError):
                    wire.decode(frame[:cut])

    def test_bad_magic_rejected(self):
        frame = bytearray(wire.encode(ROOT))
        frame[0] ^= 0xFF
        with pytest.raises(wire.WireFormatError):
            wire.decode(bytes(frame))

    def test_unsupported_version_rejected(self):
        frame = bytearray(wire.encode(ROOT))
        frame[1] = 99
        with pytest.raises(wire.UnsupportedVersionError):
            wire.decode(bytes(frame))

    def test_unknown_tag_rejected(self):
        out = bytearray((FRAME_MAGIC, FRAME_VERSION))
        varint.write_uvarint(out, 200)  # no such tag
        varint.write_uvarint(out, 0)
        with pytest.raises(wire.UnknownMessageTagError):
            wire.decode(bytes(out))

    @pytest.mark.parametrize("tag", [10, 11, 12])
    def test_retired_membership_tags_rejected(self, tag):
        # Tags 10-12 once carried a membership view digest, view gossip
        # (sender + digest) and a join announcement (member name).  A
        # well-formed frame of each must fail loudly, never decode into
        # some other message.
        sender, member, digest = bytearray(), bytearray(), bytearray()
        varint.write_string(sender, "server")
        varint.write_string(member, "newcomer")
        varint.write_uvarint(digest, 1)
        varint.write_string(digest, "member-0")
        varint.write_float64(digest, 1.5)
        varint.write_bool(digest, False)
        body = {10: digest, 11: sender + digest, 12: member}[tag]
        out = bytearray((FRAME_MAGIC, FRAME_VERSION))
        varint.write_uvarint(out, tag)
        varint.write_uvarint(out, len(body))
        out += body
        with pytest.raises(wire.WireFormatError):
            wire.decode(bytes(out))

    def test_trailing_bytes_rejected(self):
        frame = wire.encode(ROOT) + b"\x00"
        with pytest.raises(wire.WireFormatError):
            wire.decode(frame)

    def test_declared_length_mismatch_rejected(self):
        # Re-frame a valid body with an inflated declared length and padding:
        # the body reader must notice it did not consume the declared bytes.
        body = bytearray()
        from repro.wire import codec

        codec.write_path_code(body, ROOT.child(3, 1))
        out = bytearray((FRAME_MAGIC, FRAME_VERSION))
        varint.write_uvarint(out, int(Tag.PATH_CODE))
        varint.write_uvarint(out, len(body) + 2)
        out += body + b"\x00\x00"
        with pytest.raises(wire.WireFormatError):
            wire.decode(bytes(out))

    def test_random_bit_flips_never_crash(self):
        # Any single corrupted byte must yield either a clean WireFormatError
        # or a decoded message (when the flip hits e.g. a float's mantissa) —
        # never an unhandled exception type.
        rng = random.Random(77)
        frame = wire.encode(rand_report(rng, n_codes=8))
        for _ in range(300):
            corrupted = bytearray(frame)
            corrupted[rng.randrange(len(corrupted))] ^= 1 << rng.randrange(8)
            try:
                wire.decode(bytes(corrupted))
            except wire.WireFormatError:
                pass

    def test_front_coding_prefix_overflow_rejected(self):
        # Hand-build a code sequence whose second entry claims more prefix
        # reuse than the first entry has keys.
        body = bytearray()
        varint.write_uvarint(body, 2)  # two codes
        varint.write_uvarint(body, 1)  # first: depth 1
        varint.write_uvarint(body, (7 << 1) | 1)
        varint.write_uvarint(body, 5)  # second: reuse 5 > depth 1
        varint.write_uvarint(body, 0)
        out = bytearray((FRAME_MAGIC, FRAME_VERSION))
        varint.write_uvarint(out, int(Tag.WORK_GRANT))
        inner = bytearray()
        varint.write_string(inner, "donor")
        inner.append(0)  # empty best
        inner += body
        varint.write_uvarint(out, len(inner))
        out += inner
        with pytest.raises(wire.WireFormatError):
            wire.decode(bytes(out))
