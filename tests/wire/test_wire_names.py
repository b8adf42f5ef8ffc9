"""The frame's one name coder: every worker name in a frame is front-coded.

A frame spells its first name as a plain string and every later one as the
count of leading characters it shares with the name before it plus the rest
(``repro.wire.varint.NameCoder``).  The property tests below push names that
share prefixes, repeat, are empty, are multi-byte UTF-8 or are a prefix of
the name before them through every registered message, bare and inside an
envelope, and require each to round-trip equal.
"""

from itertools import cycle

import pytest
from hypothesis import given, settings, strategies as st

from repro import wire
from repro.core.encoding import PathCode
from repro.core.work_report import BestSolution, DeltaSnapshot, WorkReport
from repro.distributed.messages import (
    DeltaGossipMsg,
    HeartbeatGossipMsg,
    TableGossipAck,
    WorkDenied,
    WorkGrant,
    WorkReportMsg,
    WorkRequest,
)
from repro.realexec.node import WorkerOutcome, WorkerTelemetry
from repro.realexec.transport import (
    ENVELOPE_TAG,
    Envelope,
    decode_envelope,
    encode_envelope,
    envelope_route,
)
from repro.wire.frame import FRAME_MAGIC, FRAME_VERSION, Tag, _readers
from repro.wire.varint import NameCoder, write_string, write_uvarint

#: Names chosen to collide: shared prefixes, a name that is a prefix of the
#: next or the previous one, the empty name and multi-byte UTF-8.
CORNER_NAMES = (
    "",
    "w",
    "rworker-0",
    "rworker-01",
    "rworker-010",
    "rworker-02",
    "wörker-λ",
    "wörker-λ-1",
    "wörker-λ-12",
    "λ",
    "😀",
    "😀😀",
)

names_st = st.one_of(st.sampled_from(CORNER_NAMES), st.text(max_size=12))
CODES = (PathCode(((3, 0), (7, 1))), PathCode(((3, 1),)))


def messages(names):
    """One message per registered tag, naming workers from ``names`` in
    turn (the list is cycled, so every name slot gets one)."""
    pool = cycle(names)
    take = lambda: next(pool)  # noqa: E731
    best = lambda: BestSolution(2.5, take())  # noqa: E731
    codes = frozenset(CODES)
    samples = {
        Tag.PATH_CODE: CODES[0],
        Tag.BEST_SOLUTION: best(),
        Tag.WORK_REPORT: WorkReport(take(), codes, best(), 3),
        Tag.WORK_REQUEST: WorkRequest(take(), 4, 1, best()),
        Tag.WORK_GRANT: WorkGrant(take(), CODES, best()),
        Tag.WORK_DENIED: WorkDenied(take(), 4, True, best()),
        Tag.WORK_REPORT_MSG: WorkReportMsg(WorkReport(take(), codes, best())),
        Tag.DELTA_SNAPSHOT: DeltaSnapshot(take(), codes, 9, 2, best()),
        Tag.DELTA_GOSSIP_MSG: DeltaGossipMsg(DeltaSnapshot(take(), codes, 9, 2, best())),
        Tag.TABLE_GOSSIP_ACK: TableGossipAck(take(), 1, 2, best()),
        Tag.HEARTBEAT: HeartbeatGossipMsg(
            take(), ((take(), 1), (take(), 0)), ((take(), 2),), best()
        ),
        ENVELOPE_TAG: Envelope(take(), take(), WorkRequest(take(), 1, 0, best())),
        ENVELOPE_TAG + 1: WorkerOutcome(take(), True, 1.0, 5, 2, 0),
        ENVELOPE_TAG + 2: WorkerTelemetry(take(), "{}"),
    }
    assert set(samples) == set(_readers)  # a new message must join here
    return samples


@settings(max_examples=60, deadline=None)
@given(st.lists(names_st, min_size=1, max_size=8))
def test_every_message_round_trips_bare_and_enveloped(names):
    for msg in messages(names).values():
        assert wire.decode(wire.encode(msg)) == msg
        envelope = Envelope(names[0], names[-1], msg)
        data = encode_envelope(envelope)
        assert decode_envelope(data) == envelope
        assert envelope_route(data) == (names[0], names[-1])


@settings(max_examples=200, deadline=None)
@given(st.lists(names_st, max_size=10))
def test_the_coder_round_trips_any_sequence(names):
    out = bytearray()
    writer = NameCoder()
    for name in names:
        writer.write(out, name)
    reader, pos, back = NameCoder(), 0, []
    for _ in names:
        name, pos = reader.read(out, pos)
        back.append(name)
    assert back == names and pos == len(out)


def test_first_name_is_plain_and_later_names_cost_their_suffix():
    out = bytearray()
    names = NameCoder()
    for name in ("rworker-01", "rworker-02", "rworker-02", "rworker-0", ""):
        names.write(out, name)
    assert bytes(out) == (
        b"\x0arworker-01" + b"\x09\x012" + b"\x0a\x00" + b"\x09\x00" + b"\x00\x00"
    )


def _envelope_frame(body: bytes) -> bytes:
    frame = bytearray((FRAME_MAGIC, FRAME_VERSION))
    write_uvarint(frame, ENVELOPE_TAG)
    write_uvarint(frame, len(body))
    return bytes(frame + body)


@pytest.mark.parametrize("reuse", [2, 3, 100])
def test_reuse_beyond_the_previous_name_is_rejected(reuse):
    """Sender ``"ab"``, then a destination claiming ``reuse`` shared
    characters: more than ``"ab"`` has is corruption, on every reader."""
    body = bytearray()
    write_string(body, "ab")
    write_uvarint(body, reuse)
    write_string(body, "c")
    write_uvarint(body, int(Tag.WORK_REQUEST))
    body += bytes([2, 0, 0, 0, 0])  # requester "ab" (2 shared), seq, hops, no incumbent
    data = _envelope_frame(bytes(body))
    if reuse == 2:
        assert decode_envelope(data) == Envelope("ab", "abc", WorkRequest("ab"))
        return
    with pytest.raises(wire.WireFormatError):
        decode_envelope(data)
    with pytest.raises(wire.WireFormatError):
        envelope_route(data)
    with pytest.raises(wire.WireFormatError):
        wire.decode(data)
