"""Body codecs for every protocol payload.

Each payload class gets a ``write_*(out, payload, names)`` /
``read_*(data, pos, names)`` pair over the *body* bytes only, ``names`` being
the frame's :class:`~repro.wire.varint.NameCoder` for every worker name; the
frame header (magic, version, tag, length) is added by :mod:`repro.wire.frame`.

Path codes travel as their packed integer key paths
(``(variable << 1) | value`` — the same keys the completion trie uses, read
straight from :meth:`PathCode._key_path`), one uvarint per decision.  Code
*sequences* are additionally front-coded: codes are laid out in sorted order
(for the set-valued payloads) and every code after the first stores only the
number of leading keys it shares with its predecessor plus its new suffix.
Sibling-dense completed tables collapse to a couple of bytes per code this
way, which is exactly the paper's "completed-work information is compressed
path codes" claim made concrete.  An in-process payload carries its codes as
a :class:`~repro.core.codeset.CodeSet`; the codec writes the set's key paths
straight off its trie and builds :class:`PathCode` objects only when it
decodes.

Decoding is a trust boundary: every reader validates counts, prefixes and
flags and raises ``ValueError`` subclasses from :mod:`repro.wire.varint`,
which the frame layer wraps into :class:`repro.wire.frame.WireFormatError`.
Decoded branch keys are structurally valid by construction (``key & 1`` is
always 0 or 1), so codes are rebuilt with the no-validate
:meth:`PathCode._make` fast constructor.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.codeset import CodeSet
from ..core.encoding import PathCode
from ..core.work_report import BestSolution, DeltaSnapshot, WorkReport
from ..distributed.messages import (
    DeltaGossipMsg,
    HeartbeatGossipMsg,
    TableGossipAck,
    WorkDenied,
    WorkGrant,
    WorkReportMsg,
    WorkRequest,
)
from .varint import (
    MalformedVarintError,
    NameCoder,
    read_bool,
    read_fixed64,
    read_float64,
    read_uvarint,
    write_bool,
    write_fixed64,
    write_float64,
    write_uvarint,
)

__all__ = [
    "write_path_code",
    "read_path_code",
    "write_code_sequence",
    "read_code_sequence",
    "write_best_solution",
    "read_best_solution",
    "write_work_report",
    "read_work_report",
    "write_delta_snapshot",
    "read_delta_snapshot",
    "write_delta_gossip_msg",
    "read_delta_gossip_msg",
    "write_gossip_ack",
    "read_gossip_ack",
    "write_work_request",
    "read_work_request",
    "write_work_grant",
    "read_work_grant",
    "write_work_denied",
    "read_work_denied",
    "write_heartbeat_msg",
    "read_heartbeat_msg",
]


# ---------------------------------------------------------------------- #
# Path codes
# ---------------------------------------------------------------------- #
def write_path_code(out: bytearray, code: PathCode, names=None) -> None:
    """Append one code: uvarint depth, then one packed key per decision."""
    keys = code._key_path()
    write_uvarint(out, len(keys))
    for key in keys:
        write_uvarint(out, key)


def read_path_code(data, pos: int, names=None) -> Tuple[PathCode, int]:
    """Read one code written by :func:`write_path_code`."""
    depth, pos = read_uvarint(data, pos)
    pairs: List[Tuple[int, int]] = []
    for _ in range(depth):
        key, pos = read_uvarint(data, pos)
        pairs.append((key >> 1, key & 1))
    return PathCode._make(tuple(pairs)), pos


def write_code_sequence(out: bytearray, codes) -> None:
    """Append a front-coded sequence of codes, preserving iteration order.

    Callers that carry *sets* of codes must pass them pre-sorted so adjacent
    codes share prefixes (and so the encoding is deterministic); callers that
    carry *ordered* collections (work grants) pass them as-is and simply get
    less prefix reuse.
    """
    _write_key_paths(out, [code._key_path() for code in codes])


def _write_key_paths(out: bytearray, paths: List[Tuple[int, ...]]) -> None:
    """Front-code a list of packed key paths (the body of a code sequence)."""
    write_uvarint(out, len(paths))
    previous: Tuple[int, ...] = ()
    first = True
    for path in paths:
        keys = path
        if first:
            write_uvarint(out, len(keys))
            first = False
        else:
            reuse = 0
            limit = min(len(previous), len(keys))
            while reuse < limit and previous[reuse] == keys[reuse]:
                reuse += 1
            write_uvarint(out, reuse)
            write_uvarint(out, len(keys) - reuse)
            keys = keys[reuse:]
        for key in keys:
            write_uvarint(out, key)
        previous = path


def read_code_sequence(data, pos: int) -> Tuple[List[PathCode], int]:
    """Read a front-coded code sequence; returns codes in wire order."""
    count, pos = read_uvarint(data, pos)
    codes: List[PathCode] = []
    previous: Tuple[Tuple[int, int], ...] = ()
    for index in range(count):
        if index == 0:
            reuse = 0
            fresh, pos = read_uvarint(data, pos)
        else:
            reuse, pos = read_uvarint(data, pos)
            if reuse > len(previous):
                raise MalformedVarintError(
                    f"front-coded prefix reuse {reuse} exceeds previous depth {len(previous)}"
                )
            fresh, pos = read_uvarint(data, pos)
        pairs = list(previous[:reuse])
        for _ in range(fresh):
            key, pos = read_uvarint(data, pos)
            pairs.append((key >> 1, key & 1))
        previous = tuple(pairs)
        codes.append(PathCode._make(previous))
    return codes, pos


def _write_code_set(out: bytearray, codes) -> None:
    """A set of codes, sorted: packed keys order exactly as ``PathCode`` pairs
    do, so a code set's key paths need no code objects."""
    if isinstance(codes, CodeSet):
        paths = sorted(codes.key_paths())
    else:
        paths = sorted(code._key_path() for code in codes)
    _write_key_paths(out, paths)


# ---------------------------------------------------------------------- #
# Best-known solution
# ---------------------------------------------------------------------- #
_BEST_HAS_VALUE = 0x01
_BEST_HAS_ORIGIN = 0x02


def write_best_solution(out: bytearray, best: BestSolution, names: NameCoder) -> None:
    """Append an incumbent: a presence-flags byte, then value and origin."""
    flags = 0
    if best.value is not None:
        flags |= _BEST_HAS_VALUE
    if best.origin is not None:
        flags |= _BEST_HAS_ORIGIN
    out.append(flags)
    if best.value is not None:
        write_float64(out, float(best.value))
    if best.origin is not None:
        names.write(out, best.origin)


def read_best_solution(data, pos: int, names: NameCoder) -> Tuple[BestSolution, int]:
    """Read an incumbent written by :func:`write_best_solution`."""
    if pos >= len(data):
        raise MalformedVarintError("best-solution flags byte missing")
    flags = data[pos]
    pos += 1
    if flags & ~(_BEST_HAS_VALUE | _BEST_HAS_ORIGIN):
        raise MalformedVarintError(f"unknown best-solution flags 0x{flags:02x}")
    value = origin = None
    if flags & _BEST_HAS_VALUE:
        value, pos = read_float64(data, pos)
    if flags & _BEST_HAS_ORIGIN:
        origin, pos = names.read(data, pos)
    return BestSolution(value=value, origin=origin), pos


# ---------------------------------------------------------------------- #
# Work reports and table deltas
# ---------------------------------------------------------------------- #
def write_work_report(out: bytearray, report: WorkReport, names: NameCoder) -> None:
    """Append a report: sender, sequence, incumbent, sorted code set."""
    names.write(out, report.sender)
    write_uvarint(out, report.sequence)
    write_best_solution(out, report.best, names)
    _write_code_set(out, report.codes)


def read_work_report(data, pos: int, names: NameCoder) -> Tuple[WorkReport, int]:
    """Read a report written by :func:`write_work_report`."""
    sender, pos = names.read(data, pos)
    sequence, pos = read_uvarint(data, pos)
    best, pos = read_best_solution(data, pos, names)
    codes, pos = read_code_sequence(data, pos)
    return WorkReport(sender=sender, codes=frozenset(codes), best=best, sequence=sequence), pos


def write_delta_snapshot(out: bytearray, delta: DeltaSnapshot, names: NameCoder) -> None:
    """Append a delta: sender, sequence, full-table digest, incumbent, codes.

    The digest is a fixed 8-byte field (uniform 64-bit values gain nothing
    from varint packing, and the analytic model charges exactly 8 bytes).
    """
    names.write(out, delta.sender)
    write_uvarint(out, delta.sequence)
    write_fixed64(out, delta.full_digest)
    write_best_solution(out, delta.best, names)
    _write_code_set(out, delta.codes)


def read_delta_snapshot(data, pos: int, names: NameCoder) -> Tuple[DeltaSnapshot, int]:
    """Read a delta written by :func:`write_delta_snapshot`."""
    sender, pos = names.read(data, pos)
    sequence, pos = read_uvarint(data, pos)
    full_digest, pos = read_fixed64(data, pos)
    best, pos = read_best_solution(data, pos, names)
    codes, pos = read_code_sequence(data, pos)
    return (
        DeltaSnapshot(
            sender=sender,
            codes=frozenset(codes),
            full_digest=full_digest,
            sequence=sequence,
            best=best,
        ),
        pos,
    )


def write_gossip_ack(out: bytearray, ack: TableGossipAck, names: NameCoder) -> None:
    """Append an ack: sender, echoed digest, own table digest, incumbent."""
    names.write(out, ack.sender)
    write_fixed64(out, ack.digest)
    write_fixed64(out, ack.table_digest)
    write_best_solution(out, ack.best, names)


def read_gossip_ack(data, pos: int, names: NameCoder) -> Tuple[TableGossipAck, int]:
    """Read an ack written by :func:`write_gossip_ack`."""
    sender, pos = names.read(data, pos)
    digest, pos = read_fixed64(data, pos)
    table_digest, pos = read_fixed64(data, pos)
    best, pos = read_best_solution(data, pos, names)
    return (
        TableGossipAck(sender=sender, digest=digest, table_digest=table_digest, best=best),
        pos,
    )


# ---------------------------------------------------------------------- #
# Load-balancing messages
# ---------------------------------------------------------------------- #
def write_work_grant(out: bytearray, grant: WorkGrant, names: NameCoder) -> None:
    """Append a grant: donor, incumbent, donated codes in donation order."""
    names.write(out, grant.donor)
    write_best_solution(out, grant.best, names)
    write_code_sequence(out, grant.codes)


def read_work_grant(data, pos: int, names: NameCoder) -> Tuple[WorkGrant, int]:
    """Read a work grant (code order is preserved)."""
    donor, pos = names.read(data, pos)
    best, pos = read_best_solution(data, pos, names)
    codes, pos = read_code_sequence(data, pos)
    return WorkGrant(donor=donor, codes=tuple(codes), best=best), pos


def write_work_request(out: bytearray, request: WorkRequest, names: NameCoder) -> None:
    """Append a work request: requester, sequence, hops, incumbent."""
    names.write(out, request.requester)
    write_uvarint(out, request.seq)
    write_uvarint(out, request.hops)
    write_best_solution(out, request.best, names)


def read_work_request(data, pos: int, names: NameCoder) -> Tuple[WorkRequest, int]:
    """Read a work request."""
    requester, pos = names.read(data, pos)
    seq, pos = read_uvarint(data, pos)
    hops, pos = read_uvarint(data, pos)
    best, pos = read_best_solution(data, pos, names)
    return WorkRequest(requester, seq, hops, best), pos


def write_work_denied(out: bytearray, denial: WorkDenied, names: NameCoder) -> None:
    """Append a denial: donor, echoed sequence, exhausted flag, incumbent."""
    names.write(out, denial.donor)
    write_uvarint(out, denial.seq)
    write_bool(out, denial.exhausted)
    write_best_solution(out, denial.best, names)


def read_work_denied(data, pos: int, names: NameCoder) -> Tuple[WorkDenied, int]:
    """Read a work denial."""
    donor, pos = names.read(data, pos)
    seq, pos = read_uvarint(data, pos)
    exhausted, pos = read_bool(data, pos)
    best, pos = read_best_solution(data, pos, names)
    return WorkDenied(donor, seq, exhausted, best), pos


# ---------------------------------------------------------------------- #
# Failure-detector heartbeats
# ---------------------------------------------------------------------- #
def _write_name_counters(out: bytearray, pairs, names: NameCoder) -> None:
    """Append a uvarint count, then each pair's name and uvarint counter."""
    write_uvarint(out, len(pairs))
    for name, counter in pairs:
        names.write(out, name)
        write_uvarint(out, counter)


def _read_name_counters(data, pos: int, names: NameCoder) -> Tuple[tuple, int]:
    """Read pairs written by :func:`_write_name_counters`."""
    count, pos = read_uvarint(data, pos)
    pairs: List[Tuple[str, int]] = []
    for _ in range(count):
        name, pos = names.read(data, pos)
        counter, pos = read_uvarint(data, pos)
        pairs.append((name, counter))
    return tuple(pairs), pos


def write_heartbeat_msg(out: bytearray, msg: HeartbeatGossipMsg, names: NameCoder) -> None:
    """Append a heartbeat round: sender, heartbeat digest, non-zero
    incarnations, incumbent.  Heartbeat tables come sorted by member name,
    so a canonical member name costs its last digits."""
    names.write(out, msg.sender)
    _write_name_counters(out, msg.digest, names)
    _write_name_counters(out, msg.incarnations, names)
    write_best_solution(out, msg.best, names)


def read_heartbeat_msg(data, pos: int, names: NameCoder) -> Tuple[HeartbeatGossipMsg, int]:
    """Read a heartbeat round (entry order is preserved)."""
    sender, pos = names.read(data, pos)
    digest, pos = _read_name_counters(data, pos, names)
    incarnations, pos = _read_name_counters(data, pos, names)
    best, pos = read_best_solution(data, pos, names)
    return HeartbeatGossipMsg(sender, digest, incarnations, best), pos


# ---------------------------------------------------------------------- #
# Message-wrapper bodies (same bytes as their payloads)
# ---------------------------------------------------------------------- #
def write_work_report_msg(out: bytearray, msg: WorkReportMsg, names: NameCoder) -> None:
    """A report envelope is body-identical to its report."""
    write_work_report(out, msg.report, names)


def read_work_report_msg(data, pos: int, names: NameCoder) -> Tuple[WorkReportMsg, int]:
    """Read a report envelope."""
    report, pos = read_work_report(data, pos, names)
    return WorkReportMsg(report), pos


def write_delta_gossip_msg(out: bytearray, msg: DeltaGossipMsg, names: NameCoder) -> None:
    """A delta-gossip envelope is body-identical to its delta."""
    write_delta_snapshot(out, msg.delta, names)


def read_delta_gossip_msg(data, pos: int, names: NameCoder) -> Tuple[DeltaGossipMsg, int]:
    """Read a delta-gossip envelope."""
    delta, pos = read_delta_snapshot(data, pos, names)
    return DeltaGossipMsg(delta), pos
