"""Body codecs for every protocol payload.

Each payload class gets a ``write_*(out, payload)`` / ``read_*(data, pos)``
pair operating on the *body* bytes only; the frame header (magic, version,
tag, length) is added by :mod:`repro.wire.frame`.

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
from ..core.work_report import (
    BestSolution,
    CompletedTableSnapshot,
    DeltaSnapshot,
    WorkReport,
)
from ..distributed.messages import (
    DeltaGossipMsg,
    HeartbeatGossipMsg,
    TableGossipAck,
    TableGossipMsg,
    WorkDenied,
    WorkGrant,
    WorkReportMsg,
    WorkRequest,
)
from .varint import (
    MalformedVarintError,
    read_bool,
    read_fixed64,
    read_float64,
    read_string,
    read_uvarint,
    write_bool,
    write_fixed64,
    write_float64,
    write_string,
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
    "write_table_snapshot",
    "read_table_snapshot",
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
def write_path_code(out: bytearray, code: PathCode) -> None:
    """Append one code: uvarint depth, then one packed key per decision."""
    keys = code._key_path()
    write_uvarint(out, len(keys))
    for key in keys:
        write_uvarint(out, key)


def read_path_code(data, pos: int) -> Tuple[PathCode, int]:
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


def write_best_solution(out: bytearray, best: BestSolution) -> None:
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
        write_string(out, best.origin)


def read_best_solution(data, pos: int) -> Tuple[BestSolution, int]:
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
        origin, pos = read_string(data, pos)
    return BestSolution(value=value, origin=origin), pos


# ---------------------------------------------------------------------- #
# Work reports and table snapshots
# ---------------------------------------------------------------------- #
def write_work_report(out: bytearray, report: WorkReport) -> None:
    """Append a report: sender, sequence, incumbent, sorted code set."""
    write_string(out, report.sender)
    write_uvarint(out, report.sequence)
    write_best_solution(out, report.best)
    _write_code_set(out, report.codes)


def read_work_report(data, pos: int) -> Tuple[WorkReport, int]:
    """Read a report written by :func:`write_work_report`."""
    sender, pos = read_string(data, pos)
    sequence, pos = read_uvarint(data, pos)
    best, pos = read_best_solution(data, pos)
    codes, pos = read_code_sequence(data, pos)
    return WorkReport(sender=sender, codes=frozenset(codes), best=best, sequence=sequence), pos


def write_table_snapshot(out: bytearray, snapshot: CompletedTableSnapshot) -> None:
    """Append a snapshot: sender, incumbent, sorted contracted table."""
    write_string(out, snapshot.sender)
    write_best_solution(out, snapshot.best)
    _write_code_set(out, snapshot.codes)


def read_table_snapshot(data, pos: int) -> Tuple[CompletedTableSnapshot, int]:
    """Read a snapshot written by :func:`write_table_snapshot`."""
    sender, pos = read_string(data, pos)
    best, pos = read_best_solution(data, pos)
    codes, pos = read_code_sequence(data, pos)
    return CompletedTableSnapshot(sender=sender, codes=frozenset(codes), best=best), pos


def write_delta_snapshot(out: bytearray, delta: DeltaSnapshot) -> None:
    """Append a delta: sender, sequence, full-table digest, incumbent, codes.

    The digest is a fixed 8-byte field (uniform 64-bit values gain nothing
    from varint packing, and the analytic model charges exactly 8 bytes).
    """
    write_string(out, delta.sender)
    write_uvarint(out, delta.sequence)
    write_fixed64(out, delta.full_digest)
    write_best_solution(out, delta.best)
    _write_code_set(out, delta.codes)


def read_delta_snapshot(data, pos: int) -> Tuple[DeltaSnapshot, int]:
    """Read a delta written by :func:`write_delta_snapshot`."""
    sender, pos = read_string(data, pos)
    sequence, pos = read_uvarint(data, pos)
    full_digest, pos = read_fixed64(data, pos)
    best, pos = read_best_solution(data, pos)
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


def write_gossip_ack(out: bytearray, ack: TableGossipAck) -> None:
    """Append an ack: sender, echoed digest, own table digest, incumbent."""
    write_string(out, ack.sender)
    write_fixed64(out, ack.digest)
    write_fixed64(out, ack.table_digest)
    write_best_solution(out, ack.best)


def read_gossip_ack(data, pos: int) -> Tuple[TableGossipAck, int]:
    """Read an ack written by :func:`write_gossip_ack`."""
    sender, pos = read_string(data, pos)
    digest, pos = read_fixed64(data, pos)
    table_digest, pos = read_fixed64(data, pos)
    best, pos = read_best_solution(data, pos)
    return (
        TableGossipAck(sender=sender, digest=digest, table_digest=table_digest, best=best),
        pos,
    )


# ---------------------------------------------------------------------- #
# Load-balancing messages
# ---------------------------------------------------------------------- #
def write_work_grant(out: bytearray, grant: WorkGrant) -> None:
    """Append a grant: donor, incumbent, donated codes in donation order."""
    write_string(out, grant.donor)
    write_best_solution(out, grant.best)
    write_code_sequence(out, grant.codes)


def read_work_grant(data, pos: int) -> Tuple[WorkGrant, int]:
    """Read a work grant (code order is preserved)."""
    donor, pos = read_string(data, pos)
    best, pos = read_best_solution(data, pos)
    codes, pos = read_code_sequence(data, pos)
    return WorkGrant(donor=donor, codes=tuple(codes), best=best), pos


def write_work_request(out: bytearray, request: WorkRequest) -> None:
    """Append a work request: requester, sequence, hops, incumbent."""
    write_string(out, request.requester)
    write_uvarint(out, request.seq)
    write_uvarint(out, request.hops)
    write_best_solution(out, request.best)


def read_work_request(data, pos: int) -> Tuple[WorkRequest, int]:
    """Read a work request."""
    requester, pos = read_string(data, pos)
    seq, pos = read_uvarint(data, pos)
    hops, pos = read_uvarint(data, pos)
    best, pos = read_best_solution(data, pos)
    return WorkRequest(requester, seq, hops, best), pos


def write_work_denied(out: bytearray, denial: WorkDenied) -> None:
    """Append a denial: donor, echoed sequence, exhausted flag, incumbent."""
    write_string(out, denial.donor)
    write_uvarint(out, denial.seq)
    write_bool(out, denial.exhausted)
    write_best_solution(out, denial.best)


def read_work_denied(data, pos: int) -> Tuple[WorkDenied, int]:
    """Read a work denial."""
    donor, pos = read_string(data, pos)
    seq, pos = read_uvarint(data, pos)
    exhausted, pos = read_bool(data, pos)
    best, pos = read_best_solution(data, pos)
    return WorkDenied(donor, seq, exhausted, best), pos


# ---------------------------------------------------------------------- #
# Failure-detector heartbeats
# ---------------------------------------------------------------------- #
def _write_name_counters(out: bytearray, pairs, previous: str) -> str:
    """Append ``(name, counter)`` pairs with front-coded names, in order.

    Each name stores only the number of leading characters it shares with
    the name written before it (``previous`` for the first) and its new
    suffix, as :func:`write_code_sequence` does for path codes.  Heartbeat
    tables come sorted by member name and worker names share the
    ``worker-`` prefix, so a name costs its last digits.  Returns the last
    name written, which the next list continues from.
    """
    write_uvarint(out, len(pairs))
    for name, counter in pairs:
        reuse = 0
        limit = min(len(previous), len(name))
        while reuse < limit and previous[reuse] == name[reuse]:
            reuse += 1
        write_uvarint(out, reuse)
        write_string(out, name[reuse:])
        write_uvarint(out, counter)
        previous = name
    return previous


def _read_name_counters(
    data, pos: int, previous: str
) -> Tuple[Tuple[Tuple[str, int], ...], str, int]:
    """Read pairs written by :func:`_write_name_counters`; returns the
    pairs, the last name and the new position."""
    count, pos = read_uvarint(data, pos)
    pairs: List[Tuple[str, int]] = []
    for _ in range(count):
        reuse, pos = read_uvarint(data, pos)
        if reuse > len(previous):
            raise MalformedVarintError(
                f"front-coded name reuse {reuse} exceeds previous length {len(previous)}"
            )
        suffix, pos = read_string(data, pos)
        counter, pos = read_uvarint(data, pos)
        previous = previous[:reuse] + suffix
        pairs.append((previous, counter))
    return tuple(pairs), previous, pos


def write_heartbeat_msg(out: bytearray, msg: HeartbeatGossipMsg) -> None:
    """Append a heartbeat round: sender, heartbeat digest, non-zero
    incarnations, incumbent; member names are front-coded from the
    sender's name on."""
    write_string(out, msg.sender)
    last = _write_name_counters(out, msg.digest, msg.sender)
    _write_name_counters(out, msg.incarnations, last)
    write_best_solution(out, msg.best)


def read_heartbeat_msg(data, pos: int) -> Tuple[HeartbeatGossipMsg, int]:
    """Read a heartbeat round (entry order is preserved)."""
    sender, pos = read_string(data, pos)
    digest, last, pos = _read_name_counters(data, pos, sender)
    incarnations, _, pos = _read_name_counters(data, pos, last)
    best, pos = read_best_solution(data, pos)
    return HeartbeatGossipMsg(sender, digest, incarnations, best), pos


# ---------------------------------------------------------------------- #
# Message-wrapper bodies (same bytes as their payloads)
# ---------------------------------------------------------------------- #
def write_work_report_msg(out: bytearray, msg: WorkReportMsg) -> None:
    """A report envelope is body-identical to its report."""
    write_work_report(out, msg.report)


def read_work_report_msg(data, pos: int) -> Tuple[WorkReportMsg, int]:
    """Read a report envelope."""
    report, pos = read_work_report(data, pos)
    return WorkReportMsg(report), pos


def write_table_gossip_msg(out: bytearray, msg: TableGossipMsg) -> None:
    """A gossip envelope is body-identical to its snapshot."""
    write_table_snapshot(out, msg.snapshot)


def read_table_gossip_msg(data, pos: int) -> Tuple[TableGossipMsg, int]:
    """Read a gossip envelope."""
    snapshot, pos = read_table_snapshot(data, pos)
    return TableGossipMsg(snapshot), pos


def write_delta_gossip_msg(out: bytearray, msg: DeltaGossipMsg) -> None:
    """A delta-gossip envelope is body-identical to its delta."""
    write_delta_snapshot(out, msg.delta)


def read_delta_gossip_msg(data, pos: int) -> Tuple[DeltaGossipMsg, int]:
    """Read a delta-gossip envelope."""
    delta, pos = read_delta_snapshot(data, pos)
    return DeltaGossipMsg(delta), pos
