"""Framed message registry: checked headers over the body codecs.

Frame layout (see ``docs/WIRE_FORMAT.md``)::

    +-------+---------+-------------+------------------+--------------+
    | magic | version | tag uvarint | body-len uvarint | body bytes   |
    +-------+---------+-------------+------------------+--------------+

* ``magic`` is the single byte ``0xB5``; anything else is rejected
  immediately, so pickled or foreign traffic can never be mistaken for a
  protocol frame.
* ``version`` is :data:`FRAME_VERSION`, the one format every frame is
  stamped with.  Any other value raises :class:`UnsupportedVersionError`,
  so a frame of another format is rejected, never misread.
* ``tag`` identifies the message type (:class:`Tag`).
* ``body-len`` is the exact body size in bytes.  A frame whose buffer is
  shorter than the declared body is :class:`TruncatedFrameError`; a body
  that decodes to fewer or more bytes than declared, or a frame with bytes
  left over, is :class:`WireFormatError` — corruption is never silently
  tolerated.

Every version has this header, so :func:`read_header` reads a frame's
extent whatever its version byte.  The registry maps payload classes to
``(tag, writer)`` and tags to readers, which share one frame's name coder.
Core protocol tags (1-15, then 32 up) are registered here; subsystems with
their own transport-level messages (the ``realexec`` backend's envelope and
worker outcome) extend the registry at import time through :func:`register`
using tags 16-31, keeping this package free of upward imports.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Tuple, Type

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
from . import codec
from .varint import MalformedVarintError, NameCoder, TruncatedValueError
from .varint import read_uvarint, write_uvarint

__all__ = [
    "FRAME_MAGIC",
    "FRAME_VERSION",
    "Tag",
    "WireFormatError",
    "TruncatedFrameError",
    "UnknownMessageTagError",
    "UnsupportedVersionError",
    "encode",
    "decode",
    "encoded_size",
    "register",
    "read_header",
    "write_tagged",
    "read_tagged",
]

#: First byte of every frame.
FRAME_MAGIC = 0xB5
#: The version byte of every frame; decoders accept no other.
FRAME_VERSION = 4
#: Largest body a frame may declare (16 MiB); a longer one is a corrupt header.
MAX_BODY_BYTES = 1 << 24


class WireFormatError(ValueError):
    """A buffer is not a well-formed frame of a known message."""


class TruncatedFrameError(WireFormatError):
    """The buffer ends before the frame it declares is complete."""


class UnknownMessageTagError(WireFormatError):
    """The frame carries a tag no decoder is registered for."""


class UnsupportedVersionError(WireFormatError):
    """The frame declares a version byte other than :data:`FRAME_VERSION`."""


class Tag(enum.IntEnum):
    """Message-type tags.  Values are part of the wire contract: never reuse
    or renumber a released tag; add new messages at the end."""

    PATH_CODE = 1
    BEST_SOLUTION = 2
    WORK_REPORT = 3
    # 4 and 9 carried the retired whole-table push (a table snapshot and its
    # gossip envelope): reserved, never reuse.
    WORK_REQUEST = 5
    WORK_GRANT = 6
    WORK_DENIED = 7
    WORK_REPORT_MSG = 8
    # 10-12 carried the retired gossip-server membership messages: reserved,
    # never reuse (a frame bearing one is an unknown tag).
    # -- the delta-gossip family --
    DELTA_SNAPSHOT = 13
    DELTA_GOSSIP_MSG = 14
    TABLE_GOSSIP_ACK = 15

    #: First tag available to transport-level extensions (realexec); they
    #: take 16-31.
    EXTENSION_BASE = 16

    # -- core tags continue at 32 because 1-15 are taken or reserved and
    # 16-31 belong to the extensions.  32-33 carried a second work request and denial,
    # folded into 5 and 7: reserved, never reuse. --
    HEARTBEAT = 34


_Writer = Callable[[bytearray, object, NameCoder], None]
_Reader = Callable[[object, int, NameCoder], Tuple[object, int]]

_writers: Dict[Type, Tuple[int, _Writer]] = {}
_readers: Dict[int, _Reader] = {}


def register(tag: int, cls: Type, writer: _Writer, reader: _Reader) -> None:
    """Register a message type with the frame codec.

    ``writer(out, msg, names)`` appends the body; ``reader(data, pos, names)``
    parses it and returns ``(msg, new_pos)``; both pass every worker name
    through ``names``, the frame's :class:`~repro.wire.varint.NameCoder`.
    Used below for the core protocol and by the ``realexec`` transport for
    its extension messages (see the "adding a new message" how-to in
    ``docs/WIRE_FORMAT.md``).
    """
    tag = int(tag)
    existing = _readers.get(tag)
    if existing is not None and _writers.get(cls, (None,))[0] != tag:
        raise ValueError(f"wire tag {tag} is already registered")
    _writers[cls] = (tag, writer)
    _readers[tag] = reader


for _tag, _cls, _writer, _reader in (
    (Tag.PATH_CODE, PathCode, codec.write_path_code, codec.read_path_code),
    (Tag.BEST_SOLUTION, BestSolution, codec.write_best_solution, codec.read_best_solution),
    (Tag.WORK_REPORT, WorkReport, codec.write_work_report, codec.read_work_report),
    (Tag.WORK_REQUEST, WorkRequest, codec.write_work_request, codec.read_work_request),
    (Tag.WORK_GRANT, WorkGrant, codec.write_work_grant, codec.read_work_grant),
    (Tag.WORK_DENIED, WorkDenied, codec.write_work_denied, codec.read_work_denied),
    (
        Tag.WORK_REPORT_MSG,
        WorkReportMsg,
        codec.write_work_report_msg,
        codec.read_work_report_msg,
    ),
    (Tag.DELTA_SNAPSHOT, DeltaSnapshot, codec.write_delta_snapshot, codec.read_delta_snapshot),
    (
        Tag.DELTA_GOSSIP_MSG,
        DeltaGossipMsg,
        codec.write_delta_gossip_msg,
        codec.read_delta_gossip_msg,
    ),
    (Tag.TABLE_GOSSIP_ACK, TableGossipAck, codec.write_gossip_ack, codec.read_gossip_ack),
    (Tag.HEARTBEAT, HeartbeatGossipMsg, codec.write_heartbeat_msg, codec.read_heartbeat_msg),
):
    register(_tag, _cls, _writer, _reader)


# ---------------------------------------------------------------------- #
# Encoding
# ---------------------------------------------------------------------- #
def _writer_for(msg: object) -> Tuple[int, _Writer]:
    entry = _writers.get(type(msg))
    if entry is None:
        # Exact-type lookup misses subclasses; fall back to an isinstance scan.
        for cls, candidate in _writers.items():
            if isinstance(msg, cls):
                return candidate
        raise WireFormatError(f"no wire codec registered for {type(msg).__name__}")
    return entry


def write_tagged(out: bytearray, msg: object, names: NameCoder) -> None:
    """Append ``msg``'s tag and body inside another frame, sharing its names."""
    tag, writer = _writer_for(msg)
    write_uvarint(out, tag)
    writer(out, msg, names)


def encode(msg: object) -> bytes:
    """Encode any registered protocol message into one framed byte string."""
    tag, writer = _writer_for(msg)
    body = bytearray()
    writer(body, msg, NameCoder())
    out = bytearray((FRAME_MAGIC, FRAME_VERSION))
    write_uvarint(out, tag)
    write_uvarint(out, len(body))
    out += body
    return bytes(out)


def encoded_size(msg: object) -> int:
    """Exact framed size of ``msg`` in bytes (what :func:`encode` produces)."""
    return len(encode(msg))


# ---------------------------------------------------------------------- #
# Decoding
# ---------------------------------------------------------------------- #
def read_header(data) -> Tuple[int, int, int, int]:
    """``(version, tag, body_start, body_len)`` of a frame of any version.

    Raises :class:`TruncatedFrameError` while ``data`` is a prefix of the
    frame and :class:`WireFormatError` when no byte can complete it (bad
    magic, malformed varint, body over :data:`MAX_BODY_BYTES`).
    """
    if len(data) == 0:
        raise TruncatedFrameError("empty buffer")
    if data[0] != FRAME_MAGIC:
        raise WireFormatError(f"bad frame magic 0x{data[0]:02x} (expected 0x{FRAME_MAGIC:02x})")
    try:
        tag, pos = read_uvarint(data, 2)
        body_len, pos = read_uvarint(data, pos)
    except TruncatedValueError as exc:
        raise TruncatedFrameError(f"frame ends inside the header: {exc}") from exc
    except MalformedVarintError as exc:
        raise WireFormatError(f"malformed frame header: {exc}") from exc
    if body_len > MAX_BODY_BYTES:
        raise WireFormatError(f"frame declares {body_len} body bytes, over {MAX_BODY_BYTES}")
    if pos + body_len > len(data):
        raise TruncatedFrameError(
            f"frame declares {body_len} body bytes but only {len(data) - pos} remain"
        )
    return data[1], tag, pos, body_len


def read_tagged(data, pos: int, names: NameCoder) -> Tuple[object, int]:
    """Read a message written by :func:`write_tagged`."""
    tag, pos = read_uvarint(data, pos)
    reader = _readers.get(tag)
    if reader is None:
        raise UnknownMessageTagError(f"unknown message tag {tag}")
    return reader(data, pos, names)


def decode(data) -> object:
    """Decode one framed message; the buffer must contain exactly one frame."""
    version, tag, body_start, body_len = read_header(data)
    if version != FRAME_VERSION:
        raise UnsupportedVersionError(f"unsupported wire-format version {version}")
    body_end = body_start + body_len
    if body_end != len(data):
        raise WireFormatError(f"{len(data) - body_end} trailing bytes after frame")
    reader = _readers.get(tag)
    if reader is None:
        raise UnknownMessageTagError(f"unknown message tag {tag}")
    try:
        msg, pos = reader(data, body_start, NameCoder())
    except WireFormatError:
        raise
    except ValueError as exc:
        raise WireFormatError(f"corrupt {Tag(tag).name if tag in Tag._value2member_map_ else tag} body: {exc}") from exc
    if pos != body_end:
        raise WireFormatError(
            f"message body consumed {pos - body_start} bytes but frame declared {body_len}"
        )
    return msg
