"""Varint and primitive-value encoding shared by every message codec.

Unsigned integers use LEB128 (little-endian base-128): seven payload bits per
byte, high bit set on every byte except the last.  Small numbers — tree
depths, variable indices, entry counts — are the overwhelmingly common case
in this protocol, so they cost a single byte instead of a fixed-width field.

Signed integers use zigzag mapping (``(n << 1) ^ (n >> 63)`` generalised to
arbitrary precision) so that small negative numbers stay small on the wire.

Strings are a uvarint byte length followed by UTF-8 bytes (worker names are
front-coded by a :class:`NameCoder`).  Floats are 8-byte big-endian IEEE 754
doubles — objective values need exact round-trips, so no varint packing.

Readers take ``(buffer, position)`` and return ``(value, new_position)``;
every read validates that it stays inside the buffer and raises
:class:`TruncatedValueError` otherwise, which the frame layer converts into
its truncation error.  Writers append to a ``bytearray``.
"""

from __future__ import annotations

import struct
from os.path import commonprefix
from typing import Optional, Tuple

__all__ = [
    "TruncatedValueError",
    "MalformedVarintError",
    "write_uvarint",
    "read_uvarint",
    "write_svarint",
    "read_svarint",
    "write_string",
    "read_string",
    "NameCoder",
    "write_float64",
    "read_float64",
    "write_fixed64",
    "read_fixed64",
    "write_bool",
    "read_bool",
    "uvarint_size",
]

#: Safety cap on varint width: 10 bytes encode up to 70 bits, enough for any
#: value this protocol produces (counts, depths, packed branch keys, sizes).
#: Longer runs of continuation bytes are treated as corruption, not data.
_MAX_VARINT_BYTES = 10

_FLOAT64 = struct.Struct(">d")
_FIXED64 = struct.Struct(">Q")


class TruncatedValueError(ValueError):
    """A primitive read ran past the end of the buffer."""


class MalformedVarintError(ValueError):
    """A varint was malformed (over-long or non-terminated)."""


# ---------------------------------------------------------------------- #
# Unsigned varints
# ---------------------------------------------------------------------- #
def write_uvarint(out: bytearray, value: int) -> None:
    """Append ``value`` (non-negative int) as a LEB128 varint."""
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value!r}")
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_uvarint(data, pos: int) -> Tuple[int, int]:
    """Read a LEB128 varint at ``pos``; returns ``(value, new_pos)``."""
    result = 0
    shift = 0
    end = len(data)
    for count in range(_MAX_VARINT_BYTES):
        if pos >= end:
            raise TruncatedValueError("varint runs past end of buffer")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if byte == 0 and count > 0:
                # A zero final byte after continuation bytes is an over-long
                # encoding (e.g. 0x80 0x00 for 0); canonical encodings never
                # produce it, so reject it as corruption.
                raise MalformedVarintError("over-long varint encoding")
            return result, pos
        shift += 7
    raise MalformedVarintError("varint exceeds maximum width")


def uvarint_size(value: int) -> int:
    """Number of bytes :func:`write_uvarint` will use for ``value``."""
    size = 1
    while value >= 0x80:
        value >>= 7
        size += 1
    return size


# ---------------------------------------------------------------------- #
# Signed varints (zigzag)
# ---------------------------------------------------------------------- #
def write_svarint(out: bytearray, value: int) -> None:
    """Append a signed int using zigzag + LEB128."""
    zigzag = (value << 1) ^ (value >> 63) if -(1 << 63) <= value < (1 << 63) else None
    if zigzag is None or zigzag < 0:
        # Arbitrary-precision fallback keeps the mapping bijective for any
        # Python int: non-negatives map to even, negatives to odd.
        zigzag = value * 2 if value >= 0 else -value * 2 - 1
    write_uvarint(out, zigzag)


def read_svarint(data, pos: int) -> Tuple[int, int]:
    """Read a zigzag signed varint; returns ``(value, new_pos)``."""
    zigzag, pos = read_uvarint(data, pos)
    value = zigzag >> 1 if not zigzag & 1 else -(zigzag >> 1) - 1
    return value, pos


# ---------------------------------------------------------------------- #
# Strings, floats, booleans
# ---------------------------------------------------------------------- #
def write_string(out: bytearray, text: str) -> None:
    """Append a uvarint-length-prefixed UTF-8 string."""
    raw = text.encode("utf-8")
    write_uvarint(out, len(raw))
    out += raw


def read_string(data, pos: int) -> Tuple[str, int]:
    """Read a length-prefixed UTF-8 string; returns ``(text, new_pos)``."""
    length, pos = read_uvarint(data, pos)
    end = pos + length
    if end > len(data):
        raise TruncatedValueError("string runs past end of buffer")
    try:
        text = bytes(data[pos:end]).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedVarintError(f"invalid UTF-8 in string field: {exc}") from exc
    return text, end


class NameCoder:
    """Front-codes one frame's worker names, in the order written: the first
    is a plain string, each later one the uvarint count of characters it
    shares with the name before it, then the rest as a string."""

    __slots__ = ("previous",)

    def __init__(self) -> None:
        self.previous: Optional[str] = None

    def write(self, out: bytearray, name: str) -> None:
        previous, self.previous = self.previous, name
        if previous is not None:
            reuse = len(commonprefix((previous, name)))
            write_uvarint(out, reuse)
            name = name[reuse:]
        write_string(out, name)

    def read(self, data, pos: int) -> Tuple[str, int]:
        previous, reuse = self.previous, 0
        if previous is not None:
            reuse, pos = read_uvarint(data, pos)
            if reuse > len(previous):
                raise MalformedVarintError(f"name reuse {reuse} > {len(previous)} characters")
        suffix, pos = read_string(data, pos)
        self.previous = name = (previous or "")[:reuse] + suffix
        return name, pos


def write_float64(out: bytearray, value: float) -> None:
    """Append an 8-byte big-endian IEEE 754 double."""
    out += _FLOAT64.pack(value)


def read_float64(data, pos: int) -> Tuple[float, int]:
    """Read an 8-byte double; returns ``(value, new_pos)``."""
    end = pos + 8
    if end > len(data):
        raise TruncatedValueError("float64 runs past end of buffer")
    return _FLOAT64.unpack(bytes(data[pos:end]))[0], end


def write_fixed64(out: bytearray, value: int) -> None:
    """Append an unsigned 64-bit value as 8 big-endian bytes.

    Used for table digests: a digest is uniformly distributed over 64 bits,
    so varint packing would *expand* it (up to 10 bytes) — and the analytic
    byte model charges digests a flat 8 bytes, which the fixed width matches
    exactly.
    """
    out += _FIXED64.pack(value & 0xFFFFFFFFFFFFFFFF)


def read_fixed64(data, pos: int) -> Tuple[int, int]:
    """Read an unsigned 64-bit big-endian value; returns ``(value, new_pos)``."""
    end = pos + 8
    if end > len(data):
        raise TruncatedValueError("fixed64 runs past end of buffer")
    return _FIXED64.unpack(bytes(data[pos:end]))[0], end


def write_bool(out: bytearray, value: bool) -> None:
    """Append a boolean as a single 0/1 byte."""
    out.append(1 if value else 0)


def read_bool(data, pos: int) -> Tuple[bool, int]:
    """Read a 0/1 byte as a boolean; any other value is corruption."""
    if pos >= len(data):
        raise TruncatedValueError("bool runs past end of buffer")
    byte = data[pos]
    if byte not in (0, 1):
        raise MalformedVarintError(f"bool byte must be 0 or 1, got {byte}")
    return bool(byte), pos + 1
