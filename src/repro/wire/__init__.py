"""Binary wire-format subsystem: compact codecs for every protocol message.

The paper's cost argument rests on completed-work information travelling as
*compressed path codes* whose byte size drives overhead (Sections 4-5).  The
simulator charges an analytic ``wire_size()`` per payload; this package gives
that model a *real* serializer to validate against, and gives the ``realexec``
backend a pickle-free transport encoding.

Layout
------
* :mod:`repro.wire.varint` — LEB128 unsigned varints, zigzag signed ints, and
  the string/float primitives every codec is built from.
* :mod:`repro.wire.codec` — per-payload body codecs for every protocol
  message: :class:`~repro.core.encoding.PathCode` (packed
  ``(variable << 1) | value`` key paths), ``BestSolution``, ``WorkReport``,
  the delta-gossip family (``DeltaSnapshot``, ``DeltaGossipMsg``,
  ``TableGossipAck``) and the work request/grant/deny messages.
* :mod:`repro.wire.frame` — the framed-message registry:
  ``encode(msg) -> bytes`` and ``decode(data) -> msg`` with a
  magic/version/tag/length header (one version, checked), strict
  truncation and corruption detection, and an extension hook
  (:func:`repro.wire.frame.register`) used by the ``realexec`` transport for
  its envelope and outcome messages.

The byte layout is specified in ``docs/WIRE_FORMAT.md``; the analytic model
in :meth:`PathCode.wire_size` and friends is asserted (in
``tests/wire/test_wire_model_validation.py``) to stay an upper bound on the
real encoded sizes within the documented limits.
"""

from .frame import (
    FRAME_MAGIC,
    FRAME_VERSION,
    Tag,
    TruncatedFrameError,
    UnknownMessageTagError,
    UnsupportedVersionError,
    WireFormatError,
    decode,
    encode,
    encoded_size,
    register,
)

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
]
