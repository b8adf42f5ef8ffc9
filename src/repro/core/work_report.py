"""Work-report and completed-table message payloads.

Processes disseminate knowledge about completed subproblems with two kinds of
epidemic messages (Section 5.3.2):

* **work reports** — the list of codes a process completed locally since its
  previous report, compressed before sending; emitted when the local list
  reaches ``c`` codes or has not been updated for a while, and sent to ``m``
  randomly chosen members; and
* **table gossip** — occasionally a member sends its contracted table of
  completed problems to one randomly chosen member, to bring newly joined (or
  poorly connected) members up to date and to increase consistency; it
  travels as a :class:`DeltaSnapshot`, the part of the table that member is
  not known to cover.

Both payloads also piggy-back the sender's best-known solution value, which is
how the paper solves the information-sharing problem ("circulating the
best-known solution among processes, embedded in the most frequently sent
messages", Section 5).

These classes are plain value objects: the simulator wraps them in simulated
network messages, and the ``realexec`` backend ships them as :mod:`repro.wire`
binary frames over TCP.

A payload built by a :class:`~repro.core.completion.CompletionTracker`
carries its codes *by reference*: ``codes`` is a read-only
:class:`~repro.core.codeset.CodeSet` holding one arena node, so its size,
emptiness and root test are O(1) node reads and no :class:`PathCode` is
built for it unless the :mod:`repro.wire` codec encodes it.  A payload
decoded off the wire, or built by hand, carries a frozenset of codes.

Performance invariants: the payloads are immutable, so :meth:`WorkReport.
wire_size` and :meth:`CompletedTableSnapshot.wire_size` are computed once on
first request and cached on the instance (the network model asks for the size
of the same payload at send, delivery and receive time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Optional, Union

from .codeset import CodeSet
from .encoding import ROOT, PathCode

#: A payload's codes: a code set by reference, or plain codes.
Codes = Union[CodeSet, FrozenSet[PathCode]]

__all__ = [
    "BestSolution",
    "WorkReport",
    "CompletedTableSnapshot",
    "DeltaSnapshot",
    "compress_report_codes",
    "table_digest",
]

#: Fixed overhead charged per message by the byte-size model (headers,
#: sender identity, sequence number).
_MESSAGE_HEADER_BYTES = 32
#: Bytes charged for an embedded best-known-solution value.
_BEST_SOLUTION_BYTES = 10
#: Bytes charged for a table digest embedded in a delta snapshot / ack
#: (fixed 8-byte field on the wire, see ``repro.wire``).
_DIGEST_BYTES = 8


_FNV64_PRIME = 0x100000001B3
_FNV64_OFFSET = 0xCBF29CE484222325
_MASK64 = (1 << 64) - 1
#: Digest of a subtree that is entirely completed (a trie DONE leaf).
_DONE_DIGEST = 0x9E3779B97F4A7C15
#: Trie marker for "a code terminates here" (packed keys are >= 0).
_DONE_MARK = -1


def _trie_digest(node: dict) -> int:
    """Recursive structural digest of a nested-dict completion trie."""
    if _DONE_MARK in node:
        return _DONE_DIGEST
    h = _FNV64_OFFSET
    for key in sorted(k for k in node if k >= 0):
        h = ((h ^ (key + 1)) * _FNV64_PRIME) & _MASK64
        h = ((h ^ _trie_digest(node[key])) * _FNV64_PRIME) & _MASK64
    return h


def table_digest(codes) -> int:
    """Order-independent 64-bit digest of a set of completed codes.

    The digest is *structural*: the codes are laid out as a canonical
    completion trie (sorted packed branch keys, completed nodes subsuming
    their subtrees) and FNV-folded bottom-up, so any two processes holding
    the same contracted table compute the same value regardless of
    iteration order, interpreter or hash randomisation — and a shared
    :class:`~repro.core.arena.TrieArena` can compute the identical value in
    O(1) from the per-node digests it interns bottom-up.  Delta gossip uses
    it as the acknowledgement token: a receiver echoes the digest of the
    sender's full table, and the sender advances its per-peer basis only on
    an exact match.

    A collision (two different tables with equal digests) can at worst make
    a sender skip codes one particular peer still misses — the epidemic work
    reports still deliver them — so 64 opportunistic bits are plenty.
    """
    root: dict = {}
    count = 0
    for code in codes:
        count += 1
        try:
            keys = code._keys
        except AttributeError:
            keys = code._key_path()
        node = root
        for key in keys:
            node = node.setdefault(key, {})
        node[_DONE_MARK] = True
    if count == 0:
        return 0
    return (_trie_digest(root) ^ (count * _FNV64_PRIME)) & _MASK64


@dataclass(frozen=True, slots=True)
class BestSolution:
    """The best feasible solution value known to a process.

    ``value`` is the objective value and ``origin`` identifies the process
    that first found it (useful for tracing, not required by the algorithm).
    ``None`` value means no feasible solution is known yet.
    """

    value: Optional[float] = None
    origin: Optional[str] = None

    def is_better_than(self, other: "BestSolution", *, minimize: bool = True) -> bool:
        """Compare two incumbent values under the given optimisation sense."""
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value if minimize else self.value > other.value

    def wire_size(self) -> int:
        """Bytes contributed to a message that embeds this value."""
        return 0 if self.value is None else _BEST_SOLUTION_BYTES


def _cached_payload_wire(payload) -> int:
    """Shared wire-size computation for the immutable report payloads.

    Computed once per payload and stored in its ``_wire`` slot (-1 sentinel
    = not yet computed); both payload classes share this single definition
    of the byte model so they can never disagree on message size.
    """
    wire = payload._wire
    if wire < 0:
        codes = payload.codes
        if isinstance(codes, CodeSet):
            codes_wire = codes.wire_size()  # the same sum, off the node
        else:
            codes_wire = sum(code.wire_size() for code in codes)
        wire = _MESSAGE_HEADER_BYTES + codes_wire + payload.best.wire_size()
        object.__setattr__(payload, "_wire", wire)
    return wire


def compress_report_codes(codes: Iterable[PathCode]) -> CodeSet:
    """Compress an outgoing list of completed codes.

    Applies the paper's two compression rules (sibling merge and ancestor
    subsumption) to the outgoing list only; the paper notes compression
    works best "when processors are sufficiently loaded" because whole
    locally-completed subtrees collapse to single codes.
    """
    return CodeSet(codes)


@dataclass(frozen=True, slots=True)
class WorkReport:
    """A compressed list of newly completed subproblem codes.

    Attributes
    ----------
    sender:
        Identifier of the reporting process.
    codes:
        Compressed completed codes (pairwise non-redundant): a code set, or
        plain codes when decoded or sent uncompressed.
    best:
        The sender's best-known solution, piggy-backed on the report.
    sequence:
        Per-sender sequence number, used only for tracing and duplicate
        accounting in the metrics — the algorithm itself is idempotent under
        duplicated or reordered reports.
    """

    sender: str
    codes: Codes
    best: BestSolution = field(default_factory=BestSolution)
    sequence: int = 0
    #: Cached wire size (-1 = not computed yet); excluded from equality.
    _wire: int = field(default=-1, init=False, repr=False, compare=False)

    @classmethod
    def build(
        cls,
        sender: str,
        codes: Iterable[PathCode],
        *,
        best: Optional[BestSolution] = None,
        sequence: int = 0,
    ) -> "WorkReport":
        """Compress ``codes`` and build the report."""
        return cls(
            sender=sender,
            codes=compress_report_codes(codes),
            best=best if best is not None else BestSolution(),
            sequence=sequence,
        )

    @property
    def is_empty(self) -> bool:
        """True when the report carries no completion information."""
        return not self.codes

    def wire_size(self) -> int:
        """Estimated encoded size in bytes (drives the latency model).

        Computed once and cached: the payload is immutable and the network
        model asks for the size several times per message.
        """
        return _cached_payload_wire(self)

    def contains_root(self) -> bool:
        """True when this is a termination announcement (root-code report)."""
        return ROOT in self.codes


@dataclass(frozen=True, slots=True)
class CompletedTableSnapshot:
    """A full copy of a process's contracted completed-code table.

    The paper sends it occasionally to a randomly chosen member "in order to
    inform new members of the current state of the execution and to increase
    the degree of consistency" (Section 5.3.2); here that push travels as a
    :class:`DeltaSnapshot`, and a snapshot is an in-process view of a whole
    table (the reference the delta-gossip tests compare against).
    """

    sender: str
    codes: Codes
    best: BestSolution = field(default_factory=BestSolution)
    #: Cached wire size (-1 = not computed yet); excluded from equality.
    _wire: int = field(default=-1, init=False, repr=False, compare=False)

    @classmethod
    def from_table(
        cls, sender: str, table: CodeSet, *, best: Optional[BestSolution] = None
    ) -> "CompletedTableSnapshot":
        """Snapshot a live table: its current arena node, by reference."""
        return cls(
            sender=sender,
            codes=CodeSet.of_node(table.arena, table.node_id()),
            best=best if best is not None else BestSolution(),
        )

    def wire_size(self) -> int:
        """Estimated encoded size in bytes (computed once, then cached)."""
        return _cached_payload_wire(self)

    def as_report(self, sequence: int = 0) -> WorkReport:
        """View the snapshot as a (large) work report for uniform handling."""
        return WorkReport(sender=self.sender, codes=self.codes, best=self.best, sequence=sequence)


@dataclass(frozen=True, slots=True)
class DeltaSnapshot:
    """The codes of a table that one peer is *not* known to cover yet.

    Delta gossip is the paper's occasional whole-table push made an
    anti-entropy exchange: the sender keeps, per peer, the digest of the last
    table state that peer acknowledged (see
    :class:`~repro.core.completion.PeerGossipView`) and ships only the codes
    of its current table that the acknowledged basis does not cover.  The
    receiver merges the codes — they are ordinary completed-code facts, so a
    lost or reordered delta can never corrupt anything — and echoes
    ``full_digest`` back; only that acknowledgement lets the sender advance
    the peer's basis.  Until an ack arrives, every new delta re-ships the
    unacknowledged codes, which is what makes the scheme converge under
    arbitrary message loss (the property tests pin this against a
    whole-snapshot reference).

    Attributes
    ----------
    sender:
        Identifier of the gossiping process.
    codes:
        Contracted codes not covered by the peer's acknowledged basis.  With
        an empty basis (first contact) this is the whole table, so a delta
        stream needs no special bootstrap message.
    full_digest:
        :func:`table_digest` of the sender's *entire* table at send time —
        the acknowledgement token.
    sequence:
        Per sender→peer delta sequence number (tracing only; the protocol is
        idempotent under loss, duplication and reordering).
    best:
        The sender's best-known solution, piggy-backed as on every message.
    """

    sender: str
    codes: Codes
    full_digest: int = 0
    sequence: int = 0
    best: BestSolution = field(default_factory=BestSolution)
    #: Cached wire size (-1 = not computed yet); excluded from equality.
    _wire: int = field(default=-1, init=False, repr=False, compare=False)

    @property
    def is_empty(self) -> bool:
        """True when the peer's acknowledged basis already covers the table."""
        return not self.codes

    def wire_size(self) -> int:
        """Estimated encoded size in bytes: header, codes, digest, incumbent."""
        wire = self._wire
        if wire < 0:
            wire = _cached_payload_wire(self) + _DIGEST_BYTES
            object.__setattr__(self, "_wire", wire)
        return wire

    def as_report(self, sequence: int = 0) -> WorkReport:
        """View the delta as a work report for uniform merge handling."""
        return WorkReport(sender=self.sender, codes=self.codes, best=self.best, sequence=sequence)
