"""Wire messages exchanged by the distributed B&B workers.

The algorithm uses a small set of message types (Sections 5 and 5.3.2):

* **work requests / grants / denials** — the on-demand dynamic load-balancing
  traffic; grants carry the *codes* of the donated subproblems (codes are
  self-contained, so the receiver can rebuild the subproblem states locally);
  every starved worker sends the same :class:`WorkRequest`, and at coarse
  grain it *walks*: an idle receiver passes it on instead of denying it
  (:func:`~repro.distributed.pacing.walk_hops`); the :class:`WorkDenied`
  that ends a request echoes the requester's sequence number, which alone
  frees the requester's request slot;
* **work reports** — compressed lists of newly completed codes, pushed to
  ``m`` random members;
* **delta gossip** — the table dissemination, pushed occasionally to one
  random member: only the codes the receiver is not known to cover (the
  whole table to a peer that has acknowledged nothing), acknowledged with a
  :class:`TableGossipAck` echoing the sender's table digest (see
  :class:`~repro.core.work_report.DeltaSnapshot`);
* the final **root report** announcing termination (a work report whose only
  code is the root).

Every message piggy-backs the sender's best-known solution, which is how the
paper circulates incumbent values ("embedded in the most frequently sent
messages").  Each class exposes ``wire_size()`` so the network latency model
and the traffic accounting see realistic sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from ..core.encoding import PathCode
from ..core.work_report import BestSolution, DeltaSnapshot, WorkReport

__all__ = [
    "WorkRequest",
    "WorkGrant",
    "WorkDenied",
    "WorkReportMsg",
    "DeltaGossipMsg",
    "TableGossipAck",
    "HeartbeatGossipMsg",
    "MessageKinds",
]

_HEADER_BYTES = 32
_BEST_BYTES = 10
_DIGEST_BYTES = 8


@dataclass(frozen=True, slots=True)
class WorkRequest:
    """A starving worker asking a randomly chosen member for work.

    ``seq`` is the requester's request number, echoed by the denial that
    ends the request (a passed-on request is not answered by the peer that
    was asked); ``hops`` counts the times idle peers passed it on so far
    (:func:`~repro.distributed.pacing.walk_hops` bounds it).
    """

    requester: str
    seq: int = 0
    hops: int = 0
    best: BestSolution = field(default_factory=BestSolution)

    def wire_size(self) -> int:
        """Header, one byte each for the sequence and hop count, and the
        piggy-backed incumbent."""
        return _HEADER_BYTES + 2 + self.best.wire_size()

    def forwarded(self) -> "WorkRequest":
        """The same request one hop further (the incumbent is the
        requester's: a forwarder's own rides on its other traffic)."""
        return WorkRequest(self.requester, self.seq, self.hops + 1, self.best)


@dataclass(frozen=True, slots=True)
class WorkGrant:
    """Work donated in response to a request: the codes of the subproblems."""

    donor: str
    codes: Tuple[PathCode, ...]
    best: BestSolution = field(default_factory=BestSolution)

    def wire_size(self) -> int:
        """Grant size grows with the number and depth of donated codes."""
        return _HEADER_BYTES + sum(code.wire_size() for code in self.codes) + self.best.wire_size()


@dataclass(frozen=True, slots=True)
class WorkDenied:
    """Negative answer to a work request: echoes the request's ``seq``.

    ``exhausted`` says the request walked to its hop limit meeting only
    idle peers (the donor itself is idle), rather than reaching a donor too
    small to give; it is set only where walking applies.
    """

    donor: str
    seq: int = 0
    exhausted: bool = False
    best: BestSolution = field(default_factory=BestSolution)

    def wire_size(self) -> int:
        """As large as a request: one byte each for the sequence and flag."""
        return _HEADER_BYTES + 2 + self.best.wire_size()


@dataclass(frozen=True, slots=True)
class WorkReportMsg:
    """Envelope for a :class:`~repro.core.work_report.WorkReport`."""

    report: WorkReport

    def wire_size(self) -> int:
        """Delegates to the report's own size model."""
        return self.report.wire_size()

    @property
    def best(self) -> BestSolution:
        """The piggy-backed incumbent."""
        return self.report.best


@dataclass(frozen=True, slots=True)
class DeltaGossipMsg:
    """Envelope for a :class:`~repro.core.work_report.DeltaSnapshot`."""

    delta: DeltaSnapshot

    def wire_size(self) -> int:
        """Delegates to the delta's own size model."""
        return self.delta.wire_size()

    @property
    def best(self) -> BestSolution:
        """The piggy-backed incumbent."""
        return self.delta.best


@dataclass(frozen=True, slots=True)
class TableGossipAck:
    """Acknowledgement of a delta gossip: echoes the sender's table digest.

    ``sender`` is the *acknowledging* process; ``digest`` is the
    ``full_digest`` of the :class:`~repro.core.work_report.DeltaSnapshot`
    that was merged.  Receiving it lets the original gossiper advance its
    per-peer basis (see
    :meth:`~repro.core.completion.CompletionTracker.note_snapshot_ack`);
    losing it merely causes a redundant re-send, never incorrectness.

    ``table_digest`` is the digest of the *acknowledging* process's own
    table right after the merge.  When it equals the original gossiper's
    current digest the two tables are identical, so the gossiper can mark
    the peer as covering everything it has — in the converged steady state
    this collapses subsequent deltas to suppressed empties.
    """

    sender: str
    digest: int
    table_digest: int = 0
    best: BestSolution = field(default_factory=BestSolution)

    def wire_size(self) -> int:
        """Acks are tiny: header, two 8-byte digests, piggy-backed incumbent."""
        return _HEADER_BYTES + 2 * _DIGEST_BYTES + self.best.wire_size()


@dataclass(frozen=True, slots=True)
class HeartbeatGossipMsg:
    """One failure-detection gossip round (van Renesse-style heartbeats).

    ``digest`` is the sender's heartbeat table as ``(member, counter)``
    pairs; ``incarnations`` carries the *non-zero* incarnation numbers the
    sender knows (sparse — a worker that never restarted is omitted), which
    is how a rejoining worker's reset heartbeat counter is distinguished
    from a stale one.  Like every frequently sent message, it piggy-backs
    the sender's incumbent.
    """

    sender: str
    digest: Tuple[Tuple[str, int], ...]
    incarnations: Tuple[Tuple[str, int], ...] = ()
    best: BestSolution = field(default_factory=BestSolution)

    def wire_size(self) -> int:
        """Header + 12 bytes per digest entry + 6 per incarnation entry."""
        return (
            _HEADER_BYTES
            + 12 * len(self.digest)
            + 6 * len(self.incarnations)
            + self.best.wire_size()
        )


class MessageKinds:
    """Canonical kind labels used by the traffic counters and traces."""

    WORK_REQUEST = "work_request"
    #: A :class:`WorkRequest` passed on by an idle peer.
    WORK_FORWARD = "work_forward"
    WORK_GRANT = "work_grant"
    WORK_DENIED = "work_denied"
    WORK_REPORT = "work_report"
    DELTA_GOSSIP = "delta_gossip"
    GOSSIP_ACK = "gossip_ack"
    ROOT_REPORT = "root_report"
    HEARTBEAT = "heartbeat"

    #: Kinds that carry table-dissemination traffic (the delta-gossip
    #: benchmark compares the byte volume of exactly this family).
    TABLE_DISSEMINATION = (DELTA_GOSSIP, GOSSIP_ACK)

    #: The key each kind is counted under in
    #: :attr:`~repro.distributed.stats.RunResult.messages_by_kind`.
    COUNT_KEYS = {
        WORK_REQUEST: "work_requests",
        WORK_FORWARD: "work_forwards",
        WORK_GRANT: "work_grants",
        WORK_DENIED: "work_denials",
        WORK_REPORT: "work_reports",
        ROOT_REPORT: "root_reports",
        DELTA_GOSSIP: "delta_gossips",
        GOSSIP_ACK: "gossip_acks",
        HEARTBEAT: "heartbeats",
    }

    @staticmethod
    def of(payload: object) -> str:
        """Classify a payload object into one of the kind labels."""
        if isinstance(payload, WorkRequest):
            return MessageKinds.WORK_FORWARD if payload.hops else MessageKinds.WORK_REQUEST
        if isinstance(payload, WorkGrant):
            return MessageKinds.WORK_GRANT
        if isinstance(payload, WorkDenied):
            return MessageKinds.WORK_DENIED
        if isinstance(payload, WorkReportMsg):
            if payload.report.contains_root():
                return MessageKinds.ROOT_REPORT
            return MessageKinds.WORK_REPORT
        if isinstance(payload, DeltaGossipMsg):
            return MessageKinds.DELTA_GOSSIP
        if isinstance(payload, TableGossipAck):
            return MessageKinds.GOSSIP_ACK
        if isinstance(payload, HeartbeatGossipMsg):
            return MessageKinds.HEARTBEAT
        return "unknown"
