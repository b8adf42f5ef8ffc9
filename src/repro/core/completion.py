"""Completion tracking: the per-process bookkeeping of completed subproblems.

Every process participating in the distributed B&B computation keeps two data
structures (Section 5.3.2 of the paper):

* a **list of new locally completed subproblems** — codes completed since the
  last work report was sent; and
* a **table of completed problems it knows about** — everything it completed
  itself plus everything learned from received work reports and delta gossip.

:class:`CompletionTracker` bundles both, implements the report-emission policy
(send after ``c`` new codes or after a staleness timeout), merges incoming
reports into the table with contraction, and exposes the two queries the rest
of the algorithm needs: "is the whole tree complete?" (termination) and "what
is still missing?" (recovery, via :mod:`repro.core.complement`).

The paper's occasional full-table push travels as **delta gossip**
(:meth:`CompletionTracker.build_delta_snapshot`): the tracker remembers, per
peer, the last table state that peer acknowledged (:class:`PeerGossipView`)
and ships only the codes the acknowledged basis does not cover, which is the
whole table on first contact.  Acknowledgements
(:meth:`CompletionTracker.note_snapshot_ack`) echo the table digest from the
delta; an unacknowledged delta is simply re-shipped by the next one, so
arbitrary loss, duplication and reordering cannot prevent convergence.  A
whole-table snapshot (:meth:`CompletionTracker.build_table_snapshot`) is an
in-process view, merged like a report.

Every table, peer view and outgoing payload of a tracker lives in one
:class:`~repro.core.arena.TrieArena` (the simulator shares one across all of
its workers).  A report, snapshot or delta built here carries a
:class:`~repro.core.codeset.CodeSet` holding an arena node, so a receiver in
the same process merges it by node id: one counted merge
(:meth:`~repro.core.codeset.CodeSet.absorb`) that also yields the received,
redundant and stored counters.  Payloads decoded off the wire carry plain
codes and are merged code by code.

A subtlety worth spelling out: the paper distinguishes *solved* (the branching
operation has been performed) from *completed* (solved and either a leaf or
both children completed).  The tracker works purely at the *completed* level;
propagating completion from children to parents falls out of the contraction
rule "two completed siblings collapse into their parent".  A worker therefore
only ever registers **leaves** of its local search (fathomed, pruned or
infeasible nodes) as completed, and interior nodes become completed implicitly
when both of their subtrees have.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from .arena import DONE, EMPTY, TrieArena
from .codeset import CodeSet, node_in
from .complement import SelectionStrategy, complement_frontier, select_recovery_candidate
from .encoding import PathCode
from .work_report import (
    BestSolution,
    CompletedTableSnapshot,
    DeltaSnapshot,
    WorkReport,
)

__all__ = ["CompletionTracker", "PeerGossipView"]

#: Upper bound on remembered unacknowledged delta sends per peer.  Each entry
#: is one arena node id, so the cap only bounds pathological ack starvation,
#: not real memory.
_PENDING_SENDS_MAX = 8

#: Deferred reverse-channel evidence entries per peer view before an eager
#: fold (bounds the backlog of views that are never read).
_COVERS_BACKLOG_MAX = 256


class PeerGossipView:
    """What one peer is *known* to cover, from the sender's point of view.

    The view accumulates certain knowledge about the peer's completed-code
    table from two loss-proof channels:

    * **acknowledgements** — the peer echoed the digest of a delta we sent;
      the full table state recorded for that send (kept in :attr:`pending`
      until acked, so out-of-order acks still match) is merged into the
      known coverage; and
    * **the reverse channel** — every work report, snapshot or delta the
      peer itself sent us proves the peer covers those codes
      (:meth:`note_covers`), so steady-state deltas shrink even between
      rarely-gossiping pairs.

    Nothing is ever assumed from an *outgoing* message alone: a delta the
    network dropped is never marked delivered, and its codes simply ride
    along on every subsequent delta until one is acknowledged.  The known
    coverage therefore never overstates the peer — the invariant the
    convergence property tests lean on — and because completed-ness is
    monotone it never needs to unlearn either.

    A group of *n* workers holds up to n² views, so a view stores plain
    node ids of its tracker's arena: the known coverage is one id,
    :attr:`pending` and the reverse-channel backlog are created on first
    use, and a backlog payload from the same arena is kept as its id (the
    payload's code set dies with its message).  The view is not an arena
    holder itself: its :class:`CompletionTracker` registers once and reports
    the ids of all its views to a collection.
    """

    __slots__ = ("_arena", "_known", "acked_digest", "sequence", "pending", "_backlog")

    def __init__(self, arena: TrieArena) -> None:
        self._arena = arena
        #: Node id of the contracted codes the peer is known to cover (its
        #: own traffic plus everything it has acknowledged).
        self._known = EMPTY
        #: Digest of the last acknowledged table state (0 = nothing acked).
        self.acked_digest: int = 0
        #: Per-peer delta sequence number (tracing only).
        self.sequence: int = 0
        #: Unacknowledged sends: digest -> the table's arena node id at that
        #: send, in send order, bounded to :data:`_PENDING_SENDS_MAX` entries
        #: (``None`` while there are none: half the views never send).
        self.pending: Optional[Dict[int, int]] = None
        #: Reverse-channel evidence not yet folded into the known coverage:
        #: node ids, or raw codes from outside the arena (``None`` = none).
        #: Coverage is monotone, so folding can wait until the view is
        #: actually *read* — most views of a large group only ever absorb
        #: evidence and are pruned without a single delta being built, and
        #: deferring makes :meth:`note_covers` an O(1) append for them.
        self._backlog: Optional[List] = None

    @property
    def known(self) -> CodeSet:
        """The codes the peer is known to cover, as a read-only code set
        (for inspection; folds no backlog)."""
        return CodeSet.of_node(self._arena, self._known)

    def _arena_ids(self, ids: List[int]) -> None:
        """Append the node ids this view stores to ``ids``."""
        ids.append(self._known)
        if self.pending:
            ids.extend(self.pending.values())
        if self._backlog:
            ids.extend(entry for entry in self._backlog if type(entry) is int)

    def _arena_remap(self, new_id: List[int]) -> None:
        """Renumber the stored node ids after an arena collection."""
        self._known = new_id[self._known]
        if self.pending:
            self.pending = {digest: new_id[nid] for digest, nid in self.pending.items()}
        if self._backlog:
            self._backlog = [
                new_id[entry] if type(entry) is int else entry for entry in self._backlog
            ]

    def _absorb(self, nid: int) -> None:
        self._known = self._arena.merge_counted(self._known, nid)[0]

    def note_covers(self, codes: Iterable[PathCode]) -> None:
        """Record codes the peer provably covers (it sent them to us)."""
        if isinstance(codes, CodeSet):
            if codes.arena is self._arena:
                codes = codes.node_id()
                if codes == EMPTY:
                    return
        elif not isinstance(codes, frozenset):
            codes = frozenset(codes)
        backlog = self._backlog
        if backlog is None:
            backlog = self._backlog = []
        backlog.append(codes)
        if len(backlog) >= _COVERS_BACKLOG_MAX:
            self._fold_covers()

    def _fold_covers(self) -> None:
        """Fold the deferred reverse-channel evidence into the known coverage."""
        backlog = self._backlog
        if backlog:
            arena = self._arena
            for entry in backlog:
                self._absorb(entry if type(entry) is int else node_in(arena, entry))
        self._backlog = None

    def remember_send(self, digest: int, nid: int) -> None:
        """Record an outgoing delta so its future ack can advance the view."""
        pending = self.pending
        if pending is None:
            pending = self.pending = {}
        pending.pop(digest, None)  # re-insert at the end on a re-send
        pending[digest] = nid
        while len(pending) > _PENDING_SENDS_MAX:
            pending.pop(next(iter(pending)))

    def acknowledge(self, digest: int) -> bool:
        """Fold the send matching ``digest`` into the known coverage; True
        on match.

        Sends recorded *before* the acknowledged one are dropped — the
        acknowledged state supersedes whatever those deltas were relative to
        — while later, still-unacknowledged sends stay pending so their acks
        can advance the view further.
        """
        pending = self.pending
        nid = pending.get(digest) if pending else None
        if nid is None:
            return False
        for sent_digest in list(pending):
            del pending[sent_digest]
            if sent_digest == digest:
                break
        if not pending:
            self.pending = None
        self._absorb(nid)
        self.acked_digest = digest
        return True

    def __repr__(self) -> str:  # pragma: no cover - repr formatting only
        return (
            f"PeerGossipView(known={self._arena.count(self._known)} codes, "
            f"seq={self.sequence}, pending={len(self.pending or ())})"
        )


class CompletionTracker:
    """Tracks locally and globally known completed subproblems for one process.

    Besides the paper's two data structures (pending-report list + completed
    table), the tracker owns the per-peer delta-gossip state: one
    :class:`PeerGossipView` per peer recording what that peer provably
    covers, driving :meth:`build_delta_snapshot` /
    :meth:`note_snapshot_ack` / :meth:`note_peer_covers` /
    :meth:`note_peer_converged` (see the module docstring for the protocol).

    Parameters
    ----------
    owner:
        Identifier of the owning process (stamped on outgoing reports).
    report_threshold:
        The paper's ``c``: number of newly completed codes that triggers a
        work report.
    report_staleness:
        Maximum simulated time the new-codes list may sit unreported before a
        report is sent anyway ("or the list has not been updated for a long
        time").  ``None`` disables the staleness rule.
    arena:
        The :class:`~repro.core.arena.TrieArena` the table, the peer views
        and the outgoing payloads live in; a tracker without one gets its
        own.  Trackers that share an arena (the simulator's workers) merge
        one another's payloads by node id, and digests and deltas are
        computed once per distinct table state *group-wide*.
    """

    def __init__(
        self,
        owner: str,
        *,
        report_threshold: int = 8,
        report_staleness: Optional[float] = None,
        arena: Optional[TrieArena] = None,
    ) -> None:
        if report_threshold < 1:
            raise ValueError("report_threshold must be at least 1")
        self.owner = owner
        self.report_threshold = report_threshold
        self.report_staleness = report_staleness
        self.arena = arena if arena is not None else TrieArena()

        #: Contracted table of every completed code known to this process.
        self.table = CodeSet(arena=self.arena)
        #: Codes completed locally since the last report (not yet compressed).
        self._new_local: List[PathCode] = []
        #: Simulated time of the last report emission (or of construction).
        self._last_report_time: float = 0.0
        #: Simulated time the new-codes list last changed.
        self._last_local_update: float = 0.0
        #: Sequence number for outgoing reports.
        self._sequence = 0
        #: The last code completed locally (recovery locality hint).
        self.last_completed: Optional[PathCode] = None
        #: Number of codes learned from remote reports that were already known
        #: (redundant information received) — feeds the storage/communication
        #: accounting in the benchmarks.
        self.redundant_codes_received = 0
        #: Total codes received from remote reports.
        self.codes_received = 0
        #: Total completed codes registered locally.
        self.codes_completed_locally = 0
        #: Encoded bytes of completion information produced by local work.
        self.bytes_stored_local = 0
        #: Encoded bytes of completion information learned from other members
        #: (replicated knowledge — the paper's "redundant" storage).
        self.bytes_stored_remote = 0
        #: Incrementally maintained wire size of the pending (unreported)
        #: codes, so :meth:`storage_bytes` never re-sums the list.
        self._pending_wire = 0
        #: Per-peer delta-gossip state (what each peer is known to cover).
        self._peer_views: Dict[str, PeerGossipView] = {}
        #: Peer views dropped after the membership layer declared the peer
        #: dead (:meth:`prune_peer_view`) — the footprint-bounding counter.
        self.gossip_views_pruned = 0
        # The one arena holder for every peer view (see _arena_ids).
        self.arena.register(self)

    def _arena_ids(self) -> List[int]:
        """Node ids the peer views store (roots of an arena collection)."""
        ids: List[int] = []
        for view in self._peer_views.values():
            view._arena_ids(ids)
        return ids

    def _arena_remap(self, new_id: List[int]) -> None:
        """Renumber the peer views' node ids after an arena collection."""
        for view in self._peer_views.values():
            view._arena_remap(new_id)

    # ------------------------------------------------------------------ #
    # Local completion
    # ------------------------------------------------------------------ #
    def record_completed(self, code: PathCode, *, now: float = 0.0) -> None:
        """Register a subproblem completed by the local B&B loop."""
        self.codes_completed_locally += 1
        self.last_completed = code
        self._new_local.append(code)
        self._last_local_update = now
        wire = code.wire_size()
        self.bytes_stored_local += wire
        self._pending_wire += wire
        self.table.add(code)

    def record_completed_many(self, codes: Iterable[PathCode], *, now: float = 0.0) -> None:
        """Register several locally completed subproblems at once."""
        for code in codes:
            self.record_completed(code, now=now)

    # ------------------------------------------------------------------ #
    # Report emission
    # ------------------------------------------------------------------ #
    @property
    def pending_report_size(self) -> int:
        """Number of completed codes waiting to be reported."""
        return len(self._new_local)

    def should_send_report(self, now: float) -> bool:
        """Apply the paper's emission rule: threshold ``c`` or staleness."""
        if len(self._new_local) >= self.report_threshold:
            return True
        if (
            self.report_staleness is not None
            and self._new_local
            and (now - self._last_report_time) >= self.report_staleness
        ):
            return True
        return False

    def build_report(
        self,
        *,
        now: float = 0.0,
        best: Optional[BestSolution] = None,
        compress: bool = True,
    ) -> WorkReport:
        """Compress the pending codes into a work report and clear the list.

        The outgoing list is compressed against itself only, as in the
        paper, into a code set in this tracker's arena; the ablation
        benchmarks set ``compress=False`` to measure the cost of not
        compressing at all (the report then carries the raw codes).
        """
        self._sequence += 1
        if compress:
            arena = self.arena
            nid = arena.node_from_keys([code._key_path() for code in self._new_local])
            codes = CodeSet.of_node(arena, nid)
        else:
            codes = frozenset(self._new_local)
        report = WorkReport(
            sender=self.owner,
            codes=codes,
            best=best if best is not None else BestSolution(),
            sequence=self._sequence,
        )
        self._new_local.clear()
        self._pending_wire = 0
        self._last_report_time = now
        self._last_local_update = now
        return report

    def build_table_snapshot(self, *, best: Optional[BestSolution] = None) -> CompletedTableSnapshot:
        """Snapshot the whole contracted table: one arena node id."""
        return CompletedTableSnapshot.from_table(self.owner, self.table, best=best)

    # ------------------------------------------------------------------ #
    # Delta gossip (anti-entropy table dissemination)
    # ------------------------------------------------------------------ #
    def table_digest_now(self) -> int:
        """Digest of the current table: an O(1) read off its arena node."""
        return self.table.structural_digest()

    def peer_view(self, peer: str) -> PeerGossipView:
        """The delta-gossip view of ``peer`` (created on first use)."""
        view = self._peer_views.get(peer)
        if view is None:
            view = PeerGossipView(self.arena)
            self._peer_views[peer] = view
        return view

    def build_delta_snapshot(
        self, peer: str, *, best: Optional[BestSolution] = None
    ) -> DeltaSnapshot:
        """Build the delta of the current table against ``peer``'s basis.

        Ships every contracted code the peer's last-acknowledged table state
        does not cover.  Before any acknowledgement the basis is empty, so
        the first delta carries the whole table (the stream needs no special
        bootstrap message); once acks flow, steady-state deltas carry only
        the codes completed (or contracted into existence) since.

        The send is remembered in the peer's view so a future
        :meth:`note_snapshot_ack` with the matching ``full_digest`` can
        advance the peer's known coverage.  An empty delta (``is_empty``) is
        *not* remembered — there is nothing for the peer to acknowledge —
        and callers typically skip sending it altogether.
        """
        view = self.peer_view(peer)
        view._fold_covers()
        known = view._known
        arena = self.arena
        # The digest is an O(1) read off the interned node, the diff is
        # memoised group-wide on the (table, known) node-id pair, and the
        # send is remembered as a node id.
        table_nid = self.table.node_id()
        digest = arena.digest(table_nid)
        if known == EMPTY:
            delta_nid = table_nid
        elif digest == view.acked_digest or known == DONE:
            delta_nid = EMPTY
        else:
            delta_nid = arena.diff(table_nid, known)
        view.sequence += 1
        if delta_nid != EMPTY:
            view.remember_send(digest, table_nid)
        return DeltaSnapshot(
            sender=self.owner,
            codes=CodeSet.of_node(arena, delta_nid),
            full_digest=digest,
            sequence=view.sequence,
            best=best if best is not None else BestSolution(),
        )

    def news_pull(self, *, best: Optional[BestSolution] = None) -> DeltaSnapshot:
        """An empty delta carrying this table's full digest: a request for news.

        Sent by a worker starting a recovery.  The receiver answers with
        :meth:`news_for`, or with nothing when its table is this one.
        """
        return DeltaSnapshot(
            sender=self.owner,
            codes=CodeSet.of_node(self.arena, EMPTY),
            full_digest=self.table_digest_now(),
            best=best if best is not None else BestSolution(),
        )

    def news_for(
        self, peer: str, *, best: Optional[BestSolution] = None
    ) -> Optional[DeltaSnapshot]:
        """This table's delta against ``peer``'s basis, or ``None`` if empty.

        The answer to evidence that ``peer`` is redoing work this table knows
        done: a non-empty report that taught the table nothing (every code
        was already covered), or a :meth:`news_pull`.  Merges are
        idempotent, so an answer that crosses the peer's own gossip costs
        bytes, never correctness.
        """
        delta = self.build_delta_snapshot(peer, best=best)
        return None if delta.is_empty else delta

    def note_snapshot_ack(self, peer: str, digest: int) -> bool:
        """Process a peer's delta acknowledgement; True when it advanced."""
        view = self._peer_views.get(peer)
        if view is None:
            return False
        return view.acknowledge(digest)

    def note_peer_covers(self, peer: str, codes: Iterable[PathCode]) -> None:
        """Record codes ``peer`` provably covers (it sent them to us).

        Called by the worker for every report, snapshot or delta received
        while delta gossip is enabled: the reverse channel is loss-proof
        evidence about the peer's table, and folding it into the peer's view
        shrinks future deltas without waiting for an acknowledgement
        round-trip.
        """
        if peer == self.owner:
            return
        self.peer_view(peer).note_covers(codes)

    def prune_peer_view(self, peer: str) -> bool:
        """Drop the delta-gossip state of a peer declared dead; True if held.

        The per-peer ``known`` tries grow with the peer count, so a tracker
        that kept views for every peer ever seen would leak on long-lived,
        churning groups.  When the membership layer evicts a peer (failure
        detector cleanup, view removal), its view — trie, pending sends and
        all — can be dropped wholesale: nothing is ever gossiped to a dead
        peer, and if the eviction was a false positive the view is simply
        rebuilt from scratch, costing one full-table first delta (exactly
        the fresh-peer bootstrap, so correctness is untouched).  Prunes are
        counted in :attr:`gossip_views_pruned`.
        """
        if self._peer_views.pop(peer, None) is None:
            return False
        self.gossip_views_pruned += 1
        return True

    def note_peer_converged(self, peer: str) -> None:
        """Record that ``peer``'s table currently equals this one.

        Called when a digest comparison proves convergence: a received delta
        whose ``full_digest`` matches our own post-merge digest, or an ack
        whose ``table_digest`` matches our current one.  The whole table is
        folded into the peer's known coverage (one node-id merge), after
        which deltas to the peer stay empty until this table grows past it
        again.
        """
        if peer == self.owner:
            return
        self.peer_view(peer)._absorb(self.table.node_id())

    def merge_delta(self, delta: DeltaSnapshot) -> bool:
        """Merge a received delta snapshot into the table.

        Delta codes are plain completed-code facts, so merging is exactly
        :meth:`merge_report` — idempotent, order-independent, loss-tolerant.
        """
        return self.merge_report(delta.as_report())

    # ------------------------------------------------------------------ #
    # Remote information
    # ------------------------------------------------------------------ #
    def merge_report(self, report: WorkReport) -> bool:
        """Merge a received work report (or table snapshot) into the table.

        Returns ``True`` when the table's logical content changed.  The
        counters feeding the redundant-communication statistics are updated as
        a side effect.  A code set from this process is merged by node id
        with the counted merge; raw codes (a decoded frame, an uncompressed
        report) are added one at a time, in the order they come.
        """
        codes = report.codes
        table = self.table
        if isinstance(codes, CodeSet):
            nid = node_in(self.arena, codes)
            received = self.arena.count(nid)
            inserted, stored = table.absorb(nid)
        else:
            received = inserted = stored = 0
            add = table.add
            for code in codes:
                received += 1
                # ``add`` returns False exactly when the code was already
                # covered (the redundant case).
                if add(code):
                    inserted += 1
                    stored += code.wire_size()
        self.codes_received += received
        self.redundant_codes_received += received - inserted
        self.bytes_stored_remote += stored
        return inserted > 0

    def merge_snapshot(self, snapshot: CompletedTableSnapshot) -> bool:
        """Merge a whole-table snapshot, as a report."""
        return self.merge_report(snapshot.as_report())

    # ------------------------------------------------------------------ #
    # Queries used by recovery and termination
    # ------------------------------------------------------------------ #
    def is_tree_complete(self) -> bool:
        """True when the contracted table has collapsed to the root code."""
        return self.table.is_complete()

    def missing_subtrees(self) -> Set[PathCode]:
        """Minimal set of subtrees not known to be completed."""
        return complement_frontier(self.table)

    def choose_recovery_problem(
        self,
        *,
        strategy: SelectionStrategy = SelectionStrategy.DEEPEST,
        rng=None,
        exclude: Optional[Iterable[PathCode]] = None,
    ) -> Optional[PathCode]:
        """Pick an uncompleted subtree to regenerate (``None`` when complete)."""
        return select_recovery_candidate(
            self.table,
            strategy=strategy,
            last_completed=self.last_completed,
            rng=rng,
            exclude=exclude,
        )

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    def storage_bytes(self) -> int:
        """Estimated bytes of completion state held by this process.

        Counts both the contracted table and the pending-report list, matching
        the paper's "storage space" metric which measures the replicated
        completion information across the system.  Both terms are O(1)
        counter reads (the table maintains its wire size incrementally).
        """
        return self.table.wire_size() + self._pending_wire

    def remote_information_share(self) -> float:
        """Fraction of stored completion knowledge that came from other members.

        Used to estimate the "redundant" (replicated) portion of the storage
        footprint reported in the paper's Table 1.
        """
        total = self.bytes_stored_local + self.bytes_stored_remote
        if total == 0:
            return 0.0
        return self.bytes_stored_remote / total

    def __repr__(self) -> str:  # pragma: no cover - repr formatting only
        return (
            f"CompletionTracker(owner={self.owner!r}, table={len(self.table)} codes, "
            f"pending={len(self._new_local)}, complete={self.is_tree_complete()})"
        )
