"""Sets of subproblem codes and the paper's *contraction* operation.

The fault-tolerance mechanism keeps, on every process, a table of the
subproblem codes that are known to be **completed** (Section 5.3.2 of the
paper: a subproblem is completed when it has been branched and either it is a
leaf or both of its children are completed).

Two observations make the table small and the mechanism cheap:

* if both children of a node are completed, the node itself is completed, so
  the two sibling codes can be replaced by the code of their parent
  ("recursive replacement of pairs of sibling codes with the code of their
  parent"); and
* a code whose ancestor is already in the table is redundant and can be
  deleted ("deletion of codes whose ancestors are also in the list").

Applying these two rules to a fixed point is what the paper calls *list
contraction* (or compression, when applied to an outgoing work report).  When
contraction reduces the table to the single root code ``()``, the whole tree
is complete and termination is detected (Section 5.4).

:class:`CodeSet` is the one implementation of such a table.  Its content is
a node id in a :class:`~repro.core.arena.TrieArena`, an interned trie kept in
canonical contracted form, so a copy, a snapshot in a message or a peer's
view is one integer and equal content is an equal id.  Two kernels keep it
exact and fast:

* **The open-path insert.**  A B&B worker completes subproblems in
  near-DFS order, and most completions land next to the previous one.
  :meth:`CodeSet.add` keeps the last insertion path as mutable levels over
  interned children (one ``{packed key: child id}`` dict per level), applies
  the insertion, the subsumption and the sibling-merge cascade there — the
  cascade reads sibling ids straight off the path — and interns the path
  only when the table's node is read (:meth:`CodeSet.node_id`).  Coverage
  queries walk the open levels, then the interned trie.
* **The counted merge.**  Merging a whole set (a received report, delta or
  snapshot) is one structural merge,
  :meth:`~repro.core.arena.TrieArena.merge_counted`, that also returns the
  :class:`ContractionStats` the code-by-code adds would have recorded.

Both record the same per-field :class:`ContractionStats` as adding codes one
at a time to a plain set of codes (``tests/core/reference_table.py``), which
is what the simulator charges list-contraction time from.

:func:`contract` is the standalone functional form, and
:func:`contract_reference` is a naive fixed-point implementation kept as a
test oracle.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Set, Tuple, Union

from .arena import DONE, EMPTY, TrieArena
from .encoding import _CODE_HEADER_BYTES, _PAIR_WIRE_BYTES, Branch, PathCode

__all__ = [
    "contract",
    "contract_reference",
    "covers",
    "CodeSet",
    "ContractionStats",
]


def covers(codes: Iterable[PathCode], target: PathCode) -> bool:
    """True when ``target`` or any of its ancestors is in ``codes``.

    A completed-code set *covers* a subproblem when the set already records
    that subproblem (or an enclosing subtree) as completed.

    Cost model: a :class:`CodeSet` answers in ``O(depth)`` via its trie; a
    pre-built ``set``/``frozenset``/``dict`` is probed directly with one
    hash lookup per ancestor (no copy is made — pass one of these on hot
    paths); any other iterable must be materialised into a temporary set
    first, which costs O(len(codes)) *per call*.  An empty collection can
    never cover anything and returns immediately.
    """
    if isinstance(codes, CodeSet):
        return codes.covers(target)
    if isinstance(codes, (set, frozenset, dict)):
        code_set = codes
    else:
        # O(n) materialisation — callers on hot paths should pass a set.
        code_set = set(codes)
    if not code_set:
        return False
    if target in code_set:
        return True
    pairs = target.pairs
    make = PathCode._make
    for cut in range(len(pairs) - 1, -1, -1):
        if make(pairs[:cut]) in code_set:
            return True
    return False


class ContractionStats:
    """Counters describing the work done by contraction operations.

    The paper reports "list contraction time" as one of the overhead terms in
    Figure 3 and Table 1; these counters let the simulator charge a cost per
    elementary contraction step instead of wall-clock time, which keeps the
    simulation deterministic.
    """

    __slots__ = ("merges", "subsumptions", "insertions", "calls")

    def __init__(self) -> None:
        self.merges = 0
        self.subsumptions = 0
        self.insertions = 0
        self.calls = 0

    def snapshot(self) -> Dict[str, int]:
        """Return the counters as a plain dictionary."""
        return {
            "merges": self.merges,
            "subsumptions": self.subsumptions,
            "insertions": self.insertions,
            "calls": self.calls,
        }

    def elementary_operations(self) -> int:
        """Total elementary rewrite steps performed (merges + subsumptions + insertions)."""
        return self.merges + self.subsumptions + self.insertions

    def __repr__(self) -> str:  # pragma: no cover - repr formatting only
        return (
            f"ContractionStats(merges={self.merges}, subsumptions={self.subsumptions}, "
            f"insertions={self.insertions}, calls={self.calls})"
        )


class CodeSet:
    """A contracted set of completed subproblem codes.

    The set maintains the contraction invariant after every insertion:

    * no element is an ancestor or descendant of another element, and
    * no two elements are siblings.

    Membership (``code in codeset``) tests exact membership of the contracted
    representation; :meth:`covers` tests logical completion (the code or one
    of its ancestors is present), which is the query the algorithm actually
    needs.

    Sets that share a :class:`~repro.core.arena.TrieArena` merge, diff and
    snapshot one another by node id.  A set built without an arena gets a
    private one.  ``stats`` counts the contraction work of a table; the
    read-only sets of :meth:`of_node` (payloads, snapshots) carry none.
    """

    __slots__ = (
        "_arena",
        "_nid",
        "_levels",
        "_pkeys",
        "_dirty",
        "_count",
        "_dsum",
        "stats",
        "__weakref__",
    )

    def __init__(
        self, codes: Optional[Iterable[PathCode]] = None, *, arena: Optional[TrieArena] = None
    ) -> None:
        self._arena = arena if arena is not None else TrieArena()
        #: Interned node of the content; stale while ``_dirty``.
        self._nid = EMPTY
        #: The open path: ``_levels[i]`` is the ``{packed key: child id}``
        #: branches of the node at key path ``_pkeys[:i]``, and its entry for
        #: ``_pkeys[i]`` stands for ``_levels[i + 1]``.  ``None`` = no path.
        self._levels: Optional[list] = None
        self._pkeys: Tuple[int, ...] = ()
        #: The open path holds insertions not interned yet.
        self._dirty = False
        #: Code count and summed code depth of the content (O(1) size reads).
        self._count = 0
        self._dsum = 0
        self.stats: Optional[ContractionStats] = ContractionStats()
        if codes:
            self.update(codes)

    @classmethod
    def of_node(cls, arena: TrieArena, nid: int) -> "CodeSet":
        """A set holding the arena node ``nid``, without stats: the code set
        of a payload, or a snapshot."""
        self = object.__new__(cls)
        self._arena = arena
        self._nid = EMPTY
        self._levels = None
        self._pkeys = ()
        self._dirty = False
        self.stats = None
        self._set_nid(nid)
        return self

    # ------------------------------------------------------------------ #
    # The node
    # ------------------------------------------------------------------ #
    @property
    def arena(self) -> TrieArena:
        """The arena this set's node lives in."""
        return self._arena

    def node_id(self) -> int:
        """The interned node of the current content (interns the open path)."""
        if self._dirty:
            levels = self._levels
            pkeys = self._pkeys
            intern = self._arena.intern_branches
            nid = intern(levels[-1])
            for i in range(len(pkeys) - 1, -1, -1):
                level = levels[i]
                level[pkeys[i]] = nid
                nid = intern(level)
            self._nid = nid
            self._dirty = False
        return self._nid

    def _set_nid(self, nid: int) -> None:
        """Replace the content by node ``nid`` (drops the open path)."""
        arena = self._arena
        if nid > EMPTY >= self._nid:
            # The first id that is not a sentinel: from here on a collection
            # must keep it alive and remap it (an empty set never registers).
            arena.register(self)
        self._nid = nid
        self._levels = None
        self._pkeys = ()
        self._dirty = False
        self._count = arena._count[nid]
        self._dsum = arena._depth_sum[nid]

    def _arena_ids(self) -> Tuple[int]:
        """Node ids this set stores (the arena collection's roots)."""
        return (self.node_id(),)

    def _arena_remap(self, new_id) -> None:
        """Renumber the stored node id after an arena collection."""
        self._nid = new_id[self._nid]
        self._levels = None  # its child ids are the old numbering
        self._pkeys = ()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __contains__(self, code: PathCode) -> bool:
        return self._arena.contains(self.node_id(), code._key_path())

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __iter__(self) -> Iterator[PathCode]:
        return iter(self.codes())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CodeSet):
            if other._arena is self._arena:
                return self.node_id() == other.node_id()
            return self.codes() == other.codes()
        if isinstance(other, (set, frozenset)):
            return self.codes() == other
        return NotImplemented

    __hash__ = None  # mutable

    def __repr__(self) -> str:  # pragma: no cover - repr formatting only
        preview = ", ".join(sorted(c.encode() for c in self.codes())[:6])
        return f"CodeSet(n={self._count}, [{preview}...])"

    def codes(self) -> frozenset:
        """Return the contracted codes as a frozen set of :class:`PathCode`."""
        return self._arena.codes_at(self.node_id())

    def key_paths(self) -> Iterator[Tuple[int, ...]]:
        """The packed-key paths of the contracted codes (no PathCode built)."""
        return self._arena.iter_completed_keys(self.node_id())

    def covers(self, code: PathCode) -> bool:
        """True when ``code`` is known completed (itself or via an ancestor)."""
        try:
            keys = code._keys
        except AttributeError:
            keys = code._key_path()
        if not self._dirty:
            return self._arena.covers(self._nid, keys)
        # Follow the open path while the code does (its levels are interior
        # nodes, never completed), then the interned trie.
        pkeys = self._pkeys
        n = len(keys)
        limit = min(n, len(pkeys))
        if keys[:limit] == pkeys[:limit]:
            i = limit
        else:
            i = 0
            while keys[i] == pkeys[i]:
                i += 1
        if i == n:
            return False
        child = self._levels[i].get(keys[i])
        if child is None:
            return False
        return child == DONE or self._arena.covers(child, keys, i + 1)

    def is_complete(self) -> bool:
        """True when the whole tree is completed (the root code is present)."""
        return self._nid == DONE  # an open path never holds the root

    def wire_size(self) -> int:
        """Total estimated encoded size of the set, in bytes (O(1) counter)."""
        return self._count * _CODE_HEADER_BYTES + _PAIR_WIRE_BYTES * self._dsum

    def max_depth(self) -> int:
        """Depth of the deepest code in the set (0 for an empty set)."""
        return self._arena.max_depth(self.node_id())

    def structural_digest(self) -> int:
        """Order-independent table digest: ``work_report.table_digest`` of
        :meth:`codes`, read off the interned node in O(1)."""
        return self._arena.digest(self.node_id())

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, code: Union[PathCode, Tuple[Branch, ...]]) -> bool:
        """Insert a completed code, restoring the contraction invariant.

        Returns ``True`` when the logical content of the set changed (the code
        was not already covered).  Insertion cascades sibling merges upward,
        so a single ``add`` may replace a long chain of codes by one ancestor —
        this is exactly how termination eventually surfaces as the root code.

        ``code`` is normally a :class:`PathCode`; raw packed-key tuples are
        accepted too.
        """
        try:
            keys = code._keys
        except AttributeError:
            keys = code._key_path() if type(code) is PathCode else code
        stats = self.stats
        if stats is not None:
            stats.calls += 1
        arena = self._arena
        n = len(keys)
        levels = self._levels
        if levels is None:
            nid = self._nid
            if nid == DONE or arena.covers(nid, keys):
                return False
            j = 0
        else:
            # Resume below the prefix shared with the open path; near-DFS
            # completion order shares almost all of it.
            pkeys = self._pkeys
            d = len(pkeys)
            limit = min(n, d)
            if keys[:limit] == pkeys[:limit]:
                j = limit
            else:
                j = 0
                while keys[j] == pkeys[j]:
                    j += 1
            if j < n:
                child = levels[j].get(keys[j])
                if child is not None and (
                    child == DONE or arena.covers(child, keys, j + 1)
                ):
                    return False
            elif n:
                j = n - 1  # an open node is the code's own: keep its parent
            # Fold the part of the path the code leaves into its level.
            if j < d:
                if self._dirty:
                    intern = arena.intern_branches
                    nid = intern(levels[d])
                    for i in range(d - 1, j, -1):
                        levels[i][pkeys[i]] = nid
                        nid = intern(levels[i])
                    levels[j][pkeys[j]] = nid
                del levels[j + 1 :]

        if n == 0:
            # The root code subsumes everything.
            if stats is not None:
                stats.insertions += 1
                stats.subsumptions += self._count
            self._set_nid(DONE)
            return True
        if levels is None:
            if self._nid == EMPTY:
                arena.register(self)  # the open path will hold node ids
            levels = self._levels = [arena.branches(self._nid)]

        # Open the levels down to the code's parent.
        level = levels[j]
        for i in range(j, n - 1):
            key = keys[i]
            child = level.get(key)
            if child is None:
                level[key] = EMPTY  # stands for the next level
                level = {}
            else:
                level = arena.branches(child)  # interior: not covered
            levels.append(level)

        counts = arena._count
        dsums = arena._depth_sum
        key = keys[n - 1]
        child = level.get(key)
        if child is None:
            removed = removed_dsum = 0
        else:
            # The code's node exists: it subsumes every code below it.
            removed = counts[child]
            removed_dsum = dsums[child] + n * removed
        level[key] = DONE
        count = self._count + 1 - removed
        dsum = self._dsum + n - removed_dsum
        merges = 0

        # Sibling-merge cascade, reading sibling ids off the open path.
        i = n - 1
        while level.get(keys[i] ^ 1) == DONE:
            merges += 1
            total = rel = 0
            for c in level.values():
                cc = counts[c]
                total += cc
                rel += dsums[c] + cc
            count += 1 - total
            dsum += i - rel - i * total
            if i == 0:
                if stats is not None:
                    stats.insertions += 1
                    stats.subsumptions += removed
                    stats.merges += merges
                self._set_nid(DONE)
                return True
            levels.pop()
            i -= 1
            level = levels[i]
            level[keys[i]] = DONE
        if stats is not None:
            stats.insertions += 1
            stats.subsumptions += removed
            stats.merges += merges
        self._pkeys = keys[:i]
        self._count = count
        self._dsum = dsum
        self._dirty = True
        return True

    def update(self, codes: Iterable[PathCode]) -> bool:
        """Insert many codes; returns ``True`` when anything changed.

        Another :class:`CodeSet` is merged (:meth:`merge`).  Raw codes are
        inserted shallow-first: once a shallow subtree code is in, every
        deeper code it covers is rejected, and merge cascades fire at most
        once per subtree.
        """
        if isinstance(codes, CodeSet):
            return self.merge(codes)
        add = self.add
        changed = False
        for code in sorted(codes, key=len):
            if add(code):
                changed = True
        return changed

    def merge(self, other: "CodeSet") -> bool:
        """Merge another contracted set into this one; True when it changed
        (see :meth:`absorb`)."""
        return self.absorb(node_in(self._arena, other))[0] > 0

    def absorb(self, nid: int) -> Tuple[int, int]:
        """Merge node ``nid`` with the counted merge; returns
        ``(insertions, inserted_wire_bytes)`` — how many of its codes this
        set did not cover yet, and their encoded size.  A set with stats
        counts what adding those codes one at a time would have."""
        arena = self._arena
        current = self.node_id()
        merged, ins, ins_dsum, subs, merges = arena.merge_counted(current, nid)
        stats = self.stats
        if stats is not None:
            stats.calls += arena._count[nid]
            stats.insertions += ins
            stats.subsumptions += subs
            stats.merges += merges
        if merged != current:
            levels, pkeys = self._levels, self._pkeys
            self._set_nid(merged)
            # Keep the open path below the first node the merge left unchanged.
            path, new, old = [], merged, current
            for i in range(len(pkeys) + 1 if levels else 0):
                if new == old:
                    self._levels = [arena.branches(nid) for nid in path] + levels[i:]
                    self._pkeys = pkeys
                    break
                if new <= EMPTY or i == len(pkeys):
                    break  # the merge changed the whole path, or completed it
                path.append(new)
                old, new = levels[i][pkeys[i]], arena.child(new, pkeys[i])
        return ins, ins * _CODE_HEADER_BYTES + _PAIR_WIRE_BYTES * ins_dsum

    def clear(self) -> None:
        """Remove every code (used when reinitialising a joining member)."""
        self._set_nid(EMPTY)

    def copy(self) -> "CodeSet":
        """Return an independent copy (statistics are not copied) — O(1)."""
        clone = CodeSet(arena=self._arena)
        clone._set_nid(self.node_id())
        return clone

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    def missing_frontier(self) -> frozenset:
        """Minimal set of subtree codes *not* covered by this set.

        The returned codes are pairwise disjoint, none is covered, and
        together with the completed set they cover the whole tree: this is the
        paper's *complement* operation.  A subtree is missing exactly where a
        path explores one branch of a decision but the sibling branch is
        absent.  The frontier is memoised per arena node, so repeated
        queries against an unchanged table are O(1).

        For an empty set the whole tree is missing (``{ROOT}``); for a
        complete set the frontier is empty.  The returned frozenset is shared
        between calls — treat it as immutable.
        """
        return self._arena.frontier_at(self.node_id())

    def uncovered_siblings(self) -> Set[PathCode]:
        """Codes adjacent to the completed region that are *not* completed.

        For every element of the contracted set, its sibling subtree has not
        been reported complete (otherwise the pair would have merged).  These
        siblings are exactly the candidates the recovery mechanism considers
        when it suspects work has been lost (Section 5.3.2: "chooses an
        uncompleted problem by complementing the code of a solved problem
        whose sibling is not solved").
        """
        result: Set[PathCode] = set()
        for code in self.codes():
            sibling = code.sibling()
            if sibling is not None and not self.covers(sibling):
                result.add(sibling)
        return result


def node_in(arena: TrieArena, codes: Iterable[PathCode]) -> int:
    """Node id, in ``arena``, of a code set or of raw codes."""
    if isinstance(codes, CodeSet):
        nid = codes.node_id()
        if codes._arena is arena or nid <= EMPTY:
            return nid
        return arena.node_from_keys(codes._arena.iter_completed_keys(nid))
    return arena.node_from_codes(codes)


def contract(codes: Iterable[PathCode]) -> Set[PathCode]:
    """Contract a collection of completed codes to its minimal form.

    Repeatedly merges completed sibling pairs into their parent and drops
    codes subsumed by a completed ancestor, until no rule applies.  The input
    is not modified; a new set is returned.
    """
    return set(CodeSet(codes).codes())


def contract_reference(codes: Iterable[PathCode]) -> Set[PathCode]:
    """Naive fixed-point contraction used as a test oracle.

    Applies the two rewrite rules exhaustively with no cleverness.  Quadratic
    in the size of the input; only used by the test-suite to validate
    :func:`contract` and the incremental :class:`CodeSet`.
    """

    def _has_proper_ancestor(present: Set[PathCode], code: PathCode) -> bool:
        for ancestor in code.ancestors(include_self=False):
            if ancestor in present:
                return True
        return False

    present: Set[PathCode] = set(codes)
    changed = True
    while changed:
        changed = False
        # Rule 1: drop codes subsumed by an ancestor.
        for code in list(present):
            if _has_proper_ancestor(present, code):
                present.discard(code)
                changed = True
        # Rule 2: merge sibling pairs.
        for code in sorted(present, key=lambda c: -c.depth):
            if code not in present:
                continue
            sibling = code.sibling()
            if sibling is not None and sibling in present:
                present.discard(code)
                present.discard(sibling)
                parent = code.parent()
                assert parent is not None
                present.add(parent)
                changed = True
    return present
