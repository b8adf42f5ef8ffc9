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

:class:`CodeSet` is the mutable container implementing these rules.  It is
backed by a trie over ``<variable, value>`` decisions so that insertion,
coverage queries and the sibling-merge cascade all cost ``O(depth)`` — the
per-operation cost the simulator charges as "list contraction time".
:func:`contract` is the standalone functional form used for one-shot
compression of outgoing reports, and :func:`contract_reference` is a naive
fixed-point implementation kept as a test oracle.

Performance invariants
----------------------
The container is tuned for the operations the simulator performs millions of
times per run, and keeps the following invariants (guarded by the
property-based equivalence tests against :func:`contract_reference`):

* **Dict-backed trie** — an interior trie node is a plain ``dict`` mapping a
  packed integer branch key ``(variable << 1) | value`` to its child, and a
  *completed* node is the sentinel value ``True`` (completed nodes never
  have children under the contraction invariant, so they need no dict at
  all).  Hot walks therefore perform one int-keyed dict lookup and two
  identity checks per level — no attribute access, no node objects, no
  tuple hashing — and the sibling of key ``k`` is simply ``k ^ 1``.
  :meth:`PathCode._key_path` caches the packed-key tuple on the code.
* **Allocation-free covered inserts** — :meth:`CodeSet.add` first walks only
  *existing* trie nodes; when the code turns out to be covered by a completed
  ancestor (or by itself) it returns without having allocated anything.
  Nodes for the missing suffix are created only once coverage has been ruled
  out.
* **Persistent walk chain** — the set remembers the dicts along the most
  recent insertion path.  Because B&B workers complete subproblems in
  near-DFS order, consecutive inserts usually share a deep prefix, which the
  next :meth:`CodeSet.add` skips with one C-level tuple compare instead of
  re-walking the trie.  The chain also serves as the parent list for the
  merge cascade, so cascades never re-walk either.  Merges and subsumptions
  invalidate exactly a suffix of the chain (tracked by a counter).
* **Memoised coverage queries** — :meth:`CodeSet.covers` caches results per
  code between mutations, collapsing the read-heavy phases (pool draining,
  grant filtering) to one dict probe per repeated query.
* **Incremental size counters** — ``len()``, :meth:`wire_size` and (between
  removals) :meth:`max_depth` are O(1) counter reads maintained by every
  mutation, never recomputed by re-iterating the trie.  ``max_depth`` falls
  back to one lazy trie walk after a merge/subsumption removed nodes (the
  only events that can lower it).
* **Cached contracted view** — :meth:`codes` memoises its frozenset until
  the next logical change, so repeated snapshotting (table gossip) is free.
* **Trie-to-trie merge** — :meth:`merge` walks the other set's trie directly
  and inserts raw pair tuples shallow-first, skipping `PathCode`
  construction and re-contraction of the (already contracted) input.
* **Incremental missing frontier** — the set of uncovered sibling subtrees
  (the paper's *complement*, :meth:`missing_frontier`) is maintained as
  codes are inserted and contracted, in O(changed) amortised per mutation:
  an insertion touches at most one frontier entry per created trie level,
  and a subsumption or merge cascade prunes exactly the frontier entries of
  the dying subtree while it is being walked for the size counters anyway.
  Maintenance is *dormant until the first complement query* (one activation
  walk), so sets that are never complemented — outgoing report compression,
  received-snapshot staging — pay nothing.  Queries between mutations are
  O(1) reads of a memoised frozenset, so a recovery decision no longer
  re-walks the whole trie.  :meth:`missing_frontier_reference` keeps the
  from-scratch walk as the property-test oracle.
* **Cached frozen view** — :meth:`frozen_view` returns a structural copy of
  the trie, memoised until the next mutation, so table-gossip snapshots can
  ship the contracted trie itself and receivers can merge trie-to-trie (or
  adopt the copy outright) instead of re-adding code by code.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from .encoding import (
    _CODE_HEADER_BYTES,
    _PAIR_WIRE_BYTES,
    ROOT,
    Branch,
    PathCode,
)

__all__ = [
    "contract",
    "contract_reference",
    "covers",
    "CodeSet",
    "ContractionStats",
]

#: An interior trie node maps packed branch keys ``(variable << 1) | value``
#: to children; a completed node is the bare sentinel ``True`` (it can have
#: no children, see module docstring).
_TrieDict = Dict[int, Union[bool, dict]]


def _keys_to_pairs(keys: Iterable[int]) -> Tuple[Branch, ...]:
    """Decode a packed-key path back into ``(variable, value)`` pairs."""
    return tuple([(k >> 1, k & 1) for k in keys])


#: Upper bound on memoised coverage queries per set (reset on mutation).
_COVERS_CACHE_MAX = 8192

#: Sentinel node ids of :mod:`repro.core.arena` (duplicated here because the
#: arena imports this module; the arena asserts the values match).
_ARENA_DONE = 0
_ARENA_EMPTY = 1

#: Shared frontier view of an empty set: the whole tree is missing.
_ROOT_FRONTIER = frozenset({ROOT})

# Structural-digest constants — must match ``repro.core.work_report``'s
# ``table_digest`` exactly (:meth:`CodeSet.structural_digest` computes the
# same value by walking the trie directly; duplicated because work_report
# imports this module).
_FNV64_PRIME = 0x100000001B3
_FNV64_OFFSET = 0xCBF29CE484222325
_MASK64 = (1 << 64) - 1
_DONE_DIGEST = 0x9E3779B97F4A7C15


def _digest_node(node: _TrieDict) -> int:
    """Structural FNV digest of one trie node (see ``table_digest``)."""
    h = _FNV64_OFFSET
    for key in sorted(node):
        value = node[key]
        child = _DONE_DIGEST if value is True else _digest_node(value)
        h = ((h ^ (key + 1)) * _FNV64_PRIME) & _MASK64
        h = ((h ^ child) * _FNV64_PRIME) & _MASK64
    return h


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


def _completed_stats(children: _TrieDict) -> Tuple[int, int]:
    """Return ``(count, sum_of_relative_depths)`` of completed codes below.

    Depths are relative to the node owning ``children`` (its direct entries
    are at relative depth 1), letting the caller convert the aggregate into
    absolute wire bytes without materialising per-code objects.
    """
    total = 0
    depth_sum = 0
    stack = [(children, 1)]
    while stack:
        node, rel = stack.pop()
        deeper = rel + 1
        for value in node.values():
            if value is True:
                total += 1
                depth_sum += rel
            else:
                stack.append((value, deeper))
    return total, depth_sum


def _drop_subtree_frontier(
    children: _TrieDict, base: Tuple[int, ...], frontier: set
) -> Tuple[int, int]:
    """Collect :func:`_completed_stats` of a dying subtree while pruning its
    missing-frontier entries.

    ``children`` is the trie dict rooted at key path ``base`` that is about
    to be replaced by a completed leaf (subsumption or sibling merge).  Every
    frontier entry inside the subtree is, by the frontier invariant, the
    absent sibling of one of its edges, so one walk discards them all and
    returns the same ``(count, sum_of_relative_depths)`` aggregate as
    :func:`_completed_stats` — the caller pays a single traversal for both
    jobs, keeping frontier maintenance O(size of the removed subtree).
    """
    total = 0
    depth_sum = 0
    base_len = len(base)
    stack = [(children, base)]
    while stack:
        node, path = stack.pop()
        rel = len(path) - base_len + 1
        for key, value in node.items():
            if (key ^ 1) not in node:
                frontier.discard(path + (key ^ 1,))
            if value is True:
                total += 1
                depth_sum += rel
            else:
                stack.append((value, path + (key,)))
    return total, depth_sum


class CodeSet:
    """A contracted set of completed subproblem codes.

    The set maintains the contraction invariant after every insertion:

    * no element is an ancestor or descendant of another element, and
    * no two elements are siblings.

    Membership (``code in codeset``) tests exact membership of the contracted
    representation; :meth:`covers` tests logical completion (the code or one
    of its ancestors is present), which is the query the algorithm actually
    needs.
    """

    __slots__ = (
        "_root",
        "_complete",
        "_count",
        "_wire",
        "_max_depth",
        "_max_depth_dirty",
        "_codes_cache",
        "_covers_cache",
        "_frontier",
        "_frontier_cache",
        "_frozen_cache",
        "_chain",
        "_last_keys",
        "_last_valid",
        "_arena",
        "_anid",
        "_apending",
        "stats",
        "__weakref__",
    )

    def __init__(self, codes: Optional[Iterable[PathCode]] = None) -> None:
        #: Trie of branch dicts; ``True`` values are completed leaves.
        self._root: _TrieDict = {}
        #: Whether the root code itself is completed (the root has no parent
        #: dict to hold its sentinel, so it gets an explicit flag).
        self._complete = False
        self._count = 0
        #: Incrementally maintained total wire size of the contracted codes.
        self._wire = 0
        #: Incrementally maintained depth of the deepest code; exact while
        #: ``_max_depth_dirty`` is False, recomputed lazily otherwise.
        self._max_depth = 0
        self._max_depth_dirty = False
        #: Memoised frozenset of the contracted codes (None = stale).
        self._codes_cache: Optional[frozenset] = None
        #: Memoised coverage-query results (reset on every logical change).
        self._covers_cache: Dict[PathCode, bool] = {}
        #: Incrementally maintained missing frontier, as raw packed-key paths
        #: (see :meth:`missing_frontier`).  Invariant while not ``None``: for
        #: every edge ``(dict, key)`` present in the trie whose sibling key
        #: is absent from the same dict, the sibling's key path is in this
        #: set — and nothing else is.  ``None`` means maintenance is dormant:
        #: it activates on the first frontier query (one trie walk) so pure
        #: insertion/merge workloads that never complement pay nothing.
        self._frontier: Optional[set] = None
        #: Memoised PathCode view of ``_frontier`` (None = stale).
        self._frontier_cache: Optional[frozenset] = None
        #: Memoised structural copy handed out by :meth:`frozen_view`.
        self._frozen_cache: Optional["CodeSet"] = None
        #: Persistent walk chain: ``_chain[i]`` is the interior dict at depth
        #: ``i`` along the most recent insertion path (``_chain[0]`` is
        #: always the root dict).  B&B workers complete subproblems in
        #: near-DFS order, so consecutive inserts share deep prefixes; the
        #: chain lets :meth:`add` resume below the shared prefix with cheap
        #: int comparisons instead of re-walking the trie, and doubles as
        #: the parent list for the merge cascade.  ``_last_valid`` is the
        #: number of leading chain entries still alive (merges and
        #: subsumptions kill exactly a suffix).
        self._chain: List[_TrieDict] = [self._root]
        self._last_keys: Tuple[int, ...] = ()
        self._last_valid = 1
        #: Optional :class:`repro.core.arena.TrieArena` shadow.  When
        #: attached, ``_anid`` mirrors this set's logical content as an
        #: interned arena node id, so derived views (``codes()``, digests,
        #: deltas) are shared with every other holder of the same content.
        #: The nested-dict trie stays authoritative — including its
        #: contraction stats, which the simulation charges time from.
        self._arena = None
        self._anid = _ARENA_EMPTY
        #: Novel key paths inserted since the last shadow read — the arena
        #: mirror is batched (see :meth:`_arena_sync`).
        self._apending: List[Tuple[int, ...]] = []
        self.stats = ContractionStats()
        if codes:
            self.update(codes)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __contains__(self, code: PathCode) -> bool:
        try:
            keys = code._keys
        except AttributeError:
            keys = code._key_path()
        if not keys:
            return self._complete
        node = self._root
        for k in keys[:-1]:
            node = node.get(k)
            if node is None or node is True:
                return False
        return node.get(keys[-1]) is True

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __iter__(self) -> Iterator[PathCode]:
        yield from self._iter_completed()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CodeSet):
            return self.codes() == other.codes()
        if isinstance(other, (set, frozenset)):
            return set(self._iter_completed()) == set(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - repr formatting only
        preview = ", ".join(sorted(c.encode() for c in self._iter_completed())[:6])
        return f"CodeSet(n={self._count}, [{preview}...])"

    def _iter_completed(self) -> Iterator[PathCode]:
        make = PathCode._make
        for path in self._iter_completed_keys():
            yield make(_keys_to_pairs(path))

    def _iter_completed_keys(self) -> Iterator[Tuple[int, ...]]:
        """Yield the packed-key paths of the contracted codes (no PathCode)."""
        if self._complete:
            yield ()
            return
        stack: List[Tuple[_TrieDict, Tuple[int, ...]]] = [(self._root, ())]
        while stack:
            node, path = stack.pop()
            for key, value in node.items():
                if value is True:
                    yield path + (key,)
                else:
                    stack.append((value, path + (key,)))

    def codes(self) -> frozenset:
        """Return the contracted codes as a frozen set (memoised until changed).

        With an arena shadow attached the frozenset comes from the arena's
        per-node memo, so every table or view in the group holding the same
        logical content hands out the *same object* — receivers recognise it
        by identity and merge in O(1).
        """
        cache = self._codes_cache
        if cache is None:
            arena = self._arena
            if arena is not None:
                cache = arena.codes_at(self._arena_sync())
            else:
                cache = frozenset(self._iter_completed())
            self._codes_cache = cache
        return cache

    def covers(self, code: PathCode) -> bool:
        """True when ``code`` is known completed (itself or via an ancestor).

        Results are memoised per code until the next logical change to the
        set: between mutations (the common read-heavy phase — draining a
        subproblem pool, filtering a grant) a repeated query is a single
        dict probe on the code's cached hash instead of a trie walk.
        """
        if self._complete:
            return True
        cache = self._covers_cache
        cached = cache.get(code)
        if cached is not None:
            return cached
        try:
            keys = code._keys
        except AttributeError:
            keys = code._key_path()
        node = self._root
        result = False
        for k in keys:
            node = node.get(k)
            if node is None:
                break
            if node is True:
                result = True
                break
        if len(cache) < _COVERS_CACHE_MAX:
            cache[code] = result
        return result

    def is_complete(self) -> bool:
        """True when the whole tree is completed (the root code is present)."""
        return self._complete

    def wire_size(self) -> int:
        """Total estimated encoded size of the set, in bytes (O(1) counter)."""
        return self._wire

    def max_depth(self) -> int:
        """Depth of the deepest code in the set (0 for an empty set).

        O(1) while only insertions have happened since the last call; one
        lazy trie walk after a merge or subsumption removed deep codes.
        """
        if self._max_depth_dirty:
            deepest = 0
            stack: List[Tuple[_TrieDict, int]] = [(self._root, 1)]
            while stack:
                node, depth = stack.pop()
                deeper = depth + 1
                for value in node.values():
                    if value is True:
                        if depth > deepest:
                            deepest = depth
                    else:
                        stack.append((value, deeper))
            self._max_depth = deepest
            self._max_depth_dirty = False
        return self._max_depth

    def structural_digest(self) -> int:
        """Order-independent table digest, walking the trie directly.

        Produces exactly ``work_report.table_digest(self.codes())`` — the
        trie *is* the canonical layout the digest is defined over — without
        materialising the codes frozenset or rebuilding a trie from it.
        """
        if self._complete:
            return (_DONE_DIGEST ^ _FNV64_PRIME) & _MASK64
        if not self._count:
            return 0
        return (_digest_node(self._root) ^ (self._count * _FNV64_PRIME)) & _MASK64

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, code: Union[PathCode, Tuple[Branch, ...]]) -> bool:
        """Insert a completed code, restoring the contraction invariant.

        Returns ``True`` when the logical content of the set changed (the code
        was not already covered).  Insertion cascades sibling merges upward,
        so a single ``add`` may replace a long chain of codes by one ancestor —
        this is exactly how termination eventually surfaces as the root code.

        ``code`` is normally a :class:`PathCode`; the trie-to-trie fast paths
        (:meth:`merge`) pass raw packed-key tuples to skip object
        construction.
        """
        try:
            keys = code._keys
        except AttributeError:
            if type(code) is PathCode:
                keys = code._key_path()
            else:  # raw key tuple from a trie-to-trie fast path
                keys = code
        stats = self.stats
        stats.calls += 1
        if self._complete:
            return False

        # Resume from the persistent walk chain: skip the longest prefix
        # shared with the previous insertion path whose chain entries are
        # still alive.  An int comparison per level replaces a dict lookup —
        # for the near-DFS completion order of a real B&B run, almost the
        # whole walk.
        chain = self._chain  # chain[i] = interior dict at depth i
        n = len(keys)
        idx = 0
        limit = self._last_valid - 1
        if limit > 0:
            last = self._last_keys
            if n < limit:
                limit = n
            if len(last) < limit:
                limit = len(last)
            if limit > 0 and keys[0] == last[0]:
                # Near-DFS insertion order almost always shares the whole
                # usable prefix, so try one C-level slice compare (guarded
                # by the cheap endpoint probes) before scanning.
                if keys[limit - 1] == last[limit - 1] and keys[:limit] == last[:limit]:
                    idx = limit
                else:
                    idx = 1
                    while idx < limit and keys[idx] == last[idx]:
                        idx += 1
        node = chain[idx]
        if len(chain) <= n:
            chain.extend([None] * (n + 1 - len(chain)))

        # Phase 1: walk only nodes that already exist.  A completed node on
        # the way down means the code is covered — return without having
        # allocated a single trie node.  Chain slots are overwritten in
        # place (``_last_valid`` bounds the live prefix), so the walk pays
        # one list-item store per level and never reallocates.
        while idx < n:
            child = node.get(keys[idx])
            if child is None:
                break
            if child is True:
                # Covered.  The chain entries written so far stay valid.
                self._last_keys = keys
                self._last_valid = idx + 1
                return False
            idx += 1
            chain[idx] = child
            node = child

        stats.insertions += 1
        if self._arena is not None:
            # Record the (not covered) insertion for the arena shadow; the
            # mirror is rebuilt lazily in one batch when the shadow is next
            # read (:meth:`_arena_sync`), so a gossip-quiet stretch of
            # completions costs one merge instead of one spine rebuild each.
            self._apending.append(keys)
        self._codes_cache = None
        self._frontier_cache = None
        self._frozen_cache = None
        if self._covers_cache:
            self._covers_cache = {}
        created = n - idx
        frontier = self._frontier

        if created:
            if frontier is not None:
                # Frontier maintenance at the first created level: the edge
                # ``keys[idx]`` is about to appear in the existing dict
                # ``node``.  If its sibling edge already exists, the inserted
                # path itself was a frontier entry and stops being missing;
                # otherwise the sibling subtree becomes the new missing
                # entry.  Every deeper created level is a fresh single-entry
                # dict, so its sibling is missing by construction.
                sib = keys[idx] ^ 1
                if sib in node:
                    frontier.discard(keys[: idx + 1])
                else:
                    frontier.add(keys[:idx] + (sib,))
                for level in range(idx + 1, n):
                    frontier.add(keys[:level] + (keys[level] ^ 1,))
            # Phase 2: the code is not covered; create the missing suffix.
            # A freshly created interior dict has exactly one entry, so when
            # two or more levels are created no sibling merge can possibly
            # fire and the cascade is skipped outright.
            while idx < n - 1:
                new: _TrieDict = {}
                node[keys[idx]] = new
                idx += 1
                chain[idx] = new
                node = new
            node[keys[n - 1]] = True
            self._count += 1
            self._wire += _CODE_HEADER_BYTES + _PAIR_WIRE_BYTES * n
            if not self._max_depth_dirty and n > self._max_depth:
                self._max_depth = n
            if created > 1:
                self._last_keys = keys
                self._last_valid = n  # chain holds depths 0..n-1
                return True
        else:
            # The code's node already existed as an interior dict (every
            # interior dict leads to at least one completed leaf): the new
            # code subsumes everything below it.  The dying subtree is walked
            # once, yielding the size aggregate and (when frontier
            # maintenance is active) pruning its frontier entries together.
            if frontier is None:
                removed, rel_depth_sum = _completed_stats(node)
            else:
                removed, rel_depth_sum = _drop_subtree_frontier(node, keys, frontier)
            stats.subsumptions += removed
            self._count -= removed
            self._wire -= removed * _CODE_HEADER_BYTES + _PAIR_WIRE_BYTES * (
                removed * n + rel_depth_sum
            )
            self._max_depth_dirty = True
            if n == 0:
                self._complete = True
                root: _TrieDict = {}
                self._root = root
                chain[0] = root
                self._frontier = None
                self._last_keys = ()
                self._last_valid = 1
                self._count += 1
                self._wire += _CODE_HEADER_BYTES
                return True
            chain[n - 1][keys[n - 1]] = True  # the dict at depth n is gone
            self._count += 1
            self._wire += _CODE_HEADER_BYTES + _PAIR_WIRE_BYTES * n

        # Sibling-merge probe at the insertion level — the overwhelmingly
        # common outcome is "no merge", which exits here.
        i = n - 1
        if chain[i].get(keys[i] ^ 1) is not True:
            self._last_keys = keys
            self._last_valid = n
            return True

        # Cascade sibling merges toward the root; the chain already holds
        # every parent.  Loop invariant at the top: a merge fires at level
        # ``i`` (both children of ``chain[i]`` are completed).
        while True:
            parent = chain[i]
            # Both children completed: replace them by the parent.  The
            # parent cannot have other completed descendants because it has
            # exactly these two children subtrees in a binary tree encoding.
            # In the overwhelmingly common case it holds exactly the two
            # completed leaves (no frontier entries can live between a
            # present sibling pair), so the aggregate is known without a
            # traversal; otherwise the dying dict is walked once for the
            # aggregate and its frontier entries together.
            if len(parent) == 2:
                removed = 2
                rel_depth_sum = 2
            elif frontier is None:
                removed, rel_depth_sum = _completed_stats(parent)
            else:
                removed, rel_depth_sum = _drop_subtree_frontier(
                    parent, keys[:i], frontier
                )
            self._count += 1 - removed
            self._wire += _CODE_HEADER_BYTES + _PAIR_WIRE_BYTES * i - (
                removed * _CODE_HEADER_BYTES
                + _PAIR_WIRE_BYTES * (removed * i + rel_depth_sum)
            )
            self._max_depth_dirty = True
            stats.merges += 1
            if i == 0:
                self._complete = True
                root = {}
                self._root = root
                chain[0] = root
                self._frontier = None
                self._last_keys = ()
                self._last_valid = 1
                return True
            up = chain[i - 1]
            up[keys[i - 1]] = True
            if up.get(keys[i - 1] ^ 1) is not True:
                # The merged dict at depth i (and everything deeper) died.
                self._last_keys = keys
                self._last_valid = i
                return True
            i -= 1

    def update(self, codes: Iterable[PathCode]) -> bool:
        """Insert many codes; returns ``True`` when anything changed.

        The batch is inserted shallow-first: once a shallow subtree code is
        in, every deeper code it covers is rejected by the allocation-free
        phase-1 walk, and merge cascades fire at most once per subtree
        instead of rippling after every deep insertion.
        """
        add = self.add
        changed = False
        for code in sorted(codes, key=len):
            if add(code):
                changed = True
        return changed

    def merge(self, other: "CodeSet") -> bool:
        """Merge another contracted set into this one.

        Walks the other trie directly (no intermediate ``frozenset``, no
        `PathCode` construction) and inserts the raw pair tuples
        shallow-first.  The input is already contracted, so no rule can fire
        between its own elements — only against this set's contents.
        """
        add = self.add
        changed = False
        for keys in sorted(other._iter_completed_keys(), key=len):
            if add(keys):
                changed = True
        return changed

    def clear(self) -> None:
        """Remove every code (used when reinitialising a joining member)."""
        self._root = {}
        self._complete = False
        self._count = 0
        self._wire = 0
        self._max_depth = 0
        self._max_depth_dirty = False
        self._codes_cache = None
        self._covers_cache = {}
        self._frontier = None
        self._frontier_cache = None
        self._frozen_cache = None
        self._chain = [self._root]
        self._last_keys = ()
        self._last_valid = 1
        self._anid = _ARENA_EMPTY
        self._apending.clear()

    def copy(self) -> "CodeSet":
        """Return an independent copy (statistics are not copied).

        The trie is cloned structurally — no re-insertion, no cascades.
        """
        if self._arena is not None:
            self._arena_sync()
        clone = CodeSet()
        stack = [(self._root, clone._root)]
        while stack:
            src, dst = stack.pop()
            for pair, value in src.items():
                if value is True:
                    dst[pair] = True
                else:
                    twin: _TrieDict = {}
                    dst[pair] = twin
                    stack.append((value, twin))
        clone._complete = self._complete
        clone._count = self._count
        clone._wire = self._wire
        clone._max_depth = self._max_depth
        clone._max_depth_dirty = self._max_depth_dirty
        clone._codes_cache = self._codes_cache
        clone._frontier = None if self._frontier is None else set(self._frontier)
        clone._frontier_cache = self._frontier_cache
        clone._arena = self._arena
        clone._anid = self._anid
        if self._arena is not None:
            self._arena.register(clone)
        # The covers memo is deliberately not shared: the clone is typically
        # about to diverge from the original.
        return clone

    def frozen_view(self) -> "CodeSet":
        """A structural copy of this set, memoised until the next mutation.

        Table-gossip snapshots attach this view so receivers can merge
        trie-to-trie (:meth:`merge`) or, when their own table is still empty,
        adopt it outright (:meth:`adopt_from`) instead of re-adding the
        sender's table code by code.  Because the view is refreshed lazily,
        repeated snapshotting of an unchanged table reuses one copy.

        The returned set is *logically frozen*: the owner never mutates it,
        and receivers must only read it (merge sources are read-only).
        """
        view = self._frozen_cache
        if view is None:
            view = self.copy()
            self._frozen_cache = view
        return view

    def adopt_from(self, other: "CodeSet", codes: Optional[frozenset] = None) -> bool:
        """Become a structural copy of ``other``; this set must be empty.

        This is the fast path for a receiver whose table is still blank (a
        fresh joiner catching up from a snapshot): one structural clone
        replaces ``len(other)`` individual insertions, and when the sender's
        contracted ``codes`` frozenset is supplied it is *shared* as this
        set's memoised :meth:`codes` view — no recomputation, no re-hashing.

        Returns ``True`` when anything was adopted (i.e. ``other`` was not
        itself empty).  Raises :class:`ValueError` when this set already has
        content — callers must fall back to :meth:`merge`.
        """
        if self._count or self._complete:
            raise ValueError("adopt_from requires an empty CodeSet")
        if not other._count and not other._complete:
            return False
        donor = other.copy()
        self._root = donor._root
        self._complete = donor._complete
        self._count = donor._count
        self._wire = donor._wire
        self._max_depth = donor._max_depth
        self._max_depth_dirty = donor._max_depth_dirty
        self._codes_cache = codes if codes is not None else donor._codes_cache
        self._covers_cache = {}
        self._frontier = donor._frontier
        self._frontier_cache = donor._frontier_cache
        self._frozen_cache = None
        self._chain = [self._root]
        self._last_keys = ()
        self._last_valid = 1
        arena = self._arena
        if arena is not None:
            onid = arena.node_of(other)
            if onid is not None:
                self._anid = onid
            else:
                self._anid = arena.node_from_keys(self._iter_completed_keys())
        return True

    # ------------------------------------------------------------------ #
    # Arena shadow
    # ------------------------------------------------------------------ #
    def attach_arena(self, arena) -> None:
        """Shadow this set's content in a :class:`repro.core.arena.TrieArena`.

        From this point every mutation keeps an interned arena node id in
        sync with the trie, so derived views are shared group-wide.  The
        nested-dict trie — and its :class:`ContractionStats` — remains the
        authoritative implementation.  The set registers with the arena, so
        a collection keeps its node alive and remaps it.
        """
        self._arena = arena
        arena.register(self)
        self._apending.clear()
        if self._complete:
            self._anid = _ARENA_DONE
        elif self._count:
            self._anid = arena.node_from_keys(self._iter_completed_keys())
        else:
            self._anid = _ARENA_EMPTY

    def _arena_sync(self) -> int:
        """Flush the batched mirror and return the up-to-date arena node id.

        ``add`` only records each novel key path; the interned node is
        rebuilt here, once per *read* of the shadow, by interning the whole
        pending batch as one small trie and merging it in.  Between gossip
        reads this replaces per-code spine rebuilds (one intern per trie
        level per code) with a single memoised merge.
        """
        pend = self._apending
        if pend:
            arena = self._arena
            if len(pend) == 1:
                self._anid = arena.insert(self._anid, pend[0])[0]
            else:
                self._anid = arena.merge(self._anid, arena.node_from_keys(pend))
            pend.clear()
        return self._anid

    def _arena_commit(self, nid: int) -> None:
        """Adopt ``nid`` as the mirror state, discarding the pending batch.

        For callers that already know the interned node equal to this set's
        content — e.g. a tracker that merged a received delta whose arena
        node was computed once by the sender — this replaces the batch
        flush's ``node_from_keys`` + ``merge`` with a pointer store.  The
        caller is responsible for ``nid`` actually matching the dict state
        (canonical contracted form is unique, so "same content" is exactly
        "same id").
        """
        self._apending.clear()
        self._anid = nid

    def _arena_ids(self) -> Tuple[int]:
        """Node ids this set stores (the arena collection's roots)."""
        return (self._anid,)

    def _arena_remap(self, new_id: List[int]) -> None:
        """Renumber the stored node id after an arena collection."""
        self._anid = new_id[self._anid]

    def arena_id(self) -> Optional[int]:
        """Arena node id of the current content (``None`` when no shadow)."""
        if self._arena is None:
            return None
        return self._arena_sync()

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    def missing_frontier(self) -> frozenset:
        """Minimal set of subtree codes *not* covered by this set.

        The returned codes are pairwise disjoint, none is covered, and
        together with the completed set they cover the whole tree: this is the
        paper's *complement* operation.  A subtree is missing exactly where a
        path explores one branch of a decision but the sibling branch is
        absent.

        The frontier is maintained *incrementally*: the first query activates
        maintenance with one trie walk, and from then on every mutation
        updates the frontier in O(changed) amortised (see the module
        docstring) — sets that are never complemented (report compression,
        snapshot merging) pay nothing.  Between mutations the query is an
        O(1) read of a memoised frozenset; after a mutation it pays one
        conversion of the raw key paths into :class:`PathCode` objects.  The
        from-scratch walk survives as :meth:`missing_frontier_reference`, the
        property-test oracle.

        For an empty set the whole tree is missing (``{ROOT}``); for a
        complete set the frontier is empty.  The returned frozenset is shared
        between calls — treat it as immutable.
        """
        if self._complete:
            return frozenset()
        if self._count == 0:
            return _ROOT_FRONTIER
        if self._arena is not None:
            # Shadowed sets share the arena's per-node frontier memo (and its
            # interned PathCodes) instead of rebuilding a private frozenset
            # after every mutation.
            return self._arena.frontier_at(self._arena_sync())
        cache = self._frontier_cache
        if cache is None:
            frontier = self._frontier
            if frontier is None:
                # First complement query: activate incremental maintenance.
                frontier = set()
                stack: List[Tuple[_TrieDict, Tuple[int, ...]]] = [(self._root, ())]
                while stack:
                    node, path = stack.pop()
                    for key, child in node.items():
                        if (key ^ 1) not in node:
                            frontier.add(path + (key ^ 1,))
                        if child is not True:
                            stack.append((child, path + (key,)))
                self._frontier = frontier
            make = PathCode._make
            cache = frozenset(make(_keys_to_pairs(path)) for path in frontier)
            self._frontier_cache = cache
        return cache

    def missing_frontier_reference(self) -> Set[PathCode]:
        """Recompute the missing frontier by walking the whole trie.

        This is the original from-scratch implementation, kept as the oracle
        the property-based tests pin :meth:`missing_frontier` against.
        """
        if self._complete:
            return set()
        if self._count == 0:
            return {ROOT}
        make = PathCode._make
        frontier: Set[PathCode] = set()
        stack: List[Tuple[_TrieDict, Tuple[int, ...]]] = [(self._root, ())]
        while stack:
            node, path = stack.pop()
            for key, child in node.items():
                sibling_key = key ^ 1
                if sibling_key not in node:
                    frontier.add(make(_keys_to_pairs(path + (sibling_key,))))
                if child is not True:
                    stack.append((child, path + (key,)))
        return frontier

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
        for code in self._iter_completed():
            sibling = code.sibling()
            if sibling is not None and not self.covers(sibling):
                result.add(sibling)
        return result


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
