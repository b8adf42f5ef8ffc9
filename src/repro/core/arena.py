"""Interned completion-trie arena: the storage behind every completed table.

A simulated group of *n* workers holds one completed-code table per worker
plus up to one :class:`~repro.core.completion.PeerGossipView` per (worker,
peer) pair, and every work report or delta in flight carries a code set of
its own.  Epidemic dissemination replicates the same completed region into
all of them, so private tries would store, digest and walk it O(n) or O(n²)
times.

:class:`TrieArena` removes the duplication by *hash-consing* the trie: every
node is one immutable flat tuple ``(k0, c0, k1, c1, ...)`` — its packed
branch keys in sorted order, each followed by the id of its child — interned
in one arena, so

* two tables (or views, or payloads) with equal logical content are the
  **same integer** node id — a per-peer view or an in-flight report costs
  O(pointer), not O(table);
* ``diff`` between two ids memoises on the id pair, so the gossip fabric
  pays for each distinct (table, peer view) combination once per *group*,
  not once per worker pair;
* code count, wire size, depth and the table digest of any node are O(1)
  array reads computed at intern time, and missing frontiers memoise per id.

A node costs one tuple: the arena's node list and its intern map share the
stored tuple.  The per-node aggregates live in typed arrays (``array('q')``
for the counts and depths, ``array('Q')`` for the 64-bit digests), one
machine word each rather than one Python int each.

The arena is *collected*, not append-only: every object that stores node ids
registers with it by weak reference (:meth:`TrieArena.register`) — a
:class:`~repro.core.codeset.CodeSet` for itself, a
:class:`~repro.core.completion.CompletionTracker` once for all of its peer
views — and :meth:`TrieArena.collect` copies the nodes reachable from live
holders into fresh arrays and remaps every holder.  Drivers call the one
rule, :meth:`TrieArena.collect_if_outgrown`, between events, so memory
follows the live tables rather than the length of the run.

Contraction (the paper's sibling-merge + ancestor-subsumption rewrite) is
applied *on intern*: an arena node is always in canonical contracted form,
which is a unique normal form of the completed region — that uniqueness is
exactly what makes "equal content ⇒ equal id" hold.

:class:`~repro.core.codeset.CodeSet` wraps a node id behind the table API.

Sentinel node ids
-----------------
``DONE`` (0) is the completed subtree — a set containing exactly the subtree
root's own code.  ``EMPTY`` (1) is the empty set.  Both are pre-interned so
identity tests against them are plain int compares, and both mean the same
thing in every arena.
"""

from __future__ import annotations

import weakref
from array import array
from itertools import chain, compress, islice
from typing import Dict, FrozenSet, Iterable, Iterator, List, Tuple

from .encoding import (
    _CODE_HEADER_BYTES,
    _PAIR_WIRE_BYTES,
    ROOT,
    Branch,
    PathCode,
)

__all__ = ["TrieArena", "DONE", "EMPTY"]

#: Node id of the completed subtree (the subtree root's code is in the set).
DONE = 0
#: Node id of the empty set.
EMPTY = 1

#: Shared frontier view of an empty set: the whole tree is missing.
_ROOT_FRONTIER = frozenset({ROOT})
_EMPTY_FROZENSET: frozenset = frozenset()

# Structural-digest constants — must match ``repro.core.work_report``'s
# ``table_digest`` exactly (the arena computes the same value bottom-up).
_FNV64_PRIME = 0x100000001B3
_FNV64_OFFSET = 0xCBF29CE484222325
_MASK64 = (1 << 64) - 1
_DONE_DIGEST = 0x9E3779B97F4A7C15

#: Arena size below which no collection runs: a small arena costs little
#: memory, and collecting it often would cost host time.
_COLLECT_FLOOR = 4096


def _collect_threshold(survivors: int) -> int:
    """Arena size past which the next collection runs.

    Twice the nodes the last collection kept, so each collection copies at
    most half of what it scans and its cost is amortised over the nodes
    interned since the last one.
    """
    return max(2 * survivors, _COLLECT_FLOOR)


def _keys_to_pairs(keys: Tuple[int, ...]) -> Tuple[Branch, ...]:
    return tuple([(k >> 1, k & 1) for k in keys])


class TrieArena:
    """One arena of interned completion-trie nodes.

    ``_nodes[nid]`` is the node's flat tuple ``(k0, c0, k1, c1, ...)``: its
    packed branch keys in sorted order, each followed by its child's id.
    Parallel typed arrays hold per-subtree aggregates (contracted code
    count, sum of relative code depths, max relative depth, structural
    digest) computed bottom-up at intern time.

    Nodes are immutable and ids are stable between collections — that is
    what makes an id a *snapshot*.  :meth:`collect` renumbers the surviving
    nodes, so an id may only be held across a collection by a registered
    holder (:meth:`register`), which the collection remaps.
    """

    __slots__ = (
        "_nodes",
        "_count",
        "_depth_sum",
        "_max_depth",
        "_digest",
        "_intern",
        "_path_codes",
        "_frontier_memo",
        "_diff_memo",
        "_holders",
        "_collect_at",
        "nodes_peak",
        "collections",
    )

    def __init__(self) -> None:
        # Slots 0/1 are the DONE/EMPTY sentinels (no branches).
        self._nodes: List[Tuple[int, ...]] = [(), ()]
        self._count = array("q", [1, 0])
        self._depth_sum = array("q", [0, 0])
        self._max_depth = array("q", [0, 0])
        self._digest = array("Q", [_DONE_DIGEST, 0])
        #: ``node tuple -> nid`` interning map, keyed by the stored tuple
        #: itself (sentinels excluded: both are ``()`` and are distinguished
        #: by identity).
        self._intern: Dict[Tuple[int, ...], int] = {}
        #: ``packed key path -> PathCode`` intern table for frontier codes:
        #: distinct code paths are bounded by the tree, table states are not.
        self._path_codes: Dict[Tuple[int, ...], PathCode] = {}
        self._frontier_memo: Dict[int, FrozenSet[PathCode]] = {}
        #: ``(a, b) -> nid of (codes of a not covered by b)``.
        self._diff_memo: Dict[int, int] = {}
        #: Objects storing node ids, keyed by ``id()`` and held weakly, so a
        #: holder Python frees drops out and stops pinning its nodes.
        self._holders: "weakref.WeakValueDictionary[int, object]" = (
            weakref.WeakValueDictionary()
        )
        self._collect_at = _collect_threshold(2)
        #: Largest node count seen when a collection ran.
        self.nodes_peak = 0
        #: Collections run by :meth:`collect_if_outgrown`.
        self.collections = 0

    # ------------------------------------------------------------------ #
    # Interning
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Number of interned nodes (including the two sentinels)."""
        return len(self._nodes)

    def _intern_node(self, node: Tuple[int, ...]) -> int:
        """Intern a canonical interior node ``(k0, c0, k1, c1, ...)``,
        computing its aggregates once."""
        nid = self._intern.get(node)
        if nid is not None:
            return nid
        nid = len(self._nodes)
        counts = self._count
        dsums = self._depth_sum
        mdepths = self._max_depth
        digests = self._digest
        count = 0
        dsum = 0
        mdepth = 0
        h = _FNV64_OFFSET
        pairs = iter(node)
        for key, child in zip(pairs, pairs):
            c = counts[child]
            count += c
            dsum += dsums[child] + c  # every code moves one level deeper
            d = mdepths[child] + 1
            if d > mdepth:
                mdepth = d
            h = ((h ^ (key + 1)) * _FNV64_PRIME) & _MASK64
            h = ((h ^ digests[child]) * _FNV64_PRIME) & _MASK64
        self._intern[node] = nid
        self._nodes.append(node)
        counts.append(count)
        dsums.append(dsum)
        mdepths.append(mdepth)
        digests.append(h)
        return nid

    def intern_branches(self, branches: Dict[int, int]) -> int:
        """Intern the node whose children are ``{packed key: child id}``.

        The caller guarantees contracted form (no completed sibling pair).
        """
        return self._intern_node(tuple(chain.from_iterable(sorted(branches.items()))))

    def branches(self, nid: int) -> Dict[int, int]:
        """The children of ``nid`` as a fresh ``{packed key: child id}``."""
        pairs = iter(self._nodes[nid])
        return dict(zip(pairs, pairs))

    def children(self, nid: int) -> Tuple[int, ...]:
        """The child ids of ``nid``, in branch-key order."""
        return self._nodes[nid][1::2]

    # ------------------------------------------------------------------ #
    # O(1) aggregates
    # ------------------------------------------------------------------ #
    def count(self, nid: int) -> int:
        """Number of contracted codes in the subtree of ``nid``."""
        return self._count[nid]

    def wire_size(self, nid: int) -> int:
        """Total estimated encoded size of the set rooted at ``nid``.

        Equals the sum of :meth:`PathCode.wire_size` over its codes.
        """
        return self._count[nid] * _CODE_HEADER_BYTES + _PAIR_WIRE_BYTES * self._depth_sum[nid]

    def max_depth(self, nid: int) -> int:
        """Depth of the deepest code in the set rooted at ``nid``."""
        return self._max_depth[nid]

    def digest(self, nid: int) -> int:
        """Order-independent table digest of ``nid`` — an O(1) array read.

        Matches ``work_report.table_digest`` of the node's codes exactly:
        the per-node structural digests are folded bottom-up at intern time.
        """
        if nid == EMPTY:
            return 0
        return (self._digest[nid] ^ (self._count[nid] * _FNV64_PRIME)) & _MASK64

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def child(self, nid: int, key: int) -> int:
        """Child id under branch ``key`` (``EMPTY`` when absent)."""
        node = self._nodes[nid]
        for i in range(0, len(node), 2):
            if node[i] == key:
                return node[i + 1]
        return EMPTY

    def covers(self, nid: int, keys: Tuple[int, ...], start: int = 0) -> bool:
        """True when the code with packed-key path ``keys[start:]``, read
        from node ``nid``, is covered."""
        nodes = self._nodes
        for j in range(start, len(keys)):
            if nid == DONE:
                return True
            if nid == EMPTY:
                return False
            key = keys[j]
            node = nodes[nid]
            # Every B&B node branches on one variable: the first key is
            # usually the one.
            if node[0] == key:
                nid = node[1]
            else:
                for i in range(2, len(node), 2):
                    if node[i] == key:
                        nid = node[i + 1]
                        break
                else:
                    return False
        return nid == DONE

    def contains(self, nid: int, keys: Tuple[int, ...]) -> bool:
        """Exact membership of the contracted representation."""
        nodes = self._nodes
        for key in keys:
            if nid == DONE or nid == EMPTY:
                return False
            node = nodes[nid]
            for i in range(0, len(node), 2):
                if node[i] == key:
                    nid = node[i + 1]
                    break
            else:
                return False
        return nid == DONE

    def iter_completed_keys(self, nid: int) -> Iterator[Tuple[int, ...]]:
        """Yield the packed-key paths of the contracted codes under ``nid``."""
        if nid == EMPTY:
            return
        if nid == DONE:
            yield ()
            return
        nodes = self._nodes
        stack: List[Tuple[int, Tuple[int, ...]]] = [(nid, ())]
        while stack:
            node, path = stack.pop()
            pairs = iter(nodes[node])
            for key, child in zip(pairs, pairs):
                if child == DONE:
                    yield path + (key,)
                else:
                    stack.append((child, path + (key,)))

    # ------------------------------------------------------------------ #
    # Merge and diff (memoised on id pairs)
    # ------------------------------------------------------------------ #
    def merge_counted(self, a: int, b: int) -> Tuple[int, int, int, int, int]:
        """Merge the contracted set ``b`` into the table ``a``, counting.

        Returns ``(nid, insertions, inserted_depth_sum, subsumptions,
        merges)``: the union node plus the :class:`~repro.core.codeset.
        ContractionStats` deltas of adding ``b``'s codes to ``a`` one at a
        time.  ``insertions`` counts the codes of ``b`` that ``a`` did not
        cover, and ``inserted_depth_sum`` their summed depths (relative to
        this node, whose own code has depth 0).  When every trie node
        branches on one variable — every B&B tree does — these counts do
        not depend on the order of the one-at-a-time adds, which is what
        lets one structural walk stand for them.

        A node whose branches all come out unchanged is ``a`` itself: the
        walk builds and looks up nothing for it.  The walk is not memoised:
        a table merges each report into a state of its own, so on
        ``sim-table1-100w`` four in five lookups missed and the memo held a
        fifth of the traced peak.
        """
        if b == EMPTY or a == DONE or a == b:
            return a, 0, 0, 0, 0
        if b == DONE:
            # The inserted code is this node itself: it subsumes all of a.
            return DONE, 1, 0, self._count[a], 0
        if a == EMPTY:
            return b, self._count[b], self._depth_sum[b], 0, 0
        counts = self._count
        dsums = self._depth_sum
        a_node = self._nodes[a]
        b_node = self._nodes[b]
        # The merged node, started at the first changed branch (empty while
        # none has changed); ``a_node[:copied]`` is already in it.
        out: List[int] = []
        copied = 0
        ins = ins_dsum = subs = merges = 0
        i = 0
        na = len(a_node)
        # Walk b's (sorted) branches past a's: output keys stay sorted.
        for j in range(0, len(b_node), 2):
            kb = b_node[j]
            while i < na and a_node[i] < kb:
                i += 2
            if i < na and a_node[i] == kb:
                a_child = a_node[i + 1]
                child, ci, cd, cs, cm = self.merge_counted(a_child, b_node[j + 1])
                ins += ci
                ins_dsum += cd + ci
                subs += cs
                merges += cm
                i += 2
                if child == a_child:
                    continue
                out += a_node[copied : i - 2]
            else:
                # A branch only b has: every code below it is inserted.
                child = b_node[j + 1]
                c = counts[child]
                ins += c
                ins_dsum += dsums[child] + c
                out += a_node[copied:i]
            out += (kb, child)
            copied = i
        if not out:
            return a, ins, ins_dsum, subs, merges
        out += a_node[copied:]
        if _has_done_pair(out):
            # A completed sibling pair: the cascade collapses this node.
            return DONE, ins, ins_dsum, subs, merges + 1
        return self._intern_node(tuple(out)), ins, ins_dsum, subs, merges

    def diff(self, a: int, b: int) -> int:
        """Node id of the codes of ``a`` not covered by ``b`` (a delta)."""
        if b == DONE or a == EMPTY or a == b:
            return EMPTY
        if b == EMPTY or a == DONE:
            # ``b`` covers nothing here; ``a == DONE`` keeps its root code
            # (``b != DONE`` was established above).
            return a
        probe = (a << 32) | b
        memo = self._diff_memo
        cached = memo.get(probe)
        if cached is not None:
            return cached
        kept: List[int] = []
        pairs = iter(self._nodes[a])
        for key, child in zip(pairs, pairs):
            d = self.diff(child, self.child(b, key))
            if d != EMPTY:
                kept += (key, d)
        result = self._intern_node(tuple(kept)) if kept else EMPTY
        memo[probe] = result
        return result

    # ------------------------------------------------------------------ #
    # Building nodes and materialising codes
    # ------------------------------------------------------------------ #
    def node_from_keys(self, key_paths: Iterable[Tuple[int, ...]]) -> int:
        """Build (or find) the node for an iterable of packed-key paths.

        The paths are laid out as one scratch nested-dict trie and interned
        bottom-up with contraction, so every node of the result is interned
        exactly once — no per-path spine rebuilds.  The input need not be
        contracted: completed marks subsume their subtrees and completed
        sibling pairs collapse upward during the fold, yielding the same
        canonical form sequential insertion would.
        """
        root: Dict = {}
        any_path = False
        for keys in key_paths:
            any_path = True
            node = root
            for k in keys:
                nxt = node.get(k)
                if nxt is None:
                    nxt = {}
                    node[k] = nxt
                node = nxt
            node[-1] = True  # completed here (packed keys are >= 0)
        if not any_path:
            return EMPTY
        return self._intern_tree(root)

    def _intern_tree(self, node: Dict) -> int:
        """Intern a scratch nested-dict trie bottom-up, contracting."""
        if -1 in node:
            return DONE
        flat: List[int] = []
        prev_done_key = -2
        for k in sorted(node):
            child = self._intern_tree(node[k])
            if child == DONE:
                # Sibling keys differ only in the low bit, so a completed
                # pair is adjacent in sorted order; the pair collapses into
                # the (completed) parent, which subsumes everything else.
                if prev_done_key == (k ^ 1):
                    return DONE
                prev_done_key = k
            flat += (k, child)
        return self._intern_node(tuple(flat))

    def node_from_codes(self, codes: Iterable[PathCode]) -> int:
        """Node id for codes that arrived from outside the arena (a frame
        decoded off the wire): one per-code build."""
        return self.node_from_keys(code._key_path() for code in codes)

    def _path_code(self, path: Tuple[int, ...]) -> PathCode:
        """Interned :class:`PathCode` for a packed key path."""
        code = self._path_codes.get(path)
        if code is None:
            code = PathCode._make(_keys_to_pairs(path))
            self._path_codes[path] = code
        return code

    def codes_at(self, nid: int) -> FrozenSet[PathCode]:
        """Contracted codes of ``nid`` as a frozenset of :class:`PathCode`."""
        make = PathCode._make
        return frozenset(make(_keys_to_pairs(path)) for path in self.iter_completed_keys(nid))

    def frontier_at(self, nid: int) -> FrozenSet[PathCode]:
        """Missing frontier (the paper's complement) of ``nid``, shared."""
        if nid == DONE:
            return _EMPTY_FROZENSET
        if nid == EMPTY:
            return _ROOT_FRONTIER
        memo = self._frontier_memo
        cached = memo.get(nid)
        if cached is not None:
            return cached
        make = self._path_code
        nodes = self._nodes
        frontier: List[PathCode] = []
        stack: List[Tuple[int, Tuple[int, ...]]] = [(nid, ())]
        while stack:
            node, path = stack.pop()
            flat = nodes[node]
            keys = flat[::2]
            for i, key in enumerate(keys):
                if key ^ 1 not in keys:
                    frontier.append(make(path + (key ^ 1,)))
                child = flat[2 * i + 1]
                if child != DONE:
                    stack.append((child, path + (key,)))
        result = frozenset(frontier)
        memo[nid] = result
        return result

    # ------------------------------------------------------------------ #
    # Collection
    # ------------------------------------------------------------------ #
    def register(self, holder) -> None:
        """Track ``holder``, weakly, as an object that stores node ids.

        A holder implements ``_arena_ids()`` (the node ids it stores; it may
        intern pending state first) and ``_arena_remap(new_id)`` (rewrite
        each stored id ``i`` to ``new_id[i]``).  Registering twice is
        harmless.
        """
        self._holders[id(holder)] = holder

    def collect_if_outgrown(self) -> bool:
        """The collection rule: collect once the arena has outgrown its
        threshold (twice the survivors of the last collection, and at least
        the floor); True when it collected.

        Call it only between events, when no raw node id outside a
        registered holder is alive.
        """
        nodes = len(self._nodes)
        if nodes <= self._collect_at:
            return False
        if nodes > self.nodes_peak:
            self.nodes_peak = nodes
        survivors = self.collect()
        self.collections += 1
        self._collect_at = _collect_threshold(survivors)
        return True

    def collect(self) -> int:
        """Keep only the nodes reachable from live holders; return their count.

        Surviving nodes are copied, in id order, into fresh arrays and every
        holder is remapped to the new ids.  Each node's content is unchanged
        and a child's id stays below its parent's; only the numbering
        changes (a node none of whose children moved keeps its tuple).  The
        frontier memos of surviving nodes are kept; the diff memo, keyed by
        id pairs, is dropped.

        Every raw id not stored in a registered holder is invalidated, so a
        caller must never collect while it holds one (for example, in the
        middle of another arena call).  The count includes both sentinels.
        """
        holders = list(self._holders.values())
        # Ask for the roots first: a holder may intern pending state.
        stack: List[int] = []
        for holder in holders:
            stack.extend(holder._arena_ids())
        old_nodes = self._nodes
        n = len(old_nodes)
        live = bytearray(n)
        live[DONE] = live[EMPTY] = 1
        while stack:
            nid = stack.pop()
            if not live[nid]:
                live[nid] = 1
                stack.extend(old_nodes[nid][1::2])

        # Free what is rebuilt or dropped before allocating its successor.
        self._intern = {}
        self._diff_memo = {}
        survivors = list(compress(range(n), live))
        new_id = [-1] * n
        for nid, old in enumerate(survivors):
            new_id[old] = nid
        nodes: List[Tuple[int, ...]] = [(), ()]
        for old in islice(survivors, 2, None):
            node = old_nodes[old]
            flat = list(node)
            moved = False
            for i in range(1, len(flat), 2):
                child = flat[i]
                if new_id[child] != child:
                    flat[i] = new_id[child]
                    moved = True
            nodes.append(tuple(flat) if moved else node)
        self._nodes = nodes
        del old_nodes
        self._count = array("q", map(self._count.__getitem__, survivors))
        self._depth_sum = array("q", map(self._depth_sum.__getitem__, survivors))
        self._max_depth = array("q", map(self._max_depth.__getitem__, survivors))
        self._digest = array("Q", map(self._digest.__getitem__, survivors))
        # Sentinels (ids 0 and 1) are not interned.
        self._intern = dict(zip(islice(nodes, 2, None), range(2, len(nodes))))
        self._frontier_memo = {
            new_id[old]: frontier
            for old, frontier in self._frontier_memo.items()
            if new_id[old] >= 0
        }
        for holder in holders:
            holder._arena_remap(new_id)
        return len(nodes)


def _has_done_pair(node: List[int]) -> bool:
    """True when a sorted flat branch list holds a completed sibling pair.

    Siblings differ only in the low bit, so they are adjacent in sorted key
    order.
    """
    for i in range(3, len(node), 2):
        if node[i] == DONE and node[i - 2] == DONE and node[i - 1] == (node[i - 3] | 1):
            return True
    return False
