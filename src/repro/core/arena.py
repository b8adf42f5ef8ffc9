"""Interned completion-trie arena: structural sharing across tables and views.

A simulated group of *n* workers holds one completed-code table per worker
plus up to one :class:`~repro.core.completion.PeerGossipView` per (worker,
peer) pair.  With the nested-dict :class:`~repro.core.codeset.CodeSet`, every
one of those objects owns a private trie, so the same completed region —
which epidemic dissemination, by design, replicates everywhere — is stored,
digested and frozenset-ed O(n) or O(n²) times.  That is the memory and CPU
wall between the seed engine and the 1k–10k-worker runs the paper targets.

:class:`TrieArena` removes the duplication by *hash-consing* the trie: every
node is an immutable ``(keys, children)`` pair interned in one shared
flat-array arena, so

* two tables (or views) with equal logical content are the **same integer**
  node id — a per-peer view costs O(pointer), not O(table);
* ``merge``/``diff`` between two ids memoise on the id pair, so the gossip
  fabric pays for each distinct table-state combination once per *group*,
  not once per worker pair;
* ``codes()`` frozensets, table digests and missing frontiers memoise per
  node id and are shared by every holder of that id.

The arena is *collected*, not append-only: every object that stores a node
id registers with it by weak reference (:meth:`TrieArena.register`), and
:meth:`TrieArena.collect` copies the nodes reachable from live holders into
fresh arrays and remaps every holder.  The simulator collects between
events, so memory follows the live tables rather than the length of the
run, and every memo is bounded by the work done between two collections.

Contraction (the paper's sibling-merge + ancestor-subsumption rewrite) is
applied *on intern*: an arena node is always in canonical contracted form,
which is a unique normal form of the completed region — that uniqueness is
exactly what makes "equal content ⇒ equal id" hold.

:class:`ArenaCodeSet` wraps an arena node id behind the full ``CodeSet``
API (it *is* a ``CodeSet`` subclass, so ``isinstance`` fast paths keep
firing), with O(1) ``copy``/``frozen_view`` and O(pointer) ``update``/
``merge`` when the input is recognisably arena-backed.  The nested-dict
``CodeSet`` remains the correctness oracle: the seeded property suite in
``tests/core/test_arena_property.py`` pins the two implementations to each
other over randomized insert/cover/merge/digest/frontier streams.

Sentinel node ids
-----------------
``DONE`` (0) is the completed subtree — a set containing exactly the subtree
root's own code.  ``EMPTY`` (1) is the empty set.  Both are pre-interned so
identity tests against them are plain int compares.
"""

from __future__ import annotations

import weakref
from itertools import compress
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple, Union

from .codeset import CodeSet, ContractionStats
from .encoding import (
    _CODE_HEADER_BYTES,
    _PAIR_WIRE_BYTES,
    ROOT,
    Branch,
    PathCode,
)

__all__ = ["TrieArena", "ArenaCodeSet", "DONE", "EMPTY"]

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


def _keys_to_pairs(keys: Tuple[int, ...]) -> Tuple[Branch, ...]:
    return tuple([(k >> 1, k & 1) for k in keys])


class TrieArena:
    """One shared arena of interned completion-trie nodes.

    Nodes are stored in parallel flat arrays indexed by node id: the sorted
    packed-key tuple, the aligned child-id tuple, and three per-subtree
    aggregates (contracted code count, sum of relative code depths, max
    relative depth) computed bottom-up at intern time so ``len``/
    ``wire_size``/``max_depth`` of any node are O(1) array reads.

    Nodes are immutable and ids are stable between collections — that is
    what makes an id a *snapshot*.  :meth:`collect` renumbers the surviving
    nodes, so an id may only be held across a collection by a registered
    holder (:meth:`register`), which the collection remaps.
    """

    __slots__ = (
        "_keys",
        "_children",
        "_count",
        "_depth_sum",
        "_max_depth",
        "_digest",
        "_intern",
        "_codes_memo",
        "_codes_ids",
        "_path_codes",
        "_frontier_memo",
        "_merge_memo",
        "_diff_memo",
        "_holders",
    )

    def __init__(self) -> None:
        # Parallel node arrays; slots 0/1 are the DONE/EMPTY sentinels.
        self._keys: List[Tuple[int, ...]] = [(), ()]
        self._children: List[Tuple[int, ...]] = [(), ()]
        self._count: List[int] = [1, 0]
        self._depth_sum: List[int] = [0, 0]
        self._max_depth: List[int] = [0, 0]
        #: Structural per-node digest, computed bottom-up at intern time so
        #: :meth:`digest` of any table state is an O(1) array read.
        self._digest: List[int] = [_DONE_DIGEST, 0]
        #: ``(keys, children) -> nid`` interning map (sentinels excluded:
        #: both have empty keys and are distinguished by identity).
        self._intern: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int] = {}
        #: ``nid -> frozenset of contracted PathCodes`` (root-level memo).
        self._codes_memo: Dict[int, FrozenSet[PathCode]] = {
            DONE: frozenset({ROOT}),
            EMPTY: _EMPTY_FROZENSET,
        }
        #: Reverse map ``id(frozenset) -> (frozenset, nid)``.  Entries hold a
        #: strong reference to the frozenset so the recorded ``id`` can never
        #: dangle.  This is what lets a receiver recognise a message's shared
        #: ``codes()`` frozenset and merge the whole thing in O(1); external
        #: frozensets are registered on first sight (:meth:`node_from_codes`)
        #: so every later receiver of the same object gets the O(1) path,
        #: until the next :meth:`collect` forgets them.
        self._codes_ids: Dict[int, Tuple[FrozenSet[PathCode], int]] = {
            id(self._codes_memo[DONE]): (self._codes_memo[DONE], DONE),
            id(_EMPTY_FROZENSET): (_EMPTY_FROZENSET, EMPTY),
        }
        #: ``packed key path -> PathCode`` intern table: distinct code paths
        #: are bounded by the tree, while table *states* containing them are
        #: not — materialising a state must not re-build its codes.
        self._path_codes: Dict[Tuple[int, ...], PathCode] = {}
        self._frontier_memo: Dict[int, FrozenSet[PathCode]] = {}
        #: ``(a, b) -> merged nid`` with ``a < b`` (merge is commutative).
        self._merge_memo: Dict[int, int] = {}
        #: ``(a, b) -> nid of (codes of a not covered by b)``.
        self._diff_memo: Dict[int, int] = {}
        #: Objects storing node ids, keyed by ``id()`` and held weakly, so a
        #: holder Python frees drops out and stops pinning its nodes.
        self._holders: "weakref.WeakValueDictionary[int, object]" = (
            weakref.WeakValueDictionary()
        )

    # ------------------------------------------------------------------ #
    # Interning
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Number of interned nodes (including the two sentinels)."""
        return len(self._keys)

    def _intern_node(self, keys: Tuple[int, ...], children: Tuple[int, ...]) -> int:
        """Intern a canonical interior node, computing its aggregates once."""
        probe = (keys, children)
        nid = self._intern.get(probe)
        if nid is not None:
            return nid
        nid = len(self._keys)
        counts = self._count
        dsums = self._depth_sum
        mdepths = self._max_depth
        digests = self._digest
        count = 0
        dsum = 0
        mdepth = 0
        h = _FNV64_OFFSET
        for i, child in enumerate(children):
            c = counts[child]
            count += c
            dsum += dsums[child] + c  # every code moves one level deeper
            d = mdepths[child] + 1
            if d > mdepth:
                mdepth = d
            h = ((h ^ (keys[i] + 1)) * _FNV64_PRIME) & _MASK64
            h = ((h ^ digests[child]) * _FNV64_PRIME) & _MASK64
        self._intern[probe] = nid
        self._keys.append(keys)
        self._children.append(children)
        counts.append(count)
        dsums.append(dsum)
        mdepths.append(mdepth)
        digests.append(h)
        return nid

    # ------------------------------------------------------------------ #
    # O(1) aggregates
    # ------------------------------------------------------------------ #
    def count(self, nid: int) -> int:
        """Number of contracted codes in the subtree of ``nid``."""
        return self._count[nid]

    def wire_size(self, nid: int) -> int:
        """Total estimated encoded size of the set rooted at ``nid``."""
        return self._count[nid] * _CODE_HEADER_BYTES + _PAIR_WIRE_BYTES * self._depth_sum[nid]

    def max_depth(self, nid: int) -> int:
        """Depth of the deepest code in the set rooted at ``nid``."""
        return self._max_depth[nid]

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def child(self, nid: int, key: int) -> int:
        """Child id under branch ``key`` (``EMPTY`` when absent)."""
        keys = self._keys[nid]
        for i, k in enumerate(keys):
            if k == key:
                return self._children[nid][i]
        return EMPTY

    def covers(self, nid: int, keys: Tuple[int, ...]) -> bool:
        """True when the code with packed-key path ``keys`` is covered."""
        node_keys = self._keys
        node_children = self._children
        for key in keys:
            if nid == DONE:
                return True
            if nid == EMPTY:
                return False
            ks = node_keys[nid]
            for i, k in enumerate(ks):
                if k == key:
                    nid = node_children[nid][i]
                    break
            else:
                return False
        return nid == DONE

    def contains(self, nid: int, keys: Tuple[int, ...]) -> bool:
        """Exact membership of the contracted representation."""
        node_keys = self._keys
        node_children = self._children
        for key in keys:
            if nid == DONE or nid == EMPTY:
                return False
            ks = node_keys[nid]
            for i, k in enumerate(ks):
                if k == key:
                    nid = node_children[nid][i]
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
        node_keys = self._keys
        node_children = self._children
        stack: List[Tuple[int, Tuple[int, ...]]] = [(nid, ())]
        while stack:
            node, path = stack.pop()
            keys = node_keys[node]
            children = node_children[node]
            for i in range(len(keys)):
                child = children[i]
                if child == DONE:
                    yield path + (keys[i],)
                else:
                    stack.append((child, path + (keys[i],)))

    # ------------------------------------------------------------------ #
    # Insert (contract-on-intern)
    # ------------------------------------------------------------------ #
    def insert(self, nid: int, keys: Tuple[int, ...]) -> Tuple[int, int, int]:
        """Insert a (not covered) completed code into the set ``nid``.

        Returns ``(new_nid, subsumed, merges)`` where ``subsumed`` is the
        number of existing codes removed because the inserted code is their
        ancestor, and ``merges`` the number of sibling-merge cascade levels
        that fired — exactly the :class:`ContractionStats` deltas the
        nested-dict ``CodeSet`` would have recorded for the same insertion.

        The caller must have ruled out coverage first (:meth:`covers`); the
        recursion assumes it.
        """
        return self._insert(nid, keys, 0)

    def insert_quiet(self, nid: int, keys: Tuple[int, ...]) -> int:
        """Insert without stats; returns ``nid`` unchanged when covered."""
        if self.covers(nid, keys):
            return nid
        return self._insert(nid, keys, 0)[0]

    def _insert(self, nid: int, keys: Tuple[int, ...], i: int) -> Tuple[int, int, int]:
        if i == len(keys):
            # The inserted code's own node: everything below is subsumed.
            if nid == EMPTY:
                return DONE, 0, 0
            return DONE, self._count[nid], 0
        key = keys[i]
        if nid == EMPTY:
            node_keys: Tuple[int, ...] = ()
            node_children: Tuple[int, ...] = ()
            child = EMPTY
            pos = -1
        else:
            node_keys = self._keys[nid]
            node_children = self._children[nid]
            child = EMPTY
            pos = -1
            for j, k in enumerate(node_keys):
                if k == key:
                    child = node_children[j]
                    pos = j
                    break
        new_child, subsumed, merges = self._insert(child, keys, i + 1)
        if new_child == DONE:
            # Sibling-merge probe: both children of this node completed —
            # the pair (and with it everything else under this node, which
            # the completed parent subsumes) collapses into this node.
            sibling = key ^ 1
            for j, k in enumerate(node_keys):
                if k == sibling and node_children[j] == DONE:
                    return DONE, subsumed, merges + 1
        if pos >= 0:
            children = node_children[:pos] + (new_child,) + node_children[pos + 1 :]
            return self._intern_node(node_keys, children), subsumed, merges
        # Insert the new branch keeping the key tuple sorted (canonical).
        at = 0
        for k in node_keys:
            if k > key:
                break
            at += 1
        new_keys = node_keys[:at] + (key,) + node_keys[at:]
        children = node_children[:at] + (new_child,) + node_children[at:]
        return self._intern_node(new_keys, children), subsumed, merges

    # ------------------------------------------------------------------ #
    # Merge and diff (memoised on id pairs)
    # ------------------------------------------------------------------ #
    def merge(self, a: int, b: int) -> int:
        """Node id of the contracted union of ``a`` and ``b``."""
        if a == b:
            return a
        if a == DONE or b == DONE:
            return DONE
        if a == EMPTY:
            return b
        if b == EMPTY:
            return a
        # Keys are packed into one int (ids stay far below 2**32): cheaper
        # to hash than a tuple, and half the memo's memory.
        probe = (a << 32) | b if a < b else (b << 32) | a
        memo = self._merge_memo
        cached = memo.get(probe)
        if cached is not None:
            return cached
        a_keys = self._keys[a]
        a_children = self._children[a]
        b_keys = self._keys[b]
        b_children = self._children[b]
        # Two-pointer walk over the (sorted) key tuples: output keys stay
        # sorted by construction, so no dict and no final sort.
        keys: List[int] = []
        children: List[int] = []
        i = j = 0
        na = len(a_keys)
        nb = len(b_keys)
        while i < na and j < nb:
            ka = a_keys[i]
            kb = b_keys[j]
            if ka < kb:
                keys.append(ka)
                children.append(a_children[i])
                i += 1
            elif kb < ka:
                keys.append(kb)
                children.append(b_children[j])
                j += 1
            else:
                keys.append(ka)
                children.append(self.merge(a_children[i], b_children[j]))
                i += 1
                j += 1
        if i < na:
            keys.extend(a_keys[i:])
            children.extend(a_children[i:])
        elif j < nb:
            keys.extend(b_keys[j:])
            children.extend(b_children[j:])
        # Contraction after the pointwise merge: a sibling pair that became
        # DONE+DONE collapses this whole node (the completed parent subsumes
        # every other branch).  Siblings differ only in the low bit, so they
        # are adjacent in the sorted key order.
        result = None
        for idx in range(1, len(keys)):
            if (
                children[idx] == DONE
                and children[idx - 1] == DONE
                and keys[idx] == (keys[idx - 1] | 1)
            ):
                result = DONE
                break
        if result is None:
            result = self._intern_node(tuple(keys), tuple(children))
        memo[probe] = result
        return result

    def diff(self, a: int, b: int) -> FrozenSet[PathCode]:
        """The codes of ``a`` not covered by ``b`` (the delta to ship)."""
        return self.codes_at(self._diff_node(a, b))

    def _diff_node(self, a: int, b: int) -> int:
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
        a_keys = self._keys[a]
        a_children = self._children[a]
        kept_keys: List[int] = []
        kept_children: List[int] = []
        for i, key in enumerate(a_keys):
            d = self._diff_node(a_children[i], self.child(b, key))
            if d != EMPTY:
                kept_keys.append(key)
                kept_children.append(d)
        if not kept_keys:
            result = EMPTY
        else:
            result = self._intern_node(tuple(kept_keys), tuple(kept_children))
        memo[probe] = result
        return result

    # ------------------------------------------------------------------ #
    # Shared derived views
    # ------------------------------------------------------------------ #
    def _path_code(self, path: Tuple[int, ...]) -> PathCode:
        """Interned :class:`PathCode` for a packed key path."""
        code = self._path_codes.get(path)
        if code is None:
            code = PathCode._make(_keys_to_pairs(path))
            self._path_codes[path] = code
        return code

    def codes_at(self, nid: int) -> FrozenSet[PathCode]:
        """Contracted codes of ``nid`` as one shared frozenset per id."""
        memo = self._codes_memo
        cached = memo.get(nid)
        if cached is not None:
            return cached
        # Inline trie walk (the generator equivalent resumes once per node,
        # which dominates for the small post-contraction tables this
        # materialises tens of thousands of times per run).
        node_keys = self._keys
        node_children = self._children
        path_codes = self._path_codes
        make = PathCode._make
        out: List[PathCode] = []
        stack: List[Tuple[int, Tuple[int, ...]]] = [(nid, ())]
        while stack:
            node, path = stack.pop()
            keys = node_keys[node]
            children = node_children[node]
            for i in range(len(keys)):
                child = children[i]
                p = path + (keys[i],)
                if child == DONE:
                    code = path_codes.get(p)
                    if code is None:
                        code = make(_keys_to_pairs(p))
                        path_codes[p] = code
                    out.append(code)
                else:
                    stack.append((child, p))
        result = frozenset(out)
        memo[nid] = result
        self._codes_ids[id(result)] = (result, nid)
        return result

    def node_for_codes(self, codes: FrozenSet[PathCode]) -> Optional[int]:
        """Node id whose codes frozenset is this very object.

        Identity-based (``id()``): only frozensets handed out by this arena
        or previously registered via :meth:`node_from_codes` are recognised.
        A miss means "unknown", never "not equal" — callers fall back to
        building the node (:meth:`node_from_codes`) or per-code merging.
        """
        entry = self._codes_ids.get(id(codes))
        return None if entry is None else entry[1]

    def node_from_codes(self, codes: FrozenSet[PathCode]) -> int:
        """Node id for an arbitrary codes frozenset, registered by identity.

        The first sight of a frozenset pays one per-code build; the result
        is recorded against the *object* so every later holder of the same
        frozenset — e.g. each receiver of one fanned-out delta message —
        resolves it in O(1).
        """
        entry = self._codes_ids.get(id(codes))
        if entry is not None:
            return entry[1]
        paths = []
        for code in codes:
            try:
                paths.append(code._keys)
            except AttributeError:
                paths.append(code._key_path())
        nid = self.node_from_keys(paths)
        self._codes_ids[id(codes)] = (codes, nid)
        return nid

    def digest(self, nid: int) -> int:
        """Order-independent table digest of ``nid`` — an O(1) array read.

        Matches ``work_report.table_digest`` of :meth:`codes_at` exactly:
        the per-node structural digests are folded bottom-up at intern time,
        so no table state ever pays an O(table) digest walk.
        """
        if nid == EMPTY:
            return 0
        return (self._digest[nid] ^ (self._count[nid] * _FNV64_PRIME)) & _MASK64

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
        node_keys = self._keys
        node_children = self._children
        frontier: List[PathCode] = []
        stack: List[Tuple[int, Tuple[int, ...]]] = [(nid, ())]
        while stack:
            node, path = stack.pop()
            keys = node_keys[node]
            children = node_children[node]
            for i, key in enumerate(keys):
                sibling = key ^ 1
                present = False
                for k in keys:
                    if k == sibling:
                        present = True
                        break
                if not present:
                    frontier.append(make(path + (sibling,)))
                child = children[i]
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

        A holder implements ``_arena_ids()`` (the node ids it stores) and
        ``_arena_remap(new_id)`` (rewrite each stored id ``i`` to
        ``new_id[i]``).  Registering twice is harmless.
        """
        self._holders[id(holder)] = holder

    def collect(self) -> int:
        """Keep only the nodes reachable from live holders; return their count.

        Surviving nodes are copied, in id order, into fresh arrays and every
        holder is remapped to the new ids.  Each node's content is unchanged
        and a child's id stays below its parent's; only the numbering
        changes.  The ``codes_at`` and frontier
        memos of surviving nodes are kept (their frozensets stay recognised
        by identity), frozensets registered by :meth:`node_from_codes` are
        forgotten, and the merge and diff memos, keyed by id pairs, are
        dropped.

        Every raw id not stored in a registered holder is invalidated, so a
        caller must never collect while it holds one (for example, in the
        middle of another arena call).  The count includes both sentinels.
        """
        holders = list(self._holders.values())
        old_children = self._children
        n = len(old_children)
        live = bytearray(n)
        live[DONE] = live[EMPTY] = 1
        stack: List[int] = []
        for holder in holders:
            stack.extend(holder._arena_ids())
        while stack:
            nid = stack.pop()
            if not live[nid]:
                live[nid] = 1
                stack.extend(old_children[nid])

        # Free what is rebuilt or dropped before allocating its successor.
        self._intern = {}
        self._merge_memo = {}
        self._diff_memo = {}
        survivors = list(compress(range(n), live))
        new_id = [-1] * n
        for nid, old in enumerate(survivors):
            new_id[old] = nid
        remap = new_id.__getitem__
        keys = [self._keys[old] for old in survivors]
        children = [tuple(map(remap, old_children[old])) for old in survivors]
        self._count = [self._count[old] for old in survivors]
        self._depth_sum = [self._depth_sum[old] for old in survivors]
        self._max_depth = [self._max_depth[old] for old in survivors]
        self._digest = [self._digest[old] for old in survivors]
        self._keys = keys
        self._children = children
        # Sentinels (ids 0 and 1) are not interned.
        self._intern = dict(zip(zip(keys[2:], children[2:]), range(2, len(keys))))

        codes_memo: Dict[int, FrozenSet[PathCode]] = {}
        codes_ids: Dict[int, Tuple[FrozenSet[PathCode], int]] = {}
        for old, codes in self._codes_memo.items():
            nid = new_id[old]
            if nid >= 0:
                codes_memo[nid] = codes
                codes_ids[id(codes)] = (codes, nid)
        self._codes_memo = codes_memo
        self._codes_ids = codes_ids
        self._frontier_memo = {
            new_id[old]: frontier
            for old, frontier in self._frontier_memo.items()
            if new_id[old] >= 0
        }
        for holder in holders:
            holder._arena_remap(new_id)
        return len(keys)

    # ------------------------------------------------------------------ #
    # Interop
    # ------------------------------------------------------------------ #
    def node_of(self, codes: "CodeSet") -> Optional[int]:
        """Current node id of an arena-backed set, ``None`` otherwise."""
        if isinstance(codes, ArenaCodeSet):
            if codes._arena is self:
                return codes._nid
            return None
        if isinstance(codes, CodeSet) and codes._arena is self:
            return codes._arena_sync()
        return None

    def node_from_keys(self, key_paths) -> int:
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
        keys: List[int] = []
        children: List[int] = []
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
            keys.append(k)
            children.append(child)
        return self._intern_node(tuple(keys), tuple(children))


class ArenaCodeSet(CodeSet):
    """A ``CodeSet`` whose storage is a shared :class:`TrieArena` node id.

    Logical behaviour — membership, coverage, contraction, digests,
    frontiers, the ``add`` return value and the per-``add``
    :class:`ContractionStats` deltas — is pinned to the nested-dict
    ``CodeSet`` by the seeded property suite.  What changes is the cost
    model: ``copy``/``frozen_view`` are O(1), ``update``/``merge``/
    ``adopt_from`` are O(pointer) when the input is recognisably
    arena-backed (an arena ``codes()`` frozenset or another set sharing
    this arena), and every derived view (``codes``, digests via
    :meth:`TrieArena.digest`, ``missing_frontier``) is shared group-wide
    per distinct table state.

    One intentional divergence: the bulk fast paths (``update``/``merge``/
    ``adopt_from`` taking the O(pointer) route) do not decompose into
    per-code :class:`ContractionStats`; only :meth:`add` maintains exact
    stats.  Production users of this class (peer gossip views) never read
    stats — the simulation's contraction-time charging reads the *owner
    table*'s stats, and owner tables stay nested-dict ``CodeSet``\\ s.
    """

    __slots__ = ("_nid",)

    def __init__(self, arena: TrieArena, codes=None) -> None:
        # Deliberately no super().__init__(): the nested-dict slots stay
        # unset; every inherited method that would touch them is overridden.
        self._arena = arena
        self._anid = EMPTY  # keeps TrieArena.node_of's CodeSet branch honest
        self._nid = EMPTY
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
        return self._arena.contains(self._nid, keys)

    def __len__(self) -> int:
        return self._arena.count(self._nid)

    def __bool__(self) -> bool:
        return self._arena.count(self._nid) > 0

    def __iter__(self) -> Iterator[PathCode]:
        return iter(self.codes())

    def __repr__(self) -> str:  # pragma: no cover - repr formatting only
        return f"ArenaCodeSet(nid={self._nid}, n={len(self)})"

    def _iter_completed(self) -> Iterator[PathCode]:
        return iter(self.codes())

    def _iter_completed_keys(self) -> Iterator[Tuple[int, ...]]:
        return self._arena.iter_completed_keys(self._nid)

    def codes(self) -> frozenset:
        return self._arena.codes_at(self._nid)

    def covers(self, code: PathCode) -> bool:
        try:
            keys = code._keys
        except AttributeError:
            keys = code._key_path()
        return self._arena.covers(self._nid, keys)

    def is_complete(self) -> bool:
        return self._nid == DONE

    def wire_size(self) -> int:
        return self._arena.wire_size(self._nid)

    def max_depth(self) -> int:
        return self._arena.max_depth(self._nid)

    def structural_digest(self) -> int:
        return self._arena.digest(self._nid)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def _set_nid(self, nid: int) -> None:
        if nid > EMPTY >= self._nid:
            # The first id that is not a sentinel: from here on a collection
            # must keep it alive and remap it (most peer views stay empty).
            self._arena.register(self)
        self._nid = nid
        self._anid = nid

    def _arena_sync(self) -> int:
        return self._nid  # storage IS the arena node; nothing is batched

    def _arena_remap(self, new_id: List[int]) -> None:
        self._set_nid(new_id[self._nid])

    def add(self, code: Union[PathCode, Tuple[Branch, ...]]) -> bool:
        try:
            keys = code._keys
        except AttributeError:
            if type(code) is PathCode:
                keys = code._key_path()
            else:  # raw key tuple from a trie-to-trie fast path
                keys = code
        stats = self.stats
        stats.calls += 1
        arena = self._arena
        nid = self._nid
        if arena.covers(nid, keys):
            return False
        new_nid, subsumed, merges = arena.insert(nid, keys)
        stats.insertions += 1
        stats.subsumptions += subsumed
        stats.merges += merges
        self._set_nid(new_nid)
        return True

    def update(self, codes) -> bool:
        if type(codes) is frozenset:
            # Resolve (building and registering on first sight) the node of
            # the whole frozenset, then fold it in with one memoised merge.
            return self.merge_nid(self._arena.node_from_codes(codes))
        add = self.add
        changed = False
        for code in sorted(codes, key=len):
            if add(code):
                changed = True
        return changed

    def merge_nid(self, nid: int) -> bool:
        """Fold an arena node id into this set — O(pointer), memoised."""
        merged = self._arena.merge(self._nid, nid)
        if merged == self._nid:
            return False
        self._set_nid(merged)
        return True

    def merge(self, other: "CodeSet") -> bool:
        onid = self._arena.node_of(other)
        if onid is not None:
            merged = self._arena.merge(self._nid, onid)
            if merged == self._nid:
                return False
            self._set_nid(merged)
            return True
        add = self.add
        changed = False
        for keys in sorted(other._iter_completed_keys(), key=len):
            if add(keys):
                changed = True
        return changed

    def clear(self) -> None:
        self._set_nid(EMPTY)

    def copy(self) -> "ArenaCodeSet":
        """O(1): the clone shares the arena and snapshots the node id."""
        clone = ArenaCodeSet(self._arena)
        clone._set_nid(self._nid)
        return clone

    def frozen_view(self) -> "ArenaCodeSet":
        """O(1) snapshot — arena nodes are immutable, the id *is* the view."""
        return self.copy()

    def adopt_from(self, other: "CodeSet", codes=None) -> bool:
        if self._nid != EMPTY:
            raise ValueError("adopt_from requires an empty CodeSet")
        onid = self._arena.node_of(other)
        if onid is None:
            if not len(other) and not other.is_complete():
                return False
            onid = self._arena.node_from_keys(other._iter_completed_keys())
        if onid == EMPTY:
            return False
        self._set_nid(onid)
        return True

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    def missing_frontier(self) -> frozenset:
        return self._arena.frontier_at(self._nid)

    def missing_frontier_reference(self):
        return set(self._arena.frontier_at(self._nid))

    def uncovered_siblings(self):
        result = set()
        for code in self.codes():
            sibling = code.sibling()
            if sibling is not None and not self.covers(sibling):
                result.add(sibling)
        return result
