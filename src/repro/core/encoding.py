"""Tree-path encoding of branch-and-bound subproblems.

The paper's fault-tolerance mechanism rests on one idea: every subproblem
generated by a branch-and-bound (B&B) search is a node of a dynamically
grown binary tree, and every node can be named uniquely and *self-containedly*
by the sequence of branching decisions taken from the root to reach it.

A decision is a pair ``<variable, value>`` where ``value`` is 0 (left branch)
or 1 (right branch).  The variable must be part of the encoding because
different subtrees may branch on different variables at the same depth
(Section 5.3.1 of the paper).  The root problem is the empty sequence ``()``.

This module defines :class:`PathCode`, the immutable code object used
throughout the library, together with the parent / child / sibling / ancestor
relations that the contraction ("compression") and complement operations in
:mod:`repro.core.codeset` and :mod:`repro.core.complement` are built on.

Performance invariants
----------------------
:class:`PathCode` sits on every hot path of the reproduction — trie
insertion, coverage queries, report compression, wire-size accounting — so
it is deliberately *not* a dataclass.  The class maintains three invariants
that the rest of the library relies on:

* **Cached hash** — ``hash(code)`` is computed at most once, on first
  request, and stored in a slot.  It always equals ``hash(code.pairs)``.
* **Cached wire size** — :meth:`wire_size` computes the byte model (2-byte
  header + 3 bytes per pair) on first request and is an O(1) attribute read
  afterwards.
* **Validation boundary** — branch values are validated only at the public
  constructors (``PathCode(...)``, :meth:`from_pairs`, :meth:`decode`,
  :meth:`child`).  Derivation methods that can only produce
  valid codes from valid codes (:meth:`parent`, :meth:`sibling`,
  :meth:`ancestors`, and the trie iteration in
  :mod:`repro.core.arena`) use the internal no-validate constructor
  :meth:`PathCode._make` and never re-check pairs.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Tuple

__all__ = [
    "Branch",
    "PathCode",
    "ROOT",
    "common_prefix_length",
]

#: A single branching decision: ``(variable, value)`` with ``value in (0, 1)``.
Branch = Tuple[int, int]

#: Number of bytes used to encode one ``<variable, value>`` pair on the wire.
#: Two bytes index the condition variable (the paper's problems have at most a
#: few thousand variables) and one byte carries the branch value.
_PAIR_WIRE_BYTES = 3

#: Fixed per-code header (length field) in bytes.
_CODE_HEADER_BYTES = 2

#: FNV-1a 64-bit parameters for :meth:`PathCode.digest` (wire-stable hashing).
_FNV64_OFFSET = 0xCBF29CE484222325
_FNV64_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


class PathCode:
    """Immutable identifier of a subproblem: the path from the root.

    Parameters
    ----------
    pairs:
        Tuple of ``(variable, value)`` decisions, ordered from the root to the
        node.  ``value`` must be 0 or 1.

    Examples
    --------
    >>> root = PathCode()
    >>> left = root.child(5, 0)
    >>> right = root.child(5, 1)
    >>> left.sibling() == right
    True
    >>> left.parent() == root
    True
    >>> left.is_ancestor_of(left.child(2, 1))
    True
    """

    __slots__ = ("pairs", "_hash", "_wire", "_keys", "_digest")

    pairs: Tuple[Branch, ...]

    def __init__(self, pairs: Tuple[Branch, ...] = ()) -> None:
        pairs = tuple(pairs)
        for var, val in pairs:
            if val not in (0, 1):
                raise ValueError(
                    f"branch value must be 0 or 1, got {val!r} for variable {var!r}"
                )
        # ``pairs`` and the hash are materialised here: nearly every code
        # ends up in a set, frozenset or dict, so the hash is computed
        # eagerly (once).  The remaining cache slots (``_wire``, ``_keys``)
        # stay unset until first use.
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "_hash", hash(pairs))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"PathCode is immutable (cannot set {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"PathCode is immutable (cannot delete {name!r})")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def _make(cls, pairs: Tuple[Branch, ...]) -> "PathCode":
        """Internal no-validate fast constructor.

        ``pairs`` must already be a well-formed tuple of valid branches —
        callers are the derivation methods below and the trie iteration in
        :mod:`repro.core.arena`, which can only produce valid pairs from
        already-validated codes.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "_hash", hash(pairs))
        return self

    def _key_path(self) -> Tuple[int, ...]:
        """Integer branch keys ``(variable << 1) | value``, computed lazily.

        The completion trie in :mod:`repro.core.arena` keys its nodes on
        these packed integers (int hashing beats 2-tuple hashing, and the
        sibling key is just ``key ^ 1``).  The tuple is cached after the
        first request, so a code inserted into or probed against many tables
        pays the conversion once.  Callers on hot paths read ``code._keys``
        inside ``try/except AttributeError`` and fall back to this method.
        """
        try:
            return self._keys
        except AttributeError:
            keys = tuple((var << 1) | val for var, val in self.pairs)
            object.__setattr__(self, "_keys", keys)
            return keys

    @staticmethod
    def root() -> "PathCode":
        """Return the code of the root problem (the empty path)."""
        return ROOT

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[int]]) -> "PathCode":
        """Build a code from any iterable of ``(variable, value)`` pairs."""
        return cls(tuple((int(v), int(b)) for v, b in pairs))

    # ------------------------------------------------------------------ #
    # Basic structure
    # ------------------------------------------------------------------ #
    @property
    def depth(self) -> int:
        """Depth of the node in the tree (root has depth 0)."""
        return len(self.pairs)

    @property
    def is_root(self) -> bool:
        """True when this is the code of the original (root) problem."""
        return not self.pairs

    @property
    def last_variable(self) -> int:
        """Variable of the final branching decision (undefined for the root)."""
        if not self.pairs:
            raise ValueError("the root code has no last variable")
        return self.pairs[-1][0]

    @property
    def last_value(self) -> int:
        """Value (0/1) of the final branching decision (undefined for the root)."""
        if not self.pairs:
            raise ValueError("the root code has no last value")
        return self.pairs[-1][1]

    def bits(self) -> Tuple[int, ...]:
        """Return only the branch values along the path."""
        return tuple(val for _var, val in self.pairs)

    def variables(self) -> Tuple[int, ...]:
        """Return only the branching variables along the path."""
        return tuple(var for var, _val in self.pairs)

    # ------------------------------------------------------------------ #
    # Tree relations
    # ------------------------------------------------------------------ #
    def parent(self) -> Optional["PathCode"]:
        """Return the parent code, or ``None`` for the root."""
        pairs = self.pairs
        if not pairs:
            return None
        return PathCode._make(pairs[:-1])

    def child(self, variable: int, value: int) -> "PathCode":
        """Return the child obtained by branching on ``variable`` with ``value``."""
        if value not in (0, 1):
            raise ValueError(f"branch value must be 0 or 1, got {value!r}")
        return PathCode._make(self.pairs + ((int(variable), int(value)),))

    def children(self, variable: int) -> Tuple["PathCode", "PathCode"]:
        """Return both children obtained by branching on ``variable``."""
        return self.child(variable, 0), self.child(variable, 1)

    def sibling(self) -> Optional["PathCode"]:
        """Return the sibling code (same parent, flipped last value).

        The root has no sibling, so ``None`` is returned.
        """
        pairs = self.pairs
        if not pairs:
            return None
        var, val = pairs[-1]
        return PathCode._make(pairs[:-1] + ((var, 1 - val),))

    def ancestors(self, include_self: bool = False) -> Iterator["PathCode"]:
        """Yield ancestors from the parent up to the root.

        With ``include_self=True`` the code itself is yielded first.

        The generator is lazy and each ancestor is built with the no-validate
        fast constructor, so a caller that breaks out early (the common case
        for coverage checks) pays only for the prefixes it actually consumed
        rather than O(depth²) up front.
        """
        if include_self:
            yield self
        pairs = self.pairs
        make = PathCode._make
        for cut in range(len(pairs) - 1, -1, -1):
            yield make(pairs[:cut])

    def is_ancestor_of(self, other: "PathCode", strict: bool = True) -> bool:
        """True when ``other`` lies in this node's subtree.

        With ``strict=True`` (default) a code is *not* its own ancestor.
        """
        sp = self.pairs
        op = other.pairs
        ls = len(sp)
        if ls > len(op) or (strict and ls == len(op)):
            return False
        return op[:ls] == sp

    def is_descendant_of(self, other: "PathCode", strict: bool = True) -> bool:
        """True when this code lies in ``other``'s subtree."""
        return other.is_ancestor_of(self, strict=strict)

    # ------------------------------------------------------------------ #
    # Wire representation
    # ------------------------------------------------------------------ #
    def wire_size(self) -> int:
        """Estimated encoded size of this code in bytes (cached on first use).

        The model used throughout the library (and in the benchmarks that
        reproduce the paper's communication-cost measurements) charges a
        two-byte length header plus three bytes per ``<variable, value>``
        pair.  The deeper the node, the larger its code — exactly the
        behaviour Section 5.3.2 of the paper describes.
        """
        try:
            return self._wire
        except AttributeError:
            wire = _CODE_HEADER_BYTES + _PAIR_WIRE_BYTES * len(self.pairs)
            object.__setattr__(self, "_wire", wire)
            return wire

    def digest(self) -> int:
        """Stable 64-bit digest of this code (cached on first use).

        FNV-1a over the packed branch keys, seeded with the depth.  Unlike
        ``hash()`` (whose value may vary across interpreter runs and is an
        implementation detail of CPython), this digest is part of the *wire
        contract*: delta-gossip acknowledgements echo table digests built
        from it across process boundaries, so it must be identical on every
        peer regardless of interpreter or hash randomisation.
        """
        try:
            return self._digest
        except AttributeError:
            h = (_FNV64_OFFSET ^ (len(self.pairs) + 1)) * _FNV64_PRIME & _MASK64
            for key in self._key_path():
                h = (h ^ (key + 1)) * _FNV64_PRIME & _MASK64
            object.__setattr__(self, "_digest", h)
            return h

    def encode(self) -> str:
        """Compact, human-readable text encoding (e.g. ``"5:0/2:1"``)."""
        return "/".join(f"{var}:{val}" for var, val in self.pairs) or "()"

    @classmethod
    def decode(cls, text: str) -> "PathCode":
        """Inverse of :meth:`encode`."""
        text = text.strip()
        if text in ("", "()"):
            return ROOT
        pairs = []
        for token in text.split("/"):
            var_text, _, val_text = token.partition(":")
            pairs.append((int(var_text), int(val_text)))
        return cls(tuple(pairs))

    # ------------------------------------------------------------------ #
    # Dunder helpers
    # ------------------------------------------------------------------ #
    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, PathCode):
            return self.pairs == other.pairs
        return NotImplemented

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[Branch]:
        return iter(self.pairs)

    def __lt__(self, other: "PathCode") -> bool:
        # A total order is handy for deterministic tie-breaking in heaps and
        # for reproducible iteration in tests; it has no semantic meaning.
        return self.pairs < other.pairs

    def __reduce__(self):
        # Pickle support (the realexec protocol path uses repro.wire instead;
        # this remains for generic tooling such as the pickle-vs-codec byte
        # comparison).  Reconstruction goes through the validating constructor
        # because pickles cross trust boundaries.
        return (PathCode, (self.pairs,))

    def __repr__(self) -> str:  # pragma: no cover - repr formatting only
        return f"PathCode({self.encode()})"


#: The code of the root problem.
ROOT = PathCode()


def common_prefix_length(a: PathCode, b: PathCode) -> int:
    """Number of leading decisions the two codes share.

    Used by the recovery policy that prefers re-creating subproblems close to
    the last problem a worker completed locally (Section 5.3.2 suggests this
    as a way to reduce redundant work).
    """
    n = 0
    for pa, pb in zip(a.pairs, b.pairs):
        if pa != pb:
            break
        n += 1
    return n
