"""A set-based reference table: the stats and frontier oracle of the suite.

:class:`ReferenceTable` keeps the completed codes in a plain ``set`` and
applies the paper's two rewrite rules one added code at a time, counting
what :class:`~repro.core.codeset.ContractionStats` counts: an *insertion*
per code not covered yet, a *subsumption* per table code a new code is an
ancestor of, and a *merge* per completed sibling pair replaced by its
parent.  It shares no code with the arena, so a per-add or bulk-merge count
of :class:`~repro.core.codeset.CodeSet` that drifts fails against it.

:func:`brute_frontier` computes the missing frontier from the codes alone.
"""

from typing import Dict, Iterable, Set

from repro.core.encoding import ROOT, PathCode


class ReferenceTable:
    def __init__(self) -> None:
        self.codes: Set[PathCode] = set()
        self.insertions = 0
        self.subsumptions = 0
        self.merges = 0
        self.calls = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "merges": self.merges,
            "subsumptions": self.subsumptions,
            "insertions": self.insertions,
            "calls": self.calls,
        }

    def covers(self, code: PathCode) -> bool:
        return any(a in self.codes for a in code.ancestors(include_self=True))

    def add(self, code: PathCode) -> bool:
        self.calls += 1
        if self.covers(code):
            return False
        below = {c for c in self.codes if code.is_ancestor_of(c)}
        self.codes -= below
        self.subsumptions += len(below)
        self.insertions += 1
        self.codes.add(code)
        sibling = code.sibling()
        while sibling is not None and sibling in self.codes:
            # The completed parent replaces everything below it.
            parent = code.parent()
            self.codes = {c for c in self.codes if not parent.is_ancestor_of(c)}
            self.codes.add(parent)
            self.merges += 1
            code, sibling = parent, parent.sibling()
        return True

    def add_all(self, codes: Iterable[PathCode]) -> int:
        """Add ``codes`` in the given order; returns how many were new."""
        return sum(1 for code in list(codes) if self.add(code))


def brute_frontier(codes: Iterable[PathCode]) -> Set[PathCode]:
    """Codes of the subtrees a contracted set leaves missing: for every
    decision on a code's path whose other branch starts no code."""
    codes = set(codes)
    if ROOT in codes:
        return set()
    if not codes:
        return {ROOT}
    prefixes = {code.pairs[:i] for code in codes for i in range(len(code.pairs) + 1)}
    missing = set()
    for code in codes:
        for i, (var, val) in enumerate(code.pairs):
            other = code.pairs[:i] + ((var, 1 - val),)
            if other not in prefixes:
                missing.add(PathCode(other))
    return missing
