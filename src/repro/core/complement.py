"""Complement computation: finding subproblems nobody reported completed.

Given the contracted table of completed codes that a process has accumulated
(its own work plus everything learned from gossiped work reports), the
*complement* is the set of subtrees of the B&B tree that are **not** covered
by the table.  Section 5.3.2 of the paper uses the complement to recover lost
work: a process that runs out of work and fails to obtain any from the
load-balancing mechanism "chooses an uncompleted problem (by complementing the
code of a solved problem whose sibling is not solved) and solves it".

Because the table is contracted, the complement has a particularly simple
minimal representation: it is exactly the set of siblings of table entries
that are not themselves covered (see :meth:`repro.core.codeset.CodeSet.
uncovered_siblings`).  This module adds the selection policies used to pick
*which* uncompleted subtree to regenerate, which is the knob the paper points
at for reducing redundant work.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import Iterable, Optional, Set

from .codeset import CodeSet
from .encoding import ROOT, PathCode, common_prefix_length

__all__ = [
    "SelectionStrategy",
    "complement_frontier",
    "minimal_complement",
    "select_recovery_candidate",
]


class SelectionStrategy(str, Enum):
    """Policy for choosing the uncompleted subproblem to regenerate.

    * ``DEEPEST`` — pick the deepest uncovered sibling: the smallest missing
      subtree, so the redundant-work exposure is minimal.  This is
      :func:`select_recovery_candidate`'s default.
    * ``SHALLOWEST`` — pick the shallowest uncovered sibling: recovers the
      largest missing region at once (fewer recovery rounds, more potential
      redundancy).
    * ``RANDOM`` — uniform random choice; reduces the chance of two recovering
      processes picking the same subtree, which the paper identifies as the
      main source of redundant work.  This is
      :class:`~repro.core.recovery.RecoveryPolicy`'s default.
    * ``NEAR_LAST_COMPLETED`` — prefer the candidate sharing the longest
      prefix with the last problem completed locally ("using the location of
      the last problem completed locally", Section 5.3.2).
    """

    DEEPEST = "deepest"
    SHALLOWEST = "shallowest"
    RANDOM = "random"
    NEAR_LAST_COMPLETED = "near_last_completed"


def complement_frontier(completed: CodeSet) -> Set[PathCode]:
    """Return the minimal set of codes whose subtrees are not known completed.

    The returned codes are pairwise disjoint subtrees and, together with the
    completed table, cover the whole tree.  For an empty table the whole tree
    is missing, so ``{ROOT}`` is returned; for a table containing the root the
    complement is empty.

    The computation walks the completion trie (every decision explored on one
    side but absent on the other contributes the absent sibling), which is a
    superset of the paper's literal phrasing "complementing the code of a
    solved problem whose sibling is not solved" — the literal sibling set is
    available as :meth:`repro.core.codeset.CodeSet.uncovered_siblings` and the
    two coincide after enough recoveries have merged the table upward.
    """
    return completed.missing_frontier()


def minimal_complement(completed: Iterable[PathCode]) -> Set[PathCode]:
    """Convenience wrapper accepting any iterable of completed codes."""
    table = completed if isinstance(completed, CodeSet) else CodeSet(completed)
    return complement_frontier(table)


def select_recovery_candidate(
    completed: CodeSet,
    *,
    strategy: SelectionStrategy = SelectionStrategy.DEEPEST,
    last_completed: Optional[PathCode] = None,
    rng: Optional[random.Random] = None,
    exclude: Optional[Iterable[PathCode]] = None,
) -> Optional[PathCode]:
    """Pick one uncompleted subproblem to regenerate, or ``None`` if complete.

    Parameters
    ----------
    completed:
        The contracted table of known-completed codes.
    strategy:
        Selection policy, see :class:`SelectionStrategy`.
    last_completed:
        The code of the last problem this process completed locally; only used
        by :attr:`SelectionStrategy.NEAR_LAST_COMPLETED`.
    rng:
        Random source for :attr:`SelectionStrategy.RANDOM`; a module-level
        generator is used when omitted (the simulator always passes a seeded
        per-worker stream so runs stay deterministic).
    exclude:
        Codes (or subtrees) the caller is already working on and does not want
        to be offered again — for instance a recovery problem picked earlier
        that is still being solved.
    """
    candidates = complement_frontier(completed)
    if exclude:
        excluded = list(exclude)
        candidates = {
            c
            for c in candidates
            if not any(e == c or e.is_ancestor_of(c) or c.is_ancestor_of(e) for e in excluded)
        }
    if not candidates:
        return None

    # The min/max keys below end in ``c.pairs``, which is a total order, so
    # they are deterministic regardless of set iteration order; only RANDOM
    # needs the candidates sorted into a reproducible base order first.
    if strategy == SelectionStrategy.DEEPEST:
        return max(candidates, key=lambda c: (c.depth, c.pairs))
    if strategy == SelectionStrategy.SHALLOWEST:
        return min(candidates, key=lambda c: (c.depth, c.pairs))
    if strategy == SelectionStrategy.RANDOM:
        chooser = rng if rng is not None else random
        return chooser.choice(sorted(candidates))
    if strategy == SelectionStrategy.NEAR_LAST_COMPLETED:
        if last_completed is None:
            return max(candidates, key=lambda c: (c.depth, c.pairs))
        return max(
            candidates,
            key=lambda c: (common_prefix_length(c, last_completed), c.depth, c.pairs),
        )
    raise ValueError(f"unknown selection strategy: {strategy!r}")

