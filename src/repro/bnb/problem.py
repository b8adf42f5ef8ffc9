"""Abstract branch-and-bound problem interface.

The paper (Section 2) describes a sequential B&B algorithm as a loop applying
four operators to a pool of active subproblems: *decompose* (branch),
*bound*, *select*, and *eliminate*.  This module defines the problem-side
contract those operators need.  Concrete problems (knapsack and the
tree-replay problem driving the simulator) live in sibling modules.

Design notes
------------
* Branching is **binary** and every branch is a decision on a *condition
  variable* — exactly the model the paper's encoding assumes (Section 5.3.1).
  A child is obtained by :meth:`BranchAndBoundProblem.apply_branch` with value
  0 (left) or 1 (right).
* Subproblem **states are reconstructible from codes**: replaying the
  ``<variable, value>`` decisions of a :class:`~repro.core.encoding.PathCode`
  from the root state yields the subproblem state.  This is what makes codes
  self-contained and lets any process regenerate any lost subproblem from the
  initial data alone.
* A child may be *infeasible from construction* (``apply_branch`` returns
  ``None``).  Such a child still exists as a node of the tree — it is simply
  completed immediately, with no further work.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Generic, Hashable, Optional, Tuple, TypeVar

from ..core.encoding import PathCode

__all__ = ["BranchAndBoundProblem", "BranchingDecision", "Subproblem", "worse_than"]

StateT = TypeVar("StateT", bound=Hashable)


def worse_than(candidate: float, incumbent: Optional[float], *, minimize: bool) -> bool:
    """True when ``candidate`` cannot improve on ``incumbent``.

    Used by the elimination rule: a subproblem whose bound is not strictly
    better than the best known solution is pruned.  A ``None`` incumbent means
    nothing can be pruned yet.
    """
    if incumbent is None:
        return False
    return candidate >= incumbent if minimize else candidate <= incumbent


@dataclass(frozen=True, slots=True)
class BranchingDecision:
    """The branching choice at a node: which condition variable to split on."""

    variable: int


@dataclass(frozen=True, slots=True)
class Subproblem(Generic[StateT]):
    """A live subproblem: its tree code plus the reconstructed state.

    The code is the durable identity used by the fault-tolerance mechanism;
    the state is a cache of the replay so local expansion does not pay the
    reconstruction cost repeatedly.
    """

    code: PathCode
    state: StateT

    @property
    def depth(self) -> int:
        """Depth of the subproblem in the B&B tree."""
        return self.code.depth


class BranchAndBoundProblem(ABC, Generic[StateT]):
    """Contract implemented by every optimisation problem in the library.

    Subclasses provide the problem data (held by every participating process;
    in the paper the initial data is distributed by the gossip servers when a
    member joins) and the four problem-specific ingredients of B&B: the root
    state, the bound function, the feasibility test and the branching rule.
    """

    #: Optimisation sense.  ``True`` for minimisation problems.
    minimize: bool = True

    # ------------------------------------------------------------------ #
    # Problem-specific ingredients
    # ------------------------------------------------------------------ #
    @abstractmethod
    def root_state(self) -> StateT:
        """Return the state of the original (root) problem."""

    @abstractmethod
    def bound(self, state: StateT) -> float:
        """Optimistic bound on the best objective reachable in this subtree.

        For minimisation this is a lower bound; for maximisation an upper
        bound.  The bound of a feasible leaf must equal its objective value or
        be at least as optimistic.
        """

    @abstractmethod
    def feasible_value(self, state: StateT) -> Optional[float]:
        """Objective value of the feasible solution at this node, if any.

        Most interior nodes return ``None``; leaves of the search typically
        return a value (or ``None`` when the leaf is infeasible).
        """

    @abstractmethod
    def branching_decision(self, state: StateT) -> Optional[BranchingDecision]:
        """Choose the condition variable to branch on, or ``None`` at a leaf."""

    @abstractmethod
    def apply_branch(self, state: StateT, variable: int, value: int) -> Optional[StateT]:
        """Return the child state for ``<variable, value>`` or ``None`` if infeasible."""

    # ------------------------------------------------------------------ #
    # Optional cost model hook
    # ------------------------------------------------------------------ #
    def node_cost(self, state: StateT) -> float:
        """Computation time charged for bounding/expanding this node.

        The simulated workers use this to advance their local clock; the
        default (zero) is fine for correctness-only runs, and the tree-replay
        problems override it with the recorded per-node times.
        """
        return 0.0

    # ------------------------------------------------------------------ #
    # Derived helpers shared by all problems
    # ------------------------------------------------------------------ #
    def root_subproblem(self) -> Subproblem[StateT]:
        """The root subproblem (empty code, root state)."""
        return Subproblem(PathCode.root(), self.root_state())

    def rebuild_state(self, code: PathCode) -> Optional[StateT]:
        """Reconstruct a subproblem state by replaying its code from the root.

        Returns ``None`` when some decision along the path is infeasible — the
        corresponding subproblem then has no work left (it is a completed
        leaf by construction).  This is the operation that makes lost work
        recoverable from codes alone.
        """
        state: Optional[StateT] = self.root_state()
        for variable, value in code:
            assert state is not None
            state = self.apply_branch(state, variable, value)
            if state is None:
                return None
        return state

    def rebuild_subproblem(self, code: PathCode) -> Optional[Subproblem[StateT]]:
        """Rebuild the full :class:`Subproblem` for a code (or ``None``)."""
        state = self.rebuild_state(code)
        if state is None:
            return None
        return Subproblem(code, state)

    def is_improvement(self, candidate: float, incumbent: Optional[float]) -> bool:
        """True when ``candidate`` strictly improves on the incumbent."""
        if incumbent is None:
            return True
        return candidate < incumbent if self.minimize else candidate > incumbent

    def worst_value(self) -> float:
        """A sentinel value worse than every feasible objective."""
        return math.inf if self.minimize else -math.inf

    def describe(self) -> dict:
        """Human-readable summary used in logs and example output."""
        return {
            "problem": type(self).__name__,
            "sense": "min" if self.minimize else "max",
        }
