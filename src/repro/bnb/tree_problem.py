"""Replaying a basic tree as a branch-and-bound problem.

The simulated workers do not solve knapsack instances node by
node — like the paper's Parsec simulator, they *replay* a precomputed basic
tree: the tree supplies the structure (who branches on what), the bound
values used for dynamic pruning, the feasible solutions and the per-node
execution times.  Pruning still happens at simulation time against the
*current, possibly stale* best-known solution of the executing worker, so the
set of nodes actually expanded depends on how quickly incumbent updates
propagate — exactly the effect the paper studies.

:class:`TreeReplayProblem` adapts a :class:`~repro.bnb.basic_tree.BasicTree`
to the :class:`~repro.bnb.problem.BranchAndBoundProblem` interface.  The
subproblem *state* is simply the node's :class:`~repro.core.encoding.PathCode`
— which makes state reconstruction from codes literally the identity and
keeps simulated work-transfer messages small.
"""

from __future__ import annotations

from typing import Optional

from ..core.encoding import PathCode
from .basic_tree import BasicTree
from .problem import BranchAndBoundProblem, BranchingDecision

__all__ = ["TreeReplayProblem"]


class TreeReplayProblem(BranchAndBoundProblem[PathCode]):
    """A :class:`BranchAndBoundProblem` that replays a recorded basic tree.

    Parameters
    ----------
    tree:
        The basic tree to replay.
    granularity:
        Multiplier applied to every recorded node time — the paper's
        granularity-tuning knob ("multiplying all time values by a constant
        factor").
    prune:
        When ``True`` (default) the recorded bound values are exposed so the
        elimination rule can prune against the best-known solution, exactly as
        the paper does for trees recorded from real problems.  When ``False``
        the bound is reported as infinitely optimistic, so every node of the
        tree is expanded — the paper's treatment of its *random* test trees
        ("we … tested them without eliminating the unpromising nodes").
    """

    def __init__(self, tree: BasicTree, *, granularity: float = 1.0, prune: bool = True) -> None:
        if granularity < 0:
            raise ValueError("granularity must be non-negative")
        self.tree = tree
        self.granularity = granularity
        self.prune = prune
        self.minimize = tree.minimize

    # ------------------------------------------------------------------ #
    # BranchAndBoundProblem interface
    # ------------------------------------------------------------------ #
    def root_state(self) -> PathCode:
        return PathCode.root()

    def bound(self, state: PathCode) -> float:
        if not self.prune:
            return float("-inf") if self.minimize else float("inf")
        return self.tree.node(state).bound

    def feasible_value(self, state: PathCode) -> Optional[float]:
        return self.tree.node(state).feasible_value

    def branching_decision(self, state: PathCode) -> Optional[BranchingDecision]:
        node = self.tree.node(state)
        if node.branch_variable is None:
            return None
        return BranchingDecision(node.branch_variable)

    def apply_branch(self, state: PathCode, variable: int, value: int) -> Optional[PathCode]:
        child = state.child(variable, value)
        # A child missing from the recorded tree means the branch was
        # infeasible when the tree was recorded.
        return child if child in self.tree else None

    def node_cost(self, state: PathCode) -> float:
        return self.tree.node(state).time * self.granularity

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def with_granularity(self, granularity: float) -> "TreeReplayProblem":
        """Return a new replay problem over the same tree at another granularity."""
        return TreeReplayProblem(self.tree, granularity=granularity, prune=self.prune)

    def optimal_value(self) -> Optional[float]:
        """The optimum recorded in the tree (reference for correctness checks)."""
        return self.tree.optimal_value()

    def describe(self) -> dict:
        info = super().describe()
        info.update(
            {
                "tree": self.tree.name,
                "nodes": len(self.tree),
                "mean_node_time": self.tree.mean_node_time() * self.granularity,
                "granularity": self.granularity,
            }
        )
        return info
