"""Branch-and-bound substrate: problems, pools, solvers and basic trees.

This package implements everything the paper's algorithm needs *below* the
fault-tolerance mechanism:

* the abstract problem interface and the binary-branching model that the tree
  encoding assumes (:mod:`repro.bnb.problem`);
* a concrete optimisation problem used to record realistic search trees —
  0/1 knapsack (:mod:`repro.bnb.knapsack`);
* the active-problem pool with best-first / depth-first / breadth-first
  selection (:mod:`repro.bnb.pool`);
* the sequential B&B solver and the single-node expansion logic shared with
  the distributed workers (:mod:`repro.bnb.sequential`);
* *basic trees* — the recorded-tree format that drives the simulator — with a
  recorder, a calibrated random generator and the replay problem
  (:mod:`repro.bnb.basic_tree`, :mod:`repro.bnb.random_tree`,
  :mod:`repro.bnb.tree_problem`); and
* the per-node cost model and granularity scaling (:mod:`repro.bnb.cost_model`).
"""

from .basic_tree import BasicTree, BasicTreeNode, BasicTreeRecorder, record_basic_tree
from .cost_model import NodeTimeModel, assign_node_times, tree_time_summary
from .knapsack import KnapsackInstance, KnapsackProblem, random_knapsack
from .pool import SelectionRule, SubproblemPool
from .problem import BranchAndBoundProblem, BranchingDecision, Subproblem, worse_than
from .random_tree import RandomTreeSpec, generate_random_tree, paper_workload
from .sequential import ExpansionOutcome, NodeExpander, SequentialSolver, SolveResult
from .tree_problem import TreeReplayProblem

__all__ = [
    "BranchAndBoundProblem",
    "BranchingDecision",
    "Subproblem",
    "worse_than",
    "SelectionRule",
    "SubproblemPool",
    "ExpansionOutcome",
    "NodeExpander",
    "SequentialSolver",
    "SolveResult",
    "BasicTree",
    "BasicTreeNode",
    "BasicTreeRecorder",
    "record_basic_tree",
    "RandomTreeSpec",
    "generate_random_tree",
    "paper_workload",
    "TreeReplayProblem",
    "NodeTimeModel",
    "assign_node_times",
    "tree_time_summary",
    "KnapsackInstance",
    "KnapsackProblem",
    "random_knapsack",
]
