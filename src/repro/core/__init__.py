"""Core contribution of the paper: tree-code fault tolerance for B&B.

This package implements the problem-specific fault-tolerance mechanism of
Iamnitchi & Foster (ICPP 2000):

* :mod:`repro.core.encoding` — the ``<variable, value>`` path encoding of
  subproblems (:class:`~repro.core.encoding.PathCode`);
* :mod:`repro.core.codeset` — the contracted table of completed codes and
  the sibling-merge / ancestor-subsumption contraction rules;
* :mod:`repro.core.arena` — the interned completion-trie arena every table,
  peer view and in-process payload stores its trie in;
* :mod:`repro.core.completion` — per-process completion tracking and the
  work-report emission policy;
* :mod:`repro.core.complement` — complement computation and recovery-candidate
  selection;
* :mod:`repro.core.recovery` — the starvation-triggered recovery policy and
  redundant-work accounting;
* :mod:`repro.core.termination` — almost-implicit termination detection via
  the root code;
* :mod:`repro.core.work_report` — the work-report / table-snapshot payloads
  and the message byte-size model.

The classes here are transport-agnostic: the simulated workers in
:mod:`repro.distributed` and the real ``multiprocessing`` workers in
:mod:`repro.realexec` both build on exactly these objects.
"""

from .arena import TrieArena
from .codeset import CodeSet, ContractionStats, contract, contract_reference, covers
from .complement import (
    SelectionStrategy,
    complement_frontier,
    minimal_complement,
    select_recovery_candidate,
)
from .completion import CompletionTracker, PeerGossipView
from .encoding import ROOT, Branch, PathCode, common_prefix_length
from .recovery import RecoveryDecision, RecoveryPolicy, RecoveryStats
from .termination import TerminationDetector, is_root_report, make_root_report
from .work_report import (
    BestSolution,
    CompletedTableSnapshot,
    DeltaSnapshot,
    WorkReport,
    compress_report_codes,
    table_digest,
)

__all__ = [
    "Branch",
    "PathCode",
    "ROOT",
    "common_prefix_length",
    "CodeSet",
    "ContractionStats",
    "TrieArena",
    "contract",
    "contract_reference",
    "covers",
    "SelectionStrategy",
    "complement_frontier",
    "minimal_complement",
    "select_recovery_candidate",
    "CompletionTracker",
    "PeerGossipView",
    "RecoveryPolicy",
    "RecoveryStats",
    "RecoveryDecision",
    "TerminationDetector",
    "is_root_report",
    "make_root_report",
    "BestSolution",
    "WorkReport",
    "CompletedTableSnapshot",
    "DeltaSnapshot",
    "compress_report_codes",
    "table_digest",
]
