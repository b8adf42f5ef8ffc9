"""Experiment sweeps and table/figure builders for the paper's evaluation.

* :mod:`repro.analysis.figures` — one builder per paper artefact (Figure 3,
  Table 1, Figure 4, Figures 5/6) plus the granularity sweep, the
  fault-tolerance comparison against the baselines and the reporting /
  compression ablations;
* :mod:`repro.analysis.tables` — plain-text table rendering;
* :mod:`repro.analysis.timeline` — the Figures 5/6 timeline: worker-state
  spans, their ASCII Gantt and digests.
"""

from .figures import (
    compression_ablation,
    default_config,
    fault_tolerance_comparison,
    figure3_breakdown,
    figure3_tree,
    figure4_series,
    figure56_scenario,
    granularity_sweep,
    reporting_ablation,
    table1_rows,
    table1_tree,
    tiny_tree,
)
from .tables import format_kv, format_table, format_wire_table, wire_comparison_rows
from .timeline import activity_summary, ascii_gantt, recovery_evidence, worker_spans

__all__ = [
    "default_config",
    "figure3_tree",
    "table1_tree",
    "tiny_tree",
    "figure3_breakdown",
    "table1_rows",
    "figure4_series",
    "figure56_scenario",
    "granularity_sweep",
    "fault_tolerance_comparison",
    "reporting_ablation",
    "compression_ablation",
    "format_table",
    "format_kv",
    "format_wire_table",
    "wire_comparison_rows",
    "activity_summary",
    "ascii_gantt",
    "recovery_evidence",
    "worker_spans",
]
