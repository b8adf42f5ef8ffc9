"""The Figures 5/6 timeline: worker-state spans, their Gantt and digests.

Figures 5 and 6 in the paper are Jumpshot screenshots: per-processor activity
bars over time, before and after injecting the crash of two of the three
processors.  A traced simulated run records the same information live: every
worker state (``working``, ``idle``, ``recovery`` …) is one ``worker``-category
span of the run's :class:`~repro.obs.Tracer`.  This module reads those spans
back (from the tracer or from a saved Chrome trace), draws them as an ASCII
Gantt — the Jumpshot substitute — and distils them into the facts the figures
convey: who was doing what when, when the crashes happened, and that the
surviving processor picked up the lost work and terminated.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Tuple

from ..distributed.stats import RunResult

__all__ = [
    "GLYPHS",
    "activity_summary",
    "ascii_gantt",
    "recovery_evidence",
    "worker_spans",
]

#: One worker state span: ``(worker, state, start, duration)``.
WorkerSpan = Tuple[str, str, float, float]

#: The Gantt glyph of every state a simulated worker records.
GLYPHS = {
    "working": "#",
    "idle": ".",
    "crashed": " ",
    "offline": "o",
    "terminated": "T",
}


def worker_spans(records: Iterable[Dict[str, Any]]) -> List[WorkerSpan]:
    """The ``worker`` spans among trace records, as
    :meth:`~repro.obs.Tracer.iter_records` or
    :func:`~repro.obs.chrome.spans_from_chrome` yield them."""
    return [
        (record["process"], record["name"], record["ts"], record["dur"])
        for record in records
        if record["category"] == "worker" and "dur" in record
    ]


def _by_worker(spans: Sequence[WorkerSpan]) -> Dict[str, List[WorkerSpan]]:
    rows: Dict[str, List[WorkerSpan]] = {}
    for span in spans:
        rows.setdefault(span[0], []).append(span)
    return dict(sorted(rows.items()))


def ascii_gantt(spans: Sequence[WorkerSpan], *, width: int = 80) -> str:
    """Coarse ASCII rendering of the timeline (one row per worker)."""
    end = max((start + duration for _, _, start, duration in spans), default=0.0)
    if end <= 0 or width < 10:
        return "(empty trace)"
    lines = []
    for worker, row in _by_worker(spans).items():
        cells = [" "] * width
        for _, state, start, duration in row:
            lo = int(start / end * (width - 1))
            hi = max(lo, int((start + duration) / end * (width - 1)))
            glyph = GLYPHS.get(state, "?")
            for col in range(lo, hi + 1):
                cells[col] = glyph
        lines.append(f"{worker:>12} |{''.join(cells)}|")
    legend = "  ".join(f"{glyph}={state}" for state, glyph in GLYPHS.items() if glyph.strip())
    lines.append(f"{'':>12}  t=0 {'-' * (width - 16)} t={end:.2f}s")
    lines.append(f"{'':>12}  {legend}")
    return "\n".join(lines)


def activity_summary(spans: Sequence[WorkerSpan]) -> List[Dict[str, object]]:
    """One row per worker: seconds spent in each state."""
    rows: List[Dict[str, object]] = []
    for worker, row in _by_worker(spans).items():
        durations: Dict[str, float] = {}
        for _, state, _, duration in row:
            durations[state] = durations.get(state, 0.0) + duration
        summary: Dict[str, object] = {"process": worker}
        for state in GLYPHS:
            summary[f"{state}_s"] = round(durations.get(state, 0.0), 3)
        rows.append(summary)
    return rows


def recovery_evidence(result: RunResult) -> Dict[str, object]:
    """The facts Figure 6 demonstrates, extracted from a failure run.

    Returns which workers crashed, which survived, whether a survivor
    performed recovery work (regenerated subproblems), whether termination was
    detected, and whether the final answer matches the workload's optimum.
    """
    survivors = [
        name for name, stats in result.workers.items() if not stats.crashed
    ]
    recovery_activations = sum(
        stats.recovery_activations for name, stats in result.workers.items() if name in survivors
    )
    detected = [
        name
        for name, stats in result.workers.items()
        if name in survivors and stats.terminated
    ]
    return {
        "crashed_workers": list(result.crashed_workers),
        "surviving_workers": survivors,
        "survivor_recovery_activations": recovery_activations,
        "survivors_terminated": sorted(detected),
        "all_survivors_terminated": result.all_terminated,
        "solved_correctly": result.solved_correctly,
        "makespan_s": round(result.makespan, 3),
    }
