"""Chrome trace-event export — open any run in Perfetto or ``about://tracing``.

The paper inspected executions in Jumpshot; the modern equivalent is the
Chrome trace-event JSON format, which both ``chrome://tracing`` and
https://ui.perfetto.dev load directly.  :func:`chrome_trace_dict` turns the
records of a :class:`~repro.obs.trace.Tracer` into that format:

* every distinct process label becomes a trace *process* (one track), named
  with a ``process_name`` metadata event;
* spans become complete (``"ph": "X"``) events, instants become ``"ph": "i"``
  events; timestamps are converted from seconds to the format's microseconds;
* the run's metrics snapshot and provenance ride along under the top-level
  ``"repro"`` key, which trace viewers ignore but ``python -m repro inspect``
  reads back.

:func:`spans_from_chrome` reads the complete spans of a saved trace back as
records, so the worker-state Gantt (:mod:`repro.analysis.timeline`) works on
exported files too.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Iterator, List, Optional

from .trace import Tracer

__all__ = [
    "chrome_trace_dict",
    "write_chrome_trace",
    "load_chrome_trace",
    "spans_from_chrome",
    "category_span_counts",
]

#: Seconds → trace-event microseconds.
_US = 1e6


def chrome_trace_dict(
    tracer: Tracer,
    *,
    metrics: Optional[dict] = None,
    meta: Optional[dict] = None,
) -> Dict[str, Any]:
    """Build the Chrome trace-event document for one tracer's records."""
    processes = tracer.processes()
    pids = {process: pid for pid, process in enumerate(processes, start=1)}
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": process},
        }
        for process, pid in pids.items()
    ]
    for record in tracer.iter_records():
        event: Dict[str, Any] = {
            "name": record["name"],
            "cat": record["category"] or "misc",
            "pid": pids[record["process"]],
            "tid": 0,
            "ts": record["ts"] * _US,
            "args": record.get("args", {}),
        }
        if "dur" in record:
            event["ph"] = "X"
            event["dur"] = max(0.0, record["dur"]) * _US
        else:
            event["ph"] = "i"
            event["s"] = "t"
        events.append(event)
    document: Dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "repro": {"meta": dict(meta) if meta else {}},
    }
    if metrics is not None:
        document["repro"]["metrics"] = metrics
    return document


def write_chrome_trace(
    path: Any,
    tracer: Tracer,
    *,
    metrics: Optional[dict] = None,
    meta: Optional[dict] = None,
) -> Dict[str, Any]:
    """Write the trace-event JSON to ``path``; returns the document."""
    document = chrome_trace_dict(tracer, metrics=metrics, meta=meta)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh)
    return document


def load_chrome_trace(path: Any) -> Dict[str, Any]:
    """Load a trace-event JSON file (as written by :func:`write_chrome_trace`)."""
    with open(path, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError(f"{path}: not a Chrome trace-event JSON document")
    return document


def _process_names(events: Iterable[dict]) -> Dict[int, str]:
    names: Dict[int, str] = {}
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "process_name":
            names[event.get("pid", 0)] = event.get("args", {}).get("name", "?")
    return names


def spans_from_chrome(document: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    """The complete spans of a loaded trace, as :meth:`Tracer.iter_records`
    yields them (seconds, process names)."""
    events = document.get("traceEvents", [])
    names = _process_names(events)
    for event in events:
        if event.get("ph") == "X":
            pid = event.get("pid", 0)
            yield {
                "ts": event.get("ts", 0.0) / _US,
                "dur": event.get("dur", 0.0) / _US,
                "process": names.get(pid, f"pid-{pid}"),
                "category": event.get("cat", "misc"),
                "name": event.get("name", "?"),
            }


def category_span_counts(document: Dict[str, Any]) -> Dict[str, int]:
    """Complete-span ("X") event counts per category of a loaded trace."""
    counts: Dict[str, int] = {}
    for event in document.get("traceEvents", []):
        if event.get("ph") == "X":
            cat = event.get("cat", "misc")
            counts[cat] = counts.get(cat, 0) + 1
    return counts
