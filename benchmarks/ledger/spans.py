"""Span log, self-time arithmetic and histogram quantiles for the ledger.

The traced pass records one span per call into a wrapped public callable:
name, start, end and the span that was open when it started (its parent).
Spans live in parallel arrays — a traced ``sim-table1-100w`` rep records
about a million of them — and are only turned into
:class:`repro.obs.Tracer` records when the Chrome trace is written.

A span's *self time* is its duration minus the part its child spans cover.
Everything here runs on one thread (the simulator is single-threaded and only
driver-side realexec calls are wrapped), so children never overlap and the
covered part is simply the sum of the child durations.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

__all__ = ["SpanLog", "self_times", "layer_self_seconds", "histogram_quantile"]

#: Chrome traces are capped at this many spans (a time-ordered prefix, so
#: nesting stays valid); the per-layer numbers always use every span.
CHROME_SPAN_LIMIT = 200_000


def self_times(parents: Sequence[int], durations: Sequence[float]) -> List[float]:
    """Per-span self time: duration minus the durations of direct children.

    ``parents[i]`` is the index of span *i*'s parent, ``-1`` for a root.
    """
    own = list(durations)
    for index, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= durations[index]
    return own


def histogram_quantile(bounds: Sequence[float], counts: Sequence[int], q: float) -> float:
    """Quantile ``q`` (0–1) of a bucketed histogram, interpolated in-bucket.

    ``counts`` has one entry per bound plus the overflow bucket, as in
    :class:`repro.obs.metrics.Histogram`.  Observations in the overflow
    bucket are reported at the last bound (there is nothing to interpolate
    towards).  Returns 0.0 for an empty histogram.
    """
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    cumulative = 0
    lower = 0.0
    for bound, count in zip(bounds, counts):
        if count and cumulative + count >= target:
            return lower + (bound - lower) * (target - cumulative) / count
        cumulative += count
        lower = bound
    return float(bounds[-1])


def layer_self_seconds(totals: Dict[Tuple[str, str], Tuple[int, float, float]]) -> Dict[str, float]:
    """Self time summed per layer, from :meth:`SpanLog.totals`."""
    layers: Dict[str, float] = {}
    for (layer, _), (_, _, own) in totals.items():
        layers[layer] = layers.get(layer, 0.0) + own
    return layers


class SpanLog:
    """Append-only in-memory span store with parent ids."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: ``(layer, name)`` per name id.
        self.names: List[Tuple[str, str]] = []
        self._name_ids: Dict[Tuple[str, str], int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def intern(self, layer: str, name: str) -> int:
        """Name id of ``(layer, name)`` (created on first use)."""
        key = (layer, name)
        nid = self._name_ids.get(key)
        if nid is None:
            nid = self._name_ids[key] = len(self.names)
            self.names.append(key)
        return nid

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def open(self, nid: int) -> int:
        """Start a span; returns its index for :meth:`close`."""
        stack = self._stack
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        """End the span opened as ``index`` (must be the innermost one)."""
        self.end[index] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[None]:
        """Record the enclosed block as one span."""
        index = self.open(self.intern(layer, name))
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """A callable that runs ``fn`` inside a ``(layer, name)`` span."""
        nid = self.intern(layer, name)
        open_span, close_span = self.open, self.close

        def traced(*args, **kwargs):
            index = open_span(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(index)

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def totals(self) -> Dict[Tuple[str, str], Tuple[int, float, float]]:
        """``(layer, name) -> (calls, total duration, total self time)``."""
        durations = [end - start for start, end in zip(self.start, self.end)]
        own = self_times(self.parent, durations)
        out: Dict[Tuple[str, str], List[float]] = {}
        for nid, duration, self_time in zip(self.name_id, durations, own):
            row = out.setdefault(self.names[nid], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += self_time
        return {key: (int(row[0]), row[1], row[2]) for key, row in out.items()}

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def write_chrome_trace(self, path, *, meta: dict) -> int:
        """Write the spans as a Chrome trace; returns how many were written.

        One track per layer; every span carries its ``id`` and ``parent`` so
        self times can be recomputed from the file.
        """
        from repro.obs import Tracer, chrome_trace_dict

        count = min(len(self), CHROME_SPAN_LIMIT)
        origin = self.start[0] if count else 0.0
        tracer = Tracer(process="ledger")
        for index in range(count):
            layer, name = self.names[self.name_id[index]]
            tracer.span(
                name,
                self.start[index] - origin,
                self.end[index] - self.start[index],
                process=layer,
                category=layer,
                args={"id": index, "parent": self.parent[index]},
            )
        meta = dict(meta, spans_recorded=len(self), spans_written=count)
        # dumps, not dump: only the former uses the C encoder, and a trace
        # holds up to CHROME_SPAN_LIMIT events.
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(chrome_trace_dict(tracer, meta=meta)))
        return count
