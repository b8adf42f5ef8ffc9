"""The labeled metrics registry — one home for every counter in a run.

Before this module, each layer kept its own ad-hoc counters:
``RunResult.engine_counters``, the network's
:class:`~repro.simulation.network.TrafficStats`, the per-worker
:class:`~repro.distributed.stats.WorkerRunStats`, the realexec router's
per-link byte maps.  A :class:`MetricsRegistry` gives them one shared shape:
**counters**, **gauges** and **histograms**, each keyed by a metric name plus
sorted labels (the conventional ``worker`` / ``kind`` labels of this
codebase), with

* :meth:`MetricsRegistry.snapshot` — a plain nested dict (JSON/pickle
  friendly, used to ship per-process registries across the wire);
* :meth:`MetricsRegistry.to_prometheus` — Prometheus text exposition, printed
  by ``python -m repro run ... --metrics`` for realexec runs;
* :meth:`MetricsRegistry.merge_snapshot` — cross-process aggregation
  (counters add, gauges keep the latest value and the peak, histograms sum).

:class:`RssSampler` is the periodic-gauge helper the full-scale benchmark
ladder uses to report *peak-over-time* resident set size instead of a single
end-of-run reading.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "RssSampler"]

#: Default histogram bucket upper bounds (seconds-ish scale; override per
#: metric for byte-sized observations).
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_key(name: str, labels: LabelItems) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value that also remembers its peak."""

    __slots__ = ("value", "peak")

    def __init__(self) -> None:
        self.value: Optional[float] = None
        self.peak: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value
        if self.peak is None or value > self.peak:
            self.peak = value


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)  # +inf bucket
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-resolution quantile estimate (the bucket's upper bound).

        Prometheus-style: the smallest bucket bound whose cumulative count
        covers ``q`` of the observations, ``inf`` when the quantile falls in
        the overflow bucket, ``None`` when nothing was observed.  Good
        enough for threshold assertions ("p99 below 100ms"), not for
        sub-bucket precision.
        """
        if self.count == 0:
            return None
        target = q * self.count
        cumulative = 0
        for bound, count in zip(self.bounds, self.counts):
            cumulative += count
            if cumulative >= target:
                return bound
        return float("inf")


class MetricsRegistry:
    """Get-or-create registry of labeled counters, gauges and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelItems], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelItems], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelItems], Histogram] = {}

    # ------------------------------------------------------------------ #
    # Instruments
    # ------------------------------------------------------------------ #
    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(
        self, name: str, *, buckets: Optional[Sequence[float]] = None, **labels: Any
    ) -> Histogram:
        key = (name, _label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(
                buckets if buckets is not None else DEFAULT_BUCKETS
            )
        return instrument

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def total(self, name: str) -> float:
        """Sum of the counters named ``name`` over every label set."""
        return sum(c.value for (n, _), c in self._counters.items() if n == name)

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view: ``name{label=value,...}`` keys, scalar values."""
        return {
            "counters": {
                _render_key(name, labels): instrument.value
                for (name, labels), instrument in sorted(self._counters.items())
            },
            "gauges": {
                _render_key(name, labels): {
                    "value": instrument.value,
                    "peak": instrument.peak,
                }
                for (name, labels), instrument in sorted(self._gauges.items())
            },
            "histograms": {
                _render_key(name, labels): {
                    "bounds": list(instrument.bounds),
                    "counts": list(instrument.counts),
                    "sum": instrument.sum,
                    "count": instrument.count,
                }
                for (name, labels), instrument in sorted(self._histograms.items())
            },
        }

    def to_prometheus(self) -> str:
        """Prometheus text exposition of every instrument."""
        lines: List[str] = []
        seen_types: set = set()

        def type_line(name: str, kind: str) -> None:
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {name} {kind}")

        for (name, labels), counter in sorted(self._counters.items()):
            type_line(name, "counter")
            lines.append(f"{_render_key(name, labels)} {counter.value:g}")
        for (name, labels), gauge in sorted(self._gauges.items()):
            type_line(name, "gauge")
            value = gauge.value if gauge.value is not None else 0
            lines.append(f"{_render_key(name, labels)} {value:g}")
        for (name, labels), hist in sorted(self._histograms.items()):
            type_line(name, "histogram")
            cumulative = 0
            for bound, count in zip(hist.bounds, hist.counts):
                cumulative += count
                key = _render_key(name + "_bucket", labels + (("le", f"{bound:g}"),))
                lines.append(f"{key} {cumulative}")
            cumulative += hist.counts[-1]
            key = _render_key(name + "_bucket", labels + (("le", "+Inf"),))
            lines.append(f"{key} {cumulative}")
            lines.append(f"{_render_key(name + '_sum', labels)} {hist.sum:g}")
            lines.append(f"{_render_key(name + '_count', labels)} {hist.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    @staticmethod
    def _parse_key(key: str) -> Tuple[str, Dict[str, str]]:
        if "{" not in key:
            return key, {}
        name, _, rest = key.partition("{")
        labels: Dict[str, str] = {}
        for item in rest.rstrip("}").split(","):
            if item:
                label, _, value = item.partition("=")
                labels[label] = value
        return name, labels

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold another registry's snapshot into this one.

        Counters add; gauges take the other side's last value but keep the
        maximum peak; histograms add bucket-for-bucket (bucket bounds must
        match — they come from the same metric definitions).
        """
        for key, value in snapshot.get("counters", {}).items():
            name, labels = self._parse_key(key)
            self.counter(name, **labels).inc(value)
        for key, state in snapshot.get("gauges", {}).items():
            name, labels = self._parse_key(key)
            gauge = self.gauge(name, **labels)
            if state.get("value") is not None:
                gauge.set(state["value"])
            peak = state.get("peak")
            if peak is not None and (gauge.peak is None or peak > gauge.peak):
                gauge.peak = peak
        for key, state in snapshot.get("histograms", {}).items():
            name, labels = self._parse_key(key)
            hist = self.histogram(name, buckets=state["bounds"], **labels)
            if tuple(state["bounds"]) != hist.bounds:
                raise ValueError(f"histogram bucket mismatch for {key}")
            for index, count in enumerate(state["counts"]):
                hist.counts[index] += count
            hist.sum += state["sum"]
            hist.count += state["count"]

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (via its snapshot)."""
        self.merge_snapshot(other.snapshot())

    @classmethod
    def from_snapshot(cls, snapshot: Dict[str, Any]) -> "MetricsRegistry":
        registry = cls()
        registry.merge_snapshot(snapshot)
        return registry


def _read_rss_mb() -> Optional[float]:
    """Current resident set size in MB (Linux ``/proc``; None elsewhere)."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 1e6
    except (OSError, ValueError, IndexError):  # pragma: no cover - non-Linux
        return None


class RssSampler:
    """Background thread sampling process RSS into a registry gauge.

    ``gauge.peak`` is then the *peak-over-time* resident set size — what the
    full-scale completion ladder reports, instead of trusting a single
    end-of-run ``ru_maxrss`` reading.  On platforms without ``/proc`` the
    sampler records nothing and :attr:`samples` stays 0 (callers fall back
    to ``ru_maxrss``).
    """

    def __init__(self, gauge: Gauge, *, interval: float = 0.05) -> None:
        self.gauge = gauge
        self.interval = interval
        self.samples = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _run(self) -> None:
        while not self._stop.is_set():
            rss = _read_rss_mb()
            if rss is not None:
                self.gauge.set(rss)
                self.samples += 1
            self._stop.wait(self.interval)

    def start(self) -> "RssSampler":
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="rss-sampler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        # One final reading so even a very short run records something.
        rss = _read_rss_mb()
        if rss is not None:
            self.gauge.set(rss)
            self.samples += 1

    @property
    def peak_mb(self) -> Optional[float]:
        """Peak sampled RSS in MB (None when sampling was unavailable)."""
        return self.gauge.peak

    def __enter__(self) -> "RssSampler":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
