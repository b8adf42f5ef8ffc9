"""Structured tracing: cheap span/event recording with pluggable clocks.

The paper's evaluation is built on execution logs — MPE ``clog`` traces
rendered in Jumpshot (Figures 5 and 6) — and this module is the repro's
equivalent recording layer.  A :class:`Tracer` collects *spans* (named
intervals with a duration) and *instant events*, each attributed to a
process (a worker, the router, the engine) and a category (``worker``,
``gossip``, ``transport``, ``engine``, …).

Two design rules keep it safe to wire into hot paths:

* **Sim time is the clock.**  In the simulated backend every record carries
  an explicit timestamp the caller already has (``engine.now``); the tracer
  never consults a wall clock there.  Real-execution processes construct
  their tracer with ``clock=time.time`` so records from different OS
  processes align on one axis.
* **Disabled means one attribute check.**  Instrumented call sites hold
  either a real :class:`Tracer` or ``None`` and guard with
  ``if tracer is not None``; code that prefers an always-callable object can
  use the shared :data:`NULL_TRACER`, whose methods are empty.

Records are plain tuples in memory; export goes through
:meth:`Tracer.iter_records` (dicts), :meth:`Tracer.to_jsonl` (one JSON
object per line) or :mod:`repro.obs.chrome` (the Chrome trace-event JSON
that Perfetto / ``about://tracing`` load directly).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["Tracer", "NullTracer", "NULL_TRACER"]

#: In-memory record: ``(ts, dur, process, category, name, args)``.
#: ``dur`` is ``None`` for instant events; ``args`` is ``None`` or a dict.
TraceRecord = Tuple[float, Optional[float], str, str, str, Optional[dict]]


class NullTracer:
    """The do-nothing tracer: every recording method returns immediately.

    Shared through :data:`NULL_TRACER` so call sites that want an
    unconditional ``tracer.span(...)`` pay only the empty call when tracing
    is off; sites on the hottest paths should instead keep ``tracer=None``
    and guard with one attribute check.
    """

    enabled = False

    def span(self, *args: Any, **kwargs: Any) -> None:
        pass

    def event(self, *args: Any, **kwargs: Any) -> None:
        pass

    @contextmanager
    def timed(self, *args: Any, **kwargs: Any) -> Iterator[None]:
        yield


#: The shared no-op tracer instance.
NULL_TRACER = NullTracer()


class Tracer:
    """Collects spans and instant events with explicit or clocked timestamps."""

    enabled = True

    def __init__(
        self,
        *,
        process: str = "main",
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        #: Default process label for records that do not name one.
        self.default_process = process
        #: Optional clock (``time.time`` on real processes); when ``None``
        #: every record must carry an explicit timestamp (simulated time).
        self.clock = clock
        #: Subtracted from every timestamp at export, so wall-clock traces
        #: start near zero (simulated traces already do).
        self.time_origin = 0.0
        self._records: List[TraceRecord] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def now(self) -> float:
        """Current time from the configured clock (0.0 without one)."""
        return self.clock() if self.clock is not None else 0.0

    def span(
        self,
        name: str,
        ts: float,
        dur: float,
        *,
        process: Optional[str] = None,
        category: str = "",
        args: Optional[dict] = None,
    ) -> None:
        """Record a named interval starting at ``ts`` lasting ``dur``."""
        self._records.append(
            (ts, dur, process if process is not None else self.default_process,
             category, name, args)
        )

    def event(
        self,
        name: str,
        ts: Optional[float] = None,
        *,
        process: Optional[str] = None,
        category: str = "",
        args: Optional[dict] = None,
    ) -> None:
        """Record an instant event (``ts`` defaults to the clock)."""
        self._records.append(
            (ts if ts is not None else self.now(), None,
             process if process is not None else self.default_process,
             category, name, args)
        )

    @contextmanager
    def timed(
        self,
        name: str,
        *,
        process: Optional[str] = None,
        category: str = "",
        args: Optional[dict] = None,
    ) -> Iterator[None]:
        """Context manager recording a span measured with the clock."""
        start = self.now()
        try:
            yield
        finally:
            self.span(
                name, start, self.now() - start,
                process=process, category=category, args=args,
            )

    def merge_records(self, records: Iterable[Any]) -> None:
        """Absorb records from another tracer (tuples or exported dicts)."""
        for record in records:
            if isinstance(record, dict):
                self._records.append(
                    (
                        float(record["ts"]),
                        None if record.get("dur") is None else float(record["dur"]),
                        str(record.get("process", self.default_process)),
                        str(record.get("category", "")),
                        str(record.get("name", "?")),
                        record.get("args"),
                    )
                )
            else:
                self._records.append(tuple(record))  # type: ignore[arg-type]

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> List[TraceRecord]:
        """The raw record tuples (a copy)."""
        return list(self._records)

    def iter_records(self) -> Iterator[Dict[str, Any]]:
        """Records as plain dicts, timestamps shifted by ``time_origin``."""
        origin = self.time_origin
        for ts, dur, process, category, name, args in self._records:
            record: Dict[str, Any] = {
                "ts": ts - origin,
                "process": process,
                "category": category,
                "name": name,
            }
            if dur is not None:
                record["dur"] = dur
            if args:
                record["args"] = args
            yield record

    def processes(self) -> List[str]:
        """Every process label appearing in the records, sorted."""
        return sorted({record[2] for record in self._records})

    def to_jsonl(self) -> str:
        """One JSON object per record, one record per line."""
        return "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in self.iter_records()
        )

    def write_jsonl(self, path: Any) -> None:
        """Write the JSONL export to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())
