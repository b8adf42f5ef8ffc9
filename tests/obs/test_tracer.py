"""Unit tests for the structured tracer and the Chrome trace exporter."""

import json

import pytest

from repro.analysis.timeline import worker_spans
from repro.obs import NULL_TRACER, NullTracer, Tracer
from repro.obs.chrome import (
    category_span_counts,
    chrome_trace_dict,
    load_chrome_trace,
    spans_from_chrome,
    write_chrome_trace,
)


class TestTracer:
    def test_span_and_event_recording(self):
        tracer = Tracer(process="engine")
        tracer.span("step", 1.0, 0.5, category="engine", args={"n": 3})
        tracer.event("crash", ts=2.0, process="w0", category="engine")
        assert len(tracer) == 2
        records = list(tracer.iter_records())
        assert records[0] == {
            "ts": 1.0, "dur": 0.5, "process": "engine",
            "category": "engine", "name": "step", "args": {"n": 3},
        }
        # Instant events omit "dur" entirely.
        assert "dur" not in records[1]
        assert records[1]["process"] == "w0"

    def test_default_process_and_processes_listing(self):
        tracer = Tracer(process="router")
        tracer.span("fwd", 0.0, 0.1)
        tracer.span("fwd", 0.1, 0.1, process="other")
        assert tracer.processes() == ["other", "router"]

    def test_clock_and_timed_context(self):
        ticks = iter([10.0, 10.5])
        tracer = Tracer(process="p", clock=lambda: next(ticks))
        with tracer.timed("work", category="worker"):
            pass
        ((ts, dur, _, category, name, _),) = tracer.records()
        assert (ts, dur, category, name) == (10.0, 0.5, "worker", "work")

    def test_time_origin_shifts_export_only(self):
        tracer = Tracer(process="p")
        tracer.span("s", 100.0, 1.0)
        tracer.time_origin = 99.0
        assert tracer.records()[0][0] == 100.0  # raw record untouched
        assert next(tracer.iter_records())["ts"] == pytest.approx(1.0)

    def test_merge_records_accepts_dicts_and_tuples(self):
        source = Tracer(process="w0")
        source.span("run", 0.0, 2.0, category="worker")
        merged = Tracer(process="driver")
        merged.merge_records(source.iter_records())  # dict form
        merged.merge_records(source.records())  # tuple form
        assert len(merged) == 2
        assert all(record[2] == "w0" for record in merged.records())

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer(process="p")
        tracer.span("a", 0.0, 1.0, category="c", args={"k": "v"})
        tracer.event("b", ts=0.5)
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["name"] == "a"

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)
        NULL_TRACER.span("x", 0.0, 1.0)
        NULL_TRACER.event("y")
        with NULL_TRACER.timed("z"):
            pass  # nothing recorded, nothing raised


class TestChromeExport:
    def _tracer(self):
        tracer = Tracer(process="engine")
        tracer.span("run", 0.0, 2.0, category="engine")
        tracer.span("working", 0.0, 1.5, process="w0", category="worker")
        tracer.event("crash", ts=1.0, process="w0", category="engine")
        return tracer

    def test_document_shape(self):
        doc = chrome_trace_dict(self._tracer(), meta={"backend": "simulated"})
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert {m["args"]["name"] for m in metadata} == {"engine", "w0"}
        assert len(spans) == 2 and len(instants) == 1
        # Chrome timestamps are microseconds.
        run = next(e for e in spans if e["name"] == "run")
        assert run["dur"] == pytest.approx(2_000_000.0)
        assert doc["repro"]["meta"]["backend"] == "simulated"

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(path, self._tracer())
        doc = load_chrome_trace(path)
        assert category_span_counts(doc) == {"engine": 1, "worker": 1}

    def test_load_rejects_non_trace_json(self, tmp_path):
        path = tmp_path / "not_a_trace.json"
        path.write_text(json.dumps({"foo": 1}))
        with pytest.raises(ValueError):
            load_chrome_trace(path)

    def test_worker_spans_round_trip(self):
        tracer = Tracer(process="engine")
        tracer.span("working", 0.0, 2.0, process="w0", category="worker")
        tracer.span("idle", 2.0, 1.0, process="w0", category="worker")
        tracer.span("working", 0.5, 2.5, process="w1", category="worker")
        tracer.span("run", 0.0, 3.0, category="engine")
        tracer.event("crash", ts=1.0, process="w1", category="engine")
        spans = worker_spans(tracer.iter_records())
        assert spans == [
            ("w0", "working", 0.0, 2.0),
            ("w0", "idle", 2.0, 1.0),
            ("w1", "working", 0.5, 2.5),
        ]
        assert worker_spans(spans_from_chrome(chrome_trace_dict(tracer))) == spans
