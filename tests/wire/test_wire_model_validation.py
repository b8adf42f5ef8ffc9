"""Validation of the analytic ``wire_size()`` model against real encodings.

The simulator's latency and traffic accounting charge every payload its
analytic ``wire_size()``; the ``realexec`` backend ships the same payloads
through the :mod:`repro.wire` codec.  These tests pin the documented
relationship between the two (see ``docs/WIRE_FORMAT.md``, "Relation to the
analytic byte model"):

1. **Upper bound** — for every B&B protocol message whose sender/origin
   names are at most 21 UTF-8 bytes and whose variable indices are below
   2**13, the framed encoding is never larger than the analytic model:
   ``encoded_size(msg) <= msg.wire_size()``.  The model is conservative, so
   simulated latencies and traffic totals over-charge, never under-charge.
2. **Tracking bound** — for *prefix-sparse* payloads (random codes, little
   front-coding reuse) the model is within a constant factor of reality:
   ``msg.wire_size() <= 4 * encoded_size(msg) + 64``.
3. **Front-coding dividend** — for sibling-dense tables (the paper's
   contracted completed tables) the real encoding beats the model by a wide
   margin; the model stays an upper bound but is *not* tight there, which is
   the conservative direction.
4. **Pickle floor** — the codec ships the two payloads that dominate
   protocol traffic (work reports, table deltas of a contracted table) in
   at most half the bytes pickle would.
"""

import pickle
import random

import pytest

from repro import wire
from repro.core.codeset import CodeSet
from repro.core.encoding import ROOT, PathCode
from repro.core.work_report import BestSolution, DeltaSnapshot, WorkReport, table_digest
from repro.distributed.messages import (
    DeltaGossipMsg,
    WorkDenied,
    WorkGrant,
    WorkReportMsg,
    WorkRequest,
)
from repro.distributed.runner import worker_names
from repro.wire import codec

#: Documented limits under which the upper bound holds.
MAX_NAME_BYTES = 21
MAX_VARIABLE = 2**13
#: Documented tracking-bound constants for prefix-sparse payloads.
TRACK_FACTOR = 4
TRACK_SLACK = 64
#: Every work request and denial a run can send: sequence numbers below
#: 2**21 (a 3-byte varint), hop counts up to the walk limit at 10,000
#: workers, and the shortest and longest canonical names of simulated
#: (``worker-…``) and real (``rworker-…``) workers up to 10,000 workers.
REQUEST_SEQS = (0, 1, 127, 128, 2**14 - 1, 2**14, 2**21 - 1)
REQUEST_HOPS = range((10_000).bit_length() + 1)
REQUEST_NAMES = (
    "w",
    worker_names(2)[0],
    worker_names(10_000)[0],
    worker_names(10_000)[-1],
    "rworker-00",
    "rworker-9999",
)
#: The codec's frames must be at least this much smaller than pickle's for
#: the report and table-delta payloads.
MIN_PICKLE_RATIO = 2.0


def rand_code(rng, max_depth=50):
    depth = rng.randrange(0, max_depth)
    return PathCode(tuple((rng.randrange(MAX_VARIABLE), rng.randrange(2)) for _ in range(depth)))


def sample_messages(seed):
    rng = random.Random(seed)
    best = BestSolution(value=rng.uniform(-1e6, 1e6), origin=f"w{rng.randrange(100):02d}")
    report = WorkReport(
        sender=f"worker-{rng.randrange(100):02d}",
        codes=frozenset(rand_code(rng) for _ in range(rng.randrange(0, 50))),
        best=best,
        sequence=rng.randrange(1000),
    )
    codes = frozenset(rand_code(rng) for _ in range(rng.randrange(0, 150)))
    delta = DeltaSnapshot(
        sender=f"w{rng.randrange(100)}",
        codes=codes,
        full_digest=table_digest(codes),
        sequence=rng.randrange(1000),
        best=best,
    )
    return [
        report,
        delta,
        WorkReportMsg(report),
        DeltaGossipMsg(delta),
        WorkGrant(donor="worker-01", codes=tuple(rand_code(rng) for _ in range(5)), best=best),
        WorkReport(sender="w", codes=frozenset()),  # empty report
        WorkReport(sender="w", codes=frozenset([ROOT])),  # termination report
    ]


class TestModelUpperBound:
    @pytest.mark.parametrize("seed", range(10))
    def test_encoded_never_exceeds_model(self, seed):
        for msg in sample_messages(seed):
            assert wire.encoded_size(msg) <= msg.wire_size(), msg

    def test_path_code_body_within_model(self):
        # Bare codes are compared at body level (the analytic model has no
        # per-message frame concept for a lone code).
        rng = random.Random(5)
        codes = [ROOT] + [rand_code(rng, max_depth=120) for _ in range(200)]
        for code in codes:
            body = bytearray()
            codec.write_path_code(body, code)
            assert len(body) <= code.wire_size()


class TestRequestBounds:
    @pytest.mark.parametrize("seq", REQUEST_SEQS)
    @pytest.mark.parametrize("name", REQUEST_NAMES)
    def test_request_and_denial_within_both_bounds(self, name, seq):
        for best in (BestSolution(), BestSolution(value=-1e6, origin=name)):
            messages = [WorkDenied(name, seq, exhausted, best) for exhausted in (False, True)]
            messages += [WorkRequest(name, seq, hops, best) for hops in REQUEST_HOPS]
            for msg in messages:
                encoded = wire.encoded_size(msg)
                assert encoded <= msg.wire_size() <= TRACK_FACTOR * encoded + TRACK_SLACK, msg


class TestModelTrackingBound:
    @pytest.mark.parametrize("seed", range(10))
    def test_model_within_constant_factor_for_prefix_sparse(self, seed):
        for msg in sample_messages(seed):
            encoded = wire.encoded_size(msg)
            assert msg.wire_size() <= TRACK_FACTOR * encoded + TRACK_SLACK, msg


class TestFrontCodingDividend:
    def test_sibling_dense_delta_beats_model(self):
        # A contracted frontier of a perfect depth-8 subtree: 256 sibling
        # codes that differ only in their last keys.  Front-coding collapses
        # the shared prefixes; the analytic model (3 bytes per decision)
        # over-charges by at least 3x.
        depth = 8
        codes = [
            PathCode(tuple((level, (index >> level) & 1) for level in range(depth)))
            for index in range(2**depth)
        ]
        delta = DeltaSnapshot(sender="w0", codes=frozenset(codes))
        encoded = wire.encoded_size(delta)
        assert encoded * 3 <= delta.wire_size()

    def test_contracted_table_round_trips_through_a_delta(self):
        # End-to-end: a real contracted table, shipped as a first-contact
        # delta, encoded, decoded, rebuilt — the rebuilt table must cover
        # exactly the same codes.
        rng = random.Random(12)
        table = CodeSet()
        frontier = [ROOT]
        for _ in range(300):
            node = frontier.pop(rng.randrange(len(frontier)))
            if node.depth < 12 and rng.random() < 0.7:
                frontier.append(node.child(node.depth, 0))
                frontier.append(node.child(node.depth, 1))
            else:
                table.add(node)
            if not frontier:
                break
        delta = DeltaSnapshot(sender="w", codes=table.codes())
        decoded = wire.decode(wire.encode(delta))
        rebuilt = CodeSet(decoded.codes)
        assert rebuilt.codes() == table.codes()


class TestPickleFloor:
    @staticmethod
    def _codes(n, max_depth, seed, min_depth=4):
        rng = random.Random(seed)
        codes = []
        for _ in range(n):
            depth = rng.randint(min_depth, max_depth)
            codes.append(
                PathCode(tuple((level * 3 % 701, rng.randint(0, 1)) for level in range(depth)))
            )
        return codes

    def test_wire_byte_ratios(self):
        # A work report like a busy worker emits (~60 compressed mixed-depth
        # codes) and a first-contact table delta (1,500 random codes pushed
        # through CodeSet, leaving the sibling-dense frontiers table gossip
        # actually ships).
        report = WorkReport(
            sender="rworker-03",
            codes=frozenset(self._codes(60, 28, seed=17)),
            best=BestSolution(value=1234.5, origin="rworker-03"),
            sequence=41,
        )
        table = CodeSet()
        for code in self._codes(1500, 20, seed=23, min_depth=8):
            table.add(code)
        delta = DeltaSnapshot(
            sender="rworker-07",
            codes=table.codes(),
            full_digest=table.structural_digest(),
            best=BestSolution(value=-99.25, origin="rworker-01"),
        )
        for payload in (report, delta):
            encoded = wire.encoded_size(payload)
            pickled = len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
            assert pickled >= MIN_PICKLE_RATIO * encoded, (
                f"{type(payload).__name__}: pickle {pickled}B vs codec {encoded}B "
                f"is below the {MIN_PICKLE_RATIO}x reduction floor"
            )
            assert encoded <= payload.wire_size()


class TestAnalysisWireColumns:
    def test_wire_comparison_rows_columns_and_ratios(self):
        from repro.analysis.tables import WIRE_COLUMNS, format_wire_table, wire_comparison_rows

        msgs = sample_messages(3)[:4]
        rows = wire_comparison_rows(msgs)
        assert len(rows) == 4
        for row in rows:
            assert set(WIRE_COLUMNS) <= set(row.keys())
            assert row["encoded_bytes"] <= row["model_bytes"]
            # Pickle hauls class metadata and per-object overhead; the codec
            # must beat it on every protocol payload.
            assert row["pickle_over_encoded"] > 1.0
        rows = wire_comparison_rows(msgs[:1], labels=["my-report"])
        assert rows[0]["payload"] == "my-report"
        text = format_wire_table(msgs)
        assert "encoded_bytes" in text and "pickle_bytes" in text

    def test_message_kind_labels(self):
        from repro.analysis.tables import wire_comparison_rows

        rows = wire_comparison_rows(
            [WorkReportMsg(WorkReport(sender="w", codes=frozenset()))]
        )
        assert rows[0]["payload"] == "work_report"
