"""Unit tests for the unified labeled metrics registry."""

import pytest

from repro.obs import MetricsRegistry, RssSampler
from repro.obs.metrics import _read_rss_mb


class TestCountersAndGauges:
    def test_counter_get_or_create_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("msgs", worker="w0")
        b = registry.counter("msgs", worker="w0")
        c = registry.counter("msgs", worker="w1")
        assert a is b and a is not c
        a.inc()
        a.inc(4)
        assert a.value == 5 and c.value == 0

    def test_total_sums_one_counter_over_label_sets(self):
        registry = MetricsRegistry()
        registry.counter("pulls", worker="w0").inc(2)
        registry.counter("pulls", worker="w1").inc(3)
        registry.counter("pulls").inc()
        registry.counter("answers", worker="w0").inc(7)
        assert registry.total("pulls") == 6
        assert registry.total("missing") == 0

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        a = registry.counter("m", worker="w0", kind="g")
        b = registry.counter("m", kind="g", worker="w0")
        assert a is b
        assert len(registry) == 1

    def test_gauge_tracks_peak(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("heap")
        gauge.set(5.0)
        gauge.set(9.0)
        gauge.set(3.0)
        assert gauge.value == 3.0
        assert gauge.peak == 9.0

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(6.05)
        assert list(hist.counts) == [1, 2, 1]  # <=0.1, <=1.0, +inf


class TestSnapshotAndMerge:
    def test_snapshot_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("msgs", worker="w0").inc(3)
        registry.gauge("heap").set(7.0)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        rebuilt = MetricsRegistry.from_snapshot(registry.snapshot())
        assert rebuilt.snapshot() == registry.snapshot()

    def test_merge_adds_counters_and_maxes_peaks(self):
        a = MetricsRegistry()
        a.counter("msgs").inc(2)
        a.gauge("heap").set(10.0)
        b = MetricsRegistry()
        b.counter("msgs").inc(3)
        b.gauge("heap").set(4.0)
        a.merge(b)
        assert a.counter("msgs").value == 5
        gauge = a.gauge("heap")
        assert gauge.value == 4.0  # last value wins
        assert gauge.peak == 10.0  # peak is the max across both

    def test_merge_histograms_bucketwise(self):
        a = MetricsRegistry()
        a.histogram("lat", buckets=(1.0,)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("lat", buckets=(1.0,)).observe(2.0)
        a.merge(b)
        hist = a.histogram("lat", buckets=(1.0,))
        assert hist.count == 2 and list(hist.counts) == [1, 1]

    def test_merge_rejects_bucket_mismatch(self):
        a = MetricsRegistry()
        a.histogram("lat", buckets=(1.0,)).observe(0.5)
        snapshot = a.snapshot()
        other = MetricsRegistry()
        other.histogram("lat", buckets=(2.0,))
        with pytest.raises(ValueError):
            other.merge_snapshot(snapshot)


class TestPrometheusText:
    def test_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("msgs_total", worker="w0").inc(2)
        registry.gauge("heap_len").set(11.0)
        text = registry.to_prometheus()
        assert "# TYPE msgs_total counter" in text
        assert "msgs_total{worker=w0} 2" in text
        assert "# TYPE heap_len gauge" in text
        assert "heap_len 11" in text


class TestRssSampler:
    def test_samples_into_gauge(self):
        if _read_rss_mb() is None:
            pytest.skip("no /proc on this platform")
        registry = MetricsRegistry()
        gauge = registry.gauge("process_rss_mb")
        with RssSampler(gauge, interval=0.01) as sampler:
            _ = [bytearray(1024) for _ in range(100)]
        assert sampler.samples >= 1
        assert sampler.peak_mb is not None and sampler.peak_mb > 0
        assert gauge.peak == sampler.peak_mb


class TestHistogramQuantile:
    def test_quantile_picks_covering_bucket_bound(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.001, 0.01, 0.1))
        for _ in range(99):
            hist.observe(0.0005)
        hist.observe(0.05)
        assert hist.quantile(0.5) == 0.001
        assert hist.quantile(0.99) == 0.001
        assert hist.quantile(1.0) == 0.1

    def test_quantile_overflow_and_empty(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.001,))
        assert hist.quantile(0.99) is None
        hist.observe(5.0)
        assert hist.quantile(0.99) == float("inf")


class TestForwardLatencyFamilyRoundTrip:
    """The realexec router's latency histograms survive snapshot/merge."""

    def test_snapshot_merge_round_trip(self):
        from repro.realexec.transport import FORWARD_LATENCY_BUCKETS

        source = MetricsRegistry()
        hist = source.histogram(
            "router_forward_latency_seconds",
            buckets=FORWARD_LATENCY_BUCKETS,
            link="a->b",
        )
        for value in (0.00002, 0.0002, 0.002):
            hist.observe(value)
        merged = MetricsRegistry.from_snapshot(source.snapshot())
        merged.merge_snapshot(source.snapshot())  # once more: buckets add
        out = merged.histogram(
            "router_forward_latency_seconds",
            buckets=FORWARD_LATENCY_BUCKETS,
            link="a->b",
        )
        assert out.count == 6
        assert out.sum == pytest.approx(2 * (0.00002 + 0.0002 + 0.002))
        assert out.bounds == tuple(FORWARD_LATENCY_BUCKETS)
        key = "router_forward_latency_seconds{link=a->b}"
        assert key in merged.snapshot()["histograms"]
        # And the family renders in the Prometheus exposition.
        assert "router_forward_latency_seconds_bucket" in merged.to_prometheus()
