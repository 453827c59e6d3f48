"""Metrics primitives: registry semantics, snapshot merging."""

import pytest

from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    snapshot_percentile,
)


class TestRegistry:
    def test_counter_create_or_return(self):
        registry = MetricsRegistry()
        counter = registry.counter("a.b")
        counter.inc()
        counter.inc(3)
        assert registry.counter("a.b") is counter
        assert counter.value == 4

    def test_gauge_set_and_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(2.5)
        gauge.add(1.5)
        assert gauge.value == 4.0

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.0)
        registry.histogram("h").observe(3.0)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 1.0}
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["histograms"]["h"]["sum"] == 3.0


class TestHistogram:
    def test_buckets_are_inclusive_upper_bounds(self):
        hist = Histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            hist.observe(value)
        assert hist.bucket_counts == [2, 1, 1]
        assert hist.count == 4
        assert hist.min == 0.5
        assert hist.max == 100.0
        assert hist.mean == pytest.approx(106.5 / 4)


class TestMergeSnapshots:
    def test_counters_sum_gauges_latest_histograms_sum(self):
        a = MetricsRegistry()
        a.counter("c").inc(2)
        a.gauge("g").set(1.0)
        a.histogram("h", buckets=(1.0, 10.0)).observe(0.5)
        b = MetricsRegistry()
        b.counter("c").inc(3)
        b.counter("only_b").inc()
        b.gauge("g").set(7.0)
        b.histogram("h", buckets=(1.0, 10.0)).observe(5.0)

        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"] == {"c": 5, "only_b": 1}
        assert merged["gauges"]["g"] == 7.0
        hist = merged["histograms"]["h"]
        assert hist["count"] == 2
        assert hist["sum"] == 5.5
        assert hist["min"] == 0.5
        assert hist["max"] == 5.0
        assert hist["bucket_counts"] == [1, 1, 0]

    def test_merge_empty(self):
        assert merge_snapshots([]) == {"counters": {}, "gauges": {}, "histograms": {}}


class TestHistogramPercentile:
    """Linear interpolation within the covering bucket, clamped to the
    observed min/max -- checked against exact quantiles of the raw data."""

    @staticmethod
    def exact_quantile(values, q):
        """Exact linear-interpolation quantile (numpy's 'linear' method)."""
        ordered = sorted(values)
        if len(ordered) == 1:
            return ordered[0]
        rank = q * (len(ordered) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] + (rank - lo) * (ordered[hi] - ordered[lo])

    def test_empty_histogram_is_zero(self):
        hist = Histogram("h", buckets=(1.0, 10.0))
        assert hist.percentile(0.5) == 0.0

    def test_out_of_range_q_raises(self):
        hist = Histogram("h", buckets=(1.0,))
        hist.observe(0.5)
        with pytest.raises(ValueError):
            hist.percentile(1.5)
        with pytest.raises(ValueError):
            hist.percentile(-0.1)

    def test_extremes_clamp_to_observed_min_and_max(self):
        hist = Histogram("h", buckets=(10.0, 100.0))
        for value in (3.0, 42.0, 77.0):
            hist.observe(value)
        assert hist.percentile(0.0) == pytest.approx(3.0)
        assert hist.percentile(1.0) == pytest.approx(77.0)

    def test_uniform_data_tracks_exact_quantiles_within_a_bucket(self):
        # Uniform values over [0, 100) with 10ms buckets: the estimate
        # can only err by interpolation *inside* one bucket.
        values = [float(v) for v in range(100)]
        buckets = tuple(float(b) for b in range(10, 101, 10))
        hist = Histogram("h", buckets=buckets)
        for value in values:
            hist.observe(value)
        for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            assert hist.percentile(q) == pytest.approx(
                self.exact_quantile(values, q), abs=10.0
            )

    def test_skewed_data_stays_within_one_bucket_width(self):
        values = [0.5] * 90 + [45.0] * 9 + [99.0]
        hist = Histogram("h", buckets=(1.0, 10.0, 50.0))
        for value in values:
            hist.observe(value)
        assert hist.percentile(0.5) <= 1.0            # median bucket is [0, 1]
        assert 10.0 < hist.percentile(0.95) <= 50.0   # p95 bucket is (10, 50]
        assert hist.percentile(0.999) == pytest.approx(99.0, abs=50.0)

    def test_overflow_bucket_interpolates_toward_observed_max(self):
        hist = Histogram("h", buckets=(1.0,))
        for value in (0.5, 5.0, 9.0):
            hist.observe(value)
        # q deep in the overflow bucket: bounded by (bucket edge, max].
        assert 1.0 < hist.percentile(0.9) <= 9.0

    def test_snapshot_percentile_matches_live_instrument(self):
        hist = Histogram("h", buckets=(2.0, 8.0, 32.0))
        for value in (1.0, 3.0, 5.0, 9.0, 31.0):
            hist.observe(value)
        snap = MetricsRegistry().snapshot()  # shape reference only
        payload = {
            "count": hist.count, "sum": hist.sum, "min": hist.min,
            "max": hist.max, "buckets": list(hist.buckets),
            "bucket_counts": list(hist.bucket_counts),
        }
        assert isinstance(snap, dict)
        for q in (0.1, 0.5, 0.9):
            assert snapshot_percentile(payload, q) == hist.percentile(q)
