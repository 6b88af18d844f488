"""The fixed-bucket latency histogram and its use inside Metrics."""

from __future__ import annotations

from repro.engine.metrics import Metrics
from repro.obs import Histogram


class TestHistogram:
    def test_empty(self):
        hist = Histogram()
        assert hist.count == 0
        assert hist.percentile(0.5) == 0
        assert hist.mean == 0.0

    def test_percentiles_conservative_and_clamped(self):
        hist = Histogram()
        for value in [1, 2, 3, 4, 100]:
            hist.record(value)
        # Never understate: p50 of {1,2,3,4,100} is at least 3.
        assert hist.percentile(0.5) >= 3
        # Never exceed the observed maximum.
        assert hist.percentile(0.99) <= 100
        assert hist.percentile(1.0) <= 100
        assert hist.max == 100

    def test_relative_error_bounded_by_bucket_width(self):
        hist = Histogram()
        for value in range(1, 1001):
            hist.record(value)
        for p, exact in [(0.5, 500), (0.95, 950), (0.99, 990)]:
            estimate = hist.percentile(p)
            assert exact <= estimate <= 2 * exact

    def test_negative_clamped_to_zero(self):
        hist = Histogram()
        hist.record(-5)
        assert hist.max == 0
        assert hist.percentile(0.5) == 0

    def test_merge_is_exact(self):
        left, right, both = Histogram(), Histogram(), Histogram()
        for value in [1, 5, 9]:
            left.record(value)
            both.record(value)
        for value in [2, 70]:
            right.record(value)
            both.record(value)
        left.merge(right)
        assert left == both
        assert left.count == 5
        assert left.total == both.total
        assert left.max == 70


class TestMetricsPercentiles:
    def test_summary_exposes_percentile_keys(self):
        metrics = Metrics()
        for i, latency in enumerate([3, 5, 8, 200]):
            metrics.record_commit(latency=latency, waited=i)
        summary = metrics.summary()
        for key in (
            "latency_p50", "latency_p95", "latency_p99",
            "wait_p50", "wait_p95", "wait_p99",
        ):
            assert key in summary, f"summary missing {key}"
        assert summary["latency_p50"] >= 5
        assert summary["latency_p99"] <= 200
        assert summary["latency_total"] == 216
        # Backward-compatible keys survive.
        assert summary["latency_max"] == 200
        assert summary["mean_latency"] == 54.0
