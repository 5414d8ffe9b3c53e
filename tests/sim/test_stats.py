"""Counters and latency reservoirs."""

import math

import pytest

from repro.sim import Counter, LatencyReservoir


class TestCounter:
    def test_add_accumulates(self):
        c = Counter()
        c.add()
        c.add(4)
        assert c.total == 5

    def test_window_counts_from_mark(self):
        c = Counter()
        c.add(10)
        c.mark_window()
        c.add(3)
        assert c.in_window == 3
        assert c.total == 13


class TestLatencyReservoir:
    def test_mean_over_all_samples(self):
        r = LatencyReservoir()
        for v in (1.0, 2.0, 3.0):
            r.record(v)
        assert r.mean == pytest.approx(2.0)
        assert r.count == 3

    def test_percentiles_on_known_distribution(self):
        r = LatencyReservoir()
        for v in range(1, 101):
            r.record(float(v))
        assert r.percentile(50) == pytest.approx(50.5)
        assert r.percentile(99) == pytest.approx(99.01, rel=0.01)
        assert r.percentile(0) == 1.0
        assert r.percentile(100) == 100.0

    def test_empty_reservoir_returns_nan(self):
        r = LatencyReservoir()
        assert math.isnan(r.mean)
        assert math.isnan(r.percentile(99))

    def test_out_of_range_percentile_rejected(self):
        r = LatencyReservoir()
        r.record(1.0)
        with pytest.raises(ValueError):
            r.percentile(101)

    def test_decimation_preserves_mean_and_approx_percentiles(self):
        r = LatencyReservoir(max_samples=1000)
        n = 10_000
        for v in range(n):
            r.record(float(v))
        assert r.count == n
        assert r.mean == pytest.approx((n - 1) / 2)
        # decimated percentile stays within 2% of the true one
        assert r.percentile(99) == pytest.approx(0.99 * n, rel=0.02)

    def test_reset_clears_everything(self):
        r = LatencyReservoir()
        r.record(5.0)
        r.reset()
        assert r.count == 0
        assert math.isnan(r.mean)

    def test_summary_keys(self):
        r = LatencyReservoir()
        r.record(1.0)
        s = r.summary()
        assert set(s) == {"mean", "p99", "p999", "count"}

    def test_tiny_max_samples_rejected(self):
        with pytest.raises(ValueError):
            LatencyReservoir(max_samples=10)
