"""Streaming estimators."""

import math

import numpy as np
import pytest

from repro.detect.streaming import Ewma, MovingAverage, RateCounter, SummaryDigest


class TestMovingAverage:
    def test_empty_is_nan(self):
        assert math.isnan(MovingAverage(3).value)

    def test_partial_window(self):
        ma = MovingAverage(4)
        assert ma.update(2.0) == 2.0
        assert ma.update(4.0) == 3.0

    def test_full_window_evicts_oldest(self):
        ma = MovingAverage(2)
        ma.update(1.0)
        ma.update(3.0)
        assert ma.update(5.0) == 4.0  # (3 + 5) / 2

    def test_count_caps_at_window(self):
        ma = MovingAverage(3)
        for v in range(10):
            ma.update(v)
        assert ma.count == 3

    def test_matches_numpy_tail_mean(self):
        values = np.arange(50, dtype=float)
        ma = MovingAverage(7)
        for v in values:
            ma.update(v)
        assert ma.value == pytest.approx(values[-7:].mean())

    def test_window_below_one_raises(self):
        with pytest.raises(ValueError):
            MovingAverage(0)

    def test_reset(self):
        ma = MovingAverage(3)
        ma.update(5.0)
        ma.reset()
        assert math.isnan(ma.value)
        assert ma.count == 0


class TestEwma:
    def test_first_sample_is_value(self):
        e = Ewma(0.5)
        assert e.update(10.0) == 10.0

    def test_smoothing(self):
        e = Ewma(0.5)
        e.update(0.0)
        assert e.update(10.0) == 5.0
        assert e.update(10.0) == 7.5

    def test_alpha_one_tracks_exactly(self):
        e = Ewma(1.0)
        e.update(1.0)
        assert e.update(9.0) == 9.0

    def test_bad_alpha_raises(self):
        with pytest.raises(ValueError):
            Ewma(0.0)
        with pytest.raises(ValueError):
            Ewma(1.5)

    def test_empty_is_nan_and_reset(self):
        e = Ewma(0.3)
        assert math.isnan(e.value)
        e.update(1.0)
        e.reset()
        assert math.isnan(e.value)


class TestSummaryDigest:
    """Welford's online mean/variance, as the fleet digests use it."""

    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        data = rng.normal(5.0, 2.0, 200)
        digest = SummaryDigest()
        for v in data:
            digest.update(v)
        assert digest.mean == pytest.approx(data.mean())
        assert digest.variance == pytest.approx(data.var(ddof=1))

    def test_variance_needs_two_samples(self):
        digest = SummaryDigest()
        digest.update(1.0)
        assert math.isnan(digest.variance)

    def test_empty_mean_is_nan(self):
        assert math.isnan(SummaryDigest().mean)

    def test_merge_matches_single_pass(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=50), rng.normal(3.0, 1.0, 70)
        left, right, combined = SummaryDigest(), SummaryDigest(), SummaryDigest()
        for v in a:
            left.update(v)
            combined.update(v)
        for v in b:
            right.update(v)
            combined.update(v)
        left.merge(right)
        assert left.count == combined.count
        assert left.mean == pytest.approx(combined.mean)
        assert left.variance == pytest.approx(combined.variance)

    def test_merge_with_empty_sides(self):
        a = SummaryDigest()
        a.update(1.0)
        a.merge(SummaryDigest())
        assert a.count == 1
        empty = SummaryDigest()
        empty.merge(a)
        assert empty.mean == 1.0


class TestRateCounter:
    def test_empty_rate_is_zero(self):
        assert RateCounter(100).rate(0) == 0.0

    def test_simple_fraction(self):
        rc = RateCounter(100)
        rc.observe(1, True)
        rc.observe(2, False)
        rc.observe(3, True)
        assert rc.rate(3) == pytest.approx(2 / 3)

    def test_old_events_evicted(self):
        rc = RateCounter(10)
        rc.observe(0, True)
        rc.observe(11, False)
        assert rc.rate(11) == 0.0
        assert rc.count(11) == 1

    def test_boundary_event_exactly_at_cutoff_evicted(self):
        rc = RateCounter(10)
        rc.observe(0, True)
        assert rc.count(10) == 0

    def test_rate_decays_to_zero_with_no_new_events(self):
        rc = RateCounter(10)
        rc.observe(0, True)
        assert rc.rate(5) == 1.0
        assert rc.rate(100) == 0.0

    def test_bad_window_raises(self):
        with pytest.raises(ValueError):
            RateCounter(0)

    def test_rate_uses_running_hit_count(self):
        counter = RateCounter(window=100)
        for t in range(0, 1000, 10):
            counter.observe(t, t % 30 == 0)
            expected_hits = sum(1 for tt, hit in counter._events if hit)
            assert counter._hits == expected_hits
            assert counter.rate(t) == pytest.approx(
                expected_hits / len(counter._events))

    def test_eviction_keeps_hit_count_exact(self):
        counter = RateCounter(window=10)
        counter.observe(0, True)
        counter.observe(5, False)
        counter.observe(20, True)  # evicts both earlier events
        assert counter._hits == 1
        assert counter.rate(20) == 1.0
        assert counter.rate(40) == 0.0
        assert counter._hits == 0
