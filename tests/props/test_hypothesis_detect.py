"""Property-based tests: streaming estimators vs exact computations."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detect.histogram import Histogram
from repro.detect.quantiles import P2Quantile, _percentile
from repro.detect.streaming import MovingAverage, RateCounter, SummaryDigest

finite_floats = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)


@given(st.lists(finite_floats, min_size=1, max_size=200),
       st.integers(min_value=1, max_value=50))
@settings(max_examples=80, deadline=None)
def test_moving_average_equals_tail_mean(values, window):
    ma = MovingAverage(window)
    for v in values:
        ma.update(v)
    tail = values[-window:]
    assert math.isclose(ma.value, sum(tail) / len(tail),
                        rel_tol=1e-9, abs_tol=1e-3)


@given(st.lists(finite_floats, min_size=2, max_size=200))
@settings(max_examples=80, deadline=None)
def test_welford_matches_numpy(values):
    digest = SummaryDigest()
    for v in values:
        digest.update(v)
    arr = np.array(values)
    assert math.isclose(digest.mean, arr.mean(), rel_tol=1e-9, abs_tol=1e-6)
    assert math.isclose(digest.variance, arr.var(ddof=1), rel_tol=1e-6,
                        abs_tol=1e-3)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=1000),
                          st.booleans()), min_size=1, max_size=100))
@settings(max_examples=80, deadline=None)
def test_rate_counter_always_a_valid_fraction(events):
    rc = RateCounter(100)
    events.sort(key=lambda e: e[0])
    for time, hit in events:
        rc.observe(time, hit)
        rate = rc.rate(time)
        assert 0.0 <= rate <= 1.0


@given(st.lists(st.floats(min_value=0, max_value=1000, allow_nan=False),
                min_size=20, max_size=500),
       st.sampled_from([0.25, 0.5, 0.75, 0.9]))
@settings(max_examples=50, deadline=None)
def test_p2_quantile_within_data_range(values, q):
    estimator = P2Quantile(q)
    for v in values:
        estimator.update(v)
    assert min(values) <= estimator.value <= max(values)


@given(st.lists(st.floats(min_value=-50, max_value=150, allow_nan=False),
                min_size=1, max_size=300))
@settings(max_examples=80, deadline=None)
def test_histogram_conserves_mass(values):
    h = Histogram(0, 100, 10)
    h.update_many(values)
    assert sum(h.counts) + h.underflow + h.overflow == len(values)
    cdf = h.cdf()
    assert all(b >= a - 1e-12 for a, b in zip(cdf, cdf[1:]))
    assert math.isclose(cdf[-1], 1.0)


@given(st.lists(finite_floats, min_size=1, max_size=100),
       st.integers(min_value=1, max_value=20))
@settings(max_examples=80, deadline=None)
def test_percentile_quartiles_ordered(values, size):
    ordered = sorted(values[-size:])
    q25, q50, q75 = (_percentile(ordered, q) for q in (25, 50, 75))
    assert q25 <= q50 <= q75
    assert ordered[0] <= q25 and q75 <= ordered[-1]
