"""P² streaming quantiles against exact numpy quantiles, and the exact
percentile helper over a sorted sample."""

import math

import numpy as np
import pytest

from repro.detect.quantiles import P2Quantile, _lerp, _percentile


def test_bad_q_raises():
    with pytest.raises(ValueError):
        P2Quantile(0.0)
    with pytest.raises(ValueError):
        P2Quantile(1.0)


def test_empty_is_nan():
    assert math.isnan(P2Quantile(0.5).value)


def test_fewer_than_five_samples_uses_exact():
    q = P2Quantile(0.5)
    for v in [3.0, 1.0, 2.0]:
        q.update(v)
    assert q.value == 2.0


@pytest.mark.parametrize("quantile", [0.5, 0.9, 0.99])
def test_tracks_uniform_distribution(quantile):
    rng = np.random.default_rng(0)
    estimator = P2Quantile(quantile)
    data = rng.uniform(0, 100, 5000)
    for v in data:
        estimator.update(v)
    exact = np.quantile(data, quantile)
    assert estimator.value == pytest.approx(exact, abs=3.0)


def test_tracks_lognormal_median():
    rng = np.random.default_rng(1)
    estimator = P2Quantile(0.5)
    data = rng.lognormal(3.0, 0.5, 5000)
    for v in data:
        estimator.update(v)
    assert estimator.value == pytest.approx(np.median(data), rel=0.05)


def test_count_increments():
    q = P2Quantile(0.5)
    for v in range(10):
        q.update(v)
    assert q.count == 10


def test_monotone_data():
    q = P2Quantile(0.9)
    for v in range(1000):
        q.update(float(v))
    assert q.value == pytest.approx(900, abs=20)


def test_constant_data():
    q = P2Quantile(0.5)
    for _ in range(100):
        q.update(5.0)
    assert q.value == 5.0


@pytest.mark.parametrize("distribution", ["uniform", "normal", "exponential"])
@pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.99])
def test_randomized_accuracy_vs_exact_quantiles(distribution, q):
    """P² stays close to the exact sorted-sample quantile on random streams."""
    rng = np.random.default_rng(20260805)
    if distribution == "uniform":
        samples = rng.uniform(0.0, 100.0, size=5000)
    elif distribution == "normal":
        samples = rng.normal(50.0, 15.0, size=5000)
    else:
        samples = rng.exponential(10.0, size=5000)

    estimator = P2Quantile(q)
    for value in samples:
        estimator.update(value)

    exact = float(np.quantile(samples, q))
    spread = float(np.quantile(samples, 0.95) - np.quantile(samples, 0.05))
    # Five markers cannot be exact; require the estimate within a modest
    # fraction of the distribution's bulk spread.
    assert abs(estimator.value - exact) < 0.08 * spread
    assert samples.min() <= estimator.value <= samples.max()


def test_pre_marker_estimates_track_exact_small_sample_quantiles():
    rng = np.random.default_rng(7)
    for size in (1, 2, 3, 4):
        values = rng.uniform(0.0, 1.0, size=size)
        estimator = P2Quantile(0.5)
        for v in values:
            estimator.update(v)
        assert estimator.value == pytest.approx(
            float(np.quantile(values, 0.5)))


def test_percentile_of_a_sorted_sample():
    ordered = [10, 20, 30, 40, 50]
    assert tuple(_percentile(ordered, q) for q in (25, 50, 75)) == (20, 30, 40)
    assert _percentile([7], 99) == 7.0
    assert _percentile([0.0, 10.0], 25) == 2.5


def test_quartiles_are_ordered_for_denormal_samples():
    # Regression: a*(1-frac) + b*frac is non-monotone at the edge of the
    # float grid — two 5e-324 samples produced q25 > q50.
    ordered = [5e-324, 5e-324]
    q25, q50, q75 = (_percentile(ordered, q) for q in (25, 50, 75))
    assert q25 <= q50 <= q75
    assert q25 == q50 == q75 == 5e-324


def test_percentile_interpolation_stays_inside_the_samples():
    assert _lerp(1.0, 2.0, 0.5) == 1.5
    assert _lerp(5e-324, 5e-324, 0.25) == 5e-324
    assert _lerp(-2.0, -1.0, 0.0) == -2.0
    assert _lerp(-2.0, -1.0, 1.0) == -1.0
