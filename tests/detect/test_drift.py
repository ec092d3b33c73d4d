"""Drift metrics: PSI and KS over histogram pairs."""

import numpy as np
import pytest

from repro.detect.drift import ks_statistic, population_stability_index
from repro.detect.histogram import Histogram


def _hist(values, lo=0, hi=100, bins=20):
    h = Histogram(lo, hi, bins)
    h.update_many(values)
    return h


def test_identical_distributions_score_near_zero():
    rng = np.random.default_rng(0)
    ref = _hist(rng.uniform(0, 100, 5000))
    live = _hist(rng.uniform(0, 100, 5000))
    assert population_stability_index(ref, live) < 0.02
    assert ks_statistic(ref, live) < 0.05


def test_shifted_distribution_scores_high():
    rng = np.random.default_rng(0)
    ref = _hist(rng.normal(30, 5, 5000))
    live = _hist(rng.normal(70, 5, 5000))
    assert population_stability_index(ref, live) > 1.0
    assert ks_statistic(ref, live) > 0.5


def test_psi_is_symmetric_in_magnitude():
    rng = np.random.default_rng(1)
    a = _hist(rng.normal(40, 5, 3000))
    b = _hist(rng.normal(60, 5, 3000))
    assert population_stability_index(a, b) == pytest.approx(
        population_stability_index(b, a), rel=0.3
    )


def test_incompatible_histograms_raise():
    with pytest.raises(ValueError, match="not comparable"):
        ks_statistic(_hist([], bins=10), _hist([], bins=20))
