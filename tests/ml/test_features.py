"""Feature normalization."""

import numpy as np
import pytest

from repro.ml.features import Normalizer


def test_fit_transform_standardizes():
    rng = np.random.default_rng(0)
    x = rng.normal([5.0, -3.0], [2.0, 0.5], size=(500, 2))
    z = Normalizer().fit(x).transform(x)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(z.std(axis=0), 1.0, atol=1e-9)


def test_transform_uses_training_stats():
    normalizer = Normalizer().fit(np.array([[0.0], [10.0]]))
    z = normalizer.transform(np.array([[5.0]]))
    assert z[0, 0] == 0.0


def test_constant_feature_does_not_divide_by_zero():
    x = np.array([[1.0, 5.0], [1.0, 7.0]])
    z = Normalizer().fit(x).transform(x)
    assert np.isfinite(z).all()


def test_unfitted_transform_raises():
    with pytest.raises(RuntimeError):
        Normalizer().transform([[1.0]])


def test_feature_count_mismatch_raises():
    normalizer = Normalizer().fit(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        normalizer.transform(np.zeros((4, 3)))
