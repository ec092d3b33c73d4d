"""Synthetic dataset builders."""

import numpy as np

from tests.ml.datasets import make_classification, make_regression


def test_classification_shapes_and_labels():
    x, y = make_classification(samples=101, features=3)
    assert x.shape == (101, 3)
    assert set(np.unique(y)) == {0, 1}
    assert abs(y.sum() - 50.5) <= 1


def test_classification_separation_increases_distance():
    near, _ = make_classification(class_separation=0.5, seed=0)
    far, labels = make_classification(class_separation=5.0, seed=0)
    gap = np.linalg.norm(
        far[labels == 0].mean(axis=0) - far[labels == 1].mean(axis=0)
    )
    assert gap > 4.0


def test_classification_deterministic_by_seed():
    a, _ = make_classification(seed=7)
    b, _ = make_classification(seed=7)
    assert np.allclose(a, b)


def test_regression_target_matches_weights():
    x, y, w = make_regression(samples=1000, noise=0.0, seed=1)
    assert np.allclose(y, x @ w)


def test_regression_noise_adds_variance():
    _, clean, _ = make_regression(noise=0.0, seed=2)
    _, noisy, _ = make_regression(noise=1.0, seed=2)
    assert noisy.var() > clean.var() * 0.9
