"""Synthetic classification and regression data for the ML tests."""

import numpy as np


def make_classification(samples=500, features=4, class_separation=2.0, seed=0):
    """Two Gaussian blobs; returns ``(x, y)`` with y in {0, 1}."""
    rng = np.random.default_rng(seed)
    half = samples // 2
    center = np.full(features, class_separation / 2.0)
    x0 = rng.normal(-center, 1.0, size=(half, features))
    x1 = rng.normal(center, 1.0, size=(samples - half, features))
    x = np.vstack([x0, x1])
    y = np.concatenate([np.zeros(half, dtype=int), np.ones(samples - half, dtype=int)])
    order = rng.permutation(samples)
    return x[order], y[order]


def make_regression(samples=500, features=4, noise=0.1, seed=0):
    """Linear target with Gaussian noise; returns ``(x, y, true_weights)``."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(samples, features))
    weights = rng.normal(size=features)
    y = x @ weights + rng.normal(0.0, noise, size=samples)
    return x, y, weights
