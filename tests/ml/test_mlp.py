"""MLP: forward, gradients, training dynamics."""

import numpy as np
import pytest

from repro.ml.mlp import Mlp
from repro.ml.train import Adam, train_classifier
from tests.ml.datasets import make_classification, make_regression


def test_construction_validates():
    with pytest.raises(ValueError):
        Mlp([4])
    with pytest.raises(ValueError):
        Mlp([4, 2], head="tanh")


def test_forward_shapes():
    mlp = Mlp([3, 8, 2], head="softmax")
    out = mlp.predict(np.zeros((5, 3)))
    assert out.shape == (5, 2)


def test_single_example_promoted_to_batch():
    mlp = Mlp([3, 4, 1])
    assert mlp.predict([1.0, 2.0, 3.0]).shape == (1, 1)


def test_sigmoid_outputs_are_probabilities():
    mlp = Mlp([4, 8, 1], head="sigmoid", seed=1)
    out = mlp.predict(np.random.default_rng(0).normal(size=(20, 4)))
    assert ((out > 0) & (out < 1)).all()


def test_softmax_rows_sum_to_one():
    mlp = Mlp([4, 8, 3], head="softmax", seed=1)
    out = mlp.predict(np.random.default_rng(0).normal(size=(10, 4)))
    assert np.allclose(out.sum(axis=1), 1.0)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    mlp = Mlp([3, 4, 1], head="sigmoid", seed=2)
    x = rng.normal(size=(8, 3))
    y = rng.integers(0, 2, 8)

    loss, grad_w, grad_b = mlp.loss_and_gradients(x, y)
    eps = 1e-6
    w = mlp.weights[0]
    for index in [(0, 0), (2, 3), (1, 1)]:
        original = w[index]
        w[index] = original + eps
        loss_plus, _, _ = mlp.loss_and_gradients(x, y)
        w[index] = original - eps
        loss_minus, _, _ = mlp.loss_and_gradients(x, y)
        w[index] = original
        numeric = (loss_plus - loss_minus) / (2 * eps)
        assert grad_w[0][index] == pytest.approx(numeric, rel=1e-3, abs=1e-6)


def test_training_reduces_loss():
    x, y = make_classification(samples=300, seed=3)
    mlp = Mlp([x.shape[1], 8, 1], head="sigmoid", seed=3)
    history = train_classifier(mlp, x, y, epochs=15, optimizer=Adam(1e-2))
    assert history[-1]["loss"] < history[0]["loss"]


def test_learns_separable_classification():
    x, y = make_classification(samples=500, class_separation=3.0, seed=4)
    mlp = Mlp([x.shape[1], 16, 1], head="sigmoid", seed=4)
    train_classifier(mlp, x, y, epochs=25, optimizer=Adam(1e-2))
    out, _, _ = mlp.forward(x)
    assert np.mean((out[:, 0] >= 0.5) == y) > 0.95


def test_multiclass_training():
    rng = np.random.default_rng(5)
    centers = np.array([[0, 0], [4, 0], [0, 4]])
    x = np.vstack([rng.normal(c, 0.5, size=(100, 2)) for c in centers])
    y = np.repeat([0, 1, 2], 100)
    mlp = Mlp([2, 16, 3], head="softmax", seed=5)
    train_classifier(mlp, x, y, epochs=30, optimizer=Adam(1e-2))
    out, _, _ = mlp.forward(x)
    assert np.mean(out.argmax(axis=1) == y) > 0.9


def test_regression_fits_linear_target():
    x, y, _ = make_regression(samples=400, noise=0.05, seed=6)
    mlp = Mlp([x.shape[1], 16, 1], head="linear", seed=6)
    optimizer = Adam(5e-3)
    for _ in range(200):
        _, gw, gb = mlp.loss_and_gradients(x, y)
        mlp.apply_gradients(gw, gb, optimizer)
    loss, _, _ = mlp.loss_and_gradients(x, y)
    assert loss < 0.1


def test_mac_count():
    assert Mlp([4, 16, 16, 1]).mac_count == 4 * 16 + 16 * 16 + 16 * 1


def test_inference_count_increments():
    mlp = Mlp([2, 2, 1])
    mlp.predict([[0, 0]])
    mlp.predict([[1, 1]])
    assert mlp.inference_count == 2


def test_seed_determinism():
    a = Mlp([3, 4, 1], seed=9)
    b = Mlp([3, 4, 1], seed=9)
    x = np.ones((2, 3))
    assert np.allclose(a.predict(x), b.predict(x))
