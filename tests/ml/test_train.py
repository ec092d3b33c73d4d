"""The minibatch training loop."""

import numpy as np
import pytest

from repro.ml.mlp import Mlp
from repro.ml.train import train_classifier
from tests.ml.datasets import make_classification


def test_train_classifier_validates_lengths():
    with pytest.raises(ValueError):
        train_classifier(Mlp([2, 1]), np.zeros((3, 2)), np.zeros(2))


def test_training_is_seed_deterministic():
    x, y = make_classification(samples=200, seed=1)

    def run():
        mlp = Mlp([x.shape[1], 8, 1], seed=1)
        train_classifier(mlp, x, y, epochs=3, seed=1)
        return mlp.predict(x)

    assert np.allclose(run(), run())


def test_epoch_history_length():
    x, y = make_classification(samples=100, seed=2)
    history = train_classifier(Mlp([x.shape[1], 4, 1], seed=2), x, y, epochs=7)
    assert len(history) == 7
    assert [h["epoch"] for h in history] == list(range(7))
