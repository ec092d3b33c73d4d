"""``Mlp.predict`` is ``forward`` minus the bookkeeping — to the last bit.

The policies call ``predict`` once per decision; it skips the activation
lists and the re-coercion of an already 2-D float64 input.  Same ufuncs in
the same order, so the head output must be byte-equal to ``forward(x)[0]``
for every head, batch size and input spelling, including the sigmoid's
clamp at +-60 and non-finite pre-activations.
"""

import numpy as np
import pytest

from repro.ml.features import Normalizer
from repro.ml.mlp import Mlp

HEADS = ("sigmoid", "softmax", "linear")


def _model(head, seed=5):
    return Mlp([4, 16, 16, 3 if head == "softmax" else 1], head=head,
               seed=seed)


def _same_bytes(model, x):
    reference = model.forward(x)[0]
    before = model.inference_count
    out = model.predict(x)
    assert model.inference_count == before + 1
    assert out.dtype == reference.dtype and out.shape == reference.shape
    assert out.tobytes() == reference.tobytes()
    return out


@pytest.mark.parametrize("head", HEADS)
@pytest.mark.parametrize("batch", (1, 3, 64))
def test_predict_equals_forward_bytes(head, batch):
    rng = np.random.default_rng(batch)
    x = rng.normal(0.0, 3.0, size=(batch, 4))
    model = _model(head)
    _same_bytes(model, x)                          # 2-D float64: no coercion
    _same_bytes(model, x.tolist())                 # nested list
    _same_bytes(model, x.astype(np.float32))       # widened, not reinterpreted
    _same_bytes(model, np.asfortranarray(x))       # layout is not dtype
    _same_bytes(model, x[::-1])                    # negative-stride view
    _same_bytes(model, x.astype(">f8"))            # non-native byte order


@pytest.mark.parametrize("head", HEADS)
def test_predict_accepts_one_row_as_1d(head):
    model = _model(head)
    row = np.array([0.5, -1.0, 2.0, 0.0])
    out = _same_bytes(model, row)
    assert out.shape[0] == 1
    _same_bytes(model, list(row))


def _saturating(head, scale):
    """A model whose last-layer pre-activations are ~``scale`` in size."""
    model = _model(head)
    model.weights[-1] = model.weights[-1] * scale
    return model


@pytest.mark.parametrize("head", HEADS)
def test_predict_equals_forward_beyond_the_sigmoid_clamp(head):
    rng = np.random.default_rng(9)
    x = rng.normal(0.0, 3.0, size=(64, 4))
    model = _saturating(head, 1e3)
    z = model.forward(x)[2][-1]
    assert (z > 60).any() and (z < -60).any()
    out = _same_bytes(model, x)
    assert np.isfinite(out).all()
    if head == "sigmoid":
        # The clamp itself: exactly sigmoid(+-60), never 0, 1 or a warning.
        assert out.max() == 1.0 / (1.0 + np.exp(-60.0))
        assert out.min() == 1.0 / (1.0 + np.exp(60.0))


@pytest.mark.parametrize("head", HEADS)
@pytest.mark.parametrize("poison", (np.inf, -np.inf, np.nan))
def test_predict_equals_forward_on_non_finite_pre_activations(head, poison):
    model = _model(head)
    # Poison the last bias so z itself (not just the input) is non-finite;
    # hidden layers stay finite, so no inf * 0 surprises upstream.
    model.biases[-1] = model.biases[-1].copy()
    model.biases[-1][0] = poison
    x = np.random.default_rng(1).normal(size=(3, 4))
    with np.errstate(invalid="ignore"):
        _same_bytes(model, x)


def test_predict_does_not_alias_or_mutate_its_input():
    model = _model("linear")
    x = np.random.default_rng(2).normal(size=(3, 4))
    before = x.copy()
    out = model.predict(x)
    assert not np.shares_memory(out, x)
    assert (x == before).all()


# -- Normalizer.transform takes the same shortcut ------------------------------


def test_transform_is_bit_identical_across_input_spellings():
    rng = np.random.default_rng(4)
    train = rng.normal(5.0, 2.0, size=(200, 4))
    normalizer = Normalizer().fit(train)
    x = rng.normal(5.0, 2.0, size=(3, 4))
    reference = ((x - normalizer.mean) / normalizer.std).tobytes()
    assert normalizer.transform(x).tobytes() == reference
    assert normalizer.transform(x.tolist()).tobytes() == reference
    assert normalizer.transform(np.asfortranarray(x)).tobytes() == reference
    assert normalizer.transform(x[0]).tobytes() == (
        (x[:1] - normalizer.mean) / normalizer.std).tobytes()
    as32 = x.astype(np.float32)
    assert normalizer.transform(as32).tobytes() == (
        (as32.astype(float) - normalizer.mean) / normalizer.std).tobytes()


def test_transform_still_checks_shape_and_fit():
    with pytest.raises(RuntimeError):
        Normalizer().transform(np.zeros((1, 4)))
    normalizer = Normalizer().fit(np.random.default_rng(0).normal(size=(10, 4)))
    with pytest.raises(ValueError):
        normalizer.transform(np.zeros((2, 3)))     # 2-D float64 fast path
    with pytest.raises(ValueError):
        normalizer.transform([1.0, 2.0, 3.0, 4.0, 5.0])
