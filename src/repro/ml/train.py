"""The Adam optimizer and the minibatch training loop."""

import numpy as np


class Adam:
    """Adam optimizer (Kingma & Ba), with the paper's default moments."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, learning_rate=1e-3):
        self.learning_rate = learning_rate
        self._m = {}
        self._v = {}
        self._t = {}

    def __call__(self, index, param, grad):
        m = self._m.get(index)
        if m is None:
            m = np.zeros_like(param)
            self._v[index] = np.zeros_like(param)
            self._t[index] = 0
        v = self._v[index]
        self._t[index] += 1
        t = self._t[index]
        m = self.BETA1 * m + (1 - self.BETA1) * grad
        v = self.BETA2 * v + (1 - self.BETA2) * grad * grad
        self._m[index] = m
        self._v[index] = v
        m_hat = m / (1 - self.BETA1 ** t)
        v_hat = v / (1 - self.BETA2 ** t)
        param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.EPS)


#: Examples per gradient step of :func:`train_classifier`.
BATCH_SIZE = 64


def train_classifier(model, x, y, epochs=20, optimizer=None, seed=0):
    """Minibatch-train ``model``; returns per-epoch history."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if len(x) != len(y):
        raise ValueError("x and y lengths differ: {} vs {}".format(len(x), len(y)))
    optimizer = optimizer if optimizer is not None else Adam()
    rng = np.random.default_rng(seed)
    history = []
    for epoch in range(epochs):
        order = rng.permutation(len(x))
        epoch_loss = 0.0
        batches = 0
        for start in range(0, len(x), BATCH_SIZE):
            batch = order[start:start + BATCH_SIZE]
            loss, grad_w, grad_b = model.loss_and_gradients(x[batch], y[batch])
            model.apply_gradients(grad_w, grad_b, optimizer)
            epoch_loss += loss
            batches += 1
        history.append({"epoch": epoch, "loss": epoch_loss / max(batches, 1)})
    return history
