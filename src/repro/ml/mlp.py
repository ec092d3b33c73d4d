"""A small fully-connected network with manual backprop.

Sized for in-kernel deployment the way LinnOS's model is: a few small dense
layers, ReLU activations, and a task-specific head.  Heads:

- ``"sigmoid"`` — binary classification, trained with BCE;
- ``"softmax"`` — multiclass, trained with cross-entropy;
- ``"linear"`` — regression, trained with MSE.

``forward`` keeps the per-layer activations needed by ``backward``;
``predict`` is the inference-only path — the same arithmetic in the same
order, nothing kept — and ``mac_count`` lets policies report realistic
inference cost.
"""

import numpy as np

_FLOAT64 = np.dtype(float)


def as_float_rows(x):
    """``atleast_2d(asarray(x, dtype=float))``, skipped for what the
    per-inference path hands over: an array that already is one."""
    if type(x) is np.ndarray and x.ndim == 2 and x.dtype is _FLOAT64:
        return x
    return np.atleast_2d(np.asarray(x, dtype=float))


class Mlp:
    def __init__(self, layer_sizes, head="sigmoid", seed=0):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if head not in ("sigmoid", "softmax", "linear"):
            raise ValueError("unknown head {!r}".format(head))
        self.layer_sizes = list(layer_sizes)
        self.head = head
        rng = np.random.default_rng(seed)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)  # He init for ReLU hidden layers
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))
        self.inference_count = 0
        #: Multiply-accumulates per single-example inference.
        self.mac_count = sum(a * b for a, b in zip(layer_sizes, layer_sizes[1:]))

    # -- inference -----------------------------------------------------------

    def forward(self, x):
        """Forward pass keeping intermediates; ``x`` is (batch, features)."""
        x = as_float_rows(x)
        activations = [x]
        pre_activations = []
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            pre_activations.append(z)
            if i < last:
                h = np.maximum(z, 0.0)
            else:
                h = self._apply_head(z)
            activations.append(h)
        return h, activations, pre_activations

    def _apply_head(self, z):
        if self.head == "sigmoid":
            # np.clip's own arithmetic, without its Python-level wrapper.
            return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -60), 60)))
        if self.head == "softmax":
            shifted = z - z.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            return e / e.sum(axis=1, keepdims=True)
        return z

    def predict(self, x):
        """Inference-only forward pass; returns the head output."""
        self.inference_count += 1
        h = as_float_rows(x)
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            h = np.maximum(z, 0.0) if i < last else self._apply_head(z)
        return h

    # -- training --------------------------------------------------------------

    def loss_and_gradients(self, x, y):
        """Loss plus gradients for one minibatch.

        ``y`` is (batch,) 0/1 for sigmoid, (batch,) class ids for softmax,
        or (batch,) / (batch, out) values for linear.  For all three heads
        the output-layer error simplifies to ``(prediction - target) / n``.
        """
        out, activations, pre_activations = self.forward(x)
        n = out.shape[0]
        y = np.asarray(y)

        if self.head == "sigmoid":
            target = y.reshape(-1, 1).astype(float)
            eps = 1e-12
            loss = -np.mean(
                target * np.log(out + eps) + (1 - target) * np.log(1 - out + eps)
            )
            delta = (out - target) / n
        elif self.head == "softmax":
            target = np.zeros_like(out)
            target[np.arange(n), y.astype(int)] = 1.0
            eps = 1e-12
            loss = -np.mean(np.log(out[np.arange(n), y.astype(int)] + eps))
            delta = (out - target) / n
        else:
            target = y.reshape(out.shape).astype(float)
            diff = out - target
            loss = float(np.mean(diff ** 2))
            delta = 2.0 * diff / diff.size

        grad_w = [None] * len(self.weights)
        grad_b = [None] * len(self.biases)
        for i in range(len(self.weights) - 1, -1, -1):
            grad_w[i] = activations[i].T @ delta
            grad_b[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self.weights[i].T) * (pre_activations[i - 1] > 0)
        return float(loss), grad_w, grad_b

    def apply_gradients(self, grad_w, grad_b, updater):
        """Apply one optimizer step; ``updater(param_index, param, grad)``."""
        for i, (w, g) in enumerate(zip(self.weights, grad_w)):
            updater(i, w, g)
        offset = len(self.weights)
        for i, (b, g) in enumerate(zip(self.biases, grad_b)):
            updater(offset + i, b, g)
