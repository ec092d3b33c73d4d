"""Learned congestion control (P2 substrate; background: Orca).

A small MLP regressor imitates an AIMD teacher on *clean* traces around a
training capacity, then runs as the live controller.  Two failure modes the
guardrails catch:

- **noise sensitivity (P2)** — the model's rate delta swings with
  measurement noise that AIMD's sign-based logic shrugs off; the
  SensitivityProbe publishes ``<name>.output_sensitivity``;
- **underutilization** — when the link's capacity moves far outside the
  training range the model keeps operating around its training equilibrium,
  leaving the link idle (the "sudden drop in bandwidth utilization and fail
  to recover" misbehavior of §2).  A behavioral guardrail on
  ``net.utilization.avg`` REPLACEs it with AIMD.
"""

import numpy as np

from repro.kernel.net.link import BottleneckLink, aimd_controller
from repro.ml.features import Normalizer
from repro.ml.mlp import Mlp
from repro.ml.train import Adam
from repro.policies.base import PolicyInstrumentation

NS_PER_MAC = 2
#: The link capacity the teacher runs at, and so the model's training range.
TRAIN_CAPACITY_MBPS = 100.0
HIDDEN = (16,)
#: Copies of each loss-epoch sample in the training set (see
#: :func:`train_cc_model`).
BACKOFF_OVERSAMPLE = 10


def generate_teacher_trace(epochs=2000):
    """Roll out AIMD on a clean link; returns (observations, rate deltas)."""
    capacity_mbps = TRAIN_CAPACITY_MBPS
    rng = np.random.default_rng(0)
    teacher = aimd_controller()
    rate = BottleneckLink.INITIAL_RATE_MBPS
    observations, deltas = [], []
    for _ in range(epochs):
        delivered = min(rate, capacity_mbps)
        loss = 0.0 if rate <= 0 else max(rate - capacity_mbps, 0.0) / rate
        obs = {"rate_mbps": rate, "delivered_mbps": delivered, "loss": loss}
        next_rate = teacher(obs)
        observations.append([rate, delivered, loss])
        deltas.append(next_rate - rate)
        rate = next_rate
        # Occasional random restarts so the teacher visits diverse states.
        if rng.random() < 0.01:
            rate = float(rng.uniform(5.0, capacity_mbps * 1.2))
    return np.array(observations), np.array(deltas)


def train_cc_model(observations, deltas, epochs=200):
    """Fit the imitation regressor; returns (mlp, normalizer).

    Loss events are rare in AIMD traces (a few percent of epochs), so a
    plain MSE fit underweights the backoff behavior that matters most;
    :data:`BACKOFF_OVERSAMPLE` replicates loss-epoch samples to balance it.
    """
    observations = np.asarray(observations, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    loss_rows = observations[:, 2] > 0
    if loss_rows.any():
        extra = np.repeat(np.flatnonzero(loss_rows), BACKOFF_OVERSAMPLE - 1)
        observations = np.vstack([observations, observations[extra]])
        deltas = np.concatenate([deltas, deltas[extra]])
    normalizer = Normalizer().fit(observations)
    x = normalizer.transform(observations)
    mlp = Mlp([observations.shape[1], *HIDDEN, 1], head="linear", seed=0)
    optimizer = Adam(5e-3)
    rng = np.random.default_rng(0)
    y = deltas.reshape(-1, 1)
    for _ in range(epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(x), 64):
            batch = order[start:start + 64]
            _, grad_w, grad_b = mlp.loss_and_gradients(x[batch], y[batch])
            mlp.apply_gradients(grad_w, grad_b, optimizer)
    return mlp, normalizer


class LearnedCcController:
    """``controller(observation) -> next rate`` backed by the imitation MLP."""

    name = "learned_cc"

    def __init__(self, kernel, mlp, normalizer, min_rate=1.0):
        self.kernel = kernel
        self.mlp = mlp
        self.normalizer = normalizer
        self.min_rate = min_rate
        self.instrumentation = PolicyInstrumentation(
            kernel.store, self.name,
            predict=lambda row: self._delta(np.atleast_2d(row)),
        )
        self.decisions = 0

    def _delta(self, features):
        x = self.normalizer.transform(features)
        return self.mlp.predict(x)[:, 0]

    def __call__(self, observation):
        features = np.array([[
            observation["rate_mbps"],
            observation["delivered_mbps"],
            observation["loss"],
        ]])
        delta = float(self._delta(features)[0])
        inference_ns = self.mlp.mac_count * NS_PER_MAC
        self.instrumentation.observe_inference(
            features[0], output=delta, inference_ns=inference_ns
        )
        self.decisions += 1
        return max(observation["rate_mbps"] + delta, self.min_rate)


#: Implementation name of the learned controller.
POLICY_NAME = "net.learned_cc"


def install_learned_cc(kernel, link):
    """Train the imitation controller and install it on ``link`` as the
    active one."""
    observations, deltas = generate_teacher_trace()
    mlp, normalizer = train_cc_model(observations, deltas)
    controller = LearnedCcController(kernel, mlp, normalizer)
    kernel.functions.register_implementation(POLICY_NAME, controller)
    kernel.functions.replace(link.CC_SLOT, POLICY_NAME)
    return controller
