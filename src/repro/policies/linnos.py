"""LinnOS-style learned I/O latency prediction (§5 / Figure 2).

LinnOS trains a light neural network to predict, from recent device
behavior, whether an I/O submitted now will be slow; predicted-slow I/O is
revoked and re-issued to a replica.  Here:

- :func:`collect_training_data` runs a round-robin data-collection phase on
  a simulated volume and returns ``(features, labels)`` pairs;
- :func:`train_linnos_model` fits the small MLP classifier;
- :class:`LinnosPolicy` is the deployable pick policy: it scores every
  replica's slow probability and submits to the least-slow-looking one,
  honoring the ``ml_enabled`` feature-store switch that the paper's
  Listing 2 guardrail flips off.
"""

import numpy as np

from repro.kernel.storage.volume import PickDecision, round_robin_policy
from repro.ml.features import Normalizer
from repro.ml.mlp import Mlp
from repro.ml.train import Adam, train_classifier
from repro.policies.base import PolicyInstrumentation

FEATURE_NAMES = ["slow_frac_4", "slow_frac_8", "last_is_slow", "time_since_slow"]

# Simulated per-MAC inference cost; a light in-kernel NN runs a few
# nanoseconds per multiply-accumulate on a modern core.
NS_PER_MAC = 2


class LinnosModel:
    """Normalizer + small MLP predicting P(next I/O on this device is slow)."""

    def __init__(self, mlp, normalizer):
        self.mlp = mlp
        self.normalizer = normalizer
        self.train_count = 0

    def slow_probabilities(self, features_matrix):
        """P(slow) for each row of raw (unnormalized) device features."""
        x = self.normalizer.transform(features_matrix)
        return self.mlp.predict(x)[:, 0]

    @property
    def inference_ns(self):
        """Simulated cost of scoring one device."""
        return self.mlp.mac_count * NS_PER_MAC


class _CollectingPolicy:
    """Round-robin picker that remembers the chosen device's features."""

    def __init__(self):
        self._fallback = round_robin_policy()
        self.pending = {}
        self.samples = []

    def __call__(self, volume):
        decision = self._fallback(volume)
        features = volume.devices[decision.index].features()
        # submit() bumps _io_counter before consulting the policy, so the
        # counter currently holds this very request's id.
        self.pending[volume._io_counter] = features
        return decision


def collect_training_data(kernel, volume, workload_starter, duration):
    """Run a data-collection phase; returns ``(features, labels)`` arrays.

    ``workload_starter()`` must start the I/O generator (so callers control
    rate/phases).  Labels are 1 when the sampled I/O completed slow.
    """
    collector = _CollectingPolicy()
    slot = kernel.functions.slot(volume.PICK_SLOT)
    previous = slot.current
    slot.current = collector

    def on_complete(hook, now, payload):
        features = collector.pending.pop(payload["io_id"], None)
        if features is not None:
            collector.samples.append((features, 1 if payload["slow"] else 0))

    probe = volume.complete_hook.attach(on_complete, name="linnos-collector")
    workload_starter()
    kernel.run(until=kernel.engine.now + duration)
    probe.detach()
    slot.current = previous

    if not collector.samples:
        raise RuntimeError("data collection produced no samples")
    features = np.array([f for f, _ in collector.samples], dtype=float)
    labels = np.array([label for _, label in collector.samples], dtype=int)
    return features, labels


def train_linnos_model(features, labels, hidden=(16, 16), epochs=30,
                       seed=0):
    """Fit the light NN on collected (features, labels)."""
    normalizer = Normalizer().fit(features)
    x = normalizer.transform(features)
    mlp = Mlp([features.shape[1], *hidden, 1], head="sigmoid", seed=seed)
    train_classifier(mlp, x, labels, epochs=epochs, optimizer=Adam(1e-2),
                     seed=seed)
    return LinnosModel(mlp, normalizer)


class OnlineSampleBuffer:
    """Continuously collects labeled (features, slow) samples from a volume.

    Unlike the one-shot collection phase, this rides along with *any* active
    pick policy: at submit time it snapshots the chosen device's features,
    and at completion it labels them.  The retraining daemon trains on the
    most recent window — which, right after a guardrail disabled the model,
    is exactly the fresh post-drift data the paper says retraining needs.
    """

    def __init__(self, volume, capacity=20_000):
        import collections

        self.volume = volume
        self.capacity = capacity
        self._pending = {}
        self._samples = collections.deque(maxlen=capacity)
        self._submit_probe = volume.submit_hook.attach(
            self._on_submit, name="sample-buffer:submit")
        self._complete_probe = volume.complete_hook.attach(
            self._on_complete, name="sample-buffer:complete")

    def _on_submit(self, hook, now, payload):
        device = self.volume.devices[payload["device"]]
        self._pending[payload["io_id"]] = device.features()

    def _on_complete(self, hook, now, payload):
        features = self._pending.pop(payload["io_id"], None)
        if features is not None:
            self._samples.append((features, 1 if payload["slow"] else 0))

    def __len__(self):
        return len(self._samples)

    def dataset(self, last=None):
        """The most recent ``last`` samples as (features, labels) arrays."""
        samples = list(self._samples)
        if last is not None:
            samples = samples[-last:]
        if not samples:
            raise RuntimeError("sample buffer is empty")
        features = np.array([f for f, _ in samples], dtype=float)
        labels = np.array([label for _, label in samples], dtype=int)
        return features, labels

    def detach(self):
        self._submit_probe.detach()
        self._complete_probe.detach()


class LinnosPolicy:
    """Replica picker driven by the learned latency classifier.

    Decision rule (the revoke/re-issue failover, folded into one choice):
    score every replica, pick the lowest P(slow).  ``predicted_fast`` is
    whether that winning score clears the classification threshold — a
    fast-predicted submission that completes slow is a *false submit*.

    The policy consults ``LOAD(ml_enabled)`` before using the model; the
    Listing 2 guardrail disables it by saving ``ml_enabled = false``.
    """

    def __init__(self, kernel, model, threshold=0.5, enable_key="ml_enabled",
                 name="linnos", references=None, selection="argmin"):
        if selection not in ("argmin", "failover"):
            raise ValueError("selection must be 'argmin' or 'failover'")
        self.kernel = kernel
        self.model = model
        self.threshold = threshold
        self.enable_key = enable_key
        self.name = name
        self.selection = selection
        self._fallback = round_robin_policy()
        self.instrumentation = PolicyInstrumentation(
            kernel.store, name,
            references=references,
            predict=lambda row: self.model.slow_probabilities(
                np.atleast_2d(row)
            ),
        )
        self.model_picks = 0
        self.fallback_picks = 0
        if enable_key not in kernel.store:
            kernel.store.save(enable_key, True)

    def __call__(self, volume):
        if not self.kernel.store.load(self.enable_key, default=True):
            self.fallback_picks += 1
            return self._fallback(volume)

        # LinnOS failover, folded into one decision.  Two selection modes:
        # - "failover": the striping choice is the round-robin primary; a
        #   predicted-slow submission is revoked and re-issued to the next
        #   replica, stopping at the first predicted-fast one.
        # - "argmin": submit to the replica with the lowest predicted slow
        #   probability (prediction-greedy routing).
        # If every replica looks slow, stay on the primary
        # (predicted_fast=False, so no false-submit accounting).
        primary = self._fallback(volume).index
        devices = volume.devices
        count = len(devices)
        order = [(primary + offset) % count for offset in range(count)]
        features = np.array(
            [devices[i].features() for i in order], dtype=float
        )
        probabilities = self.model.slow_probabilities(features)
        index = order[0]
        predicted_fast = False
        if self.selection == "argmin":
            best = int(probabilities.argmin())
            if probabilities[best] < self.threshold:
                index = order[best]
                predicted_fast = True
        else:
            for position, device_index in enumerate(order):
                if probabilities[position] < self.threshold:
                    index = device_index
                    predicted_fast = True
                    break
        inference_ns = self.model.inference_ns * count
        self.instrumentation.observe_inference(
            features, output=float(probabilities[0]),
            inference_ns=inference_ns,
        )
        self.model_picks += 1
        return PickDecision(index, used_model=True,
                            predicted_fast=predicted_fast,
                            inference_ns=inference_ns)
