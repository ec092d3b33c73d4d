"""Policy instrumentation: the data guardrail properties read.

§3.3 argues that for learned policies, much of a guardrail's plumbing "can
be determined automatically".  The framework's half of that bargain is
here: wrap a learned policy in :class:`PolicyInstrumentation` and it will
publish to the feature store, under ``<name>.*`` keys,

- inference cost and accumulated benefit (P5, via
  :class:`~repro.core.overhead.InferenceMeter`);
- input-distribution drift versus the training references (P1, via
  :class:`InputDistributionTracker`);
- output sensitivity to small input perturbations (P2, via
  :class:`SensitivityProbe`).

Property templates (:mod:`repro.core.properties`) generate guardrail specs
whose rules LOAD exactly these keys.
"""

import numpy as np

from repro.core.overhead import InferenceMeter
from repro.detect.drift import ks_statistic, population_stability_index


class InputDistributionTracker:
    """Compares live model inputs against training references (P1).

    ``references`` are per-feature
    :class:`~repro.detect.reference.ReferenceDistribution` objects.  Live
    samples accumulate into matching histograms; every ``publish_every``
    observations the tracker publishes.  PSI carries a small-sample bias of
    roughly ``bins / window``, so very small windows read as drifted even on
    clean data — hence the 512-sample default.  Published per window:

    - ``<prefix>.input_psi_max`` — worst-feature PSI,
    - ``<prefix>.input_ks_max`` — worst-feature KS statistic,
    - ``<prefix>.input_oor_max`` — worst-feature out-of-range fraction.

    Live histograms then reset, so the published values describe the most
    recent window rather than the whole run.
    """

    def __init__(self, store, prefix, references, publish_every=512):
        self.store = store
        self.prefix = prefix
        self.references = list(references)
        self.publish_every = publish_every
        self._live = [ref.new_live_histogram() for ref in self.references]
        self._pending = 0
        self.published_windows = 0

    def observe(self, features):
        """Record one model input (iterable of per-feature values)."""
        features = np.atleast_1d(np.asarray(features, dtype=float))
        if features.shape[-1] != len(self.references):
            raise ValueError(
                "expected {} features, got {}".format(
                    len(self.references), features.shape[-1]
                )
            )
        rows = np.atleast_2d(features)
        for row in rows:
            for live, value in zip(self._live, row):
                live.update(float(value))
            self._pending += 1
        if self._pending >= self.publish_every:
            self.publish()

    def publish(self):
        """Compute drift metrics for the current window and reset it."""
        if self._pending == 0:
            return
        psi_max = ks_max = oor_max = 0.0
        for ref, live in zip(self.references, self._live):
            psi_max = max(psi_max, population_stability_index(ref.histogram, live))
            ks_max = max(ks_max, ks_statistic(ref.histogram, live))
            oor_max = max(oor_max, live.out_of_range_fraction())
            live.reset()
        self._pending = 0
        self.published_windows += 1
        self.store.save(self.prefix + ".input_psi_max", psi_max)
        self.store.save(self.prefix + ".input_ks_max", ks_max)
        self.store.save(self.prefix + ".input_oor_max", oor_max)


class SensitivityProbe:
    """Measures output robustness to input noise (P2).

    Every ``probe_every`` inferences, re-runs the model on a noise-perturbed
    copy of the input and records ``|output(x + eps) - output(x)|``.  The
    EWMA of that delta is published as ``<prefix>.output_sensitivity``: a
    model whose decisions swing on measurement noise scores high.
    """

    def __init__(self, store, prefix, predict, noise_scale=0.01,
                 probe_every=16, seed=0, alpha=0.2):
        self.store = store
        self.prefix = prefix
        self.predict = predict
        self.noise_scale = noise_scale
        self.probe_every = probe_every
        self._rng = np.random.default_rng(seed)
        self._count = 0
        self._ewma = None
        self.alpha = alpha
        self.probe_count = 0

    def due(self):
        """Count one inference; true on every ``probe_every``-th."""
        self._count += 1
        return not self._count % self.probe_every

    def maybe_probe(self, features, output):
        """Call after each real inference with its input and scalar output."""
        return self.probe(features, output) if self.due() else None

    def probe(self, features, output):
        """Perturb ``features``, re-run the model, publish the EWMA delta."""
        features = np.asarray(features, dtype=float)
        scale = self.noise_scale * (np.abs(features) + 1.0)
        noisy = features + self._rng.normal(0.0, 1.0, size=features.shape) * scale
        perturbed = float(np.asarray(self.predict(noisy)).reshape(-1)[0])
        delta = abs(perturbed - float(output))
        self._ewma = (
            delta if self._ewma is None
            else self.alpha * delta + (1 - self.alpha) * self._ewma
        )
        self.probe_count += 1
        self.store.save(self.prefix + ".output_sensitivity", self._ewma)
        return delta


class PolicyInstrumentation:
    """Bundle of the per-policy trackers, created from one call.

    ``references`` enables the P1 tracker; ``predict`` (a single-output
    callable over one feature vector) enables the P2 probe.  The P5 meter is
    always on.
    """

    def __init__(self, store, name, references=None, predict=None,
                 publish_every=512, probe_every=16, noise_scale=0.01, seed=0):
        self.name = name
        self.meter = InferenceMeter(store, name)
        self.inputs = None
        if references:
            self.inputs = InputDistributionTracker(
                store, name, references, publish_every=publish_every
            )
        self.sensitivity = None
        if predict is not None:
            self.sensitivity = SensitivityProbe(
                store, name, predict, noise_scale=noise_scale,
                probe_every=probe_every, seed=seed,
            )

    def observe_inference(self, features, output=None, inference_ns=0):
        """Record one inference: inputs, cost, and (optionally) sensitivity."""
        self.meter.record_inference(inference_ns)
        if self.inputs is not None:
            self.inputs.observe(features)
        sensitivity = self.sensitivity
        # The skip test comes first: 15 of 16 inferences need no coercion.
        if sensitivity is not None and output is not None and sensitivity.due():
            rows = np.atleast_2d(np.asarray(features, dtype=float))
            sensitivity.probe(rows[0], output)

    def record_gain(self, ns):
        self.meter.record_gain(ns)
