"""Policy instrumentation: P1 tracker, P2 probe, P5 meter."""

import numpy as np
import pytest

from repro.core.featurestore import FeatureStore
from repro.detect.reference import ReferenceDistribution
from repro.policies.base import (
    InputDistributionTracker,
    PolicyInstrumentation,
    SensitivityProbe,
)


def make_references(seed=0, bins=16):
    rng = np.random.default_rng(seed)
    return [
        ReferenceDistribution.from_samples("f0", rng.normal(0, 1, 2000),
                                           bins=bins),
        ReferenceDistribution.from_samples("f1", rng.normal(10, 2, 2000),
                                           bins=bins),
    ]


class TestInputDistributionTracker:
    def test_in_distribution_stays_low(self):
        store = FeatureStore()
        tracker = InputDistributionTracker(store, "pol", make_references(),
                                           publish_every=500)
        rng = np.random.default_rng(1)
        for _ in range(1000):
            tracker.observe([rng.normal(0, 1), rng.normal(10, 2)])
        assert tracker.published_windows == 2
        assert store.load("pol.input_psi_max") < 0.25
        assert store.load("pol.input_oor_max") < 0.05

    def test_shifted_inputs_score_high(self):
        store = FeatureStore()
        tracker = InputDistributionTracker(store, "pol", make_references(),
                                           publish_every=500)
        rng = np.random.default_rng(2)
        for _ in range(500):
            tracker.observe([rng.normal(5, 1), rng.normal(10, 2)])
        assert store.load("pol.input_psi_max") > 0.25
        assert store.load("pol.input_oor_max") > 0.3

    def test_window_resets_after_publish(self):
        store = FeatureStore()
        tracker = InputDistributionTracker(store, "pol", make_references(),
                                           publish_every=10)
        rng = np.random.default_rng(3)
        for _ in range(10):
            tracker.observe([rng.normal(50, 1), 10.0])  # badly off
        bad = store.load("pol.input_psi_max")
        for _ in range(10):
            tracker.observe([rng.normal(0, 1), rng.normal(10, 2)])
        good = store.load("pol.input_psi_max")
        assert good < bad  # the new window is clean

    def test_batch_observation(self):
        store = FeatureStore()
        tracker = InputDistributionTracker(store, "pol", make_references(),
                                           publish_every=4)
        tracker.observe(np.zeros((4, 2)) + [0.0, 10.0])
        assert tracker.published_windows == 1

    def test_feature_count_mismatch_raises(self):
        tracker = InputDistributionTracker(FeatureStore(), "pol",
                                           make_references())
        with pytest.raises(ValueError):
            tracker.observe([1.0])

    def test_publish_with_no_data_is_noop(self):
        store = FeatureStore()
        tracker = InputDistributionTracker(store, "pol", make_references())
        tracker.publish()
        assert store.load("pol.input_psi_max") is None


class TestSensitivityProbe:
    def test_robust_function_scores_low(self):
        store = FeatureStore()
        probe = SensitivityProbe(store, "pol", lambda x: 1.0,
                                 probe_every=1)
        for _ in range(10):
            probe.maybe_probe(np.array([1.0, 2.0]), 1.0)
        assert store.load("pol.output_sensitivity") == 0.0

    def test_sensitive_function_scores_high(self):
        store = FeatureStore()
        # A function with huge local slope.
        probe = SensitivityProbe(store, "pol",
                                 lambda x: 1000.0 * float(np.sum(x)),
                                 probe_every=1)
        value = 1000.0 * 3.0
        for _ in range(10):
            probe.maybe_probe(np.array([1.0, 2.0]), value)
        assert store.load("pol.output_sensitivity") > 1.0

    def test_probe_every_throttles(self):
        probe = SensitivityProbe(FeatureStore(), "p", lambda x: 0.0,
                                 probe_every=4)
        for _ in range(8):
            probe.maybe_probe(np.array([1.0]), 0.0)
        assert probe.probe_count == 2


class TestPolicyInstrumentation:
    def test_meter_always_on(self):
        store = FeatureStore()
        inst = PolicyInstrumentation(store, "pol")
        inst.observe_inference([1.0], inference_ns=100)
        inst.meter.record_decision(0, 300)
        assert store.load("pol.net_benefit") == 200

    def test_trackers_optional(self):
        inst = PolicyInstrumentation(FeatureStore(), "pol")
        assert inst.inputs is None
        assert inst.sensitivity is None

    def test_full_instrumentation_wires_everything(self):
        store = FeatureStore()
        inst = PolicyInstrumentation(
            store, "pol", references=make_references(),
            predict=lambda row: np.array([0.5]), publish_every=2,
            probe_every=1,
        )
        inst.observe_inference([0.0, 10.0], output=0.5, inference_ns=10)
        inst.observe_inference([0.0, 10.0], output=0.5, inference_ns=10)
        assert store.load("pol.input_psi_max") is not None
        assert store.load("pol.output_sensitivity") is not None
        assert store.load("pol.inferences") == 2
