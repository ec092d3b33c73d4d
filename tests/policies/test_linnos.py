"""LinnOS policy: training, prediction quality, failover, kill switch."""

import numpy as np
import pytest

from repro.bench.scenarios import build_storage_kernel, train_default_linnos_model
from repro.kernel.storage import PoissonWorkload
from repro.policies.linnos import (
    LinnosPolicy,
    collect_training_data,
    train_linnos_model,
)
from repro.sim.units import SECOND


@pytest.fixture(scope="module")
def trained():
    """Training data + model, shared across this module (it is expensive)."""
    kernel, _, volume = build_storage_kernel(seed=1)
    workload = PoissonWorkload(kernel, volume, [(8 * SECOND, 900)])
    features, labels = collect_training_data(kernel, volume, workload.start,
                                             8 * SECOND)
    model = train_linnos_model(features, labels, epochs=12, seed=1)
    return features, labels, model


def test_collection_yields_labeled_features(trained):
    features, labels, _ = trained
    assert features.shape[1] == 4
    assert set(np.unique(labels)) <= {0, 1}
    assert len(features) == len(labels) > 1000
    # Label base rate should be near the pre-drift stationary slow fraction.
    assert 0.02 < labels.mean() < 0.3


def test_model_accuracy_beats_base_rate(trained):
    features, labels, model = trained
    predictions = (model.slow_probabilities(features) > 0.5).astype(int)
    majority = max(labels.mean(), 1 - labels.mean())
    assert np.mean(predictions == labels) > majority + 0.03


def test_model_inference_cost_positive(trained):
    _, _, model = trained
    assert model.inference_ns > 0


def test_policy_uses_model_and_records(trained):
    _, _, model = trained
    kernel, _, volume = build_storage_kernel(seed=3)
    policy = LinnosPolicy(kernel, model)
    volume.install_policy("storage.linnos", policy)
    PoissonWorkload(kernel, volume, [(1 * SECOND, 500)]).start()
    kernel.run(until=1 * SECOND)
    assert policy.model_picks > 0
    assert policy.fallback_picks == 0
    assert kernel.store.load("linnos.inferences") == policy.model_picks


def test_ml_enabled_false_falls_back(trained):
    _, _, model = trained
    kernel, _, volume = build_storage_kernel(seed=3)
    policy = LinnosPolicy(kernel, model)
    volume.install_policy("storage.linnos", policy)
    kernel.store.save("ml_enabled", False)
    PoissonWorkload(kernel, volume, [(1 * SECOND, 500)]).start()
    kernel.run(until=1 * SECOND)
    assert policy.model_picks == 0
    assert policy.fallback_picks > 0
    assert volume.model_submits == 0


def test_policy_avoids_slow_device(trained):
    _, _, model = trained
    kernel, devices, volume = build_storage_kernel(seed=4)
    policy = LinnosPolicy(kernel, model)
    volume.install_policy("storage.linnos", policy)
    # Pin device 0 slow: seed its history with slow completions and freshen.
    devices[0].history.extend([3000.0] * 8)
    devices[0].last_completion_time = 0
    decision = policy(volume)
    assert decision.index != 0
    assert decision.used_model


def test_failover_selection_prefers_primary_order(trained):
    _, _, model = trained
    kernel, devices, volume = build_storage_kernel(seed=5)
    policy = LinnosPolicy(kernel, model, selection="failover")
    # All devices look fresh/fast: the failover variant stays on the
    # round-robin primary.
    picks = [policy(volume).index for _ in range(3)]
    assert picks == [0, 1, 2]


def test_invalid_selection_rejected(trained):
    _, _, model = trained
    kernel, _, volume = build_storage_kernel(seed=6)
    with pytest.raises(ValueError):
        LinnosPolicy(kernel, model, selection="bogus")


def test_pre_drift_deployment_beats_round_robin():
    model = train_default_linnos_model(seed=1, train_seconds=8)

    def run(with_model):
        kernel, _, volume = build_storage_kernel(seed=7)
        if with_model:
            volume.install_policy("storage.linnos",
                                  LinnosPolicy(kernel, model))
        PoissonWorkload(kernel, volume, [(4 * SECOND, 1000)]).start()
        kernel.run(until=4 * SECOND)
        return kernel.metrics.series("storage.io_latency_us").mean()

    assert run(True) < run(False) * 0.7
