"""The full lifecycle: misbehave -> detect -> disable -> retrain -> re-enable.

Expensive; marked slow.
"""

import pytest

from repro.bench.scenarios import (
    run_closed_loop_scenario,
    train_default_linnos_model,
)
from repro.policies.linnos import OnlineSampleBuffer
from repro.sim.units import SECOND

pytestmark = pytest.mark.slow

DURATION_S = 30


@pytest.fixture(scope="module")
def closed_loop():
    model = train_default_linnos_model(seed=1, train_seconds=12)
    return run_closed_loop_scenario(model, duration_s=DURATION_S)


def test_guardrail_disables_then_retrains(closed_loop):
    result, daemon = closed_loop
    notes = result.kernel.reporter.notes_for()
    kinds = [n["kind"] for n in notes]
    assert "SAVE" in kinds
    assert "RETRAIN_START" in kinds
    assert "RETRAIN_DONE" in kinds
    assert daemon.completed_count >= 1


def test_model_reenabled_and_stays_enabled(closed_loop):
    result, _ = closed_loop
    assert result.ml_enabled is True
    # No disable events in the last 5 simulated seconds: the loop settled.
    late_saves = [
        n for n in result.kernel.reporter.notes_for(kind="SAVE")
        if n["time"] > (DURATION_S - 5) * SECOND
    ]
    assert late_saves == []


def test_recovered_model_beats_fallback_level(closed_loop):
    result, _ = closed_loop
    # Middle window: fallback-dominated; tail window: retrained model active.
    fallback_phase = result.mean_between(8, 14)
    recovered_phase = result.mean_between(DURATION_S - 6, DURATION_S)
    assert recovered_phase < fallback_phase


def test_sample_buffer_collects_under_any_policy():
    from repro.bench.scenarios import build_storage_kernel
    from repro.kernel.storage import PoissonWorkload

    kernel, _, volume = build_storage_kernel(seed=9)
    buffer = OnlineSampleBuffer(volume, capacity=100)
    PoissonWorkload(kernel, volume, [(1 * SECOND, 500)]).start()
    kernel.run(until=1 * SECOND)
    assert len(buffer.dataset()[1]) == 100  # capacity-capped
    features, labels = buffer.dataset(last=50)
    assert features.shape == (50, 4)
    assert set(labels) <= {0, 1}
    buffer.detach()
    before = buffer.dataset()
    volume.submit()
    kernel.run(until=kernel.now + SECOND)
    after = buffer.dataset()  # detached: no more samples
    assert (after[0] == before[0]).all() and (after[1] == before[1]).all()


def test_sample_buffer_empty_dataset_raises():
    from repro.bench.scenarios import build_storage_kernel

    kernel, _, volume = build_storage_kernel(seed=10)
    buffer = OnlineSampleBuffer(volume)
    with pytest.raises(RuntimeError):
        buffer.dataset()
