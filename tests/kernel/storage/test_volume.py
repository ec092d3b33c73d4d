"""Replicated volume: policy slot, metrics, false-submit accounting."""

import pytest

from repro.kernel.storage.ssd import DeviceProfile, SsdDevice
from repro.kernel.storage.volume import PickDecision, ReplicatedVolume, round_robin_policy
from repro.sim.units import SECOND


def make_volume(kernel, replicas=3):
    devices = [
        SsdDevice(kernel.engine, kernel.engine.rng.get("d{}".format(i)),
                  "d{}".format(i), DeviceProfile.pre_drift())
        for i in range(replicas)
    ]
    return ReplicatedVolume(kernel, devices), devices


def test_needs_devices(kernel):
    with pytest.raises(ValueError):
        ReplicatedVolume(kernel, [])


def test_round_robin_distributes(kernel):
    volume, devices = make_volume(kernel)
    for _ in range(9):
        volume.submit()
    kernel.run(until=1 * SECOND)
    assert [d.served_count for d in devices] == [3, 3, 3]


def test_completion_updates_metrics_and_store(kernel):
    volume, _ = make_volume(kernel)
    volume.submit()
    kernel.run(until=1 * SECOND)
    assert volume.completed == 1
    assert kernel.store.load("io_latency_us") > 0
    assert len(kernel.metrics.series("storage.io_latency_us")) == 1


def test_hooks_fire_with_payloads(kernel):
    volume, _ = make_volume(kernel)
    submits, completes = [], []
    kernel.hooks.get("storage.submit_io").attach(
        lambda n, t, p: submits.append(p))
    kernel.hooks.get("storage.io_complete").attach(
        lambda n, t, p: completes.append(p))
    volume.submit()
    kernel.run(until=1 * SECOND)
    assert submits[0]["io_id"] == 1
    assert completes[0]["io_id"] == 1
    assert "latency_us" in completes[0]
    assert "service_us" in completes[0]


def test_install_policy_swaps_slot(kernel):
    volume, _ = make_volume(kernel)
    calls = []

    def policy(vol):
        calls.append(1)
        return PickDecision(0)

    volume.install_policy("storage.test_policy", policy)
    volume.submit()
    assert calls == [1]


def test_false_submit_accounting(kernel):
    volume, devices = make_volume(kernel)
    # A policy that always predicts fast on device 0.
    volume.install_policy(
        "storage.always_fast",
        lambda vol: PickDecision(0, used_model=True, predicted_fast=True),
    )
    # Force device 0 slow by replacing its sampler.
    devices[0]._sample_service_us = lambda: 5000.0
    for _ in range(10):
        volume.submit()
    # 10 serial 5ms services finish by t=50ms, inside the 1s rate window.
    kernel.run(until=60_000_000)
    assert volume.false_submits == 10
    assert volume.model_submits == 10
    assert kernel.store.load("false_submit_rate") == 1.0


def test_predicted_slow_submissions_not_false_submits(kernel):
    volume, devices = make_volume(kernel)
    volume.install_policy(
        "storage.predicts_slow",
        lambda vol: PickDecision(0, used_model=True, predicted_fast=False),
    )
    devices[0]._sample_service_us = lambda: 5000.0
    for _ in range(5):
        volume.submit()
    kernel.run(until=1 * SECOND)
    assert volume.false_submits == 0
    assert kernel.store.load("false_submit_rate") == 0.0


def test_false_submit_rate_decays_when_model_disabled(kernel):
    volume, devices = make_volume(kernel)
    volume.install_policy(
        "storage.always_fast",
        lambda vol: PickDecision(0, used_model=True, predicted_fast=True),
    )
    devices[0]._sample_service_us = lambda: 5000.0
    volume.submit()
    kernel.run(until=1 * SECOND)
    assert kernel.store.load("false_submit_rate") == 1.0
    kernel.run(until=5 * SECOND)  # window (1s) passes with no model I/O
    assert kernel.store.load("false_submit_rate") == 0.0


def test_latency_includes_queue_wait(kernel):
    volume, devices = make_volume(kernel, replicas=1)
    devices[0]._sample_service_us = lambda: 100.0
    for _ in range(3):
        volume.submit()
    kernel.run(until=1 * SECOND)
    series = kernel.metrics.series("storage.io_latency_us")
    latencies = series.values
    assert latencies[0] == pytest.approx(100, rel=0.01)
    assert latencies[2] == pytest.approx(300, rel=0.01)


def test_round_robin_policy_standalone_cycles():
    policy = round_robin_policy()

    class FakeVolume:
        devices = [None, None]

    picks = [policy(FakeVolume()).index for _ in range(4)]
    assert picks == [0, 1, 0, 1]


def test_slow_counter_metric(kernel):
    volume, devices = make_volume(kernel, replicas=1)
    devices[0]._sample_service_us = lambda: 5000.0
    volume.submit()
    kernel.run(until=1 * SECOND)
    assert kernel.metrics.counter("storage.slow_ios") == 1
