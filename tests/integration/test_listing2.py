"""Listing 2 executes verbatim against the storage substrate."""


from repro.bench.scenarios import LISTING2_SPEC, build_storage_kernel
from repro.kernel.storage.volume import PickDecision
from repro.sim.units import SECOND


def test_listing2_parses_compiles_and_loads():
    kernel, _, _ = build_storage_kernel()
    monitor = kernel.guardrails.load(LISTING2_SPEC)
    assert monitor.name == "low-false-submit"
    assert monitor.enabled
    assert monitor.compiled.verification.total_cost > 0


def test_listing2_disables_misbehaving_model():
    kernel, devices, volume = build_storage_kernel(seed=9)
    kernel.store.save("ml_enabled", True)
    # A policy that always predicts fast while device 0 is pinned slow:
    # every submission is a false submit.
    volume.install_policy(
        "storage.broken",
        lambda vol: PickDecision(0, used_model=True, predicted_fast=True),
    )
    devices[0]._sample_service_us = lambda: 3000.0
    monitor = kernel.guardrails.load(LISTING2_SPEC)

    def submit(step=0):
        if kernel.store.load("ml_enabled"):
            volume.submit()
        if step < 3000:
            kernel.engine.schedule(2_000_000, submit, step + 1)

    submit()
    kernel.run(until=6 * SECOND)
    assert monitor.violation_count >= 1
    assert kernel.store.load("ml_enabled") is False
    # Trigger is a 1s TIMER: the violation lands on a second boundary.
    assert monitor.violations[0].time % SECOND == 0


def test_listing2_does_not_fire_on_healthy_model():
    kernel, _, volume = build_storage_kernel(seed=10)
    kernel.store.save("ml_enabled", True)
    monitor = kernel.guardrails.load(LISTING2_SPEC)

    def submit(step=0):
        volume.submit()  # round-robin: used_model False, no rate events
        if step < 1000:
            kernel.engine.schedule(2_000_000, submit, step + 1)

    submit()
    kernel.run(until=3 * SECOND)
    assert monitor.violation_count == 0
    assert kernel.store.load("ml_enabled") is True


def test_listing2_overhead_is_negligible():
    kernel, _, _ = build_storage_kernel()
    monitor = kernel.guardrails.load(LISTING2_SPEC)
    kernel.run(until=10 * SECOND)
    fraction = monitor.overhead.simulated_ns / (10 * SECOND)
    assert fraction < 1e-4  # a 1 Hz check costs ~nothing
