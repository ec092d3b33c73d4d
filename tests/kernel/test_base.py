"""Kernel base: subsystems, clock, guardrail manager wiring."""

import pytest

from repro.kernel import Kernel
from repro.sim.units import SECOND


def test_kernel_is_a_monitor_host(kernel):
    assert kernel.store is not None
    assert kernel.guardrails.host is kernel


def test_attach_returns_the_subsystem(kernel):
    subsystem = object()
    assert kernel.attach("x", subsystem) is subsystem


def test_duplicate_attach_rejected(kernel):
    kernel.attach("x", object())
    with pytest.raises(ValueError):
        kernel.attach("x", object())


def test_run_advances_clock(kernel):
    kernel.run(until=3 * SECOND)
    assert kernel.now == 3 * SECOND


def test_store_clock_follows_engine(kernel):
    kernel.engine.schedule(100, kernel.store.save, "k", 1)
    kernel.run(until=200)
    # RateCounter-style derived keys need engine-time stamps; verify via
    # subscription timestamps.
    seen = []
    kernel.store.subscribe(lambda k, v, now: seen.append(now))
    kernel.engine.schedule(50, kernel.store.save, "k2", 2)
    kernel.run(until=300)
    assert seen == [250]


def test_retrain_min_interval_configurable():
    kernel = Kernel(seed=0, retrain_min_interval=10)
    assert kernel.retrain_queue.min_interval == 10
