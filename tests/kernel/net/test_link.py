"""Bottleneck link and AIMD baseline."""

import pytest

from repro.kernel.net import BottleneckLink, aimd_controller
from repro.sim.units import MILLISECOND, SECOND


@pytest.fixture
def link(kernel):
    return kernel.attach(
        "net", BottleneckLink(kernel, capacity_mbps=100.0)
    )


def test_capacity_validated(kernel):
    with pytest.raises(ValueError):
        BottleneckLink(kernel, capacity_mbps=0)


def test_aimd_converges_to_high_utilization(kernel, link):
    link.start()
    kernel.run(until=20 * SECOND)
    # Skip the ramp-up; steady state should hover near capacity.
    steady = [v for t, v in kernel.metrics.series("net.utilization")
              if t > 10 * SECOND]
    assert sum(steady) / len(steady) > 0.75


def test_aimd_halves_on_loss():
    controller = aimd_controller()
    assert controller({"rate_mbps": 100.0, "loss": 0.1}) == 50.0
    assert controller({"rate_mbps": 50.0, "loss": 0.0}) == 52.0


def test_aimd_respects_min_rate():
    controller = aimd_controller(min_rate=5.0)
    assert controller({"rate_mbps": 6.0, "loss": 0.5}) == 5.0


def test_loss_computed_when_over_capacity(kernel, link):
    kernel.functions.register_implementation("net.blast", lambda obs: 200.0)
    kernel.functions.replace("net.cc_update", "net.blast")
    link.rate_mbps = 200.0
    link.start()
    kernel.run(until=1 * SECOND)
    assert kernel.store.load("net.loss") == pytest.approx(0.5)
    assert kernel.store.load("net.utilization") == 1.0


def test_capacity_step_changes_utilization(kernel, link):
    kernel.functions.register_implementation("net.fixed", lambda obs: 50.0)
    kernel.functions.replace("net.cc_update", "net.fixed")
    link.rate_mbps = 50.0
    link.start()
    kernel.run(until=1 * SECOND)
    assert kernel.store.load("net.utilization") == pytest.approx(0.5)
    link.set_capacity(200.0)
    kernel.run(until=2 * SECOND)
    assert kernel.store.load("net.utilization") == pytest.approx(0.25)


def test_invalid_capacity_step(kernel, link):
    with pytest.raises(ValueError):
        link.set_capacity(0)


def test_double_start_rejected(kernel, link):
    link.start()
    with pytest.raises(RuntimeError):
        link.start()


def test_epoch_hook_payload(kernel, link):
    events = []
    kernel.hooks.get("net.cc_update").attach(lambda n, t, p: events.append(p))
    link.start()
    kernel.run(until=100 * MILLISECOND)
    assert len(events) == 5  # one per RTT
    assert set(events[0]) == {
        "rate_mbps", "delivered_mbps", "loss", "utilization", "next_rate_mbps",
    }


def test_noise_applied_only_to_delivered(kernel):
    link = BottleneckLink(kernel, capacity_mbps=100.0, noise_std=0.2)
    observations = []
    kernel.functions.register_implementation(
        "net.spy", lambda obs: observations.append(obs) or obs["rate_mbps"])
    kernel.functions.replace("net.cc_update", "net.spy")
    link.rate_mbps = 50.0
    link.start()
    kernel.run(until=2 * SECOND)
    delivered = [o["delivered_mbps"] for o in observations]
    assert max(delivered) > 51.0 or min(delivered) < 49.0  # noisy
    assert all(o["loss"] == 0.0 for o in observations)      # crisp


def test_derived_utilization_average(kernel, link):
    link.start()
    kernel.run(until=5 * SECOND)
    assert 0.0 <= kernel.store.load("net.utilization.avg") <= 1.0
