"""Epoch-loop ordering and determinism paths multi-policy hosts exercise.

The scenario zoo runs a :class:`BottleneckLink` alongside other subsystems
on one engine, swaps its controller slot mid-flight, and reads the
windowed ``net.utilization.avg`` from guardrails — so the ordering of the
epoch pipeline (publish, hook, rate update, reschedule) and its
determinism under a fixed seed are load-bearing here.
"""

import pytest

from repro.kernel import Kernel
from repro.kernel.net import BottleneckLink
from repro.sim.units import MILLISECOND, SECOND


@pytest.fixture
def link(kernel):
    return kernel.attach(
        "net", BottleneckLink(kernel, capacity_mbps=100.0))


def _fixed(rate):
    return lambda observation: rate


def test_epoch_publishes_before_hook_fires(kernel, link):
    """Within one epoch the store keys are saved before the hook fires."""
    seen = []

    def on_epoch(hook, now, payload):
        seen.append((payload["rate_mbps"],
                     kernel.store.load("net.rate_mbps"),
                     kernel.store.load("net.utilization")))

    link.update_hook.attach(on_epoch)
    kernel.functions.register_implementation("net.fixed", _fixed(50.0))
    kernel.functions.replace(link.CC_SLOT, "net.fixed")
    link.rate_mbps = 50.0
    link.start()
    kernel.run(until=100 * MILLISECOND)
    assert seen, "hook never fired"
    for rate, stored_rate, utilization in seen:
        assert stored_rate == rate
        assert utilization == pytest.approx(rate / 100.0)


def test_rate_update_lands_after_hook(kernel, link):
    """The hook observes the epoch's rate; the *next* rate applies after."""
    states = []
    kernel.functions.register_implementation("net.fixed", _fixed(70.0))
    kernel.functions.replace(link.CC_SLOT, "net.fixed")
    link.rate_mbps = 10.0
    link.update_hook.attach(
        lambda hook, now, payload: states.append(
            (payload["rate_mbps"], payload["next_rate_mbps"],
             link.rate_mbps)))
    link.start()
    kernel.run(until=50 * MILLISECOND)
    first_rate, next_rate, rate_during_hook = states[0]
    assert first_rate == 10.0
    assert next_rate == 70.0
    assert rate_during_hook == 10.0  # not yet applied inside the hook
    assert states[1][0] == 70.0      # applied by the next epoch


def test_controller_swap_takes_effect_next_epoch(kernel, link):
    """``functions.replace`` mid-run redirects the very next epoch."""
    rates = []
    link.update_hook.attach(
        lambda hook, now, payload: rates.append(payload["next_rate_mbps"]))
    kernel.functions.register_implementation("net.slow", _fixed(20.0))
    kernel.functions.register_implementation("net.fast", _fixed(80.0))
    kernel.functions.replace(link.CC_SLOT, "net.slow")
    link.start()
    kernel.run(until=100 * MILLISECOND)
    kernel.functions.replace(link.CC_SLOT, "net.fast")
    kernel.run(until=200 * MILLISECOND)
    assert rates[:5] == [20.0] * 5
    assert rates[5:] == [80.0] * 5


def test_windowed_average_drains_in_epoch_order(kernel, link):
    """``net.utilization.avg`` is the mean of the last W epoch samples.

    After a capacity step the average must converge monotonically onto the
    new utilization as old-epoch samples drain out of the window — the
    exact signal ``zoo-net-utilization`` trips on.
    """
    kernel.functions.register_implementation("net.fixed", _fixed(60.0))
    kernel.functions.replace(link.CC_SLOT, "net.fixed")
    link.rate_mbps = 60.0
    link.start()
    kernel.run(until=2 * SECOND)  # 100 epochs: window full of 0.6
    assert kernel.store.load("net.utilization.avg") == pytest.approx(0.6)
    link.set_capacity(240.0)
    averages = []
    link.update_hook.attach(
        lambda hook, now, payload: averages.append(
            kernel.store.load("net.utilization.avg")))
    kernel.run(until=4 * SECOND)
    # Monotone non-increasing drain from 0.6 down to 60/240.
    assert all(a >= b for a, b in zip(averages, averages[1:]))
    assert averages[-1] == pytest.approx(0.25)
    # 32-sample window: fully drained after 32 post-step epochs.
    assert averages[32] == pytest.approx(0.25)


def test_noisy_link_is_seed_deterministic():
    """Same seed, same noisy measurement series; different seed diverges.

    The noise rides only on the controller's throughput *measurement*
    (``delivered_mbps`` in the observation), so record what the controller
    actually sees.
    """

    def run(seed):
        kernel = Kernel(seed=seed)
        link = kernel.attach(
            "net", BottleneckLink(kernel, capacity_mbps=100.0, noise_std=0.1))
        observed = []

        def recording_controller(observation):
            observed.append(observation["delivered_mbps"])
            return 50.0

        kernel.functions.register_implementation("net.recorder",
                                                 recording_controller)
        kernel.functions.replace(link.CC_SLOT, "net.recorder")
        link.rate_mbps = 50.0
        link.start()
        kernel.run(until=2 * SECOND)
        return observed

    first = run(7)
    assert len(first) == 100  # one epoch per 20 ms RTT
    assert first == run(7)
    assert first != run(8)
