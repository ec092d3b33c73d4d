"""Bottleneck link simulated in RTT epochs.

Model: one sender, one link of (possibly time-varying) capacity.  Each RTT
epoch:

1. the sender transmits at its current rate;
2. delivered = min(rate, capacity); loss = max(rate - capacity, 0) / rate;
3. the controller observes (rate, delivered, loss) — *with measurement
   noise* — and returns the next rate.

Published keys: ``net.utilization`` (delivered/capacity, windowed average
as ``net.utilization.avg``), ``net.rate_mbps``, ``net.loss``.
The ``net.cc_update`` hook fires every epoch.
"""

from repro.sim.units import MILLISECOND


#: AIMD's additive step and multiplicative backoff.
AIMD_INCREASE_MBPS = 2.0
AIMD_DECREASE_FACTOR = 0.5


def aimd_controller(min_rate=1.0):
    """Additive-increase / multiplicative-decrease baseline."""

    def controller(observation):
        rate = observation["rate_mbps"]
        if observation["loss"] > 0.0:
            return max(rate * AIMD_DECREASE_FACTOR, min_rate)
        return rate + AIMD_INCREASE_MBPS

    return controller


class BottleneckLink:
    CC_SLOT = "net.cc_update"
    BASELINE_NAME = "net.aimd"
    #: The sender's rate before the first epoch.
    INITIAL_RATE_MBPS = 10.0
    #: Epochs averaged into ``net.utilization.avg``.
    UTILIZATION_WINDOW = 32
    #: One epoch: the path's round-trip time.
    RTT = 20 * MILLISECOND

    def __init__(self, kernel, capacity_mbps=100.0, noise_std=0.0):
        if capacity_mbps <= 0:
            raise ValueError("capacity must be positive")
        self.kernel = kernel
        self.capacity_mbps = capacity_mbps
        self.noise_std = noise_std
        self.rate_mbps = self.INITIAL_RATE_MBPS
        self._rng = kernel.engine.rng.get("net.noise")
        self.epoch = 0
        self.total_delivered = 0.0
        self.total_offered = 0.0
        self.update_hook = kernel.hooks.declare("net.cc_update")
        baseline = aimd_controller()
        if self.CC_SLOT not in kernel.functions:
            kernel.functions.register(self.CC_SLOT, baseline)
            kernel.functions.register_implementation(self.BASELINE_NAME, baseline)
        kernel.store.derive_moving_average("net.utilization",
                                           window=self.UTILIZATION_WINDOW)
        self._running = False

    def set_capacity(self, capacity_mbps):
        """Step the link capacity (path change, cross traffic...)."""
        if capacity_mbps <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_mbps = capacity_mbps

    def start(self):
        """Begin the epoch loop at the current virtual time."""
        if self._running:
            raise RuntimeError("link is already running")
        self._running = True
        self.kernel.engine.schedule(self.RTT, self._epoch)
        return self

    def _epoch(self):
        self.epoch += 1
        rate = max(self.rate_mbps, 0.0)
        delivered = min(rate, self.capacity_mbps)
        loss = 0.0 if rate <= 0 else max(rate - self.capacity_mbps, 0.0) / rate
        utilization = delivered / self.capacity_mbps
        self.total_delivered += delivered
        self.total_offered += rate

        noise = self._rng.normal(0.0, self.noise_std) if self.noise_std else 0.0
        observation = {
            "rate_mbps": rate,
            # The throughput *measurement* is noisy — the P2 robustness
            # surface a rich-telemetry learned controller consumes.  Loss is
            # a discrete signal (dup ACKs) and stays crisp, which is why the
            # sign-based AIMD fallback is robust where the model is not.
            "delivered_mbps": max(delivered * (1.0 + noise), 0.0),
            "loss": loss,
            "rtt_ms": self.RTT / MILLISECOND,
        }
        controller = self.kernel.functions.slot(self.CC_SLOT)
        next_rate = float(controller(observation))

        store = self.kernel.store
        store.save("net.utilization", utilization)
        store.save("net.rate_mbps", rate)
        store.save("net.loss", loss)
        self.kernel.metrics.record("net.utilization", utilization)
        self.kernel.metrics.record("net.rate_mbps", rate)
        self.update_hook.fire(rate_mbps=rate, delivered_mbps=delivered,
                              loss=loss, utilization=utilization,
                              next_rate_mbps=next_rate)
        self.rate_mbps = next_rate
        self.kernel.engine.schedule(self.RTT, self._epoch)
