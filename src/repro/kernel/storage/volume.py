"""Replicated volume with a swappable replica-pick policy.

The flash-RAID failover of LinnOS is modeled at the decision level: every
read may be served by any replica, and the submit path asks the
``storage.pick_device`` function slot which one.  The learned policy
predicts each replica's slow probability and steers around predicted-slow
devices; the fallback is round-robin.

Per completed I/O the volume:

- records ``storage.io_latency_us`` in the metric recorder (the Figure 2
  series);
- saves ``io_latency_us`` to the feature store (feeding derived aggregates);
- saves a ``false_submit`` event (1 when the model predicted the chosen
  device fast but the I/O came back slow) — feeding the derived
  ``false_submit_rate`` that Listing 2 loads;
- fires the ``storage.submit_io`` and ``storage.io_complete`` hook points.

The saves and records go through the volume's
:class:`~repro.kernel.storage.batch.CompletionIngest`, which buffers them
while the feature store is quiet and writes them through otherwise.
"""

from repro.kernel.storage.batch import CompletionIngest
from repro.kernel.storage.ssd import SsdDevice
from repro.sim.units import MICROSECOND, SECOND


class IoRequest:
    __slots__ = ("io_id", "submit_time", "device_index", "used_model",
                 "predicted_fast", "complete_time", "latency_us",
                 "inference_us")

    def __init__(self, io_id, submit_time):
        self.io_id = io_id
        self.submit_time = submit_time
        self.device_index = None
        self.used_model = False
        self.predicted_fast = None
        self.complete_time = None
        self.latency_us = None
        self.inference_us = 0.0


class PickDecision:
    """What a pick policy returns."""

    __slots__ = ("index", "used_model", "predicted_fast", "inference_ns")

    def __init__(self, index, used_model=False, predicted_fast=None,
                 inference_ns=0):
        self.index = index
        self.used_model = used_model
        self.predicted_fast = predicted_fast
        self.inference_ns = inference_ns


def round_robin_policy():
    """The known-safe fallback: cycle through replicas."""
    state = {"next": 0}

    def pick(volume):
        index = state["next"] % len(volume.devices)
        state["next"] += 1
        return PickDecision(index, used_model=False)

    return pick


class ReplicatedVolume:
    """N-replica read volume with pluggable replica selection."""

    PICK_SLOT = "storage.pick_device"
    FALLBACK_NAME = "storage.round_robin"
    #: A completion whose service took longer is "slow" (a GC stall), by
    #: the devices' own measure.
    SLOW_THRESHOLD_US = SsdDevice.SLOW_THRESHOLD_US
    #: Window of the derived ``false_submit_rate``.
    FALSE_SUBMIT_WINDOW = 1 * SECOND

    def __init__(self, kernel, devices):
        if not devices:
            raise ValueError("need at least one device")
        self.kernel = kernel
        self.devices = list(devices)
        self.ingest = CompletionIngest(kernel.store, kernel.metrics, "storage")
        self._io_counter = 0
        self.inflight = 0
        self.completed = 0
        self.false_submits = 0
        self.model_submits = 0

        self.submit_hook = kernel.hooks.declare("storage.submit_io")
        self.complete_hook = kernel.hooks.declare("storage.io_complete")

        fallback = round_robin_policy()
        if self.PICK_SLOT not in kernel.functions:
            kernel.functions.register(self.PICK_SLOT, fallback)
            kernel.functions.register_implementation(self.FALLBACK_NAME, fallback)
        # Bound once: REPLACE, the supervisor and the fault injector rebind
        # the slot's ``current``, never the slot itself.
        self._pick_slot = kernel.functions.slot(self.PICK_SLOT)
        if "false_submit_rate" not in kernel.store:
            kernel.store.derive_rate(
                "false_submit", window=self.FALSE_SUBMIT_WINDOW,
                name="false_submit_rate"
            )

    def install_policy(self, name, policy):
        """Register a pick policy as a named implementation (A2 target) and
        make it the active one."""
        self.kernel.functions.register_implementation(name, policy)
        self.kernel.functions.replace(self.PICK_SLOT, name)

    def submit(self):
        """Submit one read; replica choice goes through the policy slot."""
        self._io_counter += 1
        request = IoRequest(self._io_counter, self.kernel.engine.now)
        decision = self._pick_slot.current(self)
        index = request.device_index = decision.index
        used_model = request.used_model = decision.used_model
        predicted_fast = request.predicted_fast = decision.predicted_fast
        # Inference happens on the submit path, so its cost is part of the
        # I/O's end-to-end latency (a stalled decision delays the I/O even
        # though the device never sees the wait).  Queue dynamics are left
        # untouched: the decision is still instantaneous in virtual time,
        # only the reported latency carries the charge.
        request.inference_us = (decision.inference_ns or 0) / MICROSECOND
        self.inflight += 1
        if used_model:
            self.model_submits += 1
        device = self.devices[index]
        hook = self.submit_hook
        if hook._probes:
            hook.fire(
                io_id=request.io_id,
                device=index,
                used_model=used_model,
                predicted_fast=predicted_fast,
                queue_depth=device.queue_depth,
            )
        else:
            hook.fire()  # counted and traced; no probe would read a payload
        device.enqueue(request, self._on_complete)
        return request

    def _on_complete(self, request, service_us):
        now = self.kernel.engine.now
        request.complete_time = now
        latency_us = request.latency_us = (
            (now - request.submit_time) / MICROSECOND + request.inference_us)
        self.inflight -= 1
        self.completed += 1
        # "Slow" is a property of the device's service (a GC stall), not of
        # queueing congestion — the model predicts device state, so both its
        # labels and false-submit accounting use the service component.
        slow = service_us > self.SLOW_THRESHOLD_US
        used_model = request.used_model
        predicted_fast = request.predicted_fast
        false_submit = bool(used_model and predicted_fast and slow)
        if false_submit:
            self.false_submits += 1
        # Rate denominator: every model-guided fast prediction.
        if used_model and predicted_fast:
            fs_event = 1 if false_submit else 0
        else:
            fs_event = None
        self.ingest.add(now, latency_us, fs_event, slow)

        self.complete_hook.fire(
            io_id=request.io_id,
            device=request.device_index,
            latency_us=latency_us,
            service_us=service_us,
            slow=slow,
            used_model=used_model,
            predicted_fast=predicted_fast,
            false_submit=false_submit,
        )
