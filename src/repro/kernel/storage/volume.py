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
"""

from repro.sim.units import SECOND, ns_to_us


class IoRequest:
    __slots__ = ("io_id", "submit_time", "is_write", "size",
                 "device_index", "used_model", "predicted_fast",
                 "complete_time", "latency_us", "inference_us")

    def __init__(self, io_id, submit_time, is_write=False, size=4096):
        self.io_id = io_id
        self.submit_time = submit_time
        self.is_write = is_write
        self.size = size
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

    def __init__(self, kernel, devices, slow_threshold_us=500.0,
                 false_submit_window=1 * SECOND, metric_prefix="storage",
                 ingest_batch=None):
        if not devices:
            raise ValueError("need at least one device")
        self.kernel = kernel
        self.devices = list(devices)
        self.slow_threshold_us = slow_threshold_us
        self.metric_prefix = metric_prefix
        # Batched completion lane: buffer per-I/O store saves and metric
        # records in columns of up to ``ingest_batch`` events, flushed on
        # buffer-full or on any store read (the store's deferred-flush
        # hook).  None keeps the scalar per-event path.  Device RNG draws
        # happen before this point, so batch size can never perturb them.
        if ingest_batch:
            from repro.kernel.storage.batch import BatchedCompletionIngest
            self._ingest = BatchedCompletionIngest(
                kernel.store, kernel.metrics, metric_prefix, ingest_batch)
        else:
            self._ingest = None
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
        if "false_submit_rate" not in kernel.store:
            kernel.store.derive_rate(
                "false_submit", window=false_submit_window, name="false_submit_rate"
            )

    def install_policy(self, name, policy, activate=True):
        """Register a pick policy as a named implementation (A2 target)."""
        self.kernel.functions.register_implementation(name, policy)
        if activate:
            self.kernel.functions.replace(self.PICK_SLOT, name)

    def submit(self, is_write=False, size=4096):
        """Submit one I/O; replica choice goes through the policy slot."""
        self._io_counter += 1
        kernel = self.kernel
        request = IoRequest(self._io_counter, kernel.engine.now, is_write, size)
        decision = kernel.functions.slot(self.PICK_SLOT)(self)
        index = request.device_index = decision.index
        used_model = request.used_model = decision.used_model
        predicted_fast = request.predicted_fast = decision.predicted_fast
        # Inference happens on the submit path, so its cost is part of the
        # I/O's end-to-end latency (a stalled decision delays the I/O even
        # though the device never sees the wait).  Queue dynamics are left
        # untouched: the decision is still instantaneous in virtual time,
        # only the reported latency carries the charge.
        request.inference_us = ns_to_us(decision.inference_ns or 0)
        self.inflight += 1
        if used_model:
            self.model_submits += 1
        device = self.devices[index]
        self.submit_hook.fire(
            io_id=request.io_id,
            device=index,
            used_model=used_model,
            predicted_fast=predicted_fast,
            queue_depth=device.queue_depth,
        )
        device.enqueue(request, self._on_complete)
        return request

    def _on_complete(self, request, service_us):
        kernel = self.kernel
        now = kernel.engine.now
        request.complete_time = now
        latency_us = request.latency_us = (
            ns_to_us(now - request.submit_time) + request.inference_us)
        self.inflight -= 1
        self.completed += 1
        # "Slow" is a property of the device's service (a GC stall), not of
        # queueing congestion — the model predicts device state, so both its
        # labels and false-submit accounting use the service component.
        slow = service_us > self.slow_threshold_us
        used_model = request.used_model
        predicted_fast = request.predicted_fast
        false_submit = bool(used_model and predicted_fast and slow)
        if false_submit:
            self.false_submits += 1

        if self._ingest is not None:
            if used_model and predicted_fast is not None and predicted_fast:
                fs_event = 1 if false_submit else 0
            else:
                fs_event = None
            self._ingest.add(now, latency_us, fs_event, slow)
        else:
            store = kernel.store
            store.save("io_latency_us", latency_us)
            if used_model and predicted_fast is not None:
                # Rate denominator: every model-guided fast prediction.
                if predicted_fast:
                    store.save("false_submit", 1 if false_submit else 0)

            metrics = kernel.metrics
            prefix = self.metric_prefix
            metrics.record(prefix + ".io_latency_us", latency_us)
            metrics.increment(prefix + ".completed")
            if slow:
                metrics.increment(prefix + ".slow_ios")

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

    # -- summary ------------------------------------------------------------

    def flush_ingest(self):
        """Drain the batched ingest buffers (no-op on the scalar path)."""
        if self._ingest is not None:
            self._ingest.flush()

    def false_submit_fraction(self):
        if self.model_submits == 0:
            return 0.0
        return self.false_submits / self.model_submits

    def mean_latency_us(self):
        self.flush_ingest()
        return self.kernel.metrics.series(self.metric_prefix + ".io_latency_us").mean()
