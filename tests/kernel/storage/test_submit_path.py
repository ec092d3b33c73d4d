"""The storage submit path's shortcuts give what the long way gives.

``ReplicatedVolume.submit`` builds the ``storage.submit_io`` payload only
when a probe will read it, otherwise it fires with none; the
shortest-queue stand-in picks in one pass instead of ``min(key=...)``.
"""

import random
import types

from repro.bench.scenarios import (
    STANDIN_INFERENCE_NS,
    build_storage_kernel,
    shortest_queue_policy,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.kernel.storage import PoissonWorkload
from repro.sim.units import MILLISECOND, SECOND
from repro.trace import tracing

SUBMIT_KEYS = {"io_id", "device", "used_model", "predicted_fast",
               "queue_depth"}


def shortest_queue_host(seed=5, rate_ios=2000, duration_ns=SECOND):
    kernel, devices, volume = build_storage_kernel(seed=seed)
    volume.install_policy("storage.shortest_queue", shortest_queue_policy())
    workload = PoissonWorkload(kernel, volume,
                               [(duration_ns, rate_ios)]).start()
    return kernel, devices, volume, workload


def test_submit_fire_count_is_exact_without_a_probe():
    kernel, _devices, volume, workload = shortest_queue_host()
    hook = kernel.hooks.get("storage.submit_io")
    kernel.run(until=SECOND)
    assert workload.submitted > 1000
    assert hook.fire_count == workload.submitted
    assert workload.submitted == volume.completed + volume.inflight


def _record_submits(kernel, devices, log):
    def probe(_name, now, payload):
        depths = [device.queue_depth for device in devices]
        log.append((now, dict(payload), depths))

    return kernel.hooks.get("storage.submit_io").attach(probe)


def test_probe_attached_mid_run_sees_every_later_submit_exactly():
    half = SECOND // 2
    # Twin run: a probe from t=0, so every submit takes the payload path.
    kernel, devices, _volume, _ = shortest_queue_host()
    reference = []
    _record_submits(kernel, devices, reference)
    kernel.run(until=SECOND)

    kernel, devices, _volume, workload = shortest_queue_host()
    kernel.run(until=half)
    first_unseen = workload.submitted + 1
    seen = []
    _record_submits(kernel, devices, seen)
    kernel.run(until=SECOND)

    assert len(seen) == workload.submitted - (first_unseen - 1)
    assert [payload["io_id"] for _, payload, _ in seen] == list(
        range(first_unseen, workload.submitted + 1))
    assert seen == [entry for entry in reference
                    if entry[1]["io_id"] >= first_unseen]
    for _now, payload, depths in seen:
        assert set(payload) == SUBMIT_KEYS
        # Read before the request is queued: the chosen replica's depth.
        assert payload["queue_depth"] == depths[payload["device"]]
        assert payload["device"] == min(range(len(depths)),
                                        key=depths.__getitem__)


def test_active_tracer_gets_one_hook_event_per_submit():
    kernel, _devices, _volume, workload = shortest_queue_host(
        duration_ns=100 * MILLISECOND)
    with tracing(categories=["hook"]) as tracer:
        kernel.run(until=100 * MILLISECOND)
    submits = [event for event in tracer.events(category="hook")
               if event.name == "storage.submit_io"]
    assert workload.submitted > 100
    assert len(submits) == workload.submitted
    assert all(event.args == {"probes": 0} for event in submits)


def test_stall_fault_inflates_only_the_stalled_io():
    kernel, _devices, volume = build_storage_kernel(seed=3)
    volume.install_policy("storage.shortest_queue", shortest_queue_policy())
    plan = FaultPlan.from_flags(
        ["stall@storage.pick_device:latency_us=500,count=1"])
    injector = FaultInjector(kernel, plan).install()
    requests = [volume.submit() for _ in range(5)]
    kernel.run(until=SECOND)
    base_us = STANDIN_INFERENCE_NS / 1000
    assert injector.injected_count == 1
    assert [r.inference_us for r in requests] == (
        [base_us + 500.0] + [base_us] * 4)
    for request in requests:
        queued_us = (request.complete_time - request.submit_time) / 1000
        assert request.latency_us == queued_us + request.inference_us


def test_shortest_queue_pick_is_min_over_depths_first_on_ties():
    pick = shortest_queue_policy()
    rng = random.Random(1234)
    ties = 0
    for _ in range(500):
        depths = [rng.randrange(4) for _ in range(rng.randrange(1, 7))]
        volume = types.SimpleNamespace(devices=[
            types.SimpleNamespace(queue_depth=depth) for depth in depths])
        decision = pick(volume)
        assert decision.index == min(range(len(depths)),
                                     key=lambda i: depths[i])
        assert decision.used_model and decision.predicted_fast
        assert decision.inference_ns == STANDIN_INFERENCE_NS
        ties += depths.count(min(depths)) > 1
    assert ties > 100  # the first-minimum rule was exercised
