"""Completion ingest: buffering chosen from store quietness, bit-exact.

Every ``ReplicatedVolume`` hands each completion to its
:class:`CompletionIngest`, which buffers the store saves and metric records
while the feature store is quiet and writes them through otherwise.  The
choice must never show: every observable (series, counters, histograms,
percentiles, store snapshot, versions, ``save_count``, mid-run probe reads,
the trace) equals a forced write-through reference.  One test sits on each
side of the choice, and the two reader bugfixes are pinned: metric readers
and late subscribers drain pending completions first.
"""

import collections
import contextlib
from unittest import mock

import pytest

from repro.core.featurestore import FeatureStore
from repro.fleet.scenario import fleet_versions
from repro.fleet.worker import HostSpec, SimulatedHost
from repro.kernel import Kernel
from repro.kernel.storage import (
    CompletionIngest,
    DeviceProfile,
    PickDecision,
    PoissonWorkload,
    ReplicatedVolume,
    SsdDevice,
    schedule_profile_change,
)
from repro.sim.units import SECOND
from repro.trace.tracer import TRACER, tracing

V1, _V2 = fleet_versions()


def buffered(volume):
    """Completions the volume's ingest buffered instead of writing through."""
    return volume.completed - volume.ingest.write_through_count


@contextlib.contextmanager
def forced(quiet):
    """Pin the ingest's choice: always buffer (True) or write through."""
    with mock.patch.object(FeatureStore, "quiet_since",
                           lambda self, mark: quiet):
        yield


def build_volume(seed=7, rate_ios=400, duration_s=2):
    """A seeded fig2-style kernel whose store nothing reads between I/Os."""
    kernel = Kernel(seed=seed)
    devices = [
        SsdDevice(kernel.engine, kernel.engine.rng.get("ssd{}".format(i)),
                  "ssd{}".format(i), DeviceProfile.pre_drift())
        for i in range(3)
    ]
    volume = kernel.attach("storage", ReplicatedVolume(kernel, devices))

    # A deterministic model-ish policy (no RNG): round-robins replicas and
    # alternates fast/slow predictions so both false_submit branches and
    # the no-save branch (used_model=False every 5th I/O) are exercised.
    state = {"n": 0}

    def policy(vol):
        i = state["n"]
        state["n"] += 1
        if i % 5 == 4:
            return PickDecision(i % len(vol.devices), used_model=False)
        return PickDecision(i % len(vol.devices), used_model=True,
                            predicted_fast=(i % 2 == 0))

    volume.install_policy("storage.alternating", policy)

    # Mid-run device drift makes the latency distribution bimodal, so
    # percentiles actually discriminate.
    schedule_profile_change(kernel, devices, DeviceProfile.post_drift(),
                            duration_s * SECOND // 2)
    PoissonWorkload(kernel, volume,
                    [(duration_s * SECOND, rate_ios)]).start()
    return kernel, volume


def schedule_probes(kernel, duration_ns, count=7):
    """Mid-run store reads; a reader must never see pre-flush state."""
    probe_log = []

    def probe():
        probe_log.append((
            kernel.engine.now,
            kernel.store.load("false_submit_rate"),
            kernel.store.load("io_latency_us"),
            kernel.store.version("io_latency_us"),
        ))

    for k in range(1, count + 1):
        kernel.engine.schedule(k * duration_ns // (count + 1), probe)
    return probe_log


def run_fig2_workload(seed=7, duration_s=2, rate_ios=400):
    """The seeded fig2-style run; returns (kernel, volume, probe_log)."""
    kernel, volume = build_volume(seed, rate_ios, duration_s)
    probe_log = schedule_probes(kernel, duration_s * SECOND)
    kernel.run(until=duration_s * SECOND)
    return kernel, volume, probe_log


def state_fingerprint(kernel, volume, probe_log):
    """Every observable the scalar path produces, exact (no rounding).

    The series read comes first: it drains, so ``save_count`` (a plain
    counter) is read after everything has landed.
    """
    series = kernel.metrics.series("storage.io_latency_us")
    return {
        "series_times": list(series.times),
        "series_values": list(series.values),
        "completed": volume.completed,
        "false_submits": volume.false_submits,
        "model_submits": volume.model_submits,
        "counters": {
            name: kernel.metrics.counter(name)
            for name in ("storage.completed", "storage.slow_ios")
        },
        "histogram": collections.Counter(series.values),
        "p50": series.percentile(50),
        "p95": series.percentile(95),
        "p99": series.percentile(99),
        "store_snapshot": kernel.store.snapshot(),
        "store_versions": {
            key: kernel.store.version(key)
            for key in ("io_latency_us", "false_submit", "false_submit_rate")
        },
        "save_count": kernel.store.save_count,
        "probe_log": probe_log,
    }


@pytest.fixture(scope="module")
def scalar_fingerprint():
    with forced(False):
        return state_fingerprint(*run_fig2_workload())


@pytest.mark.parametrize("batch", [1, 64, 4096])
def test_batched_ingest_bit_identical_to_scalar(batch, scalar_fingerprint,
                                                monkeypatch):
    # The memory bound is the only size left; no value of it may show.
    monkeypatch.setattr("repro.kernel.storage.batch.MAX_PENDING", batch)
    kernel, volume, probe_log = run_fig2_workload()
    assert buffered(volume) > volume.completed // 2
    assert state_fingerprint(kernel, volume, probe_log) == scalar_fingerprint


def test_workload_is_nontrivial(scalar_fingerprint):
    # Guard against the cross-check silently passing on an empty run.
    assert scalar_fingerprint["completed"] > 400
    assert scalar_fingerprint["counters"]["storage.slow_ios"] > 0
    assert scalar_fingerprint["store_versions"]["false_submit"] > 100
    assert any(rate > 0 for _, rate, _, _ in scalar_fingerprint["probe_log"])


def test_large_batch_actually_batches():
    kernel, volume, _ = run_fig2_workload()
    ingest = volume.ingest
    # Only the seven probe reads drain, and only the first completion and
    # the one after each probe write through.
    assert ingest.drain_count == 7
    assert ingest.write_through_count == 8


def test_store_read_drains_buffer(kernel):
    ingest = CompletionIngest(kernel.store, kernel.metrics, "storage")
    ingest.add(100, 200.0, None, False)  # no mark yet: writes through
    assert len(ingest) == 0
    ingest.add(200, 250.0, 1, False)
    ingest.add(300, 300.0, 0, False)
    assert len(ingest) == 2
    assert kernel.store.save_count == 1
    # Any store access drains the pending events first.
    assert kernel.store.load("io_latency_us") == 300.0
    assert len(ingest) == 0
    assert kernel.store.version("io_latency_us") == 3
    assert kernel.store.version("false_submit") == 2
    assert kernel.metrics.counter("storage.completed") == 3
    assert ingest.drain_count == 1


def test_flush_idempotent_and_rearm(kernel, monkeypatch):
    monkeypatch.setattr("repro.kernel.storage.batch.MAX_PENDING", 3)
    ingest = CompletionIngest(kernel.store, kernel.metrics, "storage")
    ingest.drain()  # empty drain is a no-op
    assert ingest.drain_count == 0
    for t in (10, 20, 30, 40):
        ingest.add(t, float(t), None, False)
    assert ingest.drain_count == 1  # the memory bound drained on its own
    assert len(ingest) == 0
    ingest.add(50, 50.0, None, True)  # still quiet: buffered, re-armed
    assert len(ingest) == 1
    assert kernel.store.load("io_latency_us") == 50.0
    assert ingest.drain_count == 2
    assert kernel.metrics.counter("storage.slow_ios") == 1
    ingest.add(60, 60.0, None, False)  # the load broke quiet
    assert len(ingest) == 0
    assert kernel.store.save_count == 6


# -- reader bugfixes ----------------------------------------------------------


@pytest.mark.parametrize("reader", ["series", "counter", "names", "snapshot"])
def test_metric_readers_drain_pending_completions(reader):
    kernel, volume = build_volume()
    kernel.run(until=SECOND // 2)
    assert len(volume.ingest) > 100
    metrics = kernel.metrics
    if reader == "series":
        seen = len(metrics.series("storage.io_latency_us"))
    elif reader == "counter":
        seen = metrics.counter("storage.completed")
    elif reader == "names":
        metrics.names()
        seen = metrics._counters["storage.completed"]
    else:
        seen = metrics.snapshot()["series"]["storage.io_latency_us"]["count"]
    assert len(volume.ingest) == 0
    assert seen == volume.completed


def test_late_subscriber_sees_no_replayed_history():
    kernel, volume = build_volume()
    kernel.run(until=SECOND // 2)
    assert len(volume.ingest) > 100
    heard = []
    kernel.store.subscribe(lambda key, value, now: heard.append((key, now)))
    assert heard == []  # history predates the subscriber
    assert len(volume.ingest) == 0
    write_throughs = volume.ingest.write_through_count
    completed = volume.completed
    kernel.run(until=SECOND)
    # A subscriber hears every later save in scalar order: nothing buffers.
    assert volume.ingest.write_through_count - write_throughs \
        == volume.completed - completed
    latencies = [now for key, now in heard if key == "io_latency_us"]
    assert len(latencies) == volume.completed - completed
    assert latencies == sorted(latencies)


def test_derived_key_registered_mid_buffer_sees_only_later_saves():
    def run():
        kernel, volume = build_volume()
        kernel.run(until=SECOND // 2)
        kernel.store.derive_ewma("io_latency_us", alpha=0.1, name="lat.ewma")
        kernel.run(until=SECOND)
        return (kernel.store.version("lat.ewma"),
                kernel.store.load("lat.ewma"), buffered(volume))

    with forced(False):
        reference = run()
    selected = run()
    assert selected[2] > 0
    assert selected[:2] == reference[:2]


# -- a fleet host -------------------------------------------------------------


def run_fleet_host(rounds=3):
    host = SimulatedHost(HostSpec(0, seed=7, rate_ios=300), V1, SECOND,
                         total_rounds=rounds)
    probe_log = schedule_probes(host.kernel, rounds * SECOND, count=5)
    digests = []
    for index in range(rounds):
        host.step((index + 1) * SECOND)
        digests.append(host.digest(index).to_dict())
    return host, probe_log, digests


def test_fleet_host_bit_identical_to_write_through():
    with forced(False):
        host, probe_log, digests = run_fleet_host()
        reference = (state_fingerprint(host.kernel, host.volume, probe_log),
                     digests)
    host, probe_log, digests = run_fleet_host()
    assert buffered(host.volume) > host.volume.completed * 0.9
    assert (state_fingerprint(host.kernel, host.volume, probe_log),
            digests) == reference


def traced_host_events(rounds=2):
    with tracing(capacity=1 << 18):
        host = SimulatedHost(HostSpec(0, seed=7, rate_ios=300), V1, SECOND,
                             total_rounds=rounds)
        for index in range(rounds):
            host.step((index + 1) * SECOND)
            host.digest(index)
        events = [event.to_dict() for event in TRACER.events()]
    return events, host


def test_traced_host_matches_write_through_trace():
    with forced(False):
        reference, _ = traced_host_events()
    events, host = traced_host_events()
    assert any(e["name"] == "io_latency_us" for e in reference)
    assert buffered(host.volume) == 0
    assert events == reference
    # The trace is what catches a buffer that ignores the tracer.
    with forced(True):
        always_buffered, _ = traced_host_events()
    assert always_buffered != reference


def test_tracer_started_mid_buffer_traces_only_later_saves():
    # The drain after the tracer starts reaches save_batch with the tracer
    # on; those saves were made before tracing began, so they stay untraced.
    def run():
        kernel, volume = build_volume()
        kernel.run(until=SECOND // 2)
        pending = len(volume.ingest)
        with tracing(capacity=1 << 16):
            kernel.run(until=SECOND)
            events = [e.to_dict() for e in TRACER.events()]
        return events, pending

    with forced(False):
        reference, _ = run()
    events, pending = run()
    assert pending > 100
    saves = [e for e in reference if e["name"] == "io_latency_us"]
    assert saves and min(e["ts"] for e in saves) >= SECOND // 2
    assert events == reference


# -- one test per side of the choice ------------------------------------------


def test_quiet_timer_host_drains_once_per_check():
    host = SimulatedHost(HostSpec(0, seed=7, rate_ios=300), V1, SECOND,
                         total_rounds=4)
    for index in range(4):
        host.step((index + 1) * SECOND)
    checks = host.kernel.guardrails.get(V1.name).check_count
    ingest = host.volume.ingest
    assert checks == 4
    assert 1 <= ingest.drain_count <= checks + 1
    assert buffered(host.volume) > 0.95 * host.volume.completed


def test_function_guardrail_on_completion_never_buffers():
    kernel, volume = build_volume()
    kernel.guardrails.load("""
guardrail per-io-latency {
  trigger: { FUNCTION(storage.io_complete) },
  rule: { LOAD(io_latency_us) <= 1e9 },
  action: { REPORT() }
}
""")
    kernel.run(until=SECOND)
    assert volume.completed > 300
    assert buffered(volume) == 0
    assert volume.ingest.drain_count == 0
