"""SSD device model."""

import pytest

from repro.kernel.storage.ssd import FAST_STATE, SLOW_STATE, DeviceProfile, SsdDevice
from repro.sim.units import MILLISECOND, SECOND


def make_device(engine, profile=None, **kwargs):
    return SsdDevice(engine, engine.rng.get("dev"), "dev0", profile, **kwargs)


class FakeRequest:
    pass


def test_profile_validation():
    with pytest.raises(ValueError):
        DeviceProfile("bad", fast_duration_ns=0)
    with pytest.raises(ValueError):
        DeviceProfile("bad", dwell_jitter=1.5)


def test_pre_drift_mostly_fast_service(engine):
    device = make_device(engine, DeviceProfile.pre_drift())
    latencies = []

    def submit(n=0):
        device.enqueue(FakeRequest(), lambda req, us: latencies.append(us))
        if n < 2000:
            engine.schedule(500_000, submit, n + 1)  # 2000 IOPS

    submit()
    engine.run(until=1 * SECOND)
    slow = sum(1 for v in latencies if v > 500)
    assert len(latencies) > 1000
    assert slow / len(latencies) < 0.3


def test_post_drift_more_slow_service(engine):
    device = make_device(engine, DeviceProfile.post_drift())
    latencies = []

    def submit(n=0):
        device.enqueue(FakeRequest(), lambda req, us: latencies.append(us))
        if n < 2000:
            engine.schedule(1_000_000, submit, n + 1)

    submit()
    engine.run(until=2 * SECOND)
    slow = sum(1 for v in latencies if v > 500)
    assert slow / len(latencies) > 0.2


def test_fifo_order_preserved(engine):
    device = make_device(engine)
    completed = []
    for i in range(5):
        device.enqueue(i, lambda req, us: completed.append(req))
    engine.run(until=1 * SECOND)
    assert completed == [0, 1, 2, 3, 4]


def test_queue_depth_counts_waiting_and_in_service(engine):
    device = make_device(engine)
    for i in range(3):
        device.enqueue(i, lambda req, us: None)
    assert device.queue_depth == 3
    engine.run(until=1 * SECOND)
    assert device.queue_depth == 0


def test_history_and_counters_update(engine):
    device = make_device(engine)
    device.enqueue(FakeRequest(), lambda req, us: None)
    engine.run(until=1 * SECOND)
    assert device.served_count == 1
    assert len(device.history) == 1
    assert device.last_completion_time is not None


def test_history_ttl_makes_features_fresh(engine):
    device = make_device(engine, history_ttl=10 * MILLISECOND)
    device.history.append(2000.0)  # a slow completion
    device.last_completion_time = 0
    assert device.recent_slow_fraction() == 1.0
    # NB: run with `until` — the device's hidden-state process schedules
    # transitions forever, so an open-ended run() never drains.
    engine.run(until=20 * MILLISECOND)
    assert device.recent_slow_fraction() == 0.0
    assert device.last_latency_us() == 0.0


def test_features_vector_shape_and_range(engine):
    device = make_device(engine)
    features = device.features()
    assert len(features) == 4
    assert all(0.0 <= f <= 1.0 for f in features)


def test_time_since_slow_feature(engine):
    device = make_device(engine)
    assert device.time_since_slow() == 1.0  # never observed slow
    device.last_slow_completion_time = 0
    engine.run(until=device.TIME_SINCE_SLOW_SCALE // 2)
    assert device.time_since_slow() == 0.5
    engine.run(until=device.TIME_SINCE_SLOW_SCALE * 3)
    assert device.time_since_slow() == 1.0  # capped


def test_set_profile_reschedules_transitions(engine):
    device = make_device(engine, DeviceProfile.pre_drift())
    device.set_profile(DeviceProfile.post_drift())
    assert device.profile.name == "post_drift"
    # The state process keeps running under the new profile.
    flips = []
    original = device._flip_state

    def counting_flip():
        flips.append(engine.now)
        original()

    device._flip_state = counting_flip
    engine.run(until=1 * SECOND)
    # post_drift cycles ~8.5ms, so we expect on the order of 100 flips.
    assert len(flips) > 50


def test_no_history_reads_as_fast(engine):
    device = make_device(engine)
    assert device.recent_slow_fraction() == 0.0
    assert device.last_latency_us() == 0.0


def test_state_visible_for_tests(engine):
    device = make_device(engine)
    assert device.state in (FAST_STATE, SLOW_STATE)
