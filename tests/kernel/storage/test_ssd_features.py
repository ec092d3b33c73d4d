"""``SsdDevice.features()`` against the four single-feature readers.

``features()`` computes the LinnOS vector in one pass (one clock read, one
freshness test, one walk over the history); ``recent_slow_fraction``,
``last_latency_us`` and ``time_since_slow`` remain the public readers and
are the reference here.  Equality is exact — the model's input must not
change by a bit.
"""

import random

import pytest

from repro.kernel.storage.ssd import SsdDevice
from repro.sim.engine import Engine

THRESHOLD = 500.0
TTL = 50_000_000


def make_device(engine, **kwargs):
    return SsdDevice(engine, engine.rng.get("dev"), "dev0", **kwargs)


def reference(device):
    return [
        device.recent_slow_fraction(4),
        device.recent_slow_fraction(8),
        1.0 if device.last_latency_us() > device.slow_threshold_us else 0.0,
        device.time_since_slow(),
    ]


def check(device):
    got = device.features()
    want = reference(device)
    assert got == want
    assert [type(v) for v in got] == [float] * 4
    return got


def complete(device, service_us):
    """One completion at the current virtual time, no queueing involved."""
    device._complete(None, lambda request, latency: None, service_us)


def advance(engine, delta):
    engine.run(until=engine.now + delta)


def test_empty_history_and_never_slow():
    engine = Engine(seed=1)
    device = make_device(engine)
    assert check(device) == [0.0, 0.0, 0.0, 1.0]
    advance(engine, 1_000)
    complete(device, 80.0)
    assert check(device) == [0.0, 0.0, 0.0, 1.0]


def test_fewer_than_four_and_fewer_than_eight_entries():
    engine = Engine(seed=1)
    device = make_device(engine)
    seen = []
    for service_us in (2000.0, 80.0, 90.0, 2500.0, 70.0, 60.0):
        advance(engine, 10_000)
        complete(device, service_us)
        seen.append(check(device))
    assert seen[0][:3] == [1.0, 1.0, 1.0]           # one entry, slow
    assert seen[2][:3] == [1 / 3, 1 / 3, 0.0]       # three entries
    assert seen[4][:3] == [1 / 4, 2 / 5, 0.0]       # windows now differ
    assert seen[5][:3] == [1 / 4, 2 / 6, 0.0]


def test_latency_exactly_at_the_threshold_is_not_slow():
    engine = Engine(seed=1)
    device = make_device(engine)
    advance(engine, 5)
    complete(device, THRESHOLD)
    assert check(device) == [0.0, 0.0, 0.0, 1.0]
    complete(device, THRESHOLD + 1e-9)
    assert check(device) == [0.5, 0.5, 1.0, 0.0]    # just slow, just now


def test_history_age_exactly_ttl_is_fresh_one_ns_later_is_stale():
    engine = Engine(seed=1)
    device = make_device(engine)
    advance(engine, 7)
    complete(device, 2000.0)
    advance(engine, TTL)
    fresh = check(device)
    assert fresh[:3] == [1.0, 1.0, 1.0]
    assert fresh[3] == 1.0                          # 50 ms: the scale caps
    advance(engine, 1)
    assert check(device) == [0.0, 0.0, 0.0, 1.0]
    complete(device, 80.0)                          # fresh again
    assert check(device)[:3] == [0.5, 0.5, 0.0]


def test_time_since_slow_tracks_elapsed_time_below_the_scale():
    engine = Engine(seed=1)
    device = make_device(engine)
    complete(device, 900.0)
    advance(engine, 12_500_000)
    assert check(device)[3] == 12_500_000 / SsdDevice.TIME_SINCE_SLOW_SCALE


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("history_length", (3, 8, 12))
def test_seeded_completions_and_clock_advances(seed, history_length):
    rng = random.Random(seed)
    engine = Engine(seed=seed)
    device = make_device(engine, history_length=history_length,
                         slow_threshold_us=THRESHOLD, history_ttl=TTL)
    slow_bias = rng.choice([0.05, 0.3, 0.8])
    for _ in range(400):
        roll = rng.random()
        if roll < 0.55:
            if rng.random() < slow_bias:
                service_us = rng.choice([THRESHOLD + 0.5, 2000.0, 9000.0])
            else:
                service_us = rng.choice([THRESHOLD, 60.0, 80.0, 499.999])
            complete(device, service_us)
        elif roll < 0.9:
            advance(engine, rng.choice([1, 1_000, 400_000, 5_000_000]))
        else:
            # Land on or just past the staleness edge of the last completion.
            if device.last_completion_time is not None:
                edge = device.last_completion_time + TTL + rng.choice([0, 1])
                if edge > engine.now:
                    advance(engine, edge - engine.now)
        check(device)
