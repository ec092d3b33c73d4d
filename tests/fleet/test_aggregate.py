"""HostDigest/FleetDigest: observation, merging, and fleet-wide rates."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.aggregate import FleetDigest, HostDigest, latency_histogram
from repro.sim.units import SECOND


def make_digest(host_id, round_index=0, violations=0, inconclusive=0,
                latencies=(), time_ns=1 * SECOND):
    digest = HostDigest(host_id, round_index, time_ns, version=1)
    digest.checks = 1
    digest.violations = violations
    digest.inconclusive = inconclusive
    for index, latency in enumerate(latencies):
        digest.observe_io(time_ns - len(latencies) + index, latency,
                          false_submit=False, predicted_fast=True)
    return digest


def test_observe_io_updates_counters_and_sketches():
    digest = HostDigest(3, 0, 0, version=1)
    digest.observe_io(10, 100.0, false_submit=True, predicted_fast=True)
    digest.observe_io(20, 200.0, false_submit=False, predicted_fast=True)
    digest.observe_io(30, 300.0, false_submit=True, predicted_fast=False)
    assert digest.completed_ios == 3
    assert digest.model_submits == 2
    # false submits only count where the model predicted fast.
    assert digest.false_submits == 1
    assert digest.latency.total == 3
    assert digest.latency_summary.count == 3
    assert digest.latency_summary.min == 100.0


def test_host_digest_to_dict_is_json_friendly():
    import json

    digest = make_digest(1, latencies=[100.0, 200.0])
    out = digest.to_dict()
    json.dumps(out)  # must not raise
    assert out["host_id"] == 1
    assert out["completed_ios"] == 2
    assert out["latency"]["count"] == 2


def test_fleet_digest_merges_hosts_and_rates():
    fleet = FleetDigest(round_ns=1 * SECOND)
    fleet.merge_host(make_digest(0, violations=1, latencies=[100.0]))
    fleet.merge_host(make_digest(1, violations=0, latencies=[300.0]))
    fleet.merge_host(make_digest(0, round_index=1, violations=1,
                                 inconclusive=0, latencies=[200.0],
                                 time_ns=2 * SECOND))
    assert fleet.hosts == {0, 1}
    assert fleet.host_rounds == 3
    assert fleet.host_seconds() == 3.0
    assert fleet.violations == 2
    assert fleet.violation_rate() == pytest.approx(2 / 3)
    assert fleet.completed_ios == 3
    assert fleet.last_time_ns == 2 * SECOND


def test_fleet_digest_merge_fleet_level():
    a = FleetDigest(round_ns=1 * SECOND)
    a.merge_host(make_digest(0, violations=1, latencies=[100.0]))
    b = FleetDigest(round_ns=1 * SECOND)
    b.merge_host(make_digest(1, inconclusive=1, latencies=[200.0, 400.0]))

    reference = FleetDigest(round_ns=1 * SECOND)
    reference.merge_host(make_digest(0, violations=1, latencies=[100.0]))
    reference.merge_host(make_digest(1, inconclusive=1,
                                     latencies=[200.0, 400.0]))

    merged = a.merge(b)
    assert merged is a
    assert merged.to_dict() == reference.to_dict()


def test_fleet_digest_round_mismatch_raises():
    with pytest.raises(ValueError, match="round_ns"):
        FleetDigest(round_ns=1 * SECOND).merge(
            FleetDigest(round_ns=2 * SECOND))


def test_empty_fleet_digest_rates_are_defined():
    fleet = FleetDigest()
    assert fleet.violation_rate() == 0.0
    assert fleet.inconclusive_rate() == 0.0
    assert fleet.false_submit_fraction() == 0.0
    assert math.isnan(fleet.p95_us())
    assert fleet.to_dict()["latency_p95_us"] is None


def test_inconclusive_rate_counts_blind_checks():
    fleet = FleetDigest(round_ns=1 * SECOND)
    fleet.merge_host(make_digest(0, inconclusive=1))
    fleet.merge_host(make_digest(1))
    assert fleet.inconclusive_rate() == pytest.approx(0.5)


def test_latency_histogram_bounds_are_shared():
    # Digest sketches must be mutually mergeable by construction.
    a, b = latency_histogram(), latency_histogram()
    assert a.compatible_with(b)


# -- Algebraic laws: a store may fold rows in any grouping and order --------

host_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),       # host
        st.integers(min_value=0, max_value=2),       # violations
        st.lists(st.tuples(st.integers(min_value=0, max_value=40),  # time
                           st.floats(min_value=0.0, max_value=6000.0),
                           st.booleans()), max_size=8)),
    min_size=1, max_size=6)


@settings(max_examples=50)
@given(rows=host_rows, order=st.randoms(use_true_random=False))
def test_merge_host_is_row_order_independent(rows, order):
    def digests():
        out = []
        for round_index, (host, violations, ios) in enumerate(rows):
            digest = HostDigest(host, round_index, round_index * SECOND,
                                version=1)
            digest.checks = 1
            digest.violations = violations
            for time_ns, latency, false_submit in sorted(ios):
                digest.observe_io(time_ns, latency, false_submit, True)
            out.append(digest.to_row())
        return out

    def fold(stored):
        fleet = FleetDigest(round_ns=1 * SECOND)
        for row in stored:
            fleet.merge_host(HostDigest.from_row(row))
        counters = {field: getattr(fleet, field)
                    for field in HostDigest.COUNTER_FIELDS}
        return (counters, fleet.hosts, fleet.host_rounds,
                fleet.latency.to_json(), fleet.last_time_ns)

    shuffled = digests()
    order.shuffle(shuffled)
    assert fold(shuffled) == fold(digests())


# -- Width: a row's sketch blob does not grow with the I/Os it summarizes ---

#: Counters widen by a digit per decade of I/Os and floats print at most
#: 17 significant digits; 1 KiB leaves that headroom and nothing else.
SKETCH_BYTES_CEILING = 1024


def fed_digest(ios, round_index=0):
    rng = random.Random(ios * 64 + round_index)
    digest = HostDigest(0, round_index, (round_index + 1) * SECOND, version=1)
    for index in range(ios):
        digest.observe_io(round_index * SECOND + index,
                          rng.uniform(0.0, 6000.0), rng.random() < 0.3,
                          rng.random() < 0.8)
    return digest


def sketch_bytes(digest):
    return len(digest.to_row()["sketches"])


def test_sketch_blob_width_is_bounded_whatever_the_round_served():
    small, large = sketch_bytes(fed_digest(10)), sketch_bytes(fed_digest(5000))
    assert small < SKETCH_BYTES_CEILING
    assert large < SKETCH_BYTES_CEILING
    # 500x the I/Os buys a few more digits, not a longer list of anything.
    assert large - small < 128


def test_sketch_blob_width_is_bounded_across_a_64_round_fold():
    folded = fed_digest(5000)
    for round_index in range(1, 64):
        folded.merge_round(fed_digest(5000, round_index))
    assert folded.completed_ios == 64 * 5000
    assert sketch_bytes(folded) < SKETCH_BYTES_CEILING
