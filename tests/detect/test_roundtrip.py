"""Sketch serialization: ``from_json(to_json(s))`` must be *identity*.

The fleet results store persists digest sketches as JSON and regenerates
reports from them, promising byte-identical output — which only holds if
the round trip is exact, not merely close.  These properties pin that:
after a trip through ``json.dumps``/``json.loads`` (the store's actual
transport), every observable of the restored sketch equals the original
bit-for-bit, and the restored sketch *keeps behaving identically* under
further updates and merges.
"""

import json

from hypothesis import given
from hypothesis import strategies as st

from repro.detect.histogram import Histogram
from repro.detect.quantiles import P2Quantile
from repro.detect.streaming import RateCounter, SummaryDigest

values = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
value_lists = st.lists(values, max_size=200)


def round_trip(sketch):
    """The store's transport, verbatim: JSON text in, JSON text out."""
    return type(sketch).from_json(json.loads(json.dumps(sketch.to_json())))


# -- SummaryDigest ---------------------------------------------------------


def summary_digest(samples):
    digest = SummaryDigest()
    for value in samples:
        digest.update(value)
    return digest


@given(samples=value_lists)
def test_summary_digest_round_trip_is_identity(samples):
    digest = summary_digest(samples)
    restored = round_trip(digest)
    assert restored.count == digest.count
    assert restored.to_json() == digest.to_json()
    # Exactness is bitwise, not tolerance: derived views match exactly.
    assert restored.to_dict() == digest.to_dict()


@given(samples=value_lists, more=value_lists)
def test_summary_digest_round_trip_behaves_identically(samples, more):
    digest = summary_digest(samples)
    restored = round_trip(digest)
    for value in more:
        digest.update(value)
        restored.update(value)
    assert restored.to_json() == digest.to_json()


# -- RateCounter -----------------------------------------------------------

events = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10**12), st.booleans()),
    max_size=100).map(sorted)


@given(log=events)
def test_rate_counter_round_trip_is_identity(log):
    counter = RateCounter(1000)
    for time, hit in log:
        counter.observe(time, hit)
    restored = round_trip(counter)
    assert restored.window == counter.window
    assert list(restored._events) == list(counter._events)
    assert restored._hits == counter._hits


@given(log=events, later=st.integers(min_value=0, max_value=10**12))
def test_rate_counter_round_trip_behaves_identically(log, later):
    counter = RateCounter(1000)
    for time, hit in log:
        counter.observe(time, hit)
    restored = round_trip(counter)
    now = (log[-1][0] if log else 0) + later
    assert restored.rate(now) == counter.rate(now)
    assert restored.count(now) == counter.count(now)


# -- Histogram -------------------------------------------------------------


@given(samples=value_lists)
def test_histogram_round_trip_is_identity(samples):
    histogram = Histogram(-100.0, 100.0, 16)
    histogram.update_many(samples)
    restored = round_trip(histogram)
    assert restored.counts == histogram.counts
    assert restored.underflow == histogram.underflow
    assert restored.overflow == histogram.overflow
    assert restored.total == histogram.total
    assert restored.compatible_with(histogram)


@given(samples=value_lists, q=st.floats(min_value=0.0, max_value=1.0))
def test_histogram_round_trip_quantiles_identical(samples, q):
    histogram = Histogram(-100.0, 100.0, 16)
    histogram.update_many(samples)
    restored = round_trip(histogram)
    value = histogram.quantile(q)
    restored_value = restored.quantile(q)
    assert value == restored_value or (value != value
                                       and restored_value != restored_value)


def test_histogram_from_json_rejects_bad_counts():
    state = Histogram(0.0, 1.0, 4).to_json()
    state["counts"] = [0, 0]
    try:
        Histogram.from_json(state)
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError for truncated counts")


# -- P2Quantile ------------------------------------------------------------


@given(samples=value_lists)
def test_p2_round_trip_is_identity(samples):
    sketch = P2Quantile(0.95)
    for value in samples:
        sketch.update(value)
    restored = round_trip(sketch)
    assert restored.to_json() == sketch.to_json()
    value, restored_value = sketch.value, restored.value
    assert value == restored_value or (value != value
                                       and restored_value != restored_value)


@given(samples=value_lists, more=value_lists)
def test_p2_round_trip_behaves_identically(samples, more):
    # Covers both phases: before five samples (buffer replay) and after
    # (marker updates) the restored sketch tracks the original exactly.
    sketch = P2Quantile(0.95)
    for value in samples:
        sketch.update(value)
    restored = round_trip(sketch)
    for value in more:
        sketch.update(value)
        restored.update(value)
    assert restored.to_json() == sketch.to_json()


@given(a=value_lists, b=value_lists)
def test_p2_round_trip_merges_identically(a, b):
    left = P2Quantile(0.95)
    for value in a:
        left.update(value)
    right = P2Quantile(0.95)
    for value in b:
        right.update(value)
    merged_live = P2Quantile.from_json(left.to_json()).merge(right)
    merged_restored = round_trip(left).merge(round_trip(right))
    assert merged_live.to_json() == merged_restored.to_json()
