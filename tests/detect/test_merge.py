"""Sketch merging: merge(A, B) must match one sketch fed A ++ B.

Property-based (Hypothesis): Histogram and RateCounter merges are *exact*
(integer counts), SummaryDigest matches to float tolerance (parallel
Welford), and P2Quantile merges are tolerance-bounded against the true
pooled quantile.  Plus the incompatible-sketch error paths: mismatched
bounds/windows/quantiles must raise rather than silently blend.

RateCounter additionally gets a differential oracle (the two-pointer merge
it used before its log was ordered lazily, kept here as the reference), a
wall-clock-free scaling pin, and the algebraic laws a fold relies on.
"""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detect.histogram import Histogram
from repro.detect.quantiles import P2Quantile
from repro.detect.streaming import RateCounter, SummaryDigest

values = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
value_lists = st.lists(values, max_size=200)


# -- Histogram: exact ------------------------------------------------------


@given(a=value_lists, b=value_lists)
def test_histogram_merge_matches_concatenated_stream(a, b):
    left = Histogram(-100.0, 100.0, 16)
    left.update_many(a)
    right = Histogram(-100.0, 100.0, 16)
    right.update_many(b)
    reference = Histogram(-100.0, 100.0, 16)
    reference.update_many(a + b)

    merged = left.merge(right)
    assert merged is left  # chains
    assert merged.counts == reference.counts
    assert merged.underflow == reference.underflow
    assert merged.overflow == reference.overflow
    assert merged.total == reference.total


@given(a=value_lists, b=value_lists,
       q=st.floats(min_value=0.0, max_value=1.0))
def test_histogram_merged_quantile_equals_concatenated_quantile(a, b, q):
    # Quantiles come straight off the counts, so the merged estimate is
    # *identical* to the single-sketch estimate — not just close.
    left = Histogram(0.0, 50.0, 10)
    left.update_many(a)
    right = Histogram(0.0, 50.0, 10)
    right.update_many(b)
    reference = Histogram(0.0, 50.0, 10)
    reference.update_many(a + b)
    merged = left.merge(right)
    got, want = merged.quantile(q), reference.quantile(q)
    assert (math.isnan(got) and math.isnan(want)) or got == want


def test_histogram_incompatible_bounds_raise():
    base = Histogram(0.0, 10.0, 4)
    for other in (Histogram(0.0, 20.0, 4), Histogram(1.0, 10.0, 4),
                  Histogram(0.0, 10.0, 8), object()):
        with pytest.raises(ValueError, match="incompatible|merge"):
            base.merge(other)


# -- RateCounter: exact ----------------------------------------------------

times = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10_000), st.booleans()),
    max_size=120,
).map(lambda events: sorted(events, key=lambda e: e[0]))


@given(a=times, b=times)
def test_rate_counter_merge_matches_concatenated_stream(a, b):
    window = 1_000
    left = RateCounter(window)
    for t, hit in a:
        left.observe(t, hit)
    right = RateCounter(window)
    for t, hit in b:
        right.observe(t, hit)
    reference = RateCounter(window)
    for t, hit in sorted(a + b, key=lambda e: e[0]):
        reference.observe(t, hit)

    merged = left.merge(right)
    assert merged is left
    now = max([t for t, _ in a + b], default=0)
    assert merged.count(now) == reference.count(now)
    assert merged.rate(now) == reference.rate(now)


def test_rate_counter_window_mismatch_raises():
    with pytest.raises(ValueError, match="window"):
        RateCounter(1000).merge(RateCounter(500))
    with pytest.raises(ValueError):
        RateCounter(1000).merge(object())


class TwoPointerCounter:
    """The eager RateCounter this repo shipped before merges went lazy.

    Reference implementation: every merge rebuilds the whole log with a
    two-pointer pass (ties take this counter's event first).  The real
    counter must leave the same event log and hit count, bit for bit.
    """

    def __init__(self, window):
        self.window = window
        self.events = []
        self.hits = 0

    def observe(self, time, hit):
        self.observe_batch([time], [hit])

    def observe_batch(self, times, hits):
        for time, hit in zip(times, hits):
            self.events.append((time, bool(hit)))
            self.hits += bool(hit)
        if times:
            self.evict(times[-1])

    def evict(self, now):
        cutoff = now - self.window
        while self.events and self.events[0][0] <= cutoff:
            self.hits -= self.events.pop(0)[1]

    def merge(self, other):
        left, right = self.events, other.events
        merged = []
        i = j = 0
        while i < len(left) and j < len(right):
            if left[i][0] <= right[j][0]:
                merged.append(left[i])
                i += 1
            else:
                merged.append(right[j])
                j += 1
        merged.extend(left[i:])
        merged.extend(right[j:])
        self.events = merged
        self.hits += other.hits
        return self

    def rate(self, now):
        self.evict(now)
        return self.hits / len(self.events) if self.events else 0.0

    def count(self, now):
        self.evict(now)
        return len(self.events)


def settled_log(counter):
    """The real counter's full state, read the way the store reads it."""
    dumped = counter.to_json()["events"]
    assert dumped == [[t, int(hit)] for t, hit in counter._events]
    return [(t, bool(hit)) for t, hit in dumped], counter._hits


def both(window, log):
    real, reference = RateCounter(window), TwoPointerCounter(window)
    for time, hit in log:
        real.observe(time, hit)
        reference.observe(time, hit)
    return real, reference


# Narrow time range on purpose: duplicate timestamps within and across
# sides are the common case, and the window (100) evicts mid-chain.
CHAIN_WINDOW = 100
short_logs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=300), st.booleans()),
    max_size=25).map(lambda events: sorted(events, key=lambda e: e[0]))
offsets = st.integers(min_value=0, max_value=60)
chain_ops = st.lists(st.one_of(
    st.tuples(st.just("merge"), short_logs),
    st.tuples(st.just("merge_into"), short_logs),
    st.tuples(st.just("self_merge")),
    st.tuples(st.just("observe"), offsets, st.booleans()),
    st.tuples(st.just("observe_batch"),
              st.lists(st.tuples(offsets, st.booleans()), max_size=6)),
    st.tuples(st.just("rate"), st.integers(min_value=-150, max_value=150)),
    st.tuples(st.just("round_trip")),
), max_size=16)


@given(start=short_logs, ops=chain_ops)
def test_rate_counter_merge_chain_matches_two_pointer_reference(start, ops):
    real, reference = both(CHAIN_WINDOW, start)
    clock = start[-1][0] if start else 0  # observes never run backwards
    for op in ops:
        kind = op[0]
        if kind == "merge":
            other, other_reference = both(CHAIN_WINDOW, op[1])
            assert real.merge(other) is real
            reference.merge(other_reference)
        elif kind == "merge_into":
            # The accumulated (possibly still unordered) log is the
            # *argument* of the merge, and the result carries on.
            other, other_reference = both(CHAIN_WINDOW, op[1])
            real = other.merge(real)
            reference = other_reference.merge(reference)
        elif kind == "self_merge":
            real.merge(real)
            reference.merge(reference)
        elif kind == "observe":
            clock += op[1]
            real.observe(clock, op[2])
            reference.observe(clock, op[2])
        elif kind == "observe_batch":
            times = []
            for offset, _ in op[1]:
                clock += offset
                times.append(clock)
            hits = [hit for _, hit in op[1]]
            real.observe_batch(times, hits)
            reference.observe_batch(times, hits)
        elif kind == "rate":
            now = clock + op[1]
            assert real.rate(now) == reference.rate(now)
            assert real.count(now) == reference.count(now)
        elif kind == "round_trip":
            real = RateCounter.from_json(
                json.loads(json.dumps(real.to_json())))
        if reference.events:
            clock = max(clock, max(t for t, _ in reference.events))
    assert settled_log(real) == (reference.events, reference.hits)


def test_rate_counter_self_merge_doubles_every_event_in_place():
    counter, reference = both(10_000, [(1, True), (1, False), (2, True)])
    assert counter.merge(counter) is counter
    reference.merge(reference)
    want = [(1, True), (1, False), (1, True), (1, False),
            (2, True), (2, True)]
    assert reference.events == want
    assert settled_log(counter) == (want, 4)
    assert counter.rate(2) == 4 / 6


def test_rate_counter_observe_after_interleaving_merge():
    counter, reference = both(10_000, [(10, True), (30, False)])
    other, other_reference = both(10_000, [(20, True)])
    counter.merge(other)
    reference.merge(other_reference)
    # A late event lands behind the merged log, exactly where the eager
    # merge left it: the log is ordered *before* the append, not after.
    for time, hit in ((25, True), (40, False)):
        counter.observe(time, hit)
        reference.observe(time, hit)
    want = [(10, True), (20, True), (30, False), (25, True), (40, False)]
    assert reference.events == want
    assert settled_log(counter) == (want, 3)


class CountedTime(int):
    """An event time that counts every ordering comparison made on it."""

    comparisons = 0

    def _counted(name):
        compare = getattr(int, name)

        def method(self, other):
            CountedTime.comparisons += 1
            return compare(self, other)
        return method

    __lt__ = _counted("__lt__")
    __le__ = _counted("__le__")
    __gt__ = _counted("__gt__")
    __ge__ = _counted("__ge__")
    del _counted


def test_rate_counter_fold_is_n_log_k_comparisons():
    # No wall clock: count comparisons on the event times themselves.
    k, n = 64, 50
    rng = random.Random(14)
    logs = [sorted((CountedTime(rng.randrange(10**6)), rng.random() < 0.3)
                   for _ in range(n))
            for _ in range(k)]
    window = 10**9  # nothing evicts: the fold's own work is what's counted

    def fold(make):
        counters = []
        for log in logs:
            counters.append(make(window))
            for time, hit in log:
                counters[-1].observe(time, hit)
        CountedTime.comparisons = 0
        total = make(window)
        for counter in counters:
            total.merge(counter)
        return total

    total = fold(RateCounter)
    log, hits = settled_log(total)
    lazy = CountedTime.comparisons
    reference = fold(TwoPointerCounter)
    eager = CountedTime.comparisons

    assert (log, hits) == (reference.events, reference.hits)
    bound = k * n * (math.log2(k) + 2)
    assert lazy <= bound
    assert eager > 3 * bound  # ~K^2 n / 2: the bound tells the two apart


# -- Algebraic laws: what lets a store fold rows in any grouping ------------


def rate_counter(log):
    counter = RateCounter(10**6)
    counter.observe_batch([t for t, _ in log], [hit for _, hit in log])
    return counter


def histogram(samples):
    sketch = Histogram(-100.0, 100.0, 16)
    sketch.update_many(samples)
    return sketch


def histogram_state(sketch):
    return (sketch.counts, sketch.underflow, sketch.overflow, sketch.total)


@settings(max_examples=50)
@given(a=short_logs, b=short_logs, c=short_logs)
def test_rate_counter_merge_laws(a, b, c):
    # Associative, exactly: ties resolve a, b, c under either grouping.
    grouped_left = rate_counter(a).merge(rate_counter(b)).merge(
        rate_counter(c))
    grouped_right = rate_counter(a).merge(
        rate_counter(b).merge(rate_counter(c)))
    assert settled_log(grouped_left) == settled_log(grouped_right)
    # The empty counter is a two-sided identity.
    assert settled_log(rate_counter([]).merge(rate_counter(a))) == \
        settled_log(rate_counter(a))
    assert settled_log(rate_counter(a).merge(rate_counter([]))) == \
        settled_log(rate_counter(a))
    # Commutative up to the order of equal timestamps.
    ab, hits_ab = settled_log(rate_counter(a).merge(rate_counter(b)))
    ba, hits_ba = settled_log(rate_counter(b).merge(rate_counter(a)))
    assert hits_ab == hits_ba
    assert [t for t, _ in ab] == [t for t, _ in ba]
    assert sorted(ab) == sorted(ba)


@settings(max_examples=50)
@given(a=value_lists, b=value_lists, c=value_lists)
def test_histogram_merge_laws(a, b, c):
    grouped_left = histogram(a).merge(histogram(b)).merge(histogram(c))
    grouped_right = histogram(a).merge(histogram(b).merge(histogram(c)))
    assert histogram_state(grouped_left) == histogram_state(grouped_right)
    assert histogram_state(histogram([]).merge(histogram(a))) == \
        histogram_state(histogram(a))
    assert histogram_state(histogram(a).merge(histogram([]))) == \
        histogram_state(histogram(a))
    assert histogram_state(histogram(a).merge(histogram(b))) == \
        histogram_state(histogram(b).merge(histogram(a)))


# -- SummaryDigest: float-tolerance ----------------------------------------


def digest(samples):
    summary = SummaryDigest()
    for value in samples:
        summary.update(value)
    return summary


@given(a=value_lists, b=value_lists)
def test_summary_digest_merge_matches_concatenated_stream(a, b):
    left = digest(a)
    right = digest(b)
    reference = digest(a + b)

    merged = left.merge(right)
    assert merged is left
    assert merged.count == reference.count
    if reference.count:
        assert math.isclose(merged.mean, reference.mean,
                            rel_tol=1e-9, abs_tol=1e-6)
        if reference.count > 1:
            assert math.isclose(merged.variance, reference.variance,
                                rel_tol=1e-6, abs_tol=1e-3)
        else:
            assert math.isnan(merged.variance)
        assert merged.min == reference.min
        assert merged.max == reference.max


def test_summary_digest_merge_rejects_other_types():
    with pytest.raises(ValueError):
        SummaryDigest().merge(object())


# -- P2Quantile: tolerance-bounded -----------------------------------------


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       split=st.floats(min_value=0.1, max_value=0.9))
def test_p2_merge_tracks_pooled_quantile(seed, split):
    import random

    rng = random.Random(seed)
    samples = [rng.gauss(100.0, 25.0) for _ in range(600)]
    cut = int(len(samples) * split)

    left = P2Quantile(0.95)
    for value in samples[:cut]:
        left.update(value)
    right = P2Quantile(0.95)
    for value in samples[cut:]:
        right.update(value)
    merged = left.merge(right)

    exact = sorted(samples)[int(0.95 * len(samples))]
    spread = max(samples) - min(samples)
    # P² itself is an approximation; the merge must stay in the same
    # neighbourhood of the true pooled quantile (10% of the sample spread
    # is far tighter than the estimator's own worst case yet loose enough
    # to be seed-stable).
    assert abs(merged.value - exact) <= 0.10 * spread


@given(a=value_lists, b=value_lists)
def test_p2_merge_handles_tiny_sides_exactly(a, b):
    # Below the 5-sample initialization threshold P² stores raw samples, so
    # merging two tiny sketches must be exact: the median of the pooled
    # samples, with no marker interpolation involved.
    left = P2Quantile(0.5)
    for value in a[:3]:
        left.update(value)
    right = P2Quantile(0.5)
    for value in b[:2]:
        right.update(value)
    merged = left.merge(right)
    pooled = sorted(a[:3] + b[:2])
    if len(pooled) < 5:
        reference = P2Quantile(0.5)
        for value in sorted(pooled):
            reference.update(value)
        got, want = merged.value, reference.value
        assert (math.isnan(got) and math.isnan(want)) or \
            math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)


def test_p2_quantile_mismatch_raises():
    with pytest.raises(ValueError, match="quantile|q"):
        P2Quantile(0.95).merge(P2Quantile(0.5))
    with pytest.raises(ValueError):
        P2Quantile(0.95).merge(object())
