"""Constant-memory streaming estimators."""

import collections
import math
import operator

_event_time = operator.itemgetter(0)
_event_hit = operator.itemgetter(1)


class MovingAverage:
    """Trailing moving average over the last ``window`` samples."""

    def __init__(self, window):
        if window < 1:
            raise ValueError("window must be >= 1, got {}".format(window))
        self.window = window
        self._buf = collections.deque()
        self._sum = 0.0

    def update(self, value):
        """Add a sample and return the current average."""
        self._buf.append(value)
        self._sum += value
        if len(self._buf) > self.window:
            self._sum -= self._buf.popleft()
        return self.value

    @property
    def value(self):
        if not self._buf:
            return math.nan
        return self._sum / len(self._buf)

    @property
    def count(self):
        return len(self._buf)

    def reset(self):
        self._buf.clear()
        self._sum = 0.0


class Ewma:
    """Exponentially weighted moving average with smoothing factor ``alpha``."""

    def __init__(self, alpha):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1], got {}".format(alpha))
        self.alpha = alpha
        self._value = None

    def update(self, value):
        if self._value is None:
            self._value = float(value)
        else:
            self._value = self.alpha * value + (1.0 - self.alpha) * self._value
        return self._value

    @property
    def value(self):
        return math.nan if self._value is None else self._value

    def reset(self):
        self._value = None


class MeanVariance:
    """Welford's online mean/variance."""

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def update(self, value):
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        return self._mean

    @property
    def mean(self):
        return math.nan if self.count == 0 else self._mean

    @property
    def variance(self):
        """Sample variance (n-1 denominator); NaN until two samples."""
        if self.count < 2:
            return math.nan
        return self._m2 / (self.count - 1)

    @property
    def stddev(self):
        v = self.variance
        return math.nan if math.isnan(v) else math.sqrt(v)

    def merge(self, other):
        """Combine with another estimator (parallel Welford merge)."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            return self
        total = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self._mean += delta * other.count / total
        self.count = total
        return self

    def reset(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0


class SummaryDigest:
    """Mergeable count/mean/variance/min/max summary of a sample set.

    The cross-host form of a :class:`MeanVariance`: hosts summarize their
    local samples (a :class:`~repro.detect.windows.SlidingWindow`, a raw
    stream), ship the five-number digest, and the aggregator merges digests
    instead of raw samples.  The mean/variance merge is the same parallel
    Welford combination :meth:`MeanVariance.merge` uses; min/max merge
    exactly.
    """

    __slots__ = ("count", "_mean", "_m2", "_min", "_max")

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    @classmethod
    def from_values(cls, values):
        digest = cls()
        for value in values:
            digest.update(value)
        return digest

    def update(self, value):
        value = float(value)
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        return self._mean

    @property
    def mean(self):
        return math.nan if self.count == 0 else self._mean

    @property
    def variance(self):
        """Sample variance (n-1 denominator); NaN until two samples."""
        if self.count < 2:
            return math.nan
        return self._m2 / (self.count - 1)

    @property
    def min(self):
        return math.nan if self.count == 0 else self._min

    @property
    def max(self):
        return math.nan if self.count == 0 else self._max

    def merge(self, other):
        """Combine with another digest (parallel Welford merge + min/max)."""
        if not isinstance(other, SummaryDigest):
            raise ValueError(
                "cannot merge SummaryDigest with {}".format(
                    type(other).__name__))
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self._min = other._min
            self._max = other._max
            return self
        total = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self._mean += delta * other.count / total
        self.count = total
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max
        return self

    def to_dict(self):
        """JSON-friendly form (NaN-free: empty digests report nulls)."""
        if self.count == 0:
            return {"count": 0, "mean": None, "variance": None,
                    "min": None, "max": None}
        variance = self.variance
        return {
            "count": self.count,
            "mean": self._mean,
            "variance": None if math.isnan(variance) else variance,
            "min": self._min,
            "max": self._max,
        }

    def to_json(self):
        """Exact state dump: ``from_json(to_json(d))`` is *identical* to ``d``.

        Unlike :meth:`to_dict` (derived values for humans), this carries the
        raw Welford accumulators, so round-tripping through JSON changes
        nothing — Python's JSON floats are repr-exact.  Empty digests omit
        the infinite min/max sentinels (JSON has no ``inf``).
        """
        if self.count == 0:
            return {"count": 0}
        return {"count": self.count, "mean": self._mean, "m2": self._m2,
                "min": self._min, "max": self._max}

    @classmethod
    def from_json(cls, data):
        digest = cls()
        if data["count"]:
            digest.count = int(data["count"])
            digest._mean = float(data["mean"])
            digest._m2 = float(data["m2"])
            digest._min = float(data["min"])
            digest._max = float(data["max"])
        return digest


class WindowedMean:
    """Mean of samples observed within a trailing *time* window.

    The estimator backing properties phrased as "the average X over every
    N seconds": samples carry the caller's virtual-time stamps and age out
    of the window on each query.
    """

    def __init__(self, window):
        if window <= 0:
            raise ValueError("window must be positive, got {}".format(window))
        self.window = window
        self._samples = collections.deque()  # (time, value)
        self._sum = 0.0

    def observe(self, time, value):
        self._samples.append((time, float(value)))
        self._sum += value
        self._evict(time)

    def _evict(self, now):
        cutoff = now - self.window
        while self._samples and self._samples[0][0] <= cutoff:
            _, old = self._samples.popleft()
            self._sum -= old

    def mean(self, now):
        """Mean over the window; NaN when no samples remain."""
        self._evict(now)
        if not self._samples:
            return math.nan
        return self._sum / len(self._samples)

    def count(self, now):
        self._evict(now)
        return len(self._samples)


class RateCounter:
    """Events-per-window rate over a trailing time window.

    Used for properties like "false-submit rate over the last second".
    Timestamps are the caller's virtual-time integers; the counter evicts
    events older than ``window`` on every query.

    The event log is time-ordered except between a :meth:`merge` whose
    runs interleave and the next read, when it holds the merged runs end
    to end (``_unsettled``); every method that reads the log orders it
    first, so callers never see the difference.
    """

    def __init__(self, window):
        if window <= 0:
            raise ValueError("window must be positive, got {}".format(window))
        self.window = window
        self._events = collections.deque()  # (time, hit: bool)
        self._hits = 0  # running numerator: rate() is O(evictions), not O(n)
        self._unsettled = False

    def observe(self, time, hit):
        """Record one event at ``time``; ``hit`` marks the numerator."""
        if self._unsettled:
            self._settle()
        hit = bool(hit)
        self._events.append((time, hit))
        if hit:
            self._hits += 1
        self._evict(time)

    def observe_batch(self, times, hits):
        """Record many events at once; exact-equivalent to observe() calls.

        ``times`` must be non-decreasing (the caller's event order).  The
        numerator is an integer running count and evictions are monotone in
        time, so appending the whole batch and evicting once at the final
        timestamp leaves *identical* state to n sequential observes — this
        is what lets the batched ingest lane stay bit-exact.
        """
        if self._unsettled:
            self._settle()
        events = self._events
        hit_count = 0
        last = None
        for last, hit in zip(times, hits):
            hit = bool(hit)
            events.append((last, hit))
            if hit:
                hit_count += 1
        if last is None:
            return
        self._hits += hit_count
        self._evict(last)

    def _evict(self, now):
        """Drop events at or before ``now - window`` from a settled log."""
        cutoff = now - self.window
        events = self._events
        while events and events[0][0] <= cutoff:
            _, hit = events.popleft()
            if hit:
                self._hits -= 1

    def _settle(self):
        """Order the merged runs: one stable sort keyed on time alone.

        The log is a concatenation of time-ordered runs in merge order, so
        Timsort finds the runs and merges them in O(n log K) comparisons,
        and stability keeps equal timestamps in merge order.
        """
        self._events = collections.deque(
            sorted(self._events, key=_event_time))
        self._unsettled = False

    def merge(self, other):
        """Interleave ``other``'s events into this counter (exact).

        Windows must match — merging counters with different trailing
        windows would silently change eviction semantics, so that raises
        ``ValueError``.  Both event logs are time-ordered; ties take this
        counter's event first, so a chain of merges is deterministic in
        its call order.  Returns ``self`` for chaining.

        Cost: the merge itself only appends ``other``'s run, O(len(other)).
        When the runs interleave the log is ordered once, by the next
        method that reads it, however many merges came before — folding K
        counters holding n events in all costs O(n log K) comparisons, not
        a rebuild of the accumulated log per merge.
        """
        if not isinstance(other, RateCounter) or other.window != self.window:
            raise ValueError(
                "cannot merge RateCounter(window={}) with {!r}".format(
                    self.window, other))
        theirs = other._events
        if not theirs:
            return self
        mine = self._events
        if other._unsettled or (mine and theirs[0][0] < mine[-1][0]):
            self._unsettled = True
        mine.extend(theirs)
        self._hits += other._hits
        return self

    def to_json(self):
        """Exact state dump: the window plus every live ``(time, hit)`` event.

        The event log *is* the counter's state, so the round trip is exact;
        the running hit count is recomputed on load rather than trusted.
        """
        if self._unsettled:
            self._settle()
        return {"window": self.window,
                "events": [[time, 1 if hit else 0]
                           for time, hit in self._events]}

    @classmethod
    def from_json(cls, data):
        counter = cls(data["window"])
        events = data["events"]
        hits = list(map(bool, map(_event_hit, events)))
        counter._events.extend(zip(map(_event_time, events), hits))
        counter._hits = hits.count(True)
        return counter

    def rate(self, now):
        """Fraction of events in the window that were hits (0.0 when empty)."""
        if self._unsettled:
            self._settle()
        self._evict(now)
        if not self._events:
            return 0.0
        return self._hits / len(self._events)

    def count(self, now):
        """Total events currently inside the window."""
        if self._unsettled:
            self._settle()
        self._evict(now)
        return len(self._events)
