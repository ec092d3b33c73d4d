"""Simulation metric recording.

A :class:`MetricRecorder` collects named time series of ``(time, value)``
samples and named counters.  It is the raw data layer the benchmarks read;
the guardrail feature store (:mod:`repro.core.featurestore`) is a separate,
deliberately kernel-facing abstraction.
"""

import math


class TimeSeries:
    """An append-only series of ``(time, value)`` samples."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name):
        self.name = name
        self.times = []
        self.values = []

    def append(self, time, value):
        self.times.append(time)
        self.values.append(value)

    def extend(self, times, values):
        """Append many samples at once; equivalent to append() per pair."""
        self.times.extend(times)
        self.values.extend(values)

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(zip(self.times, self.values))

    def mean(self):
        if not self.values:
            return math.nan
        return sum(self.values) / len(self.values)

    def window(self, start_time, end_time):
        """Samples with ``start_time <= t < end_time`` as a list of pairs."""
        return [
            (t, v) for t, v in zip(self.times, self.values) if start_time <= t < end_time
        ]

    def moving_average(self, window):
        """Simple trailing moving average over ``window`` samples.

        Returns parallel lists ``(times, averages)``, one output point per
        input sample — the series plotted in the paper's Figure 2.
        """
        out_t, out_v = [], []
        acc = 0.0
        for i, (t, v) in enumerate(zip(self.times, self.values)):
            acc += v
            if i >= window:
                acc -= self.values[i - window]
                count = window
            else:
                count = i + 1
            out_t.append(t)
            out_v.append(acc / count)
        return out_t, out_v

    def percentile(self, q):
        """The ``q``-th percentile (0..100) of all values, NaN when empty."""
        if not self.values:
            return math.nan
        from repro.detect.quantiles import _percentile

        return _percentile(sorted(self.values), q)


class DeferredFlush:
    """One armed drain callback for writes a buffering writer still holds.

    The storage completion ingest buffers per-I/O saves and metric records
    while nothing is looking; it arms its drain here, and every reader of
    the sink runs it first (``if self._flush is not None:
    self._drain_flush()``), so no reader can see pre-flush state.
    Subclasses set ``self._flush = None`` in ``__init__``.
    """

    def defer_flush(self, callback):
        """Arm ``callback``; arming a different one drains the first."""
        if self._flush is not None and self._flush is not callback:
            self._drain_flush()
        self._flush = callback

    def cancel_flush(self, callback):
        """Disarm ``callback`` if armed (the writer draining on its own)."""
        if self._flush is callback:
            self._flush = None

    def _drain_flush(self):
        # Clear before running: the drain writes through the normal sink
        # methods, which must not re-enter it.
        flush, self._flush = self._flush, None
        flush()


class MetricRecorder(DeferredFlush):
    """Named counters and time series for one simulation run.

    Readers (:meth:`series`, :meth:`counter`, :meth:`snapshot`) drain any
    armed :class:`DeferredFlush` first; writers do not, so a subsystem
    recording its own names never forces a drain.
    """

    def __init__(self, engine):
        self.engine = engine
        self._series = {}
        self._counters = {}
        self._flush = None

    def record(self, name, value, time=None):
        """Append a sample to series ``name`` at ``time`` (default: now)."""
        if name not in self._series:
            self._series[name] = TimeSeries(name)
        when = self.engine.now if time is None else time
        self._series[name].append(when, value)

    def record_batch(self, name, times, values):
        """Append many samples to series ``name`` with explicit times.

        The buffered completion ingest's counterpart to per-event record():
        series content is identical, list growth is one extend.
        """
        if name not in self._series:
            self._series[name] = TimeSeries(name)
        self._series[name].extend(times, values)

    def increment(self, name, amount=1):
        self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name):
        if self._flush is not None:
            self._drain_flush()
        return self._counters.get(name, 0)

    def series(self, name):
        """The series called ``name``; an empty one if never recorded.

        The returned object is live: a series fetched before more events
        run only shows their samples once a reader has drained them.
        """
        if self._flush is not None:
            self._drain_flush()
        if name not in self._series:
            self._series[name] = TimeSeries(name)
        return self._series[name]

    def clear(self):
        """Forget every series and counter (a run being torn down)."""
        self._series.clear()
        self._counters.clear()

    def snapshot(self):
        """Counters plus series summary stats, for reports and tests."""
        if self._flush is not None:
            self._drain_flush()
        out = {"counters": dict(self._counters), "series": {}}
        for name, series in self._series.items():
            out["series"][name] = {
                "count": len(series),
                "mean": series.mean(),
                "p50": series.percentile(50),
                "p99": series.percentile(99),
            }
        return out
