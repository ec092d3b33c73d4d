"""Columnar completion ingest for the batched device-model lane.

The scalar completion path pays the full feature-store and metric-recorder
fan-out per I/O: two ``store.save`` calls, a time-series append, and two
counter increments — five Python-level operations per event.  The batched
lane buffers those per-event effects in plain column lists and drains them
in one :meth:`FeatureStore.save_batch` / :meth:`MetricRecorder.record_batch`
call per column, amortizing dispatch over thousands of events.

Exactness contract (the "bugfix" half of this lane):

- The device model's RNG is untouched — batching begins strictly *after*
  service/dwell draws, so per-event draw order is the scalar path's by
  construction.
- Buffered values are exactly what the scalar saves would have stored
  (the float latency, the int 0/1 false-submit event) at exactly the
  event timestamps the scalar clock would have observed.
- No reader can observe pre-flush state: every buffered event arms the
  store's one-shot flush hook, and any store access (a rule's LOAD, a
  snapshot, a version probe) drains the buffers first.  Metric readers go
  through :meth:`ReplicatedVolume.flush_ingest`.

Given those, final counters, series, histograms and derived-estimator
state are bit-identical across batch sizes — pinned by the seeded
cross-check in ``tests/kernel/storage/test_batch_ingest.py``.
"""


class BatchedCompletionIngest:
    """Buffers one volume's per-completion store/metric effects."""

    def __init__(self, store, metrics, metric_prefix, batch_size):
        if batch_size < 1:
            raise ValueError(
                "batch_size must be >= 1, got {}".format(batch_size))
        self.store = store
        self.metrics = metrics
        self.batch_size = int(batch_size)
        self._series_name = metric_prefix + ".io_latency_us"
        self._completed_name = metric_prefix + ".completed"
        self._slow_name = metric_prefix + ".slow_ios"
        self._times = []
        self._latencies = []
        self._fs_times = []
        self._fs_values = []
        self._slow_count = 0
        self.flush_count = 0
        # One stable bound method: defer_flush/cancel_flush match by
        # identity, and ``self.flush`` creates a fresh object per access.
        self._flush_cb = self.flush

    def __len__(self):
        return len(self._times)

    def add(self, now, latency_us, false_submit_event, slow):
        """Buffer one completion's effects.

        ``false_submit_event`` is ``None`` when the scalar path would not
        have saved a ``false_submit`` sample, else the 0/1 int it would
        have saved.
        """
        self.store.defer_flush(self._flush_cb)
        self._times.append(now)
        self._latencies.append(latency_us)
        if false_submit_event is not None:
            self._fs_times.append(now)
            self._fs_values.append(false_submit_event)
        if slow:
            self._slow_count += 1
        if len(self._times) >= self.batch_size:
            self.flush()

    def flush(self):
        """Drain all buffered events into the store and metrics."""
        self.store.cancel_flush(self._flush_cb)
        times = self._times
        if not times:
            return
        latencies = self._latencies
        fs_times = self._fs_times
        fs_values = self._fs_values
        slow_count = self._slow_count
        self._times = []
        self._latencies = []
        self._fs_times = []
        self._fs_values = []
        self._slow_count = 0
        self.flush_count += 1
        # Grouped-by-key replay: per-key store state (raw value, version
        # count, derived estimators) and metric series content are exactly
        # order-free across *different* keys, so grouping is lossless.
        self.store.save_batch("io_latency_us", latencies, times)
        if fs_values:
            self.store.save_batch("false_submit", fs_values, fs_times)
        self.metrics.record_batch(self._series_name, times, latencies)
        self.metrics.increment(self._completed_name, len(times))
        if slow_count:
            self.metrics.increment(self._slow_name, slow_count)


__all__ = ["BatchedCompletionIngest"]
