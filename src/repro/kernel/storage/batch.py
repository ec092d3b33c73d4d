"""Completion ingest: every I/O completion's store saves and metric records.

Per completion the volume publishes two ``store.save`` calls, a time-series
append and one or two counter increments.  In the paper's §4.3 design,
subsystems SAVE and guardrails LOAD, so while no guardrail is reading that
publishing should cost almost nothing.  :class:`CompletionIngest` decides,
per completion, between two ways of doing it:

- **buffer** — append the effects to plain column lists, drained later in
  one :meth:`FeatureStore.save_batch` / :meth:`MetricRecorder.record_batch`
  call per column.  Chosen only while the store is quiet
  (:meth:`FeatureStore.quiet_since`): no save or load since the previous
  completion's own effects, no subscriber and no active tracer.
- **write through** — the scalar saves and records, after draining
  anything still buffered.

Correctness never depends on the choice.  The device model's RNG draws all
happen before a completion reaches the ingest; buffered values and
timestamps are exactly what the scalar path stores; and every store read
and every metric read drains the buffer first (the deferred-flush slot of
:class:`~repro.sim.metrics.DeferredFlush`).  The choice only decides
whether buffering pays: a store touched between completions would drain
after every event, and a subscriber or tracer must see each save in order.
"""

#: Most completions one ingest holds before it drains on its own.  Only
#: bounds memory: a quiet store would otherwise buffer a whole run.
MAX_PENDING = 4096


class CompletionIngest:
    """One volume's per-completion store saves and metric records."""

    def __init__(self, store, metrics, metric_prefix):
        self.store = store
        self.metrics = metrics
        self._series_name = metric_prefix + ".io_latency_us"
        self._completed_name = metric_prefix + ".completed"
        self._slow_name = metric_prefix + ".slow_ios"
        self._times = []
        self._latencies = []
        self._fs_times = []
        self._fs_values = []
        self._slow_count = 0
        # store.save_count + store.load_count right after the previous
        # completion's own effects; None until the first completion.
        self._mark = None
        self.write_through_count = 0
        self.drain_count = 0
        # One stable bound method: defer_flush/cancel_flush match by
        # identity, and ``self.drain`` creates a fresh object per access.
        self._drain_cb = self.drain

    def __len__(self):
        return len(self._times)

    def add(self, now, latency_us, false_submit_event, slow):
        """Publish one completion's effects.

        ``false_submit_event`` is ``None`` when no ``false_submit`` sample
        is due, else the 0/1 int to save.
        """
        store = self.store
        if store.quiet_since(self._mark):
            times = self._times
            if not times:
                # Empty -> armed in both sinks; a drain from either side
                # empties the buffer and disarms both.
                store.defer_flush(self._drain_cb)
                self.metrics.defer_flush(self._drain_cb)
            times.append(now)
            self._latencies.append(latency_us)
            if false_submit_event is not None:
                self._fs_times.append(now)
                self._fs_values.append(false_submit_event)
            if slow:
                self._slow_count += 1
            if len(times) < MAX_PENDING:
                return  # buffering moved neither count: the mark holds
            self.drain()
        else:
            self.write_through_count += 1
            if self._times:
                self.drain()
            store.save("io_latency_us", latency_us)
            if false_submit_event is not None:
                store.save("false_submit", false_submit_event)
            metrics = self.metrics
            metrics.record(self._series_name, latency_us, now)
            metrics.increment(self._completed_name)
            if slow:
                metrics.increment(self._slow_name)
        self._mark = store.save_count + store.load_count

    def drain(self):
        """Write every buffered completion to the store and metrics."""
        self.store.cancel_flush(self._drain_cb)
        self.metrics.cancel_flush(self._drain_cb)
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
        self.drain_count += 1
        # Grouped by key: per-key store state (raw value, version count,
        # derived estimators) and metric series content are exactly
        # order-free across *different* keys, so grouping is lossless.
        store = self.store
        store.save_batch("io_latency_us", latencies, times)
        if fs_values:
            store.save_batch("false_submit", fs_values, fs_times)
        metrics = self.metrics
        metrics.record_batch(self._series_name, times, latencies)
        metrics.increment(self._completed_name, len(times))
        if slow_count:
            metrics.increment(self._slow_name, slow_count)


__all__ = ["CompletionIngest", "MAX_PENDING"]
