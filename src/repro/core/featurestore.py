"""The global feature store of §4.3.

Guardrails interact with system-wide state exclusively through
``SAVE(key, value)`` and ``LOAD(key)``.  Kernel subsystems (and actions)
save raw metrics; rules load them.  On top of raw keys the store supports:

- **derived keys** — registered streaming aggregators (moving average, rate,
  EWMA, quantile) that update whenever their source key is saved, so a rule
  can just ``LOAD(page_fault_latency.avg)`` instead of every guardrail
  re-implementing aggregation;
- **change subscription** — the dependency-tracked checking of §6 needs to
  know which keys changed since a monitor last evaluated.

Key syntax matches the DSL identifier rules: dot-separated identifiers like
``false_submit_rate`` or ``storage.io_latency.p95``.
"""

import math
import re

from repro.core.errors import StoreError
from repro.detect.quantiles import P2Quantile
from repro.detect.streaming import Ewma, MovingAverage, RateCounter, WindowedMean
from repro.sim.metrics import DeferredFlush
from repro.trace.tracer import TRACER

_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*$")


class _DerivedKey:
    """A streaming aggregate fed from a source key."""

    def __init__(self, name, source, estimator, extract):
        self.name = name
        self.source = source
        self.estimator = estimator
        self._extract = extract

    def update(self, value, now):
        self.estimator.update(value)

    def update_batch(self, values, times):
        """Feed a batch of saves; default is exact sequential replay.

        Running-float estimators (moving average, EWMA, windowed mean,
        P2 quantile) are rounding-order-sensitive, so the default replays
        events one by one — state stays bit-identical to scalar saves.
        Subclasses with order-free state override this with a vector path.
        """
        update = self.update
        for value, now in zip(values, times):
            # float() mirrors the scalar save path's conversion exactly.
            update(float(value), now)

    def value(self, now):
        return self._extract(self.estimator, now)


class _DerivedWindowedMean(_DerivedKey):
    """Time-window averages need timestamps, not just values."""

    def __init__(self, name, source, window):
        super().__init__(name, source, WindowedMean(window), None)

    def update(self, value, now):
        self.estimator.observe(now, value)

    def value(self, now):
        return self.estimator.mean(now)


class _DerivedRate(_DerivedKey):
    """Rate aggregates need timestamps, not just values."""

    def __init__(self, name, source, window, predicate=None):
        super().__init__(name, source, RateCounter(window), None)
        # The default predicate (truthiness of a 0/1 event value) is
        # order-free integer math, so batches take the vector lane below.
        self._default_predicate = predicate is None
        self._predicate = predicate or (lambda v: bool(v))

    def update(self, value, now):
        self.estimator.observe(now, self._predicate(value))

    def update_batch(self, values, times):
        if self._default_predicate:
            # bool(v) == (v != 0) for numeric v (NaN is truthy either way);
            # the counter's batched observe is exact for monotone times.
            self.estimator.observe_batch(times, values)
            return
        observe = self.estimator.observe
        predicate = self._predicate
        for value, now in zip(values, times):
            observe(now, predicate(float(value)))

    def value(self, now):
        return self.estimator.rate(now)


class FeatureStore(DeferredFlush):
    """Global key/value store with derived aggregates and change tracking.

    Any access that could observe state (save/load/version/snapshot/keys/
    contains/subscribe/derive) first drains an armed deferred flush, so
    saves a buffering writer still holds are never visible as missing.
    ``save_count`` and ``load_count`` are plain counters and do not drain.
    """

    MAX_SUBSCRIBER_ERRORS = 100

    def __init__(self, clock=None, strict_notify=False):
        self._clock = clock if clock is not None else (lambda: 0)
        self._values = {}
        self._derived = {}      # derived key name -> _DerivedKey
        self._by_source = {}    # source key -> (derived keys, ...) tuple
        self._versions = {}     # key -> monotonically increasing int
        self._subscribers = []  # callbacks (key, value, now)
        self._valid_keys = set()  # keys that already passed _KEY_RE
        self._flush = None      # see DeferredFlush
        self.save_count = 0
        self.load_count = 0
        # ``strict_notify=True`` restores the pre-containment behavior: a
        # raising subscriber aborts notification (kept so regression tests
        # can demonstrate the bug the containment fixes).
        self.strict_notify = strict_notify
        self.subscriber_error_count = 0
        self.subscriber_errors = []  # bounded: most recent contained crashes

    def _check_key(self, key):
        # Fast lane: every validated key lands in ``_valid_keys``, so the
        # per-save/per-load cost of a known key is one set lookup, not a
        # regex match.  ``in`` raises TypeError for unhashable non-strings,
        # which the except folds into the usual StoreError.
        try:
            if key in self._valid_keys:
                return
        except TypeError:
            raise StoreError("invalid feature-store key: {!r}".format(key))
        if not isinstance(key, str) or not _KEY_RE.match(key):
            raise StoreError("invalid feature-store key: {!r}".format(key))
        self._valid_keys.add(key)

    # -- buffered ingest ----------------------------------------------------

    def quiet_since(self, mark):
        """True when a save made now could be deferred unobserved.

        ``mark`` is a ``save_count + load_count`` reading.  Quiet means no
        save or load since then, no subscriber and no active tracer: the
        three things that would see a deferred save late or out of order.
        """
        return (self.save_count + self.load_count == mark
                and not self._subscribers and not TRACER.active)

    def save_batch(self, key, values, times):
        """Deferred SAVEs: equivalent to ``save(key, v)`` at each time.

        ``times`` carries the events' (non-decreasing) virtual timestamps —
        the clock values the scalar saves would have observed.  Raw state
        is updated in O(1) and derived keys are fed one batch at a time.
        Values are expected numeric.  State afterwards is bit-identical to
        n scalar saves as long as nothing read the store mid-batch, which
        the deferred-flush drain guarantees.

        No subscriber is notified and nothing is traced: callers buffer
        only while :meth:`quiet_since` holds, :meth:`subscribe` drains
        first, and saves buffered before a tracer started were made before
        it started.
        """
        count = len(values)
        if count == 0:
            return
        if len(times) != count:
            raise StoreError(
                "save_batch: {} values vs {} times".format(count, len(times)))
        try:
            unseen = key not in self._valid_keys
        except TypeError:
            raise StoreError("invalid feature-store key: {!r}".format(key))
        if unseen:
            self._check_key(key)
        if key in self._derived:
            raise StoreError(
                "key {!r} is derived (from {!r}) and cannot be saved directly"
                .format(key, self._derived[key].source)
            )
        self.save_count += count
        self._values[key] = values[-1]
        versions = self._versions
        versions[key] = versions.get(key, 0) + count
        fanout = self._by_source.get(key)
        if fanout is not None:
            for derived in fanout:
                derived.update_batch(values, times)
                versions[derived.name] = versions.get(derived.name, 0) + count

    def save(self, key, value):
        """SAVE(key, value) — store a raw value and feed derived keys."""
        if self._flush is not None:
            self._drain_flush()
        try:
            unseen = key not in self._valid_keys
        except TypeError:
            raise StoreError("invalid feature-store key: {!r}".format(key))
        if unseen:
            self._check_key(key)
        if key in self._derived:
            raise StoreError(
                "key {!r} is derived (from {!r}) and cannot be saved directly"
                .format(key, self._derived[key].source)
            )
        now = self._clock()
        self.save_count += 1
        if TRACER.active:
            TRACER.emit(
                "featurestore.save", key, now,
                args={"value": value}
                if isinstance(value, (bool, int, float, str)) or value is None
                else None,
            )
        self._values[key] = value
        self._bump(key, value, now)
        # bool is an int subclass, so one isinstance covers the bool branch.
        if isinstance(value, (int, float)):
            fanout = self._by_source.get(key)
            if fanout is not None:
                numeric = float(value)
                bump = self._bump
                for derived in fanout:
                    derived.update(numeric, now)
                    bump(derived.name, None, now)

    def load(self, key, default=None):
        """LOAD(key) — raw value or current derived-aggregate value.

        Missing keys return ``default`` (``None`` unless given); rules treat
        a ``None`` load as "no data yet", which never violates.
        """
        if self._flush is not None:
            self._drain_flush()
        try:
            unseen = key not in self._valid_keys
        except TypeError:
            raise StoreError("invalid feature-store key: {!r}".format(key))
        if unseen:
            self._check_key(key)
        self.load_count += 1
        # Raw and derived keys are disjoint by construction; the raw branch
        # skips the clock read (only derived values are time-dependent).
        values = self._values
        if key in values:
            return values[key]
        derived = self._derived.get(key)
        if derived is not None:
            return derived.value(self._clock())
        return default

    def __contains__(self, key):
        if self._flush is not None:
            self._drain_flush()
        return key in self._values or key in self._derived

    def keys(self):
        if self._flush is not None:
            self._drain_flush()
        return sorted(set(self._values) | set(self._derived))

    def version(self, key):
        """Monotonic change counter for a key (0 if never written)."""
        if self._flush is not None:
            self._drain_flush()
        return self._versions.get(key, 0)

    def _bump(self, key, value, now):
        versions = self._versions
        versions[key] = versions.get(key, 0) + 1
        if not self._subscribers:
            return
        # Copy: a subscriber may (un)subscribe, or trigger saves that
        # re-enter _bump, while we iterate.
        for callback in list(self._subscribers):
            try:
                callback(key, value, now)
            except Exception as error:
                # The value is already written; one crashing subscriber must
                # not starve the remaining subscribers of the change.
                # Contained per callback, counted, logged (bounded), traced.
                if self.strict_notify:
                    raise
                self.subscriber_error_count += 1
                if len(self.subscriber_errors) >= self.MAX_SUBSCRIBER_ERRORS:
                    self.subscriber_errors.pop(0)
                self.subscriber_errors.append({
                    "key": key,
                    "time": now,
                    "subscriber": getattr(callback, "__qualname__",
                                          repr(callback)),
                    "error": "{}: {}".format(type(error).__name__, error),
                })
                if TRACER.active:
                    TRACER.emit("supervisor", "subscriber_crash", now,
                                args={"key": key,
                                      "error": type(error).__name__})

    def subscribe(self, callback):
        """Call ``callback(key, value, now)`` on every key change.

        Subscribing an already-subscribed callback is idempotent: the
        callback stays registered exactly once (one delivery per change),
        and any of the returned ``unsubscribe`` handles removes that single
        registration.  ``unsubscribe`` itself is idempotent.  Deferred saves
        are drained first: they predate the subscriber, so it never hears
        of them.
        """
        if self._flush is not None:
            self._drain_flush()
        if callback not in self._subscribers:
            self._subscribers.append(callback)

        def unsubscribe():
            try:
                self._subscribers.remove(callback)
            except ValueError:
                pass

        return unsubscribe

    # -- derived keys -----------------------------------------------------

    def _register_derived(self, derived):
        # Deferred saves of the source predate this key and must not feed it.
        if self._flush is not None:
            self._drain_flush()
        self._check_key(derived.name)
        self._check_key(derived.source)
        if derived.name in self._derived or derived.name in self._values:
            raise StoreError("derived key {!r} already exists".format(derived.name))
        self._derived[derived.name] = derived
        # Tuples: the save-path fan-out iterates this on every numeric save,
        # and registration is rare enough that rebuild-on-append is free.
        self._by_source[derived.source] = (
            self._by_source.get(derived.source, ()) + (derived,))
        return derived.name

    def derive_moving_average(self, source, window, name=None):
        """``name`` tracks the moving average of the last ``window`` saves."""
        name = name or source + ".avg"
        estimator = MovingAverage(window)
        return self._register_derived(
            _DerivedKey(name, source, estimator, lambda e, now: e.value)
        )

    def derive_ewma(self, source, alpha, name=None):
        name = name or source + ".ewma"
        estimator = Ewma(alpha)
        return self._register_derived(
            _DerivedKey(name, source, estimator, lambda e, now: e.value)
        )

    def derive_quantile(self, source, q, name=None):
        name = name or "{}.p{:g}".format(source, q * 100)
        estimator = P2Quantile(q)
        return self._register_derived(
            _DerivedKey(name, source, estimator, lambda e, now: e.value)
        )

    def derive_time_average(self, source, window, name=None):
        """``name`` is the mean of saves within the trailing ``window`` ns."""
        name = name or source + ".tavg"
        return self._register_derived(_DerivedWindowedMean(name, source, window))

    def derive_rate(self, source, window, predicate=None, name=None):
        """``name`` is the fraction of recent saves satisfying ``predicate``.

        With the default predicate the source is expected to be saved as
        0/1 (or bool) event outcomes, e.g. ``SAVE(false_submit, 1)``.
        """
        name = name or source + ".rate"
        return self._register_derived(_DerivedRate(name, source, window, predicate))

    def snapshot(self):
        """All current raw values plus derived values (for REPORT payloads).

        NaN means "no data" throughout the rule language, so NaN raw values
        are dropped exactly like NaN derived aggregates — a REPORT payload
        is uniformly "keys with data".
        """
        if self._flush is not None:
            self._drain_flush()
        now = self._clock()
        out = {
            key: value for key, value in self._values.items()
            if not (isinstance(value, float) and math.isnan(value))
        }
        for name, derived in self._derived.items():
            value = derived.value(now)
            if isinstance(value, float) and math.isnan(value):
                continue
            out[name] = value
        return out
