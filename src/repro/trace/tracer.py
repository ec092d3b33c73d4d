"""The process-global tracer: categories, sampling, spans, counters.

Design constraints (mirroring ftrace/perf):

- **Near-zero cost when off.**  Every tracepoint is guarded by a single
  predicate check (``if TRACER.active:``) — no buffer, no dict lookups, no
  argument marshalling unless tracing is on.
- **Bounded memory.**  Events land in an overwrite-on-full
  :class:`~repro.trace.ring.RingBuffer`.
- **Tunable overhead when on.**  Each category can be disabled outright or
  sampled 1-in-N; sampling is deterministic for a given seed so traced runs
  stay reproducible.
- **Exact counters.**  Per-guardrail check/violation/action counters (and
  cumulative check cost) are maintained on *every* tracepoint hit while the
  tracer is active, independent of sampling — ``stat()`` always matches the
  monitor's own totals even when the event stream is sampled.

There is one process-global :data:`TRACER` instance, never replaced (hot
call sites import it once); (re)``start()`` resets its state.
"""

import contextlib
import itertools
import zlib

from repro.trace.events import CATEGORIES, PHASE_SPAN, TraceEvent
from repro.trace.ring import RingBuffer


def _phase_for(seed, category, every):
    """Deterministic sampling phase in ``[0, every)`` from (seed, category).

    Uses crc32, not ``hash()``: string hashing is randomized per process and
    would break cross-run sampling reproducibility.
    """
    h = (seed * 0x9E3779B97F4A7C15 + zlib.crc32(category.encode("utf-8")))
    h &= 0xFFFFFFFFFFFFFFFF
    h ^= h >> 31
    h = (h * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    h ^= h >> 29
    return h % every


class GuardrailCounters:
    """Exact per-guardrail tracepoint counters (never sampled)."""

    __slots__ = ("checks", "violations", "actions", "check_cost_ns")

    def __init__(self):
        self.checks = 0
        self.violations = 0
        self.actions = 0
        self.check_cost_ns = 0

    def snapshot(self):
        return {
            "checks": self.checks,
            "violations": self.violations,
            "actions": self.actions,
            "check_cost_ns": self.check_cost_ns,
        }


class _Span:
    """An open begin/end pair; ``Tracer.end`` turns it into one "X" event."""

    __slots__ = ("category", "name", "ts", "guardrail", "args")

    def __init__(self, category, name, ts, guardrail, args):
        self.category = category
        self.name = name
        self.ts = ts
        self.guardrail = guardrail
        self.args = args


class Tracer:
    """Ring-buffered structured tracing with per-category controls."""

    __slots__ = ("active", "capacity", "buffer", "seed", "_every", "_phase",
                 "_count", "_seq", "_grs")

    def __init__(self, capacity=65536):
        self.active = False
        self.capacity = capacity
        self.buffer = RingBuffer(capacity)
        self.seed = 0
        # sample rate per category: 0 = category disabled, N = 1-in-N.
        self._every = {c: 1 for c in CATEGORIES}
        self._phase = {c: 0 for c in CATEGORIES}
        self._count = {c: 0 for c in CATEGORIES}
        self._seq = itertools.count()
        self._grs = {}

    # -- configuration -----------------------------------------------------

    def start(self, capacity=None, seed=None, categories=None, sample=None):
        """(Re)start tracing from a clean slate.

        ``categories``: iterable of category names to enable (default: all).
        ``sample``: dict ``{category: N}`` for 1-in-N sampling of the event
        stream (counters stay exact).  ``seed`` fixes the sampling phase.
        """
        if capacity is not None:
            self.capacity = capacity
        self.buffer = RingBuffer(self.capacity)
        if seed is not None:
            self.seed = seed
        enabled = set(CATEGORIES if categories is None else categories)
        unknown = enabled - set(CATEGORIES)
        if unknown:
            raise ValueError("unknown trace categories: {}".format(
                ", ".join(sorted(unknown))))
        self._every = {c: (1 if c in enabled else 0) for c in CATEGORIES}
        for category, every in (sample or {}).items():
            if category not in self._every:
                raise ValueError("unknown trace category {!r}".format(category))
            if every < 0:
                raise ValueError("sample rate must be >= 0, got {}".format(every))
            self._every[category] = int(every)
        self._phase = {
            c: _phase_for(self.seed, c, n) if n > 1 else 0
            for c, n in self._every.items()
        }
        self._count = {c: 0 for c in CATEGORIES}
        self._seq = itertools.count()
        self._grs = {}
        self.active = True
        return self

    def stop(self):
        """Deactivate; the buffer and counters stay readable."""
        self.active = False

    # -- emission ----------------------------------------------------------

    def _wants(self, category):
        every = self._every.get(category, 0)
        if every == 0:
            return False
        count = self._count[category]
        self._count[category] = count + 1
        if every == 1:
            return True
        return (count + self._phase[category]) % every == 0

    def emit(self, category, name, ts, guardrail=None, args=None):
        """Record one instant event, subject to category filter and sampling.

        Returns the event, or ``None`` when filtered/sampled out.  Callers
        must gate on ``TRACER.active`` themselves — that keeps the disabled
        cost to a single predicate check at the call site.
        """
        if not self._wants(category):
            return None
        event = TraceEvent(category, name, ts, guardrail=guardrail,
                           args=args, seq=next(self._seq))
        self.buffer.append(event)
        return event

    def begin(self, category, name, ts, guardrail=None, args=None):
        """Open a span; pair with :meth:`end`.  Returns ``None`` if sampled out."""
        if not self._wants(category):
            return None
        return _Span(category, name, ts, guardrail, args)

    def end(self, span, ts, args=None):
        """Close ``span`` (ignoring ``None``) and record one "X" event."""
        if span is None:
            return None
        merged = span.args
        if args:
            merged = dict(merged or {})
            merged.update(args)
        event = TraceEvent(span.category, span.name, span.ts,
                           dur=max(0, ts - span.ts), phase=PHASE_SPAN,
                           guardrail=span.guardrail, args=merged,
                           seq=next(self._seq))
        self.buffer.append(event)
        return event

    # -- exact per-guardrail counters -------------------------------------

    def _gr(self, guardrail):
        counters = self._grs.get(guardrail)
        if counters is None:
            counters = self._grs[guardrail] = GuardrailCounters()
        return counters

    def note_check(self, guardrail, cost_ns=0):
        gr = self._gr(guardrail)
        gr.checks += 1
        gr.check_cost_ns += cost_ns

    def note_violation(self, guardrail):
        self._gr(guardrail).violations += 1

    def note_action(self, guardrail):
        self._gr(guardrail).actions += 1

    # -- introspection -----------------------------------------------------

    def events(self, category=None, guardrail=None):
        """Retained events oldest-first, optionally filtered."""
        out = self.buffer.snapshot()
        if category is not None:
            out = [e for e in out if e.category == category]
        if guardrail is not None:
            out = [e for e in out if e.guardrail == guardrail]
        return out

    def stat(self):
        """Per-guardrail counter table: ``{guardrail: {counter: value}}``.

        Exact regardless of sampling; matches the monitors' own totals.
        """
        return {name: gr.snapshot() for name, gr in sorted(self._grs.items())}

    def __repr__(self):
        return "Tracer(active={}, events={}, dropped={})".format(
            self.active, len(self.buffer), self.buffer.dropped
        )


#: The process-global tracer.  Tracepoints import this instance once and
#: guard on ``TRACER.active``; it is configured in place, never replaced.
TRACER = Tracer()


@contextlib.contextmanager
def tracing(capacity=None, seed=None, categories=None, sample=None):
    """``with tracing() as t:`` — start the global tracer, stop on exit.

    Events and counters remain readable after the block (``t.events()``,
    ``t.stat()``); the next ``start()`` clears them.
    """
    TRACER.start(capacity=capacity, seed=seed, categories=categories,
                 sample=sample)
    try:
        yield TRACER
    finally:
        TRACER.stop()
