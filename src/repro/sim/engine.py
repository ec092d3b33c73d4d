"""Discrete-event simulation engine.

The engine owns a virtual clock (integer nanoseconds) and a priority queue of
events.  Events scheduled for the same timestamp fire in the order they were
scheduled (a monotonically increasing sequence number breaks ties), which
keeps whole simulations bit-for-bit reproducible.  Heap entries are
``(time, seq, event)`` tuples: ``seq`` is unique, so ``heapq`` orders them
with C tuple comparison and never compares two events.

Fractional timestamps are rounded *up* to the next nanosecond: an event may
fire later than requested by under a nanosecond, never earlier.  (Truncating
instead would let ``schedule_at(now + 0.9)`` fire at ``now`` — in the past
relative to the request.)

The engine deliberately has no knowledge of kernels, policies, or guardrails;
those are layered on top through callbacks, :mod:`repro.sim.hooks`, and
:mod:`repro.sim.process`.
"""

import heapq
import math


class SimulationError(RuntimeError):
    """Raised for invalid engine usage (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Events are handed back from :meth:`Engine.schedule` so callers can cancel
    them.  Cancellation removes the event from the top of the heap when it is
    cheap to do so; entries buried deeper stay until popped, but the engine's
    live-event counter is updated immediately (``pending_events()`` is O(1)).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired",
                 "_engine")

    def __init__(self, time, seq, callback, args, engine=None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._engine = engine

    def cancel(self):
        """Prevent the event from firing.  Idempotent; no-op if already fired."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        engine = self._engine
        if engine is not None:
            engine._pending -= 1
            # Eager removal: drop cancelled entries while they sit at the top
            # of the heap, so cancel-heavy workloads (periodic triggers being
            # re-armed, supervisor backoffs) don't accrete dead entries.
            heap = engine._heap
            while heap and heap[0][2].cancelled:
                heapq.heappop(heap)

    def __repr__(self):
        state = "fired" if self.fired else ("cancelled" if self.cancelled else "pending")
        return "Event(t={}, seq={}, {})".format(self.time, self.seq, state)


class Engine:
    """Event loop with a virtual nanosecond clock.

    Usage::

        engine = Engine()
        engine.schedule_at(10, my_callback, arg1)
        engine.run(until=1_000_000)
    """

    def __init__(self, seed=0):
        self._heap = []
        self._seq = 0
        self._now = 0
        self._running = False
        self._stopped = False
        from repro.sim.rng import RngStreams

        self.rng = RngStreams(seed)
        self._pending = 0  # live (not cancelled, not fired) events

    @property
    def now(self):
        """Current virtual time in integer nanoseconds."""
        return self._now

    def _coerce_time(self, time):
        """Absolute time as an int ns, validated *after* coercion.

        Rounds fractional times up so an event never fires earlier than the
        requested instant.
        """
        if type(time) is not int:
            time = math.ceil(time)
        if time < self._now:
            raise SimulationError(
                "cannot schedule event at t={} before now={}".format(time, self._now)
            )
        return time

    def schedule_at(self, time, callback, *args):
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        time = self._coerce_time(time)
        seq = self._seq = self._seq + 1
        event = Event(time, seq, callback, args, self)
        heapq.heappush(self._heap, (time, seq, event))
        self._pending += 1
        return event

    def schedule(self, delay, callback, *args):
        """Schedule ``callback(*args)`` after ``delay`` nanoseconds."""
        if delay < 0:
            raise SimulationError("negative delay: {}".format(delay))
        return self.schedule_at(self._now + int(delay), callback, *args)

    def reschedule(self, event, time):
        """Re-arm a fired event at a new absolute time, reusing the object.

        This is the lane for periodic work (timer triggers) that builds no
        new event: the event must have fired — it is out of the heap — and
        keeps its callback and args.  Ordering is identical to a fresh
        :meth:`schedule_at` (a new sequence number is drawn).
        """
        if not event.fired or event.cancelled:
            raise SimulationError(
                "can only reschedule a fired, uncancelled event, got {!r}"
                .format(event)
            )
        time = self._coerce_time(time)
        seq = self._seq = self._seq + 1
        event.time = time
        event.seq = seq
        event.fired = False
        heapq.heappush(self._heap, (time, seq, event))
        self._pending += 1
        return event

    def stop(self):
        """Stop the run loop after the current event finishes."""
        self._stopped = True

    def peek(self):
        """Timestamp of the next pending event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def step(self):
        """Fire the next event.  Returns ``False`` when the queue is empty."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            if event.cancelled:
                continue
            self._pending -= 1
            self._now = event.time
            event.fired = True
            event.callback(*event.args)
            return True
        return False

    def run(self, until=None):
        """Run until the queue drains, ``stop()`` is called, or ``until`` is reached.

        When nothing is left to fire before ``until`` the clock is advanced
        to exactly ``until``, even if the last event fired earlier.  A run
        ended by ``stop()`` leaves the clock at the last fired event: events
        still pending fire on the next ``run()``, not in its past.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        heap = self._heap
        pop = heapq.heappop
        try:
            while not self._stopped:
                # (A cancelled head past ``until`` ends the run too.)
                if not heap or (until is not None and heap[0][0] > until):
                    if until is not None and self._now < until:
                        self._now = int(until)
                    break
                event = pop(heap)[2]
                if event.cancelled:
                    continue
                self._pending -= 1
                self._now = event.time
                event.fired = True
                event.callback(*event.args)
        finally:
            self._running = False

    def pending_events(self):
        """Number of pending (not cancelled, not fired) events.  O(1)."""
        return self._pending
