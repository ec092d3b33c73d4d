"""Runtime triggers: when a monitor evaluates its rules (§4.1).

Triggers are deliberately decoupled from rules — the same rule can be
checked periodically (TIMER, cheap, bounded overhead, delayed detection) or
on every call of a kernel function (FUNCTION, immediate, per-call cost).
"""


class Trigger:
    """Base runtime trigger; subclasses arm against a monitor host.

    ``arm(host, fire)`` starts delivering ``fire(payload)`` callbacks;
    ``disarm()`` stops them and is idempotent.
    """


class TimerTrigger(Trigger):
    """Fire every ``interval`` ns, from ``start`` until ``stop``.

    ``start`` is absolute virtual time; ``None`` means "when armed".
    ``stop=None`` means never stop.  The payload carries the tick time and
    index so rules can reference them.
    """

    def __init__(self, interval, start=None, stop=None):
        if interval <= 0:
            raise ValueError("interval must be positive, got {}".format(interval))
        self.interval = int(interval)
        self.start = start
        self.stop = stop
        self._event = None
        self._host = None
        self._fire = None
        self.tick_count = 0

    def arm(self, host, fire):
        if self._event is not None:
            raise RuntimeError("timer trigger is already armed")
        self._host = host
        self._fire = fire
        first = self._host.engine.now if self.start is None else max(
            self.start, self._host.engine.now
        )
        # First check happens one interval after start: an "every 1s" check
        # has nothing to look at at t=start.
        self._event = host.engine.schedule_at(first + self.interval, self._tick)

    def _tick(self):
        # Keep the fired event around: re-arming reuses the same object via
        # the engine's allocation-free reschedule lane (periodic timers are
        # the dominant source of heap churn in long runs).
        event, self._event = self._event, None
        now = self._host.engine.now
        if self.stop is not None and now > self.stop:
            return
        self.tick_count += 1
        self._fire({"tick": self.tick_count, "tick_time": now})
        if self._fire is None or self._event is not None:
            return  # disarmed (or disarmed and re-armed) from inside the check
        next_time = now + self.interval
        if self.stop is not None and next_time > self.stop:
            return
        self._event = self._host.engine.reschedule(event, next_time)

    def disarm(self):
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self._fire = None

    def __repr__(self):
        return "TimerTrigger(interval={}, start={}, stop={})".format(
            self.interval, self.start, self.stop
        )


class FunctionTrigger(Trigger):
    """Fire on every call of a named kernel hook point (kprobe-style)."""

    def __init__(self, function_name):
        self.function_name = function_name
        self._probe = None
        self._fire = None
        self.call_count = 0

    def arm(self, host, fire):
        if self._probe is not None:
            raise RuntimeError("function trigger is already armed")
        point = host.hooks.get(self.function_name)
        self._fire = fire
        self._probe = point.attach(self._on_call, name="guardrail:" + self.function_name)

    def _on_call(self, hook_name, now, payload):
        fire = self._fire
        if fire is None:
            # A stale probe delivering through the hooks' deferred-removal
            # path must not call into a disarmed monitor.
            return
        self.call_count += 1
        enriched = dict(payload)
        enriched.setdefault("hook", hook_name)
        fire(enriched)

    def disarm(self):
        if self._probe is not None:
            self._probe.detach()
            self._probe = None
        self._fire = None

    def __repr__(self):
        return "FunctionTrigger({!r})".format(self.function_name)
