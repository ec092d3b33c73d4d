"""The guardrail monitor runtime.

A :class:`GuardrailMonitor` is one compiled guardrail bound to one host.
When armed, its triggers deliver ``fire(payload)`` callbacks; each firing
evaluates every rule against the feature store and the trigger payload.  A
rule that evaluates to ``False`` is a violation: the monitor records it and
dispatches the guardrail's actions (subject to the cooldown).  ``None``
results (missing data) are counted separately and never violate.

Every evaluation is charged to the monitor's :class:`OverheadAccount`, so
benchmarks — and P5 guardrails watching other guardrails — can see exactly
what monitoring costs.
"""

from repro.core.actions import ActionContext
from repro.core.errors import GuardrailError
from repro.core.expr import EvalContext
from repro.core.overhead import OverheadAccount
from repro.core.triggers import FunctionTrigger, TimerTrigger
from repro.trace.tracer import TRACER


class Violation:
    """One recorded rule violation."""

    __slots__ = ("guardrail", "rule", "time", "payload")

    def __init__(self, guardrail, rule, time, payload):
        self.guardrail = guardrail
        self.rule = rule
        self.time = time
        self.payload = payload

    def __repr__(self):
        return "Violation({!r}, rule={!r}, t={})".format(
            self.guardrail, self.rule, self.time
        )


class GuardrailMonitor:
    """Runtime state of one loaded guardrail."""

    def __init__(self, compiled, host):
        self.compiled = compiled
        self.name = compiled.name
        self.host = host
        self.overhead = OverheadAccount()
        # Hot-path aliases: check() runs per trigger firing, so the stable
        # attribute chains (host.engine, host.store, compiled.rules) are
        # resolved once here.  The store is aliased by *object* — fault
        # injection swaps the load method on the instance, never the
        # instance itself — and rule programs resolve ctx.store.load late
        # for the same reason.
        self._engine = host.engine
        self._store = host.store
        self._rules = compiled.rules
        self.triggers = [self._build_trigger(p) for p in compiled.trigger_params]
        self.enabled = False
        self.check_count = 0
        self.violation_count = 0
        self.inconclusive_count = 0
        self.violations = []
        self.max_recorded_violations = 10_000
        self._last_fired = {}  # rule source -> last action-dispatch time
        self.action_dispatch_count = 0
        self.action_error_count = 0
        self.rule_crash_count = 0
        self.action_crash_count = 0

    def _build_trigger(self, params):
        if params[0] == "timer":
            _, start, interval, stop = params
            return TimerTrigger(interval, start=start, stop=stop)
        _, function_name = params
        return FunctionTrigger(function_name)

    # -- lifecycle ---------------------------------------------------------

    def arm(self):
        """Attach all triggers; the monitor starts checking."""
        if self.enabled:
            return
        self.enabled = True
        for trigger in self.triggers:
            trigger.arm(self.host, self._fire)

    def disarm(self):
        """Detach all triggers; the monitor stops checking."""
        if not self.enabled:
            return
        self.enabled = False
        for trigger in self.triggers:
            trigger.disarm()

    # -- evaluation -----------------------------------------------------------

    def _fire(self, payload):
        if not self.enabled:
            return
        self.check(payload)

    def check(self, payload=None):
        """Evaluate all rules once; returns the list of new violations.

        The untraced body below is the hot lane every trigger firing runs
        through; the traced variant (identical semantics plus span/event
        emission) lives in :meth:`_check_traced` so this one carries no
        per-rule tracing branches.
        """
        if TRACER.active:
            return self._check_traced(payload)
        payload = payload or {}
        now = self._engine.now
        self.check_count += 1
        crashes_before = self.rule_crash_count + self.action_crash_count
        new_violations = []
        # One EvalContext for the whole check, reset between rules, with the
        # store and overhead lookups hoisted out of the rule loop — rules in
        # a check share everything but their op counter.
        ctx = EvalContext(self._store, now, payload)
        charge_check = self.overhead.charge_check
        for source, program, _cost in self._rules:
            ctx.ops = 0
            try:
                result = program(ctx)
            except Exception as error:
                # Crash-only: a rule program blowing up (corrupt store data,
                # a broken compiled expression) is contained like missing
                # data, counted, and escalated to the supervisor's breaker.
                # Rule closures charge ctx.ops incrementally as they
                # evaluate, so when a fault-injected store.load raises
                # mid-rule the charge_check below bills the partial cost.
                self.rule_crash_count += 1
                charge_check(ctx.ops)
                self.host.supervisor.record_rule_crash(self, error, now)
                continue
            charge_check(ctx.ops)
            if result is None:
                self.inconclusive_count += 1
                continue
            if not result:
                violation = Violation(self.name, source, now, payload)
                self.violation_count += 1
                if len(self.violations) < self.max_recorded_violations:
                    self.violations.append(violation)
                new_violations.append(violation)
                self._maybe_dispatch(violation)
        if crashes_before:
            # This guardrail has crashed before: a crash-free check is the
            # success signal that closes a half-open breaker.  Guardrails
            # that never crashed skip the call entirely.
            if self.rule_crash_count + self.action_crash_count == crashes_before:
                self.host.supervisor.record_check_success(self.name, now)
        return new_violations

    def _check_traced(self, payload=None):
        """check() with span/event emission; only runs while tracing."""
        payload = payload or {}
        now = self._engine.now
        self.check_count += 1
        span = TRACER.begin("monitor.check", self.name, now,
                            guardrail=self.name)
        cost_before = self.overhead.simulated_ns
        crashes_before = self.rule_crash_count + self.action_crash_count
        new_violations = []
        ctx = EvalContext(self._store, now, payload)
        charge_check = self.overhead.charge_check
        for source, program, _cost in self._rules:
            ctx.ops = 0
            try:
                result = program(ctx)
            except Exception as error:
                self.rule_crash_count += 1
                charge_check(ctx.ops)
                TRACER.emit("rule.eval", source, now, guardrail=self.name,
                            args={"error": type(error).__name__})
                self.host.supervisor.record_rule_crash(self, error, now)
                continue
            charge_check(ctx.ops)
            TRACER.emit("rule.eval", source, now, guardrail=self.name,
                        args={"result": result, "ops": ctx.ops})
            if result is None:
                self.inconclusive_count += 1
                continue
            if not result:
                violation = Violation(self.name, source, now, payload)
                self.violation_count += 1
                if len(self.violations) < self.max_recorded_violations:
                    self.violations.append(violation)
                new_violations.append(violation)
                TRACER.emit("monitor.check", "violation", now,
                            guardrail=self.name, args={"rule": source})
                TRACER.note_violation(self.name)
                self._maybe_dispatch(violation)
        cost = self.overhead.simulated_ns - cost_before
        TRACER.note_check(self.name, cost)
        TRACER.end(span, now + cost,
                   args={"violations": len(new_violations)})
        if crashes_before:
            if self.rule_crash_count + self.action_crash_count == crashes_before:
                self.host.supervisor.record_check_success(self.name, now)
        return new_violations

    def _maybe_dispatch(self, violation):
        cooldown = self.compiled.cooldown
        if cooldown:
            last = self._last_fired.get(violation.rule)
            if last is not None and violation.time - last < cooldown:
                return
        self._last_fired[violation.rule] = violation.time
        ctx = ActionContext(
            self.host, self.name, violation.rule, violation.time, violation.payload
        )
        tracing = TRACER.active
        for action in self.compiled.actions:
            try:
                action.execute(ctx)
            except GuardrailError as error:
                # A misconfigured action (unknown slot, bad store key...) is
                # contained and reported — a monitor must never take the
                # kernel down, even when its remedy is broken.
                self.action_error_count += 1
                self.host.reporter.note(
                    "ACTION_ERROR", self.name, violation.time,
                    detail="{}: {}".format(action.kind, error))
                # note_action() is skipped: the exact counters mirror
                # action_dispatch_count, which only counts successes.
                if tracing:
                    TRACER.emit("action", action.kind, violation.time,
                                guardrail=self.name,
                                args={"rule": violation.rule, "error": str(error)})
            except Exception as error:
                # Anything else (KeyError, ZeroDivisionError...) is a crash,
                # not a misconfiguration — contained all the same, counted
                # separately, and escalated to the supervisor's breaker.
                self.action_crash_count += 1
                if tracing:
                    TRACER.emit("action", action.kind, violation.time,
                                guardrail=self.name,
                                args={"rule": violation.rule,
                                      "crash": type(error).__name__})
                self.host.supervisor.record_action_crash(
                    self, error, violation.time)
            else:
                self.action_dispatch_count += 1
                if tracing:
                    TRACER.emit("action", action.kind, violation.time,
                                guardrail=self.name,
                                args={"rule": violation.rule,
                                      "detail": action.trace_detail()})
                    TRACER.note_action(self.name)
            self.overhead.charge_action()

    # -- introspection -----------------------------------------------------------

    def stats(self):
        return {
            "name": self.name,
            "enabled": self.enabled,
            "checks": self.check_count,
            "violations": self.violation_count,
            "inconclusive": self.inconclusive_count,
            "action_dispatches": self.action_dispatch_count,
            "action_errors": self.action_error_count,
            "rule_crashes": self.rule_crash_count,
            "action_crashes": self.action_crash_count,
            "overhead": self.overhead.snapshot(),
        }

    def __repr__(self):
        return "GuardrailMonitor({!r}, checks={}, violations={})".format(
            self.name, self.check_count, self.violation_count
        )
