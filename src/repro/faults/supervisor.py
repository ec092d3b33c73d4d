"""Crash-only supervision: circuit breakers over monitors and policy slots.

The guardrail host must survive its own components misbehaving — a rule
program that divides by zero, an action handler that KeyErrors, a learned
policy that raises mid-inference.  Supervision here follows the classic
circuit-breaker state machine, run entirely in *virtual* time so every
trip and re-arm is reproducible:

- **closed** — failures are contained and counted; ``K`` *consecutive*
  failures trip the breaker;
- **open** — the supervised component is taken out of the path (monitor
  disarmed, policy slot REPLACEd with its heuristic fallback); a re-arm is
  scheduled ``backoff`` virtual ns ahead;
- **half_open** — the component is probed again; one success closes the
  breaker and resets the backoff, one failure re-opens it with the backoff
  doubled (capped at ``max_backoff_ns``).

Every contained failure and every state transition is counted, kept in a
bounded suppressed-fault log, reported through the host's
:class:`~repro.core.host.ViolationReporter`, and emitted as a
``supervisor`` trace event — degraded mode is accounted for, never silent.
"""

from repro.core.actions import ActionContext, ReplaceAction
from repro.sim.units import SECOND
from repro.trace.tracer import TRACER

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half_open"


class BreakerConfig:
    """Tunables shared by monitor and policy breakers."""

    __slots__ = ("crash_threshold", "base_backoff_ns", "max_backoff_ns")

    #: Each failed half-open probe multiplies the backoff by this.
    BACKOFF_FACTOR = 2.0

    def __init__(self, crash_threshold=3, base_backoff_ns=1 * SECOND,
                 max_backoff_ns=60 * SECOND):
        if crash_threshold < 1:
            raise ValueError("crash_threshold must be >= 1")
        if base_backoff_ns <= 0:
            raise ValueError("base_backoff_ns must be positive")
        self.crash_threshold = int(crash_threshold)
        self.base_backoff_ns = int(base_backoff_ns)
        self.max_backoff_ns = int(max_backoff_ns)


class CircuitBreaker:
    """One per-component breaker; all timing in virtual nanoseconds."""

    __slots__ = ("name", "config", "state", "consecutive_failures",
                 "failure_count", "trip_count", "backoff_ns", "reopen_at",
                 "transitions")

    def __init__(self, name, config=None):
        self.name = name
        self.config = config if config is not None else BreakerConfig()
        self.state = STATE_CLOSED
        self.consecutive_failures = 0
        self.failure_count = 0
        self.trip_count = 0
        self.backoff_ns = self.config.base_backoff_ns
        self.reopen_at = None
        self.transitions = []  # [{"time", "from", "to"}, ...]

    def _move(self, now, to):
        self.transitions.append(
            {"time": now, "from": self.state, "to": to})
        self.state = to

    def _trip(self, now):
        self.trip_count += 1
        self.reopen_at = now + self.backoff_ns
        self._move(now, STATE_OPEN)

    def record_failure(self, now):
        """Count one failure; returns True when this failure trips the breaker."""
        self.failure_count += 1
        self.consecutive_failures += 1
        if self.state == STATE_HALF_OPEN:
            # The probe failed: re-open with the backoff doubled.
            self.backoff_ns = min(
                int(self.backoff_ns * self.config.BACKOFF_FACTOR),
                self.config.max_backoff_ns)
            self._trip(now)
            return True
        if (self.state == STATE_CLOSED
                and self.consecutive_failures >= self.config.crash_threshold):
            self._trip(now)
            return True
        return False

    def rearm(self, now):
        """open -> half_open (the scheduled probe point)."""
        if self.state == STATE_OPEN:
            self.reopen_at = None
            self._move(now, STATE_HALF_OPEN)

    def record_success(self, now):
        """Reset the failure streak; returns True when this closes the breaker."""
        self.consecutive_failures = 0
        if self.state == STATE_HALF_OPEN:
            self.backoff_ns = self.config.base_backoff_ns
            self._move(now, STATE_CLOSED)
            return True
        return False

    def snapshot(self):
        return {
            "state": self.state,
            "failures": self.failure_count,
            "consecutive": self.consecutive_failures,
            "trips": self.trip_count,
            "backoff_ns": self.backoff_ns,
            "reopen_at": self.reopen_at,
            "transitions": list(self.transitions),
        }

    def __repr__(self):
        return "CircuitBreaker({!r}, {}, failures={}, trips={})".format(
            self.name, self.state, self.failure_count, self.trip_count)


class MonitorSupervisor:
    """Isolates every monitor check and action dispatch on one host.

    The monitor runtime reports contained crashes here; after ``K``
    consecutive crashes of one guardrail its breaker trips, the monitor is
    disarmed, and a re-arm is scheduled with exponential virtual-time
    backoff.  Setting ``contain = False`` restores the pre-supervision behavior
    (crashes propagate and abort the run) — kept as an escape hatch so the
    regression tests can demonstrate the failure mode the supervisor fixes.
    """

    MAX_SUPPRESSED = 1_000

    def __init__(self, host):
        self.host = host
        self.config = BreakerConfig()
        self.contain = True
        self.breakers = {}
        self.rule_crash_count = 0
        self.action_crash_count = 0
        self.suppressed = []
        self.suppressed_dropped = 0

    def breaker(self, name):
        breaker = self.breakers.get(name)
        if breaker is None:
            breaker = self.breakers[name] = CircuitBreaker(name, self.config)
        return breaker

    def _suppress(self, kind, name, error, now):
        entry = {"kind": kind, "guardrail": name, "time": now,
                 "error": "{}: {}".format(type(error).__name__, error)}
        if len(self.suppressed) < self.MAX_SUPPRESSED:
            self.suppressed.append(entry)
        else:
            self.suppressed_dropped += 1
        self.host.reporter.note(kind.upper(), name, now,
                                detail=entry["error"])
        if TRACER.active:
            TRACER.emit("supervisor", kind, now, guardrail=name,
                        args={"error": type(error).__name__})

    def record_rule_crash(self, monitor, error, now):
        """A rule program raised during a check."""
        if not self.contain:
            raise error
        self.rule_crash_count += 1
        self._suppress("rule_crash", monitor.name, error, now)
        if self.breaker(monitor.name).record_failure(now):
            self._open(monitor, now)

    def record_action_crash(self, monitor, error, now):
        """An action handler raised a non-GuardrailError during dispatch."""
        if not self.contain:
            raise error
        self.action_crash_count += 1
        self._suppress("action_crash", monitor.name, error, now)
        if self.breaker(monitor.name).record_failure(now):
            self._open(monitor, now)

    def record_check_success(self, name, now):
        """A crash-free check completed; closes a half-open breaker."""
        breaker = self.breakers.get(name)
        if breaker is not None and breaker.record_success(now):
            self.host.reporter.note("BREAKER_CLOSE", name, now)
            if TRACER.active:
                TRACER.emit("supervisor", "breaker_close", now, guardrail=name)

    def _open(self, monitor, now):
        breaker = self.breakers[monitor.name]
        monitor.disarm()
        self.host.reporter.note(
            "BREAKER_OPEN", monitor.name, now,
            detail="rearm at t={}ns (backoff {}ns)".format(
                breaker.reopen_at, breaker.backoff_ns))
        if TRACER.active:
            TRACER.emit("supervisor", "breaker_open", now,
                        guardrail=monitor.name,
                        args={"reopen_at": breaker.reopen_at})
        self.host.engine.schedule_at(breaker.reopen_at, self._rearm, monitor)

    def _rearm(self, monitor):
        now = self.host.engine.now
        breaker = self.breakers[monitor.name]
        breaker.rearm(now)
        self.host.reporter.note("BREAKER_REARM", monitor.name, now)
        if TRACER.active:
            TRACER.emit("supervisor", "breaker_rearm", now,
                        guardrail=monitor.name)
        monitor.arm()

    def stats(self):
        return {
            "rule_crashes": self.rule_crash_count,
            "action_crashes": self.action_crash_count,
            "suppressed": len(self.suppressed),
            "suppressed_dropped": self.suppressed_dropped,
            "breakers": {name: b.snapshot()
                         for name, b in sorted(self.breakers.items())},
        }


def make_pick_validator(device_count):
    """Output validator for replica-pick slots: sane index, finite latency."""
    def validate(decision):
        index = getattr(decision, "index", None)
        if (not isinstance(index, int) or isinstance(index, bool)
                or not 0 <= index < device_count):
            return "bad replica index {!r}".format(index)
        inference_ns = getattr(decision, "inference_ns", 0)
        if inference_ns != inference_ns or inference_ns < 0:  # NaN or negative
            return "bad inference_ns {!r}".format(inference_ns)
        return None

    return validate


class PolicySupervisor:
    """Wraps a function slot so a crashing policy cannot take the host down.

    Per call: an exception (or, with a ``validator``, a garbage return
    value) is contained and the registered heuristic fallback serves the
    call instead.  After ``K`` consecutive failures the breaker trips and
    the slot is rebound to the fallback through the **existing A2 REPLACE
    action path** (same reporter note, same swap accounting a guardrail's
    own ``REPLACE(old, new)`` would produce).  A re-arm is scheduled with
    exponential virtual-time backoff; the half-open probe routes one call
    back through the policy — success closes the breaker, failure re-opens
    it with the backoff doubled.

    ``slow_call_ns`` optionally treats a decision whose ``inference_ns``
    exceeds the ceiling as a failure (the containment story for ``stall``
    faults): the stalled result is still returned, but enough consecutive
    slow calls REPLACE the policy with the cheap heuristic.
    """

    MAX_SUPPRESSED = 1_000

    def __init__(self, host, slot_name, fallback_name, config=None,
                 validator=None, slow_call_ns=None):
        self.host = host
        self.slot_name = slot_name
        self.fallback_name = fallback_name
        self._slot = host.functions.slot(slot_name)
        self._fallback = host.functions.resolve_implementation(fallback_name)
        self.inner = self._slot.current
        self.validator = validator
        self.slow_call_ns = slow_call_ns
        self.breaker = CircuitBreaker(slot_name, config)
        self.crash_count = 0
        self.invalid_output_count = 0
        self.slow_call_count = 0
        self.fallback_call_count = 0
        self.replace_count = 0
        self.suppressed = []
        self.suppressed_dropped = 0
        self._slot.current = self

    # -- the supervised call path -----------------------------------------

    def __call__(self, *args, **kwargs):
        now = self.host.engine.now
        try:
            result = self.inner(*args, **kwargs)
        except Exception as error:
            self.crash_count += 1
            self._failed("policy_crash", error, now)
            self.fallback_call_count += 1
            return self._fallback(*args, **kwargs)
        if self.validator is not None:
            problem = self.validator(result)
            if problem is not None:
                self.invalid_output_count += 1
                self._failed("policy_garbage", ValueError(problem), now)
                self.fallback_call_count += 1
                return self._fallback(*args, **kwargs)
        if (self.slow_call_ns is not None
                and getattr(result, "inference_ns", 0) > self.slow_call_ns):
            self.slow_call_count += 1
            self._failed("policy_stall", RuntimeError(
                "inference_ns {} > ceiling {}".format(
                    result.inference_ns, self.slow_call_ns)), now)
            return result  # slow but valid: still served
        if self.breaker.state != STATE_CLOSED or self.breaker.consecutive_failures:
            if self.breaker.record_success(now):
                self.host.reporter.note("BREAKER_CLOSE", self.slot_name, now)
                if TRACER.active:
                    TRACER.emit("supervisor", "breaker_close", now,
                                args={"slot": self.slot_name})
        return result

    # -- failure bookkeeping ----------------------------------------------

    def _failed(self, kind, error, now):
        entry = {"kind": kind, "slot": self.slot_name, "time": now,
                 "error": "{}: {}".format(type(error).__name__, error)}
        if len(self.suppressed) < self.MAX_SUPPRESSED:
            self.suppressed.append(entry)
        else:
            self.suppressed_dropped += 1
        self.host.reporter.note(kind.upper(), self.slot_name, now,
                                detail=entry["error"])
        if TRACER.active:
            TRACER.emit("supervisor", kind, now,
                        args={"slot": self.slot_name,
                              "error": type(error).__name__})
        if self.breaker.record_failure(now):
            self._engage_fallback(now)

    def _engage_fallback(self, now):
        """Trip: swap the slot to the heuristic via the A2 REPLACE path."""
        self.replace_count += 1
        action = ReplaceAction(self.slot_name, self.fallback_name)
        action.execute(ActionContext(
            self.host, "supervisor:" + self.slot_name, "circuit_breaker",
            now, {}))
        self.host.reporter.note(
            "BREAKER_OPEN", self.slot_name, now,
            detail="rearm at t={}ns (backoff {}ns)".format(
                self.breaker.reopen_at, self.breaker.backoff_ns))
        if TRACER.active:
            TRACER.emit("supervisor", "breaker_open", now,
                        args={"slot": self.slot_name,
                              "reopen_at": self.breaker.reopen_at})
        self.host.engine.schedule_at(self.breaker.reopen_at, self._rearm)

    def _rearm(self):
        now = self.host.engine.now
        self.breaker.rearm(now)
        # Probe: route calls back through the supervised policy chain.
        self._slot.current = self
        self.host.reporter.note("BREAKER_REARM", self.slot_name, now)
        if TRACER.active:
            TRACER.emit("supervisor", "breaker_rearm", now,
                        args={"slot": self.slot_name})

    def stats(self):
        return {
            "slot": self.slot_name,
            "crashes": self.crash_count,
            "invalid_outputs": self.invalid_output_count,
            "slow_calls": self.slow_call_count,
            "fallback_calls": self.fallback_call_count,
            "replaces": self.replace_count,
            "breaker": self.breaker.snapshot(),
        }

    def __repr__(self):
        return "PolicySupervisor({!r}, {}, crashes={})".format(
            self.slot_name, self.breaker.state, self.crash_count)
