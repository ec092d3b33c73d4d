"""Monitor runtime: evaluation, violations, dispatch, cooldown, overhead."""


from repro.core.compiler import GuardrailCompiler
from repro.sim.units import SECOND


def load(host, text, cooldown=0, arm=True):
    monitor = GuardrailCompiler().compile(text, cooldown=cooldown).instantiate(host)
    if arm:
        monitor.arm()
    return monitor


SIMPLE = """
guardrail g {
  trigger: { TIMER(start_time, 1s) },
  rule: { LOAD(metric) <= 10 },
  action: { SAVE(flag, true) }
}
"""


def test_satisfied_rule_never_dispatches(host):
    host.store.save("metric", 5)
    monitor = load(host, SIMPLE)
    host.engine.run(until=5 * SECOND)
    assert monitor.check_count == 5
    assert monitor.violation_count == 0
    assert host.store.load("flag") is None


def test_violation_dispatches_actions(host):
    host.store.save("metric", 50)
    monitor = load(host, SIMPLE)
    host.engine.run(until=1 * SECOND)
    assert monitor.violation_count == 1
    assert host.store.load("flag") is True


def test_missing_data_is_inconclusive_not_violation(host):
    monitor = load(host, SIMPLE)
    host.engine.run(until=3 * SECOND)
    assert monitor.violation_count == 0
    assert monitor.inconclusive_count == 3


def test_violation_record_fields(host):
    host.store.save("metric", 50)
    monitor = load(host, SIMPLE)
    host.engine.run(until=1 * SECOND)
    violation = monitor.violations[0]
    assert violation.guardrail == "g"
    assert violation.time == 1 * SECOND
    assert "LOAD(metric)" in violation.rule


def test_cooldown_suppresses_repeat_dispatch(host):
    host.store.save("metric", 50)
    monitor = load(host, SIMPLE, cooldown=3 * SECOND)
    host.engine.run(until=5 * SECOND)
    assert monitor.violation_count == 5          # still recorded
    assert monitor.action_dispatch_count == 2    # t=1s and t=4s only


def test_without_cooldown_every_violation_dispatches(host):
    host.store.save("metric", 50)
    monitor = load(host, SIMPLE)
    host.engine.run(until=4 * SECOND)
    assert monitor.action_dispatch_count == 4


def test_multiple_rules_evaluated_independently(host):
    text = """
guardrail multi {
  trigger: { TIMER(start_time, 1s) },
  rule: { LOAD(a) <= 10, LOAD(b) <= 10 },
  action: { REPORT() }
}
"""
    host.store.save("a", 100)
    host.store.save("b", 1)
    monitor = load(host, text)
    host.engine.run(until=1 * SECOND)
    assert monitor.violation_count == 1
    assert "LOAD(a)" in monitor.violations[0].rule


def test_function_trigger_payload_visible_to_rule(host):
    host.hooks.declare("mm.alloc")
    text = """
guardrail bounds {
  trigger: { FUNCTION(mm.alloc) },
  rule: { granted <= available },
  action: { REPORT() }
}
"""
    monitor = load(host, text)
    host.hooks.get("mm.alloc").fire(granted=5, available=10)
    host.hooks.get("mm.alloc").fire(granted=50, available=10)
    assert monitor.check_count == 2
    assert monitor.violation_count == 1
    assert monitor.violations[0].payload["granted"] == 50


def test_disarm_stops_checks(host):
    host.store.save("metric", 50)
    monitor = load(host, SIMPLE)
    host.engine.run(until=1 * SECOND)
    monitor.disarm()
    host.engine.run(until=5 * SECOND)
    assert monitor.check_count == 1
    assert not monitor.enabled


def test_arm_disarm_idempotent(host):
    monitor = load(host, SIMPLE, arm=False)
    monitor.arm()
    monitor.arm()
    monitor.disarm()
    monitor.disarm()


def test_overhead_accounting(host):
    host.store.save("metric", 50)
    monitor = load(host, SIMPLE)
    host.engine.run(until=3 * SECOND)
    overhead = monitor.overhead
    assert overhead.checks == 3
    assert overhead.actions == 3
    assert overhead.ops > 0
    assert overhead.simulated_ns > 0


def test_manual_check_outside_triggers(host):
    host.store.save("metric", 99)
    monitor = load(host, SIMPLE, arm=False)
    violations = monitor.check()
    assert len(violations) == 1
    assert monitor.check_count == 1


def test_stats_shape(host):
    monitor = load(host, SIMPLE)
    stats = monitor.stats()
    assert stats["name"] == "g"
    assert set(stats) == {
        "name", "enabled", "checks", "violations", "inconclusive",
        "action_dispatches", "action_errors", "rule_crashes",
        "action_crashes", "overhead",
    }


def test_violation_list_bounded(host):
    host.store.save("metric", 50)
    monitor = load(host, SIMPLE)
    monitor.max_recorded_violations = 2
    host.engine.run(until=5 * SECOND)
    assert monitor.violation_count == 5
    assert len(monitor.violations) == 2


def test_broken_action_contained_not_crashing(host):
    # REPLACE names a slot that was never registered: dispatching must not
    # propagate — the violation is recorded and the error reported.
    text = """
guardrail broken {
  trigger: { TIMER(start_time, 1s) },
  rule: { LOAD(metric) <= 10 },
  action: { REPLACE(ghost.slot, ghost.impl), SAVE(flag, true) }
}
"""
    host.store.save("metric", 99)
    monitor = load(host, text)
    host.engine.run(until=2 * SECOND)  # must not raise
    assert monitor.violation_count == 2
    assert monitor.action_error_count == 2
    # Later actions in the list still ran.
    assert host.store.load("flag") is True
    errors = host.reporter.notes_for(kind="ACTION_ERROR")
    assert "ghost.slot" in errors[0]["detail"]
    assert monitor.stats()["action_errors"] == 2


class _BombAction:
    """An action handler with a plain bug: raises a non-GuardrailError."""

    kind = "BOMB"

    def execute(self, ctx):
        raise KeyError("action handler bug")

    def trace_detail(self):
        return ""


def test_crashing_action_contained_and_counted(host):
    # The _maybe_dispatch bugfix: only GuardrailError used to be caught, so
    # a KeyError from one action aborted the whole simulation run.
    host.store.save("metric", 99)
    monitor = load(host, SIMPLE)
    monitor.compiled.actions.insert(0, _BombAction())
    host.engine.run(until=1 * SECOND)  # must not raise
    assert monitor.action_crash_count == 1
    assert monitor.action_error_count == 0   # crash, not misconfiguration
    assert host.store.load("flag") is True   # later actions still ran
    assert monitor.stats()["action_crashes"] == 1
    assert host.supervisor.action_crash_count == 1
    notes = host.reporter.notes_for(kind="ACTION_CRASH")
    assert notes and "KeyError" in notes[0]["detail"]


def test_crashing_action_pre_fix_reproduction(host):
    # With containment off the original crash comes back.
    host.supervisor.contain = False
    host.store.save("metric", 99)
    monitor = load(host, SIMPLE)
    monitor.compiled.actions.insert(0, _BombAction())
    import pytest

    with pytest.raises(KeyError, match="action handler bug"):
        host.engine.run(until=1 * SECOND)


def test_repeated_action_crashes_trip_the_guardrail_breaker(host):
    host.store.save("metric", 99)
    monitor = load(host, SIMPLE)
    monitor.compiled.actions.insert(0, _BombAction())
    host.engine.run(until=5 * SECOND)
    breaker = host.supervisor.breaker("g")
    assert breaker.trip_count >= 1
    assert monitor.action_crash_count >= 3
    assert host.reporter.notes_for(kind="BREAKER_OPEN")
