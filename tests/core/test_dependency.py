"""Dependency-tracked checking (§6)."""

import pytest

from repro.core.dependency import (
    DependencyTrigger,
    convert_to_dependency_triggered,
    expression_load_keys,
    rule_load_keys,
)
from repro.core.registry import GuardrailManager
from repro.core.spec import parse_guardrail
from repro.core.spec.lexer import tokenize
from repro.core.spec.parser import _Parser
from repro.sim.units import SECOND


def parse_expr(text):
    return _Parser(tokenize(text)).parse_expression()


def test_expression_load_keys_extraction():
    keys = expression_load_keys(
        parse_expr("LOAD(a) + abs(LOAD(b.c)) <= max(LOAD(d), 1) && !(LOAD(a))")
    )
    assert keys == {"a", "b.c", "d"}


def test_expression_without_loads_is_empty():
    assert expression_load_keys(parse_expr("1 + 2 <= x")) == set()


def test_rule_load_keys_unions_rules():
    spec = parse_guardrail("""
guardrail g {
  trigger: { TIMER(start_time, 1s) },
  rule: { LOAD(a) <= 1, LOAD(b) >= 0 },
  action: { REPORT() }
}""")
    assert rule_load_keys(spec) == {"a", "b"}


def test_dependency_trigger_fires_on_watched_key(host):
    fired = []
    trigger = DependencyTrigger({"a"})
    trigger.arm(host, fired.append)
    host.store.save("a", 1)
    host.store.save("unrelated", 2)
    assert fired == [{"changed_key": "a"}]
    host.store.save("a", 2)
    assert fired == [{"changed_key": "a"}] * 2


def test_min_spacing_suppresses_bursts(host):
    fired = []
    trigger = DependencyTrigger({"a"}, min_spacing=100)
    trigger.arm(host, fired.append)
    for _ in range(5):
        host.store.save("a", 1)   # all at t=0
    assert len(fired) == 1        # the other four were suppressed
    host.engine.run(until=100)
    host.store.save("a", 1)       # spacing elapsed: fires again
    assert len(fired) == 2


def test_disarm_unsubscribes(host):
    fired = []
    trigger = DependencyTrigger({"a"})
    trigger.arm(host, fired.append)
    trigger.disarm()
    host.store.save("a", 1)
    assert fired == []


def test_double_arm_raises(host):
    trigger = DependencyTrigger({"a"})
    trigger.arm(host, lambda p: None)
    with pytest.raises(RuntimeError):
        trigger.arm(host, lambda p: None)


GUARDRAIL = """
guardrail dep {
  trigger: { TIMER(start_time, 1s) },
  rule: { LOAD(metric) <= 10 },
  action: { REPORT() }
}
"""


def test_convert_checks_only_on_relevant_change(host):
    manager = GuardrailManager(host)
    monitor = manager.load(GUARDRAIL)
    trigger = convert_to_dependency_triggered(monitor)
    assert trigger.keys == {"metric"}

    # Time passes with no change: no checks at all (the periodic TIMER
    # would have checked 10 times here).
    host.engine.run(until=10 * SECOND)
    assert monitor.check_count == 0

    host.store.save("metric", 50)
    assert monitor.check_count == 1
    assert monitor.violation_count == 1
    host.store.save("other", 1)
    assert monitor.check_count == 1


def test_convert_detects_violation_immediately_not_next_tick(host):
    manager = GuardrailManager(host)
    monitor = manager.load(GUARDRAIL)
    convert_to_dependency_triggered(monitor)
    host.engine.run(until=SECOND // 2)
    host.store.save("metric", 99)
    # Violation observed at save time, not at the next 1s boundary.
    assert monitor.violations[0].time == SECOND // 2


def test_convert_works_with_derived_keys(host):
    host.store.derive_rate("event", window=SECOND, name="event_rate")
    manager = GuardrailManager(host)
    monitor = manager.load("""
guardrail r {
  trigger: { TIMER(start_time, 1s) },
  rule: { LOAD(event_rate) <= 0.5 },
  action: { REPORT() }
}""")
    convert_to_dependency_triggered(monitor)
    for _ in range(4):
        host.store.save("event", 1)
    # Derived key bumps on each source save, so checks happen.
    assert monitor.check_count == 4
    assert monitor.violation_count > 0


def test_convert_preserves_disarmed_state(host):
    manager = GuardrailManager(host)
    monitor = manager.load(GUARDRAIL, arm=False)
    convert_to_dependency_triggered(monitor)
    host.store.save("metric", 99)
    assert monitor.check_count == 0
