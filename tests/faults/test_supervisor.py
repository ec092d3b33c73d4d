"""Circuit breakers, monitor supervision, and policy-slot supervision."""

import pytest

from repro.core.compiler import GuardrailCompiler
from repro.faults.supervisor import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    BreakerConfig,
    CircuitBreaker,
    PolicySupervisor,
    make_pick_validator,
)
from repro.kernel.storage import PickDecision
from repro.sim.units import SECOND

# -- CircuitBreaker ---------------------------------------------------------


def test_breaker_trips_on_consecutive_failures_only():
    breaker = CircuitBreaker("b", BreakerConfig(crash_threshold=3))
    assert not breaker.record_failure(1)
    assert not breaker.record_failure(2)
    breaker.record_success(3)                 # streak broken
    assert not breaker.record_failure(4)
    assert not breaker.record_failure(5)
    assert breaker.record_failure(6)          # third consecutive
    assert breaker.state == STATE_OPEN
    assert breaker.reopen_at == 6 + breaker.config.base_backoff_ns


def test_breaker_half_open_probe_outcomes():
    config = BreakerConfig(crash_threshold=1, base_backoff_ns=100,
                           max_backoff_ns=350)
    breaker = CircuitBreaker("b", config)
    breaker.record_failure(0)                 # trip; backoff 100
    breaker.rearm(100)
    assert breaker.state == STATE_HALF_OPEN
    breaker.record_failure(101)               # probe fails: backoff doubles
    assert breaker.state == STATE_OPEN
    assert breaker.backoff_ns == 200
    assert breaker.reopen_at == 301
    breaker.rearm(301)
    breaker.record_failure(302)
    assert breaker.backoff_ns == 350          # capped at max_backoff_ns
    breaker.rearm(652)
    assert breaker.record_success(653)        # probe passes: close + reset
    assert breaker.state == STATE_CLOSED
    assert breaker.backoff_ns == 100
    assert [(t["from"], t["to"]) for t in breaker.transitions] == [
        ("closed", "open"), ("open", "half_open"), ("half_open", "open"),
        ("open", "half_open"), ("half_open", "open"), ("open", "half_open"),
        ("half_open", "closed"),
    ]


def test_breaker_rearm_is_a_noop_unless_open():
    breaker = CircuitBreaker("b")
    breaker.rearm(5)
    assert breaker.state == STATE_CLOSED
    assert breaker.transitions == []


# -- MonitorSupervisor (driven through a real guardrail) --------------------

CRASHY = """
guardrail crashy {
  trigger: { TIMER(start_time, 1s) },
  rule: { LOAD(metric) <= 10 },
  action: { REPORT() }
}
"""


def load_crashy(host):
    # Corrupt *values* already read as missing data in the expression layer;
    # the rule-crash path exists for arbitrary failures underneath a LOAD —
    # here, a store backend that raises on every read until repaired.
    monitor = GuardrailCompiler().compile(CRASHY).instantiate(host)
    monitor.arm()
    inner_load, backend = host.store.load, {"broken": True}

    def flaky_load(key, default=None):
        if backend["broken"]:
            raise RuntimeError("store backend failure")
        return inner_load(key, default)

    host.store.load = flaky_load
    return monitor, backend


def test_monitor_breaker_trips_disarms_and_rearms(host):
    monitor, backend = load_crashy(host)
    host.engine.run(until=3 * SECOND + 1)
    # Crashes at t=1,2,3s: the third consecutive crash trips the breaker.
    breaker = host.supervisor.breaker("crashy")
    assert breaker.state == STATE_OPEN
    assert not monitor.enabled
    assert monitor.rule_crash_count == 3
    # Re-arm at trip + 1s backoff; the next (half-open probe) check is one
    # timer interval later and crashes again, doubling the backoff.
    host.engine.run(until=5 * SECOND + 1)
    assert breaker.state == STATE_OPEN
    assert breaker.backoff_ns == 2 * SECOND
    assert [(t["time"], t["from"], t["to"]) for t in breaker.transitions] == [
        (3 * SECOND, "closed", "open"),
        (4 * SECOND, "open", "half_open"),
        (5 * SECOND, "half_open", "open"),
    ]
    # Repair the backend before the next probe: the crash-free check closes
    # the breaker and the monitor keeps running.
    backend["broken"] = False
    host.store.save("metric", 5)
    host.engine.run(until=8 * SECOND + 1)
    assert breaker.state == STATE_CLOSED
    assert monitor.enabled
    assert host.reporter.notes_for(kind="BREAKER_CLOSE")


def test_monitor_supervisor_accounts_suppressed_crashes(host):
    load_crashy(host)
    host.engine.run(until=2 * SECOND + 1)
    stats = host.supervisor.stats()
    assert stats["rule_crashes"] == 2
    assert stats["suppressed"] == 2
    assert stats["breakers"]["crashy"]["state"] == STATE_CLOSED
    notes = host.reporter.notes_for(kind="RULE_CRASH")
    assert len(notes) == 2
    assert "RuntimeError" in notes[0]["detail"]


def test_contain_false_restores_the_pre_fix_crash(host):
    # The escape hatch reproduces the original bug: without containment a
    # crashing rule evaluation aborts the whole simulation run.
    host.supervisor.contain = False
    load_crashy(host)
    with pytest.raises(RuntimeError, match="store backend failure"):
        host.engine.run(until=2 * SECOND)


# -- make_pick_validator ----------------------------------------------------


def test_pick_validator_accepts_sane_decisions():
    validate = make_pick_validator(3)
    assert validate(PickDecision(0)) is None
    assert validate(PickDecision(2, inference_ns=500)) is None


@pytest.mark.parametrize("decision, fragment", [
    (float("nan"), "bad replica index"),
    (PickDecision(3), "bad replica index"),
    (PickDecision(-1), "bad replica index"),
    (PickDecision(True), "bad replica index"),
    (PickDecision(1, inference_ns=float("nan")), "bad inference_ns"),
    (PickDecision(1, inference_ns=-5), "bad inference_ns"),
])
def test_pick_validator_rejects_garbage(decision, fragment):
    assert fragment in make_pick_validator(3)(decision)


# -- PolicySupervisor -------------------------------------------------------


class FlakyPolicy:
    """Scriptable inner policy: raise / return garbage / stall on demand."""

    def __init__(self):
        self.mode = "ok"
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.mode == "raise":
            raise ValueError("synthetic policy crash")
        if self.mode == "garbage":
            return PickDecision(99)
        if self.mode == "stall":
            return PickDecision(0, inference_ns=5_000_000)
        return PickDecision(0, inference_ns=100)


@pytest.fixture
def supervised(host):
    flaky = FlakyPolicy()
    host.functions.register("pol", flaky)
    host.functions.register_implementation("fallback",
                                           lambda: PickDecision(1))
    supervisor = PolicySupervisor(
        host, "pol", "fallback",
        config=BreakerConfig(crash_threshold=3, base_backoff_ns=1 * SECOND),
        validator=make_pick_validator(3), slow_call_ns=1_000_000)
    return host, flaky, supervisor


def test_crash_served_by_fallback_per_call(supervised):
    host, flaky, supervisor = supervised
    flaky.mode = "raise"
    result = host.functions.slot("pol")()
    assert result.index == 1                   # the fallback's answer
    assert supervisor.crash_count == 1
    assert supervisor.fallback_call_count == 1
    assert supervisor.breaker.state == STATE_CLOSED
    assert host.reporter.notes_for(kind="POLICY_CRASH")


def test_garbage_output_served_by_fallback(supervised):
    host, flaky, supervisor = supervised
    flaky.mode = "garbage"
    assert host.functions.slot("pol")().index == 1
    assert supervisor.invalid_output_count == 1
    assert host.reporter.notes_for(kind="POLICY_GARBAGE")


def test_slow_call_is_served_but_counted(supervised):
    host, flaky, supervisor = supervised
    flaky.mode = "stall"
    result = host.functions.slot("pol")()
    assert result.index == 0                   # stalled decision still used
    assert supervisor.slow_call_count == 1
    assert host.reporter.notes_for(kind="POLICY_STALL")


def test_success_resets_the_failure_streak(supervised):
    host, flaky, supervisor = supervised
    slot = host.functions.slot("pol")
    for _ in range(2):
        flaky.mode = "raise"
        slot()
        flaky.mode = "ok"
        slot()
    assert supervisor.breaker.state == STATE_CLOSED
    assert supervisor.replace_count == 0


def test_trip_replaces_via_the_a2_path_and_rearms(supervised):
    host, flaky, supervisor = supervised
    slot = host.functions.slot("pol")
    flaky.mode = "raise"
    for _ in range(3):
        slot()
    # Tripped: the slot now holds the registered fallback implementation,
    # swapped through ReplaceAction (same REPLACE note a guardrail makes).
    assert supervisor.replace_count == 1
    assert slot.current is host.functions.resolve_implementation("fallback")
    assert slot.swap_count == 1
    replace_notes = host.reporter.notes_for(kind="REPLACE")
    assert replace_notes[0]["guardrail"] == "supervisor:pol"
    assert "pol -> fallback" in replace_notes[0]["detail"]
    inner_calls = flaky.calls
    slot()                                     # served by the fallback only
    assert flaky.calls == inner_calls
    # Virtual-time re-arm: the supervisor rebinds itself as the probe path.
    host.engine.run(until=1 * SECOND + 1)
    assert supervisor.breaker.state == STATE_HALF_OPEN
    assert slot.current is supervisor
    flaky.mode = "ok"
    assert slot().index == 0                   # probe passes
    assert supervisor.breaker.state == STATE_CLOSED
    assert host.reporter.notes_for(kind="BREAKER_CLOSE")


def test_failed_probe_doubles_backoff_and_replaces_again(supervised):
    host, flaky, supervisor = supervised
    slot = host.functions.slot("pol")
    flaky.mode = "raise"
    for _ in range(3):
        slot()
    host.engine.run(until=1 * SECOND + 1)      # half-open
    slot()                                     # probe crashes
    assert supervisor.breaker.state == STATE_OPEN
    assert supervisor.breaker.backoff_ns == 2 * SECOND
    assert supervisor.replace_count == 2
    assert supervisor.breaker.reopen_at == host.engine.now + 2 * SECOND


def test_stats_shape(supervised):
    _, flaky, supervisor = supervised
    stats = supervisor.stats()
    assert set(stats) == {"slot", "crashes", "invalid_outputs", "slow_calls",
                          "fallback_calls", "replaces", "breaker"}
    assert stats["breaker"]["state"] == STATE_CLOSED
