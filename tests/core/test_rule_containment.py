"""Rule-crash containment: pinned crash counts, charges and breaker timeline.

The monitor's broad ``except Exception`` around ``program(ctx)`` is the
§4.2 crash-only containment site.  Rule closures charge ``ctx.ops``
incrementally as they evaluate, so a store backend that raises mid-rule
leaves a partial overhead charge behind; these scenarios pin the crash
counters, charges, breaker transitions (timing included) and supervisor
stats that result.
"""

from repro.core.compiler import GuardrailCompiler
from repro.core.host import MonitorHost
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.kernel import Kernel
from repro.sim.units import SECOND

CRASHY = """
guardrail crashy {
  trigger: { TIMER(start_time, 1s) },
  rule: { LOAD(metric) <= 10 },
  action: { REPORT() }
}
"""

# The composite form crashes *mid-expression*: the left arm has already
# charged ops when the second LOAD raises, so the partial charge the
# containment site records exercises the interesting path.
COMPOSITE_CRASHY = """
guardrail crashy {
  trigger: { TIMER(start_time, 1s) },
  rule: { n0 == n0 || LOAD(ok) > 0 && LOAD(metric) <= 10 },
  action: { REPORT() }
}
"""

TRANSITIONS = [
    (3 * SECOND, "closed", "open"),
    (4 * SECOND, "open", "half_open"),
    (5 * SECOND, "half_open", "closed"),
]


def run_crashing_host(text):
    host = MonitorHost()
    monitor = GuardrailCompiler().compile(text).instantiate(host)
    monitor.arm()
    host.store.save("ok", 1)
    inner_load, backend = host.store.load, {"broken": True}

    def flaky_load(key, default=None):
        if key == "metric" and backend["broken"]:
            raise RuntimeError("store backend failure")
        return inner_load(key, default)

    host.store.load = flaky_load
    host.engine.run(until=3 * SECOND + 1)
    breaker = host.supervisor.breaker("crashy")
    mid = {
        "crashes": monitor.rule_crash_count,
        "overhead_ns": monitor.overhead.simulated_ns,
        "breaker_state": breaker.state,
        "enabled": monitor.enabled,
    }
    # Repair the backend: the next half-open probe closes the breaker.
    backend["broken"] = False
    host.store.save("metric", 5)
    host.engine.run(until=8 * SECOND + 1)
    return {
        "mid": mid,
        "crashes": monitor.rule_crash_count,
        "checks": monitor.check_count,
        "violations": monitor.violation_count,
        "inconclusive": monitor.inconclusive_count,
        "overhead_ns": monitor.overhead.simulated_ns,
        "breaker_state": breaker.state,
        "transitions": [(t["time"], t["from"], t["to"])
                        for t in breaker.transitions],
        "supervisor": host.supervisor.stats(),
        "enabled": monitor.enabled,
    }


def test_breaker_and_charges_are_pinned():
    run = run_crashing_host(CRASHY)
    assert run["mid"] == {"crashes": 3, "overhead_ns": 180,
                          "breaker_state": "open", "enabled": False}
    assert run["transitions"] == TRANSITIONS
    assert run["breaker_state"] == "closed" and run["enabled"]
    assert (run["crashes"], run["checks"], run["violations"],
            run["inconclusive"], run["overhead_ns"]) == (3, 7, 0, 0, 460)
    supervisor = run["supervisor"]
    assert (supervisor["rule_crashes"], supervisor["action_crashes"],
            supervisor["suppressed"]) == (3, 0, 3)
    assert supervisor["breakers"]["crashy"]["trips"] == 1


def test_mid_expression_crash_partial_charge_is_pinned():
    run = run_crashing_host(COMPOSITE_CRASHY)
    assert run["mid"]["crashes"] == 3  # the crash path actually ran
    assert run["mid"]["breaker_state"] == "open"
    # Each crashed check bills the ops charged before the raising LOAD.
    assert run["mid"]["overhead_ns"] == 315
    assert run["overhead_ns"] == 775
    assert run["transitions"] == TRANSITIONS


def run_fault_injected_kernel():
    kernel = Kernel(seed=3)
    kernel.store.save("metric", 1)
    monitor = kernel.guardrails.load(CRASHY)
    plan = FaultPlan.from_flags(("corrupt@metric",), seed=1)
    injector = FaultInjector(kernel, plan).install()
    kernel.run(until=5 * SECOND)
    return {
        "checks": monitor.check_count,
        "inconclusive": monitor.inconclusive_count,
        "violations": monitor.violation_count,
        "crashes": monitor.rule_crash_count,
        "overhead_ns": monitor.overhead.simulated_ns,
        "injected": injector.injected_count,
    }


def test_corrupt_injection_reads_as_missing_data():
    run = run_fault_injected_kernel()
    # NaN telemetry is contained as missing data, never as a crash.
    assert run == {"checks": 5, "inconclusive": 5, "violations": 0,
                   "crashes": 0, "overhead_ns": 350, "injected": 5}
