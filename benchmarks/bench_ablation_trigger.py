"""Ablation §4.1 — decoupling rules from triggers.

The same false-submit rule checked at different TIMER intervals and with a
FUNCTION trigger: detection delay falls as checking gets more frequent, but
monitor overhead rises.  The TIMER lets deployments pick their point on
that curve; the verifier's minimum interval bounds the worst case.
"""

from repro.bench.report import format_table
from repro.bench.results import scenario
from repro.kernel import Kernel
from repro.sim.units import MILLISECOND, SECOND

RULE = "LOAD(error_rate) <= 0.1"

INTERVALS_MS = [10, 100, 1000, 5000]


def _spec(trigger):
    return (
        "guardrail g {{ trigger: {{ {} }}, rule: {{ " + RULE +
        " }}, action: {{ SAVE(tripped, true) }} }}"
    ).format(trigger)


def _run(trigger, violation_at=7_300 * MILLISECOND, duration=20 * SECOND):
    kernel = Kernel(seed=51)
    kernel.store.save("error_rate", 0.01)
    hook = kernel.hooks.declare("app.request")

    # Background activity driving the FUNCTION trigger at ~200 Hz.
    def request(step=0):
        hook.fire(step=step)
        if kernel.now < duration:
            kernel.engine.schedule(5 * MILLISECOND, request, step + 1)

    request()
    kernel.engine.schedule_at(violation_at, kernel.store.save,
                              "error_rate", 0.5)
    monitor = kernel.guardrails.load(_spec(trigger))
    kernel.run(until=duration)
    first = monitor.violations[0].time if monitor.violations else None
    delay = None if first is None else (first - violation_at) / MILLISECOND
    return {
        "checks": monitor.check_count,
        "delay_ms": delay,
        "overhead_ns": monitor.overhead.simulated_ns,
    }


@scenario(cost=0.4, seed=51)
def run_trigger_ablation(report=None):
    results = {}
    for interval in INTERVALS_MS:
        results["TIMER {} ms".format(interval)] = _run(
            "TIMER(start_time, {}ms)".format(interval))
    results["FUNCTION (per call)"] = _run("FUNCTION(app.request)")

    metrics = {}
    for interval in INTERVALS_MS:
        r = results["TIMER {} ms".format(interval)]
        for key in ("checks", "delay_ms", "overhead_ns"):
            metrics["timer_{}ms_{}".format(interval, key)] = r[key]
    for key in ("checks", "delay_ms", "overhead_ns"):
        metrics["function_{}".format(key)] = results["FUNCTION (per call)"][key]

    delays = [metrics["timer_{}ms_delay_ms".format(i)] for i in INTERVALS_MS]
    overheads = [metrics["timer_{}ms_overhead_ns".format(i)]
                 for i in INTERVALS_MS]
    # Coarser timers: no more delay-optimal than finer ones; strictly less
    # overhead.
    assert all(a <= b for a, b in zip(delays, delays[1:]))
    assert all(a >= b for a, b in zip(overheads, overheads[1:]))
    # The FUNCTION trigger detects fastest but costs the most checks.
    assert metrics["function_delay_ms"] <= delays[0]
    assert metrics["function_checks"] > metrics["timer_10ms_checks"]

    if report is not None:
        rows = [
            [name, r["checks"], r["delay_ms"], r["overhead_ns"]]
            for name, r in results.items()
        ]
        report("ablation_trigger", format_table(
            ["trigger", "checks in 20s", "detection delay ms",
             "monitor overhead ns"],
            rows,
            title="§4.1 ablation: check frequency vs detection delay "
                  "vs overhead"))
    return metrics


def scenarios():
    return [("ablation_trigger", run_trigger_ablation)]
