"""Ablation §3.3 — fixed relaxed threshold vs auto-tightened threshold.

Deploy the page-fault-latency guardrail relaxed (50 ms).  A regression that
raises fault latency to ~5 ms hides indefinitely under the relaxed bound;
the auto-tightened guardrail has converged to the observed envelope and
catches it within a couple of checks.
"""

from repro.bench.report import format_table
from repro.bench.results import scenario
from repro.core.tightening import AutoTightener
from repro.kernel import Kernel
from repro.kernel.mm import PageFaultHandler
from repro.sim.units import MILLISECOND, SECOND

INITIAL_MS = 50.0
REGRESSION_AT = 10 * SECOND
DURATION = 20 * SECOND


def _build_spec(threshold):
    return (
        "guardrail fault-latency {{\n"
        "  trigger: {{ TIMER(start_time, 1s) }},\n"
        "  rule:    {{ LOAD(mm.page_fault_latency_ms.avg) <= {} }},\n"
        "  action:  {{ REPORT() }}\n"
        "}}\n"
    ).format(threshold)


def _run(tightened):
    kernel = Kernel(seed=53)
    faults = kernel.attach("mm", PageFaultHandler(kernel))
    tightener = None
    if tightened:
        tightener = AutoTightener(
            kernel.guardrails, "fault-latency", "mm.page_fault_latency_ms",
            _build_spec, initial_threshold=INITIAL_MS, interval=1 * SECOND,
            quantile=0.99, margin=3.0,
        ).start()
    else:
        kernel.guardrails.load(_build_spec(INITIAL_MS))

    # The regression: promotions start stalling (fragmentation jumps), which
    # lifts average fault latency to a few ms — bad, but far below 50 ms.
    kernel.functions.register_implementation("mm.sometimes", lambda ctx: True)
    kernel.engine.schedule_at(REGRESSION_AT, faults.set_fragmentation, 0.12)
    kernel.engine.schedule_at(
        REGRESSION_AT, kernel.functions.replace,
        "mm.promote_hugepage", "mm.sometimes")

    def fault_loop(step=0):
        faults.fault(address=step)
        if kernel.now < DURATION:
            kernel.engine.schedule(4 * MILLISECOND, fault_loop, step + 1)

    fault_loop()
    kernel.run(until=DURATION)
    monitor = kernel.guardrails.get("fault-latency")
    first = monitor.violations[0].time if monitor.violations else None
    return {
        "threshold": tightener.threshold if tightener else INITIAL_MS,
        "violations": monitor.violation_count,
        "delay_s": None if first is None else (first - REGRESSION_AT) / SECOND,
        "tighten_count": tightener.tighten_count if tightener else 0,
    }


@scenario(cost=0.5, seed=53)
def run_tightening_ablation(report=None):
    results = {
        "fixed relaxed (50 ms)": _run(tightened=False),
        "auto-tightened": _run(tightened=True),
    }
    metrics = {}
    for name, prefix in (("fixed relaxed (50 ms)", "relaxed"),
                         ("auto-tightened", "tightened")):
        r = results[name]
        metrics[prefix + "_threshold_ms"] = round(r["threshold"], 6)
        metrics[prefix + "_violations"] = r["violations"]
        metrics[prefix + "_delay_s"] = r["delay_s"]
        metrics[prefix + "_tighten_count"] = r["tighten_count"]

    assert metrics["relaxed_violations"] == 0   # regression hides forever
    assert metrics["tightened_violations"] >= 1
    assert (metrics["tightened_delay_s"] is not None
            and metrics["tightened_delay_s"] <= 3)
    assert metrics["tightened_threshold_ms"] < 1.0  # converged near reality

    if report is not None:
        rows = [
            [name, round(r["threshold"], 3), r["tighten_count"],
             r["violations"], r["delay_s"]]
            for name, r in results.items()
        ]
        report("ablation_tightening", format_table(
            ["deployment", "final threshold ms", "tightenings", "violations",
             "detection delay s"],
            rows,
            title="§3.3 ablation: relaxed vs auto-tightened threshold "
                  "(regression at t=10s)"))
    return metrics


def scenarios():
    return [("ablation_tightening", run_tightening_ablation)]
