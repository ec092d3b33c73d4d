"""Figure 2 — I/O latency moving average, LinnOS vs LinnOS + guardrails.

Regenerates the paper's only quantitative artifact: the false-submit
guardrail (Listing 2, executed verbatim) triggers after mid-run drift and
the moving average of I/O latencies improves relative to unguarded LinnOS.

Shape checks (not absolute numbers):
- pre-drift, LinnOS beats the round-robin baseline;
- post-drift, unguarded LinnOS is the worst configuration;
- the guardrail fires within a few checks of the drift and post-trigger
  latency drops below unguarded LinnOS.
"""

from repro.bench.report import format_series, format_table
from repro.bench.results import scenario
from repro.bench.scenarios import (
    run_figure2_scenario,
    train_default_linnos_model,
)
from repro.sim.units import SECOND

DRIFT_AT_S = 6
DURATION_S = 16


@scenario(quick=False, cost=8.0, seed=2)
def run_figure2(report=None):
    """The full three-mode Figure 2 run; returns the summary-table metrics."""
    model = train_default_linnos_model(seed=1, train_seconds=15)
    results = {
        mode: run_figure2_scenario(model, mode, seed=2,
                                   drift_at_s=DRIFT_AT_S,
                                   duration_s=DURATION_S)
        for mode in ("baseline", "linnos", "guarded")
    }

    guarded = results["guarded"]
    saves = guarded.kernel.reporter.notes_for(kind="SAVE")
    trigger_s = saves[0]["time"] / SECOND if saves else None

    metrics = {"trigger_s": trigger_s}
    for mode, result in results.items():
        metrics[mode + "_pre_drift_us"] = round(
            result.mean_between(1, DRIFT_AT_S), 3)
        metrics[mode + "_post_drift_us"] = round(
            result.mean_between(DRIFT_AT_S + 2, DURATION_S), 3)
        metrics[mode + "_false_submits"] = result.false_submits
        metrics[mode + "_ml_enabled"] = result.ml_enabled

    assert (metrics["linnos_pre_drift_us"]
            < metrics["baseline_pre_drift_us"] * 0.7)
    assert metrics["linnos_post_drift_us"] > metrics["baseline_post_drift_us"]
    assert metrics["guarded_post_drift_us"] < metrics["linnos_post_drift_us"]
    assert trigger_s is not None and DRIFT_AT_S < trigger_s <= DRIFT_AT_S + 3

    if report is not None:
        lines = []
        for mode, result in results.items():
            times, averages = result.moving_average()
            sampled = list(zip(
                (round(t / SECOND, 1) for t in times[::400]), averages[::400]
            ))
            lines.append(format_series(
                "moving average of I/O latency — {}".format(mode),
                sampled, unit="us"))
            lines.append("")
        rows = [
            [mode,
             metrics[mode + "_pre_drift_us"],
             metrics[mode + "_post_drift_us"],
             metrics[mode + "_false_submits"],
             metrics[mode + "_ml_enabled"]]
            for mode in results
        ]
        lines.append(format_table(
            ["mode", "pre-drift us", "post-drift us", "false submits",
             "ml enabled"],
            rows, title="Figure 2 summary (drift at t={}s)".format(
                DRIFT_AT_S)))
        lines.append("guardrail trigger time: t={}s".format(trigger_s))
        report("fig2_linnos", "\n".join(lines))
    return metrics


def scenarios():
    return [("fig2_linnos", run_figure2)]
