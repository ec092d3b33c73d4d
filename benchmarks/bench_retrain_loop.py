"""Extension — the full retraining lifecycle (§3.2's A3, made concrete).

Figure 2 stops at "disable the model".  This benchmark runs the loop the
paper sketches but does not build: the guardrail disables the misbehaving
model *and* queues retraining; the daemon trains on the fresh post-drift
sample buffer and re-enables; a model retrained on unrepresentative data
trips the guardrail again, until one trained on clean fallback-phase data
sticks and beats the fallback.
"""

from repro.bench.report import format_series, format_table
from repro.bench.results import scenario
from repro.bench.scenarios import (
    CLOSED_LOOP_DRIFT_AT_S,
    run_closed_loop_scenario,
    train_default_linnos_model,
)
from repro.sim.units import SECOND

DURATION_S = 30


@scenario(quick=False, cost=7.0, seed=2)
def run_retrain_loop(report=None):
    model = train_default_linnos_model(seed=1, train_seconds=15)
    result, daemon = run_closed_loop_scenario(model, duration_s=DURATION_S)
    late_disables = len([
        n for n in result.kernel.reporter.notes_for(kind="SAVE")
        if n["time"] > (DURATION_S - 5) * SECOND])
    metrics = {
        "retrains_completed": daemon.completed_count,
        "ml_enabled_at_end": result.ml_enabled,
        "fallback_phase_us": round(result.mean_between(8, 14), 3),
        "recovered_us": round(result.mean_between(24, 30), 3),
        "late_disables": late_disables,
    }

    assert metrics["retrains_completed"] >= 1
    assert metrics["ml_enabled_at_end"] is True
    assert metrics["recovered_us"] < metrics["fallback_phase_us"]
    # The loop settled: no disables in the last 5 seconds.
    assert metrics["late_disables"] == 0

    if report is not None:
        lines = [format_series("I/O latency, closed loop (per-second mean)",
                               result.per_second_means(), unit="us"), ""]
        events = [
            [n["time"] / SECOND, n["kind"], n["detail"]]
            for n in result.kernel.reporter.notes_for()
            if n["kind"] in ("SAVE", "RETRAIN_START", "RETRAIN_DONE")
        ]
        lines.append(format_table(["t (s)", "event", "detail"], events,
                                  title="lifecycle events"))
        lines.append("")
        lines.append(format_table(
            ["aspect", "value"],
            [
                ["drift injected at", "t={}s".format(CLOSED_LOOP_DRIFT_AT_S)],
                ["retraining runs completed", metrics["retrains_completed"]],
                ["ml enabled at end", metrics["ml_enabled_at_end"]],
                ["fallback-phase latency (8-14s)",
                 round(metrics["fallback_phase_us"])],
                ["recovered latency (24-30s)",
                 round(metrics["recovered_us"])],
            ],
            title="closed-loop summary"))
        report("retrain_loop", "\n".join(lines))
    return metrics


def scenarios():
    return [("retrain_loop", run_retrain_loop)]
