"""The full guardrail lifecycle: detect -> disable -> retrain -> re-enable.

Extends the Figure 2 experiment with the A3 leg the paper sketches: the
false-submit guardrail disables the drifted LinnOS model *and* queues
retraining; a daemon trains a new model on the post-drift sample buffer and
re-enables it.  After one or two cycles the retrained model sticks and
beats the round-robin fallback on the new regime.

Run:  python examples/closed_loop.py
"""

from repro.bench.report import format_series, format_table
from repro.bench.scenarios import (
    run_closed_loop_scenario,
    train_default_linnos_model,
)
from repro.sim.units import SECOND

DURATION_S = 30


def main():
    print("training the pre-drift LinnOS model...")
    model = train_default_linnos_model(seed=1, train_seconds=15)

    print("running the closed-loop deployment...\n")
    result, daemon = run_closed_loop_scenario(model, duration_s=DURATION_S)

    print(format_series("I/O latency (per-second mean)",
                        result.per_second_means(), unit="us"))
    print()

    events = [
        [n["time"] / SECOND, n["kind"], n["detail"]]
        for n in result.kernel.reporter.notes_for()
        if n["kind"] in ("SAVE", "RETRAIN_START", "RETRAIN_DONE")
    ]
    print(format_table(["t (s)", "event", "detail"], events,
                       title="lifecycle events"))

    print("\nretraining runs completed:", daemon.completed_count)
    print("model enabled at end     :", result.ml_enabled)
    print("latency while on fallback (8-14s): {:.0f} us".format(
        result.mean_between(8, 14)))
    print("latency after recovery (24-30s)  : {:.0f} us".format(
        result.mean_between(24, 30)))


if __name__ == "__main__":
    main()
