"""Guardrail-quality eval — the CI smoke set, scored and gated.

Runs the quick tier of the labelled eval dataset (``eval/dataset.jsonl``)
exactly as CI's ``eval-smoke`` job does, then scores it: overall
accuracy, trip precision/recall, and the per-gate-axis false-trip
counts behind the calibrated :class:`~repro.fleet.rollout.GateConfig`
defaults.  Every metric is deterministic — a guardrail whose verdict
drifts on any labelled episode shows up as a baseline diff here before
it shows up as a flaky CI gate.

Episodes run inline (not through ``run_eval``): bench scenarios already
execute inside pool workers, which are daemonic and cannot nest a pool.
"""

from repro.bench.report import format_table
from repro.bench.results import scenario
from repro.eval.calibrate import calibrate
from repro.eval.dataset import load_dataset
from repro.eval.runner import DOCUMENT_SCHEMA, run_episode, select_episodes
from repro.eval.score import score_results


def _group_rows(scores):
    rows = []
    for name, cell in sorted(scores["by_group"].items()):
        rows.append([
            name,
            "{}/{}".format(cell["correct"], cell["n"]),
            "{:.2f}".format(cell["precision"]),
            "{:.2f}".format(cell["recall"]),
            ", ".join(cell["guardrail"]) or "-",
        ])
    return rows


# Every episode's seed is pinned in the dataset itself; 11 is the first
# host-episode seed, declared so the seed-pinning contract holds.
@scenario(cost=2.0, seed=11)
def run_eval_quick(report=None):
    header, episodes = load_dataset()
    results = [run_episode(episode)
               for episode in select_episodes(episodes, tier="quick")]

    scores = score_results(results)
    trip = scores["trip_detection"]
    document = {"schema": DOCUMENT_SCHEMA, "episodes": results}
    calibration = calibrate(document)

    metrics = {
        "dataset_version": header["dataset_version"],
        "episodes": scores["n"],
        "correct": scores["correct"],
        "accuracy": round(scores["accuracy"], 6),
        "trip_precision": round(trip["precision"], 6),
        "trip_recall": round(trip["recall"], 6),
        "trip_f1": round(trip["f1"], 6),
        "false_trips": trip["fp"],
        "missed_trips": trip["fn"],
        "calibration_self_consistent": (
            calibration["verification"]["passed"]
            and not calibration["changed"]),
    }
    for axis, cell in sorted(scores["fleet_axis_false_trips"].items()):
        metrics["axis_{}_false_trips".format(axis)] = cell["false_trips"]

    # The smoke set must separate cleanly: every labelled verdict correct,
    # no false or missed trips, and the committed gate defaults must be
    # exactly what calibration reproduces from the recorded measurements.
    assert metrics["accuracy"] == 1.0
    assert metrics["false_trips"] == 0
    assert metrics["missed_trips"] == 0
    assert metrics["calibration_self_consistent"] is True
    for axis in ("violation", "inconclusive", "p95"):
        assert metrics["axis_{}_false_trips".format(axis)] == 0

    if report is not None:
        lines = [format_table(
            ["group", "correct", "precision", "recall", "guardrail"],
            _group_rows(scores),
            title="eval quick tier (dataset v{}, {} episodes)".format(
                header["dataset_version"], scores["n"]))]
        wrong = [r for r in results if not r["correct"]]
        lines.append("wrong verdicts: {}".format(
            ", ".join(r["id"] for r in wrong) if wrong else "none"))
        report("eval_quick", "\n".join(lines))
    return metrics


def scenarios():
    return [("eval_quick", run_eval_quick)]
