"""Eval documents on disk: loading and baseline diffs.

The committed baseline (``EVAL_baseline.json``) is a full-tier results
document.  CI's quick runs execute a subset of its episodes, so the
comparison is **scoped**: only episodes the current run actually
executed are judged, and the gate is *per-episode correctness*, not
score equality — a quick run must not fail because the full-tier-only
episodes it skipped moved the aggregate numbers.

A **regression** is an episode that is incorrect now but was correct in
the baseline (or is too new to have a baseline entry — new episodes must
pass on arrival).  An episode incorrect in both runs is a *known
failure*: still reported, but not a new break.
"""

import json


def load_document(path):
    with open(path) as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or "episodes" not in document:
        raise ValueError(
            "{} is not an eval results document (no episodes)".format(path))
    return document


def compare_to_baseline(document, baseline):
    """Scoped comparison of ``document`` against a baseline document."""
    baseline_by_id = {result["id"]: result
                      for result in baseline["episodes"]}
    regressions = []
    improvements = []
    known_failures = []
    new_episodes = []
    for result in document["episodes"]:
        before = baseline_by_id.get(result["id"])
        if before is None:
            new_episodes.append(result["id"])
        entry = {
            "id": result["id"],
            "expected": result["expected"],
            "verdict": result["verdict"],
            "baseline_verdict": before["verdict"] if before else None,
        }
        if result["correct"]:
            if before is not None and not before["correct"]:
                improvements.append(entry)
        elif before is not None and not before["correct"]:
            known_failures.append(entry)
        else:
            regressions.append(entry)
    return {
        "baseline": {
            "dataset_version": baseline["dataset"]["dataset_version"],
            "tier": baseline["tier"],
            "gate": baseline["gate"],
        },
        "dataset_version_changed": (
            document["dataset"]["dataset_version"]
            != baseline["dataset"]["dataset_version"]),
        "compared": len(document["episodes"]) - len(new_episodes),
        "new_episodes": sorted(new_episodes),
        "regressions": regressions,
        "improvements": improvements,
        "known_failures": known_failures,
        "accuracy": {
            "current": document["scores"]["accuracy"],
            "baseline": baseline["scores"]["accuracy"],
        },
        "passed": not regressions,
    }


__all__ = ["compare_to_baseline", "load_document"]
