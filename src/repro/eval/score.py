"""Scoring: per-episode results -> guardrail-quality metrics.

Everything here is arithmetic over the per-episode result dicts the
runner produced — no simulation, no randomness — so scores are exactly
reproducible from a results document alone.

The headline framing treats ``trip`` as the positive class: *precision*
is "when a guardrail tripped, was something actually wrong?" and
*recall* is "when something was wrong, did it trip?".  ``inconclusive``
is scored strictly — a blinded episode answered ``allow`` is wrong, the
guardrail claimed health it could not see.  Small-n rates carry Wilson
intervals (:func:`repro.eval.stats.wilson_interval`) rather than bare
point estimates.
"""

from repro.eval.stats import precision_recall_f1, wilson_interval

#: Result verdicts, in confusion-matrix row/column order.  ``error`` is
#: not a guardrail verdict — it marks an episode whose worker failed.
VERDICTS = ("allow", "inconclusive", "trip", "error")


def _confusion(results):
    matrix = {expected: {verdict: 0 for verdict in VERDICTS}
              for expected in VERDICTS[:3]}
    for result in results:
        matrix[result["expected"]][result["verdict"]] += 1
    return matrix


def _trip_detection(results):
    tp = fp = fn = tn = 0
    for result in results:
        expected_trip = result["expected"] == "trip"
        got_trip = result["verdict"] == "trip"
        if expected_trip and got_trip:
            tp += 1
        elif expected_trip:
            fn += 1
        elif got_trip:
            fp += 1
        else:
            tn += 1
    scores = precision_recall_f1(tp, fp, fn)
    scores.update({
        "tp": tp, "fp": fp, "fn": fn, "tn": tn,
        "recall_ci": wilson_interval(tp, tp + fn),
        "false_trip_rate": fp / (fp + tn) if (fp + tn) else 0.0,
        "false_trip_ci": wilson_interval(fp, fp + tn),
    })
    return scores


def _accuracy(results):
    n = len(results)
    correct = sum(1 for result in results if result["correct"])
    return {
        "n": n,
        "correct": correct,
        "accuracy": correct / n if n else 0.0,
        "accuracy_ci": wilson_interval(correct, n),
    }


def _group(result):
    """Scoring group of one result: host family, fleet fault kind, or the
    domain composition of a registry scenario."""
    if result["kind"] == "host":
        return result["family"]
    if result["kind"] == "scenario":
        return "scenario/{}".format(result["scenario"].split("/")[0])
    kind = result.get("fault_kind")
    return "fleet/{}".format(kind) if kind else "fleet/clean"


def _by_group(results):
    groups = {}
    for result in results:
        groups.setdefault(_group(result), []).append(result)
    out = {}
    for name in sorted(groups):
        members = groups[name]
        scores = _accuracy(members)
        scores["guardrail"] = sorted(
            {m["guardrail"] for m in members if m.get("guardrail")})
        scores.update(_trip_detection(members))
        out[name] = scores
    return out


def _fleet_axis_rates(results):
    """Per-gate-axis false-trip rates over the *clean* fleet episodes.

    An axis false-trips an episode if it appears among the tripped axes
    of any recorded stage — i.e. the gate would have halted a healthy
    rollout on that axis.  This is the measured quantity behind the
    calibrated defaults, so it is reported per axis with Wilson bounds
    even when (especially when) every count is zero.
    """
    from repro.fleet.rollout import GateConfig

    clean = [result for result in results
             if result["kind"] == "fleet" and result["expected"] == "allow"]
    out = {}
    for axis, _, _, _ in GateConfig.AXES:
        false_trips = sum(
            1 for result in clean
            if any(axis in stage.get("tripped_axes", ())
                   for stage in result.get("stage_verdicts", ())))
        out[axis] = {
            "false_trips": false_trips,
            "clean_episodes": len(clean),
            "rate": false_trips / len(clean) if clean else 0.0,
            "ci": wilson_interval(false_trips, len(clean)),
        }
    return out


def score_results(results):
    """The full scoring block of an eval document."""
    scores = _accuracy(results)
    scores["confusion"] = _confusion(results)
    scores["trip_detection"] = _trip_detection(results)
    scores["by_group"] = _by_group(results)
    scores["fleet_axis_false_trips"] = _fleet_axis_rates(results)
    return scores


__all__ = ["VERDICTS", "score_results"]
