"""Gate calibration: sweep thresholds over recorded rollout measurements.

Fleet episodes are recorded under a *permissive* gate, so every stage's
measurements exist regardless of what any real gate would have done —
and because a gate only ever halts a rollout (it never perturbs the
simulation), replaying a candidate :class:`GateConfig` over the records
is exact, not an approximation.  Calibration is therefore pure
arithmetic over an eval results document:

1. Per axis, compute the **feasible band**: the largest value any clean
   episode reaches (the noise ceiling the threshold must clear) and the
   smallest per-episode maximum among the fault episodes that stress
   that axis (the signal floor it must stay under).  The fault-kind ->
   axis mapping is :data:`repro.fleet.scenario.AXIS_BY_FAULT_KIND`.
2. Recommend a threshold: keep the current value when it already sits
   strictly inside the band (calibration is idempotent on a calibrated
   config); otherwise take the band's log-midpoint rounded to two
   significant figures — a round number centred between noise and
   signal on the axis' natural (multiplicative) scale.
3. Verify: replay the recommended config over every recorded fleet
   episode and require zero clean trips and zero missed faults.  An
   infeasible band (noise ceiling above signal floor) is reported, never
   silently split.
"""

import math

from repro.eval.episodes import fleet_verdict
from repro.eval.stats import paired_permutation_pvalue, round_2sf
from repro.fleet.rollout import GateConfig
from repro.fleet.scenario import AXIS_BY_FAULT_KIND


def _fleet_results(document):
    results = [result for result in document["episodes"]
               if result["kind"] == "fleet"]
    missing = [result["id"] for result in results
               if not result.get("stages")]
    if missing:
        raise ValueError(
            "document has fleet episodes without recorded stage "
            "measurements (rerun `grctl eval run`): {}".format(
                ", ".join(missing)))
    return results


def _episode_max(result, measurement_key):
    values = [stage["measurements"][measurement_key]
              for stage in result["stages"]
              if stage["measurements"][measurement_key] is not None]
    return max(values) if values else None


def _axis_band(results, axis, measurement_key):
    clean = []
    faulty = []
    for result in results:
        peak = _episode_max(result, measurement_key)
        if peak is None:
            continue
        if result["expected"] == "allow":
            clean.append((peak, result["id"]))
        elif AXIS_BY_FAULT_KIND[result["fault_kind"]] == axis:
            faulty.append((peak, result["id"]))
    clean_max = max(clean) if clean else None
    fault_min = min(faulty) if faulty else None
    curve = sorted({peak for peak, _ in clean} | {peak for peak, _ in faulty})
    operating_curve = [{
        "threshold": threshold,
        "clean_false_trips": sum(1 for peak, _ in clean if peak > threshold),
        "fault_misses": sum(1 for peak, _ in faulty if peak <= threshold),
    } for threshold in curve]
    return {
        "clean_max": clean_max[0] if clean else None,
        "clean_max_episode": clean_max[1] if clean else None,
        "fault_min": fault_min[0] if faulty else None,
        "fault_min_episode": fault_min[1] if faulty else None,
        "clean_episodes": len(clean),
        "fault_episodes": len(faulty),
        "operating_curve": operating_curve,
    }


def _recommend(band, current):
    """(value, how) for one axis given its band and the current setting."""
    clean_max, fault_min = band["clean_max"], band["fault_min"]
    if clean_max is None or fault_min is None:
        return current, "kept: no {} data to calibrate against".format(
            "clean" if clean_max is None else "fault")
    if fault_min <= clean_max:
        return current, ("infeasible: clean episodes reach {:.4g} but a "
                         "fault episode peaks at {:.4g}; kept current"
                         .format(clean_max, fault_min))
    if clean_max < current < fault_min:
        return current, "kept: current value is inside the feasible band"
    if clean_max > 0:
        midpoint = math.sqrt(clean_max * fault_min)
    else:
        midpoint = (clean_max + fault_min) / 2.0
    rounded = round_2sf(midpoint)
    if not clean_max < rounded < fault_min:
        rounded = midpoint  # rounding left the band; use the exact midpoint
    return rounded, "recalibrated to the band log-midpoint"


def evaluate_config(gate, results):
    """Offline verdicts of ``gate`` over recorded fleet episodes.

    Returns per-episode correctness plus the clean-trip / missed-fault
    tallies the verification step gates on.
    """
    per_episode = []
    clean_trips = missed_faults = 0
    for result in results:
        verdict = fleet_verdict(gate, result["stages"])
        correct = verdict["verdict"] == result["expected"]
        if not correct:
            if result["expected"] == "allow":
                clean_trips += 1
            else:
                missed_faults += 1
        per_episode.append({
            "id": result["id"],
            "expected": result["expected"],
            "verdict": verdict["verdict"],
            "tripped_stage": verdict["tripped_stage"],
            "tripped_axes": verdict["tripped_axes"],
            "correct": correct,
        })
    return {
        "per_episode": per_episode,
        "clean_trips": clean_trips,
        "missed_faults": missed_faults,
        "passed": clean_trips == 0 and missed_faults == 0,
    }


def compare_configs(document, gate_a, gate_b):
    """Paired comparison of two gate configs on the same fleet episodes.

    Correctness is the per-episode score; the permutation test asks
    whether the accuracy difference could be label-flipping noise.
    """
    results = _fleet_results(document)
    a = evaluate_config(gate_a, results)
    b = evaluate_config(gate_b, results)
    scores_a = [1 if entry["correct"] else 0 for entry in a["per_episode"]]
    scores_b = [1 if entry["correct"] else 0 for entry in b["per_episode"]]
    return {
        "n": len(results),
        "a": {"gate": gate_a.to_dict(), "correct": sum(scores_a),
              "clean_trips": a["clean_trips"],
              "missed_faults": a["missed_faults"]},
        "b": {"gate": gate_b.to_dict(), "correct": sum(scores_b),
              "clean_trips": b["clean_trips"],
              "missed_faults": b["missed_faults"]},
        "p_value": paired_permutation_pvalue(scores_a, scores_b),
    }


def calibrate(document, current=None):
    """Calibrate a :class:`GateConfig` from a recorded eval document.

    ``current`` seeds the keep-if-in-band rule (default: the shipped
    defaults, making the committed configuration self-reproducing).
    Returns the recommendation document; ``recommended`` is the config
    dict, ``verification.passed`` says whether it separates every
    labelled episode.
    """
    current = current or GateConfig()
    results = _fleet_results(document)
    axes = {}
    recommended_kwargs = {"min_checks": current.min_checks}
    for axis, measurement_key, threshold_attr, _ in GateConfig.AXES:
        band = _axis_band(results, axis, measurement_key)
        value, how = _recommend(band, getattr(current, threshold_attr))
        band["current"] = getattr(current, threshold_attr)
        band["recommended"] = value
        band["how"] = how
        axes[axis] = band
        recommended_kwargs[threshold_attr] = value
    recommended = GateConfig(**recommended_kwargs)
    verification = evaluate_config(recommended, results)
    return {
        "fleet_episodes": len(results),
        "axes": axes,
        "current": current.to_dict(),
        "recommended": recommended.to_dict(),
        "changed": recommended.to_dict() != current.to_dict(),
        "verification": verification,
    }


__all__ = ["calibrate", "compare_configs", "evaluate_config"]
