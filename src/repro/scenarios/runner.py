"""The scenario-zoo runner: registry selection, pooled execution, one doc.

Scenarios run on :func:`repro.bench.pool.run_pool` (one process per
scenario, retry-once supervision) and results merge sorted by name, so
the deterministic part of the document is byte-identical across reruns
and ``--jobs`` values — the same contract the bench and fleet runners
pin.  Wall-clock times live under the ``info`` key, which deterministic
consumers drop.
"""

from repro.bench.pool import PoolTask, run_pool
from repro.scenarios.registry import all_scenarios, get_scenario, self_check
from repro.scenarios.spec import run_scenario


def select_scenarios(filter_substring=None, quick=False):
    """Registry subset for one run, sorted by name."""
    specs = all_scenarios()
    if quick:
        specs = [spec for spec in specs if spec.quick]
    if filter_substring:
        specs = [spec for spec in specs if filter_substring in spec.name]
    return specs


def _run_named(name):
    """Pool target: run one registered scenario by name."""
    return run_scenario(get_scenario(name))


def run_scenarios(specs, jobs=1, timeout_s=300.0):
    """Run ``specs`` under the pool; returns the scenarios document.

    The document's ``scenarios`` list is sorted by name with purely
    deterministic content; ``matched``/``mismatched``/``errors`` count
    the run's outcome and ``info`` carries the nondeterministic extras.
    """
    problems = self_check()
    if problems:
        raise ValueError("registry self-check failed: {}"
                         .format("; ".join(problems)))
    specs = sorted(specs, key=lambda spec: spec.name)
    # Longest-first packs the pool; ties broken by name for determinism.
    ordered = sorted(specs, key=lambda spec: (-spec.duration_s, spec.name))
    tasks = [PoolTask(spec.name, _run_named, (spec.name,),
                      cost=spec.duration_s)
             for spec in ordered]
    outcomes = run_pool(tasks, jobs=jobs, timeout_s=timeout_s)

    scenarios, errors, wall_times = [], [], {}
    for outcome in outcomes:
        payload = outcome["payload"]
        if outcome["status"] == "ok":
            scenarios.append(payload["result"])
            wall_times[outcome["id"]] = round(payload["wall_time_s"], 3)
        else:
            # ``Type: message`` for an exception; the pool's crash or
            # timeout diagnostic otherwise.
            errors.append({"name": outcome["id"],
                           "status": outcome["status"],
                           "error": payload.get("summary", payload["error"])})
    matched = sum(1 for result in scenarios if result["matched"])
    mismatched = [result["name"] for result in scenarios
                  if not result["matched"]]
    return {
        "schema": "repro-scenarios/v1",
        "count": len(specs),
        "matched": matched,
        "mismatched": mismatched,
        "errors": errors,
        "scenarios": scenarios,
        "info": {"wall_time_s": wall_times},
    }


def deterministic_document(document):
    """The byte-stable projection: everything except ``info``."""
    return {key: value for key, value in document.items() if key != "info"}
