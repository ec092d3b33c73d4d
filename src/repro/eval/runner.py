"""Execute the labelled dataset and assemble the eval results document.

Episodes run through the shared :mod:`repro.bench.pool` process pool —
one worker process per episode, crash/timeout retried once — and results
merge **sorted by episode id**, so the document is byte-identical across
reruns and across ``--jobs`` values: nothing in it depends on wall time,
scheduling order, or worker count.  (Operational noise — attempts, wall
times — goes to the progress stream, never into the document.)
"""

from repro.bench.pool import DEFAULT_TIMEOUT_S, PoolTask, run_pool
from repro.eval.dataset import load_dataset
from repro.eval.score import score_results

#: Document format version, bumped with the result schema.
DOCUMENT_SCHEMA = "repro-eval/v1"


def _episode_payload(episode):
    """Run one episode and return its raw outcome: the one kind dispatch.

    Both the pool target and :func:`run_episode`.  A fleet episode
    returns its stage records only; the parent judges them.
    """
    if episode["kind"] == "host":
        from repro.eval.episodes import run_host_episode

        return run_host_episode(episode["family"], episode["regime"],
                                episode["seed"])
    if episode["kind"] == "scenario":
        from repro.scenarios import get_scenario, run_scenario

        return run_scenario(get_scenario(episode["scenario"]))
    from repro.eval.episodes import run_fleet_episode

    return run_fleet_episode(
        episode["hosts"], episode["seed"], episode["fault_hosts"],
        episode["fault_kind"], episode["tier"] == "quick")


def _cost(episode):
    """Relative duration estimate for longest-first pool packing."""
    if episode["kind"] == "host":
        return 0.1
    if episode["kind"] == "scenario":
        return 0.3 if episode["tier"] == "quick" else 3.0
    scale = 1.0 if episode["tier"] == "quick" else 4.0
    return scale * episode["hosts"] / 4.0


def select_episodes(episodes, tier="full", ids=None):
    """The subset of dataset episodes one invocation executes.

    ``tier="quick"`` keeps only quick-tier episodes (the CI smoke set);
    ``tier="full"`` keeps everything.  ``ids`` further restricts to an
    explicit set and raises ``ValueError`` on unknown ids so a typo fails
    loudly instead of silently shrinking coverage.
    """
    if tier not in ("quick", "full"):
        raise ValueError("unknown tier {!r}".format(tier))
    selected = [episode for episode in episodes
                if tier == "full" or episode["tier"] == "quick"]
    if ids is not None:
        wanted = set(ids)
        unknown = wanted - {episode["id"] for episode in selected}
        if unknown:
            raise ValueError("unknown episode id(s): {}".format(
                ", ".join(sorted(unknown))))
        selected = [episode for episode in selected
                    if episode["id"] in wanted]
    return selected


def _base_result(episode):
    result = {"id": episode["id"], "kind": episode["kind"],
              "tier": episode["tier"], "expected": episode["expected"]}
    if episode["kind"] == "host":
        result.update({"family": episode["family"],
                       "regime": episode["regime"],
                       "seed": episode["seed"]})
    elif episode["kind"] == "scenario":
        result["scenario"] = episode["scenario"]
    else:
        result.update({"hosts": episode["hosts"], "seed": episode["seed"],
                       "fault_hosts": episode["fault_hosts"],
                       "fault_kind": episode["fault_kind"]})
    return result


def _merge_outcome(episode, outcome, gate):
    from repro.eval.episodes import fleet_verdict
    from repro.fleet.scenario import GUARDRAIL_NAME

    result = _base_result(episode)
    if outcome["status"] != "ok":
        result.update({
            "verdict": "error",
            "correct": False,
            "guardrail": None,
            "error": (outcome["payload"] or {}).get("error",
                                                    outcome["status"]),
        })
        return result
    payload = outcome["payload"]["result"]
    if episode["kind"] == "scenario":
        # ``run_scenario`` already collapses per-guardrail verdicts onto
        # the eval ladder (any trip -> trip, else any inconclusive ...).
        result.update({
            "verdict": payload["overall"],
            "correct": payload["overall"] == episode["expected"],
            "guardrail": "+".join(sorted(payload["guardrails"])),
            "verdicts": payload["verdicts"],
            "registry_matched": payload["matched"],
        })
        return result
    if episode["kind"] == "fleet":
        stages = payload
        payload = dict(fleet_verdict(gate, stages), guardrail=GUARDRAIL_NAME)
    result["verdict"] = payload["verdict"]
    result["correct"] = payload["verdict"] == episode["expected"]
    result["guardrail"] = payload["guardrail"]
    if episode["kind"] == "host":
        result.update({
            "property": payload["property"],
            "action": payload["action"],
            "checks": payload["checks"],
            "violations": payload["violations"],
            "inconclusive": payload["inconclusive"],
            "actions_dispatched": payload["actions_dispatched"],
        })
    else:
        result.update({
            "tripped_stage": payload["tripped_stage"],
            "tripped_axes": payload["tripped_axes"],
            "stages": stages,
            "stage_verdicts": [
                {"stage": stage["stage"],
                 "tripped_axes": gate.tripped_axes(stage["measurements"])}
                for stage in stages
            ],
        })
    return result


def run_episode(episode):
    """Run one dataset episode synchronously, without the process pool,
    under the default gate.

    Same merged-result shape as one entry of ``run_eval()["episodes"]``.
    For callers that already live inside a pool worker (benchmarks) —
    pool children are daemonic and cannot spawn a nested pool.
    """
    from repro.fleet.rollout import GateConfig

    gate = GateConfig()
    payload = _episode_payload(episode)
    outcome = {"id": episode["id"], "status": "ok",
               "payload": {"result": payload}}
    return _merge_outcome(episode, outcome, gate)


def run_eval(dataset_path=None, tier="full", jobs=1, ids=None,
             progress=None, timeout_s=DEFAULT_TIMEOUT_S):
    """Run the (selected) dataset; returns the deterministic document.

    Fleet episodes are judged by the calibrated default
    :class:`~repro.fleet.rollout.GateConfig`.
    """
    from repro.fleet.rollout import GateConfig

    gate = GateConfig()
    header, episodes = load_dataset(dataset_path)
    selected = select_episodes(episodes, tier=tier, ids=ids)
    if not selected:
        raise ValueError("selection matched no episodes")
    by_id = {episode["id"]: episode for episode in selected}
    tasks = [PoolTask(episode["id"], _episode_payload, (episode,),
                      cost=_cost(episode))
             for episode in selected]
    tasks.sort(key=lambda task: (-task.cost, task.id))
    outcomes = run_pool(tasks, jobs=jobs, timeout_s=timeout_s,
                        progress=progress)
    results = [_merge_outcome(by_id[outcome["id"]], outcome, gate)
               for outcome in outcomes]  # run_pool sorts by id
    return {
        "schema": DOCUMENT_SCHEMA,
        "dataset": {
            "schema_version": header["schema_version"],
            "dataset_version": header["dataset_version"],
        },
        "tier": tier,
        "gate": gate.to_dict(),
        "episodes": results,
        "scores": score_results(results),
    }


__all__ = ["DOCUMENT_SCHEMA", "run_episode", "run_eval", "select_episodes"]
