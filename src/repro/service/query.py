"""Typed queries over a fleet results store.

Every query reads the store alone — no live fleet, no controller — and
every one is answerable *mid-run* (WAL mode lets readers watch a store a
service is still writing).  The flagship query, :func:`regenerate_report`,
rebuilds the full ``grctl fleet --json`` rollout report from stored rows:
host digests round-trip exactly (:meth:`HostDigest.to_row`/``from_row``),
cohort merges replay in the same (round, host) order the live controller
used, and gates re-evaluate from the same config — so the regenerated
report is byte-identical to the live one.

Aggregations over rounds past the retention horizon fall back to the
downsampled time buckets; results that had to touch a bucket only
partially covering the requested range are flagged ``approximate``.
"""

import collections
import functools
import json

from repro.fleet.aggregate import FleetDigest, HostDigest, none_if_nan
from repro.fleet.rollout import GateConfig
from repro.service.store import StoreError, digest_from_bucket_row


def resolve_run(store, run_id=None):
    """The requested (or latest) run row; StoreError when the store is empty."""
    if run_id is None:
        run_id = store.latest_run_id()
        if run_id is None:
            raise StoreError("store {!r} has no runs".format(store.path))
    return store.run(run_id)


# -- aggregation over the raw/downsampled seam ------------------------------


def merged_digest(store, run_id, start_round, end_round, host_ids=None,
                  round_ns=None):
    """Fold stored digests over ``[start_round, end_round)`` into one
    :class:`FleetDigest`.

    Raw rows merge in (round, host) order — the live controller's order.
    Rounds with no raw rows are served from buckets; a bucket that only
    partially overlaps the range is still folded in (its rounds cannot be
    split) and marks the result approximate.  Returns ``(digest, meta)``
    where ``meta`` reports coverage: raw round count, buckets used, and
    the ``approximate`` flag.
    """
    if round_ns is None:
        round_ns = store.run(run_id)["round_ns"]
    digest = FleetDigest(round_ns)
    raw_rounds = set()
    for row in store.digest_rows(run_id, start_round, end_round):
        if host_ids is not None and row["host_id"] not in host_ids:
            continue
        digest.merge_host(HostDigest.from_row(row))
        raw_rounds.add(row["round_index"])
    buckets_used = 0
    approximate = False
    for row in store.bucket_rows(run_id, start_round, end_round):
        if host_ids is not None and row["host_id"] not in host_ids:
            continue
        if row["start_round"] in raw_rounds:
            continue  # seam overlap: the raw side already covers this
        digest.merge_host(digest_from_bucket_row(row), rounds=row["rounds"])
        buckets_used += 1
        if row["start_round"] < start_round or row["end_round"] > end_round:
            approximate = True
    meta = {"raw_rounds": len(raw_rounds), "buckets": buckets_used,
            "approximate": approximate}
    return digest, meta


# -- queries ----------------------------------------------------------------


def run_status(store, run_id=None):
    """Live rollout/soak status: watermark, phase, fleet totals so far."""
    run = resolve_run(store, run_id)
    run_id = run["run_id"]
    totals = {"checks": 0, "violations": 0, "inconclusive": 0,
              "completed_ios": 0}
    last_time_ns = 0
    committed = -1
    for row in store.round_rows(run_id):
        for key in totals:
            totals[key] += row[key]
        last_time_ns = max(last_time_ns, row["time_ns"])
        committed = max(committed, row["round_index"])
    phases = store.phase_rows(run_id)
    current_phase = None
    for row in phases:
        if row["start_round"] <= committed:
            current_phase = {"kind": row["kind"], "label": row["label"],
                             "target_hosts": row["target_hosts"]}
    host_seconds = (committed + 1) * run["hosts"] * run["round_ns"] / 1e9
    return {
        "run": run_id,
        "kind": run["kind"],
        "status": run["status"],
        "hosts": run["hosts"],
        "committed_round": run["committed_round"],
        "total_rounds": run["total_rounds"],
        "time_s": last_time_ns / 1e9,
        "phase": current_phase,
        "rolled_back_at_stage": run["rolled_back_at"],
        "totals": totals,
        "violation_rate": (totals["violations"] / host_seconds
                           if host_seconds else 0.0),
        "inconclusive_rate": (totals["inconclusive"] / host_seconds
                              if host_seconds else 0.0),
    }


def stage_rates(store, run_id=None):
    """Per-phase violation/inconclusive rates and latency, mid-run safe."""
    run = resolve_run(store, run_id)
    run_id = run["run_id"]
    out = []
    for row in store.phase_rows(run_id):
        cohort = None
        if row["kind"] in ("baseline", "rollback"):
            host_ids = None
        else:
            host_ids = set(range(row["target_hosts"]))
            cohort = row["target_hosts"]
        digest, meta = merged_digest(
            store, run_id, row["start_round"], row["end_round"],
            host_ids=host_ids, round_ns=run["round_ns"])
        entry = {
            "kind": row["kind"],
            "label": row["label"],
            "rounds": [row["start_round"], row["end_round"]],
            "cohort_hosts": cohort if cohort is not None else run["hosts"],
            "violation_rate": digest.violation_rate(),
            "inconclusive_rate": digest.inconclusive_rate(),
            "p95_us": none_if_nan(digest.p95_us()),
            "mean_latency_us": none_if_nan(digest.mean_latency_us()),
            "completed_ios": digest.completed_ios,
            "coverage": meta,
        }
        out.append(entry)
    return {"run": run_id, "phases": out}


def latency_trend(store, run_id=None):
    """Per-round p95/rate series; coarse bucket points past the horizon.

    The series is ordered by time: one point per downsampled bucket
    (flagged ``downsampled``), then one point per raw round.  Rates use
    host-second denominators either way, so the seam is visible only as a
    change of grain, not of units.  Every stored row is read and decoded
    once: one pass over the raw rows, one over the bucket rows.
    """
    run = resolve_run(store, run_id)
    run_id = run["run_id"]
    round_s = run["round_ns"] / 1e9
    empty_digest = functools.partial(FleetDigest, run["round_ns"])
    # round_index -> FleetDigest, filled in ascending (SQL) order
    raw_digests = collections.defaultdict(empty_digest)
    for row in store.digest_rows(run_id):
        raw_digests[row["round_index"]].merge_host(HostDigest.from_row(row))
    bucket_digests = collections.defaultdict(empty_digest)
    for row in store.bucket_rows(run_id):
        if row["start_round"] in raw_digests:
            continue
        bucket_digests[row["start_round"], row["end_round"]].merge_host(
            digest_from_bucket_row(row), rounds=row["rounds"])
    points = [_trend_point(start, end, round_s, digest, downsampled=True)
              for (start, end), digest in sorted(bucket_digests.items())]
    points.extend(
        _trend_point(round_index, round_index + 1, round_s, digest,
                     downsampled=False)
        for round_index, digest in raw_digests.items())
    return {"run": run_id, "round_s": round_s, "points": points}


def _trend_point(start, end, round_s, digest, downsampled):
    return {
        "rounds": [start, end],
        "time_s": end * round_s,
        "downsampled": downsampled,
        "violation_rate": digest.violation_rate(),
        "inconclusive_rate": digest.inconclusive_rate(),
        "p95_us": none_if_nan(digest.p95_us()),
        "completed_ios": digest.completed_ios,
        "host_seconds": digest.host_seconds(),
    }


def gate_margins(store, run_id=None):
    """Every gate verdict with its margin to each health-gate bound.

    Positive margins mean headroom; a negative margin is the axis that
    tripped (or would have, had another axis not tripped first).
    """
    run = resolve_run(store, run_id)
    run_id = run["run_id"]
    gate_config = None
    if run["plan"] is not None:
        gate_config = run["plan"]["gate"]
    out = []
    for row in store.gate_rows(run_id):
        measurements = json.loads(row["measurements"])
        margins = {}
        if gate_config is not None:
            margins["violation_rate_delta"] = (
                gate_config["max_violation_rate_delta"]
                - measurements["violation_rate_delta"])
            margins["inconclusive_rate_delta"] = (
                gate_config["max_inconclusive_rate_delta"]
                - measurements["inconclusive_rate_delta"])
            ratio = measurements.get("p95_ratio")
            margins["p95_ratio"] = (None if ratio is None
                                    else gate_config["max_p95_ratio"] - ratio)
        out.append({
            "stage": row["stage"],
            "round": row["round_index"],
            "passed": bool(row["passed"]),
            "reasons": json.loads(row["reasons"]),
            "measurements": measurements,
            "margins": margins,
        })
    return {"run": run_id, "gate": gate_config, "gates": out}


def rollback_timeline(store, run_id=None):
    """The halt-and-rollback story: trips, rollback spans, settles."""
    run = resolve_run(store, run_id)
    run_id = run["run_id"]
    wanted = ("gate.trip", "rollback.start", "rollback.done")
    entries = [json.loads(row["entry"]) for row in store.event_rows(run_id)
               if row["event"] in wanted]
    return {"run": run_id, "rolled_back_at_stage": run["rolled_back_at"],
            "events": entries}


def autopilot_changes(store, run_id=None):
    """What the autopilot changed and why: every proposal with its fate.

    Each entry carries the proposal's machine-readable provenance (the
    observed band, sample count, and prior threshold it was mined from)
    and, when it was deployed through a rollout, that run's outcome —
    including the tripped gate's reasons for a rolled-back proposal.
    ``run_id`` restricts to proposals whose deploy run matches (default:
    every proposal in the store).
    """
    out = []
    for row in store.proposal_rows():
        if run_id is not None and row["deploy_run"] != run_id:
            continue
        entry = {
            "proposal": row["proposal_id"],
            "kind": row["kind"],
            "guardrail": row["guardrail"],
            "version": row["version"],
            "verdict": row["verdict"],
            "deploy_run": row["deploy_run"],
            "provenance": json.loads(row["provenance"]),
            "spec": row["spec"],
        }
        if row["deploy_run"] is not None:
            run = store.run(row["deploy_run"])
            deploy = {"status": run["status"],
                      "rolled_back_at_stage": run["rolled_back_at"]}
            reasons = []
            for gate_row in store.gate_rows(row["deploy_run"]):
                if not gate_row["passed"]:
                    reasons.extend(json.loads(gate_row["reasons"]))
            deploy["gate_trip_reasons"] = reasons
            entry["deploy"] = deploy
        out.append(entry)
    return {"proposals": out}


def list_runs(store, run_id=None):
    """All runs in the store (``run_id`` ignored; present for CLI symmetry)."""
    out = []
    for run in store.runs():
        out.append({
            "run": run["run_id"],
            "kind": run["kind"],
            "status": run["status"],
            "hosts": run["hosts"],
            "committed_round": run["committed_round"],
            "total_rounds": run["total_rounds"],
        })
    return {"runs": out}


# -- full report regeneration ----------------------------------------------


def regenerate_report(store, run_id=None):
    """Rebuild the exact ``grctl fleet --json`` report from stored rows.

    Requires a finalized rollout run whose rounds are all still raw
    (retention must not have downsampled them — exactness needs the
    original digests).  Byte-identity with the live report is the store's
    acceptance contract, asserted in tests and CI.
    """
    run = resolve_run(store, run_id)
    run_id = run["run_id"]
    if run["kind"] != "rollout":
        raise StoreError(
            "run {} is a {} run; only rollouts have reports".format(
                run_id, run["kind"]))
    if run["status"] == "running":
        raise StoreError(
            "run {} is still running (committed through round {}); "
            "finalize or resume it first".format(run_id,
                                                 run["committed_round"]))
    raw = store.raw_round_indexes(run_id)
    expected = list(range(run["final_rounds"]))
    if raw != expected:
        raise StoreError(
            "run {} has {} raw rounds of {}; retention downsampled part of "
            "the run, exact report regeneration is no longer possible"
            .format(run_id, len(raw), len(expected)))

    plan = run["plan"]
    gate = GateConfig(**plan["gate"])
    round_ns = run["round_ns"]
    phases = [dict(row) for row in store.phase_rows(run_id)]

    def fold(phase, host_ids=None):
        digest, _ = merged_digest(store, run_id, phase["start_round"],
                                  phase["end_round"], host_ids=host_ids,
                                  round_ns=round_ns)
        return digest

    baseline_digest = None
    stage_reports = []
    plan_stages = list(plan["stages"])
    stage_index = 0
    for phase in phases:
        if phase["kind"] == "baseline":
            baseline_digest = fold(phase)
        elif phase["kind"] == "stage":
            cohort = fold(phase, host_ids=set(range(phase["target_hosts"])))
            verdict = gate.evaluate(baseline_digest, cohort)
            stage_reports.append({
                "stage": plan_stages[stage_index],
                "digest": cohort.to_dict(),
                "gate": verdict.to_dict(),
            })
            stage_index += 1
        elif phase["kind"] == "rollback":
            settle = fold(phase)
            stage_reports[-1]["rollback"] = {
                "hosts": phase["target_hosts"],
                "digest": settle.to_dict(),
            }
    timeline = [json.loads(row["entry"]) for row in store.event_rows(run_id)]
    return {
        "status": run["status"],
        "rolled_back_at_stage": run["rolled_back_at"],
        "hosts": run["hosts"],
        "rounds": run["final_rounds"],
        "round_s": round_ns / 1e9,
        "versions": run["versions"],
        "plan": plan,
        "baseline": baseline_digest.to_dict(),
        "stages": stage_reports,
        "timeline": timeline,
        "scenario": run["scenario"],
    }


#: CLI registry: ``grctl query <name>``.
QUERIES = {
    "status": run_status,
    "stages": stage_rates,
    "trend": latency_trend,
    "gates": gate_margins,
    "rollbacks": rollback_timeline,
    "runs": list_runs,
    "report": regenerate_report,
    "autopilot": autopilot_changes,
}


__all__ = [
    "QUERIES",
    "autopilot_changes",
    "gate_margins",
    "latency_trend",
    "list_runs",
    "merged_digest",
    "regenerate_report",
    "resolve_run",
    "rollback_timeline",
    "run_status",
    "stage_rates",
]
