"""Fleet-scale Listing 2 — staged rollout with health gates, clean vs faulted.

The fleet counterpart of the chaos demo: the same canonical rollout (v1
report-only guardrail -> v2 enforcing, canary -> 25% -> 100%) runs twice
over a small quick-tier fleet.  The clean run must walk every stage and
land v2 on the whole fleet; the run with a corrupt-telemetry canary must
trip the inconclusive-rate gate at the first stage and roll the cohort
back through ``GuardrailManager.update()``.  Both reports are fully
deterministic — the regression gate keys on the gate measurements
themselves, so a drift in fleet health math shows up as a baseline diff.
"""

from repro.bench.report import format_table
from repro.bench.results import scenario
from repro.fleet.scenario import run_fleet_rollout

HOSTS = 4
SEED = 42


def _stage_rows(report):
    rows = []
    for entry in report["stages"]:
        gate = entry["gate"]
        digest = entry["digest"]
        rows.append([
            entry["stage"]["label"],
            entry["stage"]["target_hosts"],
            "PASS" if gate["passed"] else "TRIP",
            "{:.3f}".format(gate["measurements"]["violation_rate"]),
            "{:.3f}".format(gate["measurements"]["inconclusive_rate"]),
            digest["completed_ios"],
        ])
    return rows


@scenario(cost=1.5, seed=SEED)
def run_fleet(report=None):
    clean = run_fleet_rollout(hosts=HOSTS, seed=SEED, quick=True)
    faulted = run_fleet_rollout(hosts=HOSTS, seed=SEED, fault_hosts=1,
                                quick=True)

    canary_gate = faulted["stages"][0]["gate"]
    metrics = {
        "clean_status": clean["status"],
        "clean_stages_run": len(clean["stages"]),
        "clean_gates_passed": sum(
            1 for entry in clean["stages"] if entry["gate"]["passed"]),
        "clean_final_cohort": clean["stages"][-1]["stage"]["target_hosts"],
        "clean_completed_ios": sum(
            entry["digest"]["completed_ios"] for entry in clean["stages"]),
        "faulted_status": faulted["status"],
        "faulted_halt_stage": faulted["rolled_back_at_stage"],
        "faulted_stages_run": len(faulted["stages"]),
        "faulted_rollback_hosts": faulted["stages"][-1]["rollback"]["hosts"],
        "canary_inconclusive_delta": round(
            canary_gate["measurements"]["inconclusive_rate_delta"], 6),
        "canary_violation_delta": round(
            canary_gate["measurements"]["violation_rate_delta"], 6),
        "baseline_completed_ios": clean["baseline"]["completed_ios"],
    }

    # The clean fleet takes v2 everywhere; the corrupt canary halts the
    # rollout at the first gate and rolls back exactly the canary cohort.
    assert metrics["clean_status"] == "completed"
    assert metrics["clean_gates_passed"] == metrics["clean_stages_run"]
    assert metrics["clean_final_cohort"] == HOSTS
    assert metrics["faulted_status"] == "rolled_back"
    assert metrics["faulted_halt_stage"] == "canary"
    assert metrics["faulted_stages_run"] == 1
    assert metrics["faulted_rollback_hosts"] == 1
    # The canary goes blind, not loud: NaN telemetry is inconclusive.
    assert metrics["canary_inconclusive_delta"] > 0.5
    assert metrics["canary_violation_delta"] <= 0.5

    if report is not None:
        lines = [format_table(
            ["stage", "cohort", "gate", "viol/host-s", "inconcl/host-s",
             "IOs"],
            _stage_rows(clean),
            title="clean rollout ({} hosts, seed {})".format(HOSTS, SEED))]
        lines.append(format_table(
            ["stage", "cohort", "gate", "viol/host-s", "inconcl/host-s",
             "IOs"],
            _stage_rows(faulted),
            title="faulted rollout (1 corrupt-telemetry canary)"))
        lines.append("faulted timeline:")
        for event in faulted["timeline"]:
            lines.append("  t={:>5.1f}s  {}".format(
                event["time_s"], event["event"]))
        report("fleet_rollout", "\n".join(lines))
    return metrics


def scenarios():
    return [("fleet_rollout", run_fleet)]
