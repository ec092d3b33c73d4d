"""Crash-only guardrails — fault injection contained by supervision.

The chaos counterpart of the observability demo: the same synthetic
storage kernel runs once clean and once under a seeded fault plan (policy
crashes mid-window, then probabilistic corrupt reads under the guardrail's
LOAD key).  The claim being regenerated is the crash-only design point:
every injected fault is contained, the circuit breaker trips and re-arms
at exact virtual times, the A2 REPLACE path swaps in the heuristic
fallback, and the workload completes exactly as many I/Os as the clean
run.
"""

from repro.bench.report import format_table
from repro.bench.results import scenario
from repro.bench.scenarios import run_faults_demo_scenario
from repro.faults.plan import FaultPlan
from repro.sim.units import SECOND

DURATION_S = 10
PLAN_FLAGS = (
    "raise@storage.pick_device:start=3,stop=5",
    "corrupt@io_latency_us.tavg:start=6,stop=8,p=0.5",
)


@scenario(cost=0.5, seed=11)
def run_faults(report=None):
    clean = run_faults_demo_scenario(duration_s=DURATION_S)
    plan = FaultPlan.from_flags(PLAN_FLAGS, seed=11)
    faulted = run_faults_demo_scenario(duration_s=DURATION_S,
                                       fault_plan=plan)

    supervisor = faulted.policy_supervisor
    breaker = supervisor.breaker.snapshot()
    transitions = breaker["transitions"]
    metrics = {
        "clean_completed_ios": clean.completed,
        "faulted_completed_ios": faulted.completed,
        "injected": faulted.injector.injected_count,
        "injected_raise": faulted.injector.injected_by_kind.get("raise", 0),
        "injected_corrupt": faulted.injector.injected_by_kind.get("corrupt", 0),
        "contained_crashes": supervisor.crash_count,
        "fallback_calls": supervisor.fallback_call_count,
        "replaces": supervisor.replace_count,
        "breaker_trips": breaker["trips"],
        "breaker_final_state": breaker["state"],
        "trip_time_us": transitions[0]["time"] // 1000 if transitions else None,
        "rearm_time_us": transitions[1]["time"] // 1000
        if len(transitions) > 1 else None,
        "guardrail_checks": faulted.monitor.check_count,
        "guardrail_inconclusive": faulted.monitor.inconclusive_count,
    }

    # Containment, not survival-by-luck: faults were actually injected, the
    # breaker tripped and came back, and the workload lost nothing.
    assert metrics["injected_raise"] >= 3
    assert metrics["injected_corrupt"] >= 1
    assert metrics["contained_crashes"] == metrics["fallback_calls"]
    assert metrics["replaces"] >= 1
    assert metrics["breaker_final_state"] == "closed"
    assert metrics["faulted_completed_ios"] == metrics["clean_completed_ios"]
    assert 3_000_000 <= metrics["trip_time_us"] < 5_000_000
    assert metrics["rearm_time_us"] == metrics["trip_time_us"] + 1_000_000

    if report is not None:
        rows = [["clean", clean.completed, 0, 0, 0],
                ["faulted", faulted.completed,
                 faulted.injector.injected_count, supervisor.crash_count,
                 supervisor.replace_count]]
        lines = [format_table(
            ["run", "completed IOs", "injected", "contained", "replaces"],
            rows, title="chaos demo ({}s, seed 11)".format(DURATION_S))]
        lines.append("breaker timeline:")
        for move in transitions:
            lines.append("  t={:>8.3f}s  {} -> {}".format(
                move["time"] / SECOND, move["from"], move["to"]))
        report("faults_containment", "\n".join(lines))
    return metrics


def scenarios():
    return [("faults_containment", run_faults)]
