"""Scenario zoo + the §6 feedback-loop study, under the regression gate.

Two lanes:

- ``scenario_zoo`` runs every quick-tier registry scenario inline (bench
  workers are pool children, so no nested pool) and gates on the verdict
  census: any drift in a domain rig, a guardrail threshold, or a fault
  plan shows up as a matched-count diff.
- ``feedback_study`` regenerates the §6 artifact at the registry seed:
  timer-driven checking oscillates (alternating trips for the whole run),
  dependency-driven checking damps after one genuine detection, and on a
  quiet host dependency checking eliminates every wasted idle check —
  the gated perf claim.
"""

from repro.bench.report import format_table
from repro.bench.results import scenario
from repro.scenarios import run_scenario, select_scenarios
from repro.scenarios.feedback import run_feedback_study

SEED = 17
DURATION_S = 40.0


@scenario(cost=5.0, seed=SEED)
def run_scenario_zoo(report=None):
    results = [run_scenario(spec) for spec in select_scenarios(quick=True)]

    census = {"trip": 0, "inconclusive": 0, "allow": 0}
    for result in results:
        census[result["overall"]] += 1
    metrics = {
        "scenarios_total": len(results),
        "scenarios_matched": sum(1 for r in results if r["matched"]),
        "verdict_trip": census["trip"],
        "verdict_inconclusive": census["inconclusive"],
        "verdict_allow": census["allow"],
    }
    assert metrics["scenarios_matched"] == metrics["scenarios_total"] >= 24

    if report is not None:
        rows = [[r["name"], r["overall"],
                 "ok" if r["matched"] else "MISMATCH"] for r in results]
        report("scenario_zoo", format_table(
            ["scenario", "overall", "vs registry"], rows,
            title="quick-tier scenario zoo"))
    return metrics


@scenario(cost=4.0, seed=SEED)
def run_feedback_lane(report=None):
    timer = run_feedback_study("timer", seed=SEED, duration_s=DURATION_S)
    dependency = run_feedback_study("dependency", seed=SEED,
                                    duration_s=DURATION_S)
    idle_timer = run_feedback_study("timer", seed=SEED,
                                    duration_s=DURATION_S, quiet=True)
    idle_dependency = run_feedback_study("dependency", seed=SEED,
                                         duration_s=DURATION_S, quiet=True)

    metrics = {
        # The oscillation signature (timer) and the damping (dependency).
        "timer_trips": timer["trips"],
        "timer_alternations": timer["alternations"],
        "timer_converged": timer["converged"],
        "dependency_trips": dependency["trips"],
        "dependency_tail_trips": dependency["tail_trips"],
        "dependency_converged": dependency["converged"],
        "dependency_retry_debt_mbit": dependency["retry_debt_filed_mbit"],
        "timer_retry_debt_mbit": timer["retry_debt_filed_mbit"],
        # §6's perf claim: wasted checks on an idle metric.
        "idle_checks_timer": idle_timer["idle_checks"],
        "idle_checks_dependency": idle_dependency["idle_checks"],
        "checks_timer": idle_timer["checks_total"],
        "checks_dependency": idle_dependency["checks_total"],
        "idle_checks_eliminated": (idle_timer["idle_checks"]
                                   - idle_dependency["idle_checks"]),
    }
    # The §6 acceptance shape: timer oscillates, dependency damps, and the
    # dependency mode performs measurably fewer (here: zero) idle checks.
    assert metrics["timer_alternations"] >= 3
    assert not metrics["timer_converged"]
    assert metrics["dependency_converged"]
    assert metrics["dependency_tail_trips"] == 0
    assert metrics["idle_checks_dependency"] == 0
    assert metrics["idle_checks_eliminated"] > 0
    assert metrics["checks_dependency"] < metrics["checks_timer"]

    if report is not None:
        rows = [
            ["timer", timer["trips"], timer["alternations"],
             timer["tail_trips"], timer["converged"],
             idle_timer["checks_total"], idle_timer["idle_checks"]],
            ["dependency", dependency["trips"], dependency["alternations"],
             dependency["tail_trips"], dependency["converged"],
             idle_dependency["checks_total"],
             idle_dependency["idle_checks"]],
        ]
        report("feedback_study", format_table(
            ["mode", "trips", "alternations", "tail trips", "converged",
             "quiet-host checks", "quiet-host idle"],
            rows,
            title="§6 feedback study (seed {}, {:g}s)".format(SEED,
                                                              DURATION_S)))
    return metrics


def scenarios():
    return [("scenario_zoo", run_scenario_zoo),
            ("feedback_study", run_feedback_lane)]
