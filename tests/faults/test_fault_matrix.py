"""The chaos matrix: every fault kind, injected into the demo scenario,
leaves the host running; seeded runs are deterministic; the CLI reports
containment."""

import io
import json

import pytest

from repro.bench.scenarios import run_faults_demo_scenario
from repro.faults.plan import FAULT_KINDS, FaultPlan
from repro.sim.units import SECOND
from repro.tools.grctl import main

# One representative plan per fault kind, all aimed at the demo scenario's
# supervised pick slot / the guardrail's LOAD key.
MATRIX = {
    "raise": "raise@storage.pick_device:start=3,stop=5",
    "nan": "nan@storage.pick_device:start=3,stop=5",
    "stall": "stall@storage.pick_device:start=3,stop=5,latency_us=5000",
    "stale": "stale@io_latency_us.tavg:start=4,stop=8",
    "corrupt": "corrupt@io_latency_us.tavg:start=4,stop=8",
}


def test_matrix_covers_every_fault_kind():
    assert set(MATRIX) == set(FAULT_KINDS)


@pytest.mark.parametrize("kind", sorted(MATRIX))
def test_every_fault_kind_is_contained(kind):
    plan = FaultPlan.from_flags([MATRIX[kind]], seed=11)
    result = run_faults_demo_scenario(duration_s=10, fault_plan=plan)
    # The run completed: the workload kept flowing to the end.
    assert result.completed > 1000
    assert result.kernel.now == 10 * SECOND
    assert result.injector.injected_by_kind.get(kind, 0) > 0
    # Policy faults are absorbed by the supervisor; store faults surface as
    # inconclusive/violating checks — either way nothing escaped.
    if kind in ("raise", "nan", "stall"):
        counter = {"raise": "crashes", "nan": "invalid_outputs",
                   "stall": "slow_calls"}[kind]
        assert result.policy_supervisor.stats()[counter] > 0
    else:
        assert result.monitor.check_count == 10


def test_crash_plan_trips_and_rearms_deterministically():
    def run():
        plan = FaultPlan.from_flags([MATRIX["raise"]], seed=11)
        result = run_faults_demo_scenario(duration_s=10, fault_plan=plan)
        breaker = result.policy_supervisor.breaker
        return (breaker.snapshot(), result.injector.injected,
                result.completed)

    first, second = run(), run()
    assert first == second
    snapshot, injected, _completed = first
    assert snapshot["trips"] >= 1
    transitions = snapshot["transitions"]
    # The breaker tripped inside the fault window and scheduled its re-arm
    # exactly one base backoff later — virtual time, so exact.
    trip, rearm = transitions[0], transitions[1]
    assert (trip["from"], trip["to"]) == ("closed", "open")
    assert (rearm["from"], rearm["to"]) == ("open", "half_open")
    assert 3 * SECOND <= trip["time"] < 5 * SECOND
    assert rearm["time"] == trip["time"] + 1 * SECOND
    assert all(3 * SECOND <= e["time"] < 5 * SECOND for e in injected)


def test_clean_run_matches_with_and_without_injector_installed():
    # An installed plan whose windows never open must not perturb the run:
    # same seed, same completions, same latency series.
    clean = run_faults_demo_scenario(duration_s=6)
    armed = run_faults_demo_scenario(
        duration_s=6,
        fault_plan=FaultPlan.from_flags(["raise@storage.pick_device:start=99"],
                                        seed=11))
    assert armed.injector.injected_count == 0
    assert armed.completed == clean.completed
    assert (armed.kernel.metrics.series("storage.io_latency_us").values
            == clean.kernel.metrics.series("storage.io_latency_us").values)


# -- the grctl faults CLI ---------------------------------------------------


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_cli_list_names_every_kind():
    code, output = run_cli(["faults", "--list"])
    assert code == 0
    for kind in FAULT_KINDS:
        assert kind in output


def test_cli_contained_run_reports_breaker_timeline(tmp_path):
    accounting = tmp_path / "faults.json"
    code, output = run_cli([
        "faults", "--fault", MATRIX["raise"], "--seed", "11",
        "--duration", "8", "--json", str(accounting)])
    assert code == 0
    assert "injected:" in output
    assert "closed -> open" in output
    assert "contained:" in output
    data = json.loads(accounting.read_text())
    assert data["policy"]["breaker"]["trips"] >= 1
    assert data["injected"]["by_kind"]["raise"] > 0


def test_cli_plan_file_round_trip(tmp_path):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(
        FaultPlan.from_flags([MATRIX["corrupt"]], seed=3).to_dict()))
    code, output = run_cli(["faults", "--plan", str(plan_path),
                            "--duration", "9"])
    assert code == 0
    assert "contained:" in output


def test_cli_usage_errors_exit_2(tmp_path):
    assert run_cli(["faults", "--fault", "explode@slot"])[0] == 2
    assert run_cli(["faults", "--fault", "raise@no.such.slot"])[0] == 2
    assert run_cli(["faults", "--plan", str(tmp_path / "missing.json")])[0] == 2
    assert run_cli(["faults", "--fault", "raise@x", "--plan", "y"])[0] == 2
    assert run_cli(["faults", "--threshold", "0"])[0] == 2
