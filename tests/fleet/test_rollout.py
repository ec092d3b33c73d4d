"""Control plane: stage parsing, health gates, and the rollout state
machine (driven against a scripted in-memory runner — no kernels)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.aggregate import FleetDigest, HostDigest
from repro.fleet.rollout import (
    GateConfig,
    GuardrailVersion,
    RolloutController,
    RolloutPlan,
    parse_stages,
)
from repro.sim.units import SECOND

V1 = GuardrailVersion("g", 1, "spec v1")
V2 = GuardrailVersion("g", 2, "spec v2")


# -- parse_stages ----------------------------------------------------------


def test_parse_stages_labels_percents_and_counts():
    stages = parse_stages("canary:1,25%,12,100%", hosts=16)
    assert [(s.label, s.target_hosts) for s in stages] == [
        ("canary", 1), ("25%", 4), ("12", 12), ("100%", 16)]


def test_parse_stages_percent_rounds_up_and_clamps():
    stages = parse_stages("canary:1,10%,100%", hosts=8)
    # 10% of 8 = 0.8 -> ceil -> 1, same as canary -> dropped.
    assert [(s.label, s.target_hosts) for s in stages] == [
        ("canary", 1), ("100%", 8)]


def test_parse_stages_drops_non_growing_entries():
    stages = parse_stages("canary:1,25%,100%", hosts=4)
    assert [(s.label, s.target_hosts) for s in stages] == [
        ("canary", 1), ("100%", 4)]


def test_parse_stages_sets_default_bake():
    stages = parse_stages("canary:1,100%", hosts=4, default_bake=3)
    assert all(s.bake_rounds == 3 for s in stages)


@pytest.mark.parametrize("bad", [
    "", " , ", "canary:", ":3", "canary:zero", "0", "-2", "150%", "0%",
])
def test_parse_stages_rejects_malformed_entries(bad):
    with pytest.raises(ValueError):
        parse_stages(bad, hosts=8)


def test_parse_stages_collapses_duplicate_targets():
    assert [(s.label, s.target_hosts) for s in parse_stages("1,1", hosts=4)] \
        == [("1", 1)]


def test_parse_stages_rejects_empty_fleet():
    with pytest.raises(ValueError):
        parse_stages("canary:1", hosts=0)


# -- GateConfig ------------------------------------------------------------


def fleet_digest(violations=0, inconclusive=0, checks=None, host_rounds=4,
                 latencies=(100.0,) * 50):
    digest = FleetDigest(round_ns=1 * SECOND)
    host = HostDigest(0, 0, 1 * SECOND, version=1)
    host.checks = checks if checks is not None else host_rounds
    host.violations = violations
    host.inconclusive = inconclusive
    for latency in latencies:
        host.observe_io(latency, False, True)
    digest.merge_host(host)
    digest.host_rounds = host_rounds  # host-seconds denominator
    return digest


def test_gate_passes_healthy_cohort():
    gate = GateConfig()
    result = gate.evaluate(fleet_digest(), fleet_digest())
    assert result.passed and result.reasons == []


def test_gate_trips_on_violation_rate_delta():
    gate = GateConfig(max_violation_rate_delta=0.5)
    result = gate.evaluate(fleet_digest(violations=0),
                           fleet_digest(violations=4))  # 1.0/host-s
    assert not result.passed
    assert any("violation rate" in reason for reason in result.reasons)
    assert result.measurements["violation_rate_delta"] == pytest.approx(1.0)


def test_gate_trips_on_inconclusive_rate_delta():
    # NaN/missing telemetry shows up as inconclusive checks, never
    # violations; the gate must treat a blind guardrail as unhealthy.
    gate = GateConfig(max_inconclusive_rate_delta=0.5)
    result = gate.evaluate(fleet_digest(), fleet_digest(inconclusive=4))
    assert not result.passed
    assert any("inconclusive" in reason for reason in result.reasons)


def test_gate_trips_on_p95_ratio():
    gate = GateConfig(max_p95_ratio=1.75)
    result = gate.evaluate(
        fleet_digest(latencies=(100.0,) * 50),
        fleet_digest(latencies=(400.0,) * 50))
    assert not result.passed
    assert any("p95" in reason for reason in result.reasons)


def test_gate_min_checks_floor_passes_with_reason():
    gate = GateConfig(min_checks=10)
    result = gate.evaluate(fleet_digest(),
                           fleet_digest(violations=4, checks=4))
    assert result.passed
    assert any("insufficient" in reason for reason in result.reasons)


# Small shared value pools make ties (measurement == threshold) common.
_values = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, math.inf]),
                    st.floats(min_value=-10.0, max_value=10.0))
gates = st.builds(GateConfig, max_violation_rate_delta=_values,
                  max_inconclusive_rate_delta=_values, max_p95_ratio=_values,
                  min_checks=st.integers(min_value=0, max_value=5))
measurement_dicts = st.fixed_dictionaries(dict(
    {key: st.one_of(st.none(), _values) for _, key, _, _ in GateConfig.AXES},
    checks=st.integers(min_value=0, max_value=6)))


@settings(max_examples=300)
@given(gate=gates, measurements=measurement_dicts)
def test_an_axis_trips_exactly_when_its_margin_is_negative(gate,
                                                            measurements):
    margins = gate.margins(measurements)
    expected = [
        axis for axis, key, _, _ in GateConfig.AXES
        if measurements[key] is not None
        and measurements["checks"] >= gate.min_checks
        and margins[key] < 0
    ]
    assert gate.tripped_axes(measurements) == expected
    for axis, key, threshold_attr, _ in GateConfig.AXES:
        if measurements[key] is None:
            assert margins[key] is None
        else:  # a negative margin is exactly "over the bound"
            assert (margins[key] < 0) == \
                (measurements[key] > getattr(gate, threshold_attr))


@settings(max_examples=100)
@given(gate=gates,
       counts=st.tuples(*[st.integers(min_value=0, max_value=8)] * 5),
       latencies=st.tuples(*[st.lists(st.sampled_from([50.0, 100.0, 400.0]),
                                      max_size=20)] * 2))
def test_evaluate_gives_one_reason_per_tripped_axis(gate, counts, latencies):
    violations_a, violations_b, inconclusive_a, inconclusive_b, checks = counts
    result = gate.evaluate(
        fleet_digest(violations_a, inconclusive_a, latencies=latencies[0]),
        fleet_digest(violations_b, inconclusive_b, checks=checks,
                     latencies=latencies[1]))
    if checks < gate.min_checks:
        assert result.passed
        assert result.reasons == ["insufficient data ({} < {} checks)"
                                  .format(checks, gate.min_checks)]
        return
    tripped = gate.tripped_axes(result.measurements)
    # Reasons come in AXES order, each led by its axis name.
    assert [reason.split()[0] for reason in result.reasons] == tripped
    assert result.passed == (not tripped)


# -- RolloutController against a scripted runner ---------------------------


class ScriptedRunner:
    """A fleet stand-in: versions move via directives, digests are scripted.

    ``bad_hosts`` violate once per check *only while running version 2* —
    the canonical "new guardrail version misbehaves on this cohort" shape.
    """

    def __init__(self, hosts, bad_hosts=()):
        self.host_ids = list(range(hosts))
        self.versions = {host_id: 1 for host_id in self.host_ids}
        self.bad_hosts = set(bad_hosts)
        self.directive_log = []

    def step_round(self, round_index, until_ns, directives=None):
        directives = directives or {}
        if directives:
            self.directive_log.append((round_index, {
                host: [v["version"] for v in versions]
                for host, versions in sorted(directives.items())}))
        for host_id, versions in directives.items():
            self.versions[host_id] = versions[-1]["version"]
        digests = []
        for host_id in self.host_ids:
            digest = HostDigest(host_id, round_index, until_ns,
                                self.versions[host_id])
            digest.checks = 1
            if host_id in self.bad_hosts and self.versions[host_id] == 2:
                digest.violations = 1
            digest.observe_io(100.0, False, True)
            digests.append(digest)
        return digests


def controller(runner, stages="canary:1,50%,100%", baseline_rounds=2):
    plan = RolloutPlan(parse_stages(stages, len(runner.host_ids),
                                    default_bake=2),
                       baseline_rounds=baseline_rounds,
                       gate=GateConfig(max_violation_rate_delta=0.5))
    return RolloutController(runner, V1, V2, plan, round_ns=1 * SECOND)


def test_clean_rollout_reaches_full_fleet():
    runner = ScriptedRunner(8)
    report = controller(runner).run()
    assert report["status"] == "completed"
    assert report["rolled_back_at_stage"] is None
    assert [s["gate"]["passed"] for s in report["stages"]] == [True] * 3
    assert runner.versions == {h: 2 for h in range(8)}
    events = [e["event"] for e in report["timeline"]]
    assert events[0] == "baseline.start"
    assert events[-1] == "rollout.completed"
    # Directives: v2 to host 0, then hosts 1-3, then hosts 4-7.
    assert runner.directive_log == [
        (2, {0: [2]}), (4, {1: [2], 2: [2], 3: [2]}),
        (6, {4: [2], 5: [2], 6: [2], 7: [2]})]


def test_bad_canary_halts_and_rolls_back():
    runner = ScriptedRunner(8, bad_hosts={0})
    report = controller(runner).run()
    assert report["status"] == "rolled_back"
    assert report["rolled_back_at_stage"] == "canary"
    assert len(report["stages"]) == 1  # later stages never ran
    # Every updated host is back on v1; the rest never left it.
    assert runner.versions == {h: 1 for h in range(8)}
    events = [e["event"] for e in report["timeline"]]
    assert "gate.trip" in events and "rollback.done" in events
    assert "rollout.completed" not in events
    # The rollback directive re-applied v1 to the canary host: baseline
    # rounds 0-1, canary update at round 2, bake through round 3, trip,
    # rollback directive with the round-4 settle step.
    assert runner.directive_log[-1] == (4, {0: [1]})


def test_mid_stage_trip_rolls_back_whole_updated_cohort():
    # Canary host is fine; most of the 50% cohort misbehaves on v2 (the
    # gate measures the whole cohort, so a lone bad host among four is
    # diluted below the 0.5/host-s bound by design).
    runner = ScriptedRunner(8, bad_hosts={1, 2, 3})
    report = controller(runner).run()
    assert report["status"] == "rolled_back"
    assert report["rolled_back_at_stage"] == "50%"
    # All four updated hosts (0-3) roll back, not just the bad ones.
    assert runner.directive_log[-1] == (6, {0: [1], 1: [1], 2: [1], 3: [1]})
    assert runner.versions == {h: 1 for h in range(8)}
    rollback = report["stages"][-1]["rollback"]
    assert rollback["hosts"] == 4


def test_rollout_report_carries_versions_and_plan():
    report = controller(ScriptedRunner(4), stages="canary:1,100%").run()
    assert report["versions"]["old"]["version"] == 1
    assert report["versions"]["new"]["version"] == 2
    assert report["plan"]["baseline_rounds"] == 2
    assert report["hosts"] == 4
    assert report["rounds"] == 2 + 2 + 2  # baseline + two stage bakes


def test_guardrail_version_round_trips():
    version = GuardrailVersion("g", 3, "text")
    assert GuardrailVersion.from_dict(version.to_dict()).to_dict() == \
        version.to_dict()


def test_rollout_plan_validates():
    with pytest.raises(ValueError):
        RolloutPlan([], baseline_rounds=2)
    with pytest.raises(ValueError):
        RolloutPlan(parse_stages("1", hosts=2), baseline_rounds=0)
