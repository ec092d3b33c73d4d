"""Episode semantics: verdict rules and offline-gate exactness."""

import pytest

from repro.eval.episodes import (
    EXPECTED_BY_REGIME,
    HOST_FAMILIES,
    fleet_verdict,
    run_fleet_episode,
    run_host_episode,
)
from repro.fleet.rollout import GateConfig


class TestHostEpisodes:
    def test_clean_regime_allows(self):
        outcome = run_host_episode("P1", "clean", 11)
        assert outcome["verdict"] == "allow"
        assert outcome["violations"] == 0
        assert outcome["inconclusive"] == 0
        assert outcome["checks"] > 0

    def test_faulty_regime_trips_and_dispatches(self):
        outcome = run_host_episode("P1", "faulty", 11)
        assert outcome["verdict"] == "trip"
        assert outcome["violations"] > 0
        assert outcome["actions_dispatched"] > 0

    def test_blinded_regime_is_inconclusive_not_a_trip(self):
        # The corrupt fault NaNs the watched key: the rule runtime must
        # report "cannot evaluate", never a violation.
        outcome = run_host_episode("P3", "blinded", 11)
        assert outcome["verdict"] == "inconclusive"
        assert outcome["violations"] == 0
        assert outcome["inconclusive"] > 0

    def test_a4_family_dispatches_deprioritize_once_under_cooldown(self):
        outcome = run_host_episode("A4", "faulty", 11)
        assert outcome["verdict"] == "trip"
        assert outcome["action"] == "A4"
        assert outcome["actions_dispatched"] == 1

    def test_deterministic_for_a_seed(self):
        assert run_host_episode("P4", "faulty", 11) == \
            run_host_episode("P4", "faulty", 11)

    def test_every_family_meets_its_label(self):
        for family in HOST_FAMILIES:
            for regime, expected in EXPECTED_BY_REGIME.items():
                outcome = run_host_episode(family, regime, 12)
                assert outcome["verdict"] == expected, \
                    (family, regime, outcome)

    def test_unknown_family_and_regime_rejected(self):
        with pytest.raises(ValueError, match="unknown host episode family"):
            run_host_episode("P9", "clean", 1)
        with pytest.raises(ValueError, match="unknown regime"):
            run_host_episode("P1", "spicy", 1)


class TestOfflineGate:
    def test_tripped_axes_on_recorded_measurements(self):
        gate = GateConfig(max_violation_rate_delta=0.5,
                          max_inconclusive_rate_delta=0.5,
                          max_p95_ratio=2.0, min_checks=4)
        base = {"violation_rate_delta": 0.0, "inconclusive_rate_delta": 0.0,
                "p95_ratio": 1.0, "checks": 10}
        assert gate.tripped_axes(base) == []
        assert gate.tripped_axes(dict(base, p95_ratio=2.1)) == ["p95"]
        assert gate.tripped_axes(
            dict(base, violation_rate_delta=0.6,
                 inconclusive_rate_delta=0.6)) == \
            ["violation", "inconclusive"]
        # Below the sample floor nothing trips (insufficient data passes).
        assert gate.tripped_axes(dict(base, p95_ratio=99.0, checks=3)) == []
        # A dark baseline (no p95 ratio) cannot trip the latency axis.
        assert gate.tripped_axes(dict(base, p95_ratio=None)) == []

    def test_fleet_verdict_trips_at_the_first_bad_stage(self):
        gate = GateConfig(max_p95_ratio=2.0)
        stages = [
            {"stage": "canary", "measurements": {
                "violation_rate_delta": 0.0, "inconclusive_rate_delta": 0.0,
                "p95_ratio": 1.0, "checks": 10}},
            {"stage": "25%", "measurements": {
                "violation_rate_delta": 0.0, "inconclusive_rate_delta": 0.0,
                "p95_ratio": 3.0, "checks": 10}},
            {"stage": "100%", "measurements": {
                "violation_rate_delta": 9.0, "inconclusive_rate_delta": 0.0,
                "p95_ratio": 1.0, "checks": 10}},
        ]
        verdict = fleet_verdict(gate, stages)
        assert verdict == {"verdict": "trip", "tripped_stage": "25%",
                           "tripped_axes": ["p95"]}
        assert fleet_verdict(GateConfig(max_p95_ratio=99.0,
                                        max_violation_rate_delta=99.0),
                             stages)["verdict"] == "allow"


class TestFleetEpisodes:
    """Offline replay must agree exactly with a live gated rollout.

    A gate only halts a rollout — it never perturbs the simulation — so
    the permissive-gate recording replays any candidate config exactly.
    """

    def test_faulted_episode_matches_live_rollout(self):
        from repro.fleet.scenario import run_fleet_rollout

        live = run_fleet_rollout(hosts=4, seed=42, fault_hosts=1,
                                 fault_kind="corrupt", quick=True)
        stages = run_fleet_episode(4, 42, 1, "corrupt", True)
        verdict = fleet_verdict(GateConfig(), stages)
        assert live["status"] == "rolled_back"
        assert verdict["verdict"] == "trip"
        assert verdict["tripped_stage"] == live["rolled_back_at_stage"]
        assert verdict["tripped_axes"] == ["inconclusive"]
        # The stages the live run executed have byte-identical
        # measurements in the permissive recording.
        for live_stage, recorded in zip(live["stages"], stages):
            assert live_stage["gate"]["measurements"] == \
                recorded["measurements"]
            assert live_stage["gate"]["passed"] == \
                (GateConfig().tripped_axes(recorded["measurements"]) == [])

    def test_clean_episode_matches_live_rollout(self):
        from repro.fleet.scenario import run_fleet_rollout

        live = run_fleet_rollout(hosts=4, seed=42, quick=True)
        stages = run_fleet_episode(4, 42, 0, None, True)
        assert live["status"] == "completed"
        assert fleet_verdict(GateConfig(), stages)["verdict"] == "allow"
        assert len(stages) == len(live["stages"])
        for live_stage, recorded in zip(live["stages"], stages):
            assert live_stage["gate"]["measurements"] == \
                recorded["measurements"]
