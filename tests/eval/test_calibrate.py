"""Calibration: the committed gate defaults are reproducible arithmetic.

Everything here replays the committed full-tier baseline document —
no simulation — so these tests also pin the baseline itself: if
``EVAL_baseline.json`` is regenerated with different behaviour, the
feasible bands move and the defaults stop being self-reproducing.
"""

import copy
import os

import pytest

from repro.eval.calibrate import calibrate, compare_configs, evaluate_config
from repro.eval.episodes import fleet_verdict
from repro.eval.results import load_document
from repro.fleet.rollout import GateConfig
from repro.fleet.scenario import AXIS_BY_FAULT_KIND

BASELINE = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "EVAL_baseline.json")

#: The pre-calibration default that false-tripped six clean full-fleet
#: rollouts (including seed 7) on p95 latency noise.
OLD_GATE = GateConfig(max_p95_ratio=1.75)


@pytest.fixture(scope="module")
def document():
    return load_document(BASELINE)


def fleet_results(document):
    return [r for r in document["episodes"] if r["kind"] == "fleet"]


class TestCalibrate:
    def test_committed_defaults_are_self_reproducing(self, document):
        report = calibrate(document)
        assert not report["changed"]
        assert report["recommended"] == GateConfig().to_dict()
        for axis, band in report["axes"].items():
            assert band["how"].startswith("kept"), (axis, band["how"])
            # The band is feasible: noise ceiling under signal floor.
            assert band["clean_max"] < band["fault_min"]
        assert report["verification"]["passed"]
        assert report["verification"]["clean_trips"] == 0
        assert report["verification"]["missed_faults"] == 0

    def test_calibrating_the_old_gate_reproduces_the_defaults(self, document):
        # The committed defaults are not hand-tuned: starting from the
        # miscalibrated pre-PR config lands exactly on them.
        report = calibrate(document, current=OLD_GATE)
        assert report["changed"]
        assert report["recommended"] == GateConfig().to_dict()
        assert report["axes"]["p95"]["how"] == \
            "recalibrated to the band log-midpoint"
        assert report["verification"]["passed"]

    def test_operating_curve_is_monotone(self, document):
        report = calibrate(document)
        for band in report["axes"].values():
            curve = band["operating_curve"]
            trips = [point["clean_false_trips"] for point in curve]
            misses = [point["fault_misses"] for point in curve]
            assert trips == sorted(trips, reverse=True)
            assert misses == sorted(misses)
            # Endpoints: the loosest threshold misses every fault, and
            # some threshold separates perfectly (the band is feasible).
            assert misses[-1] == band["fault_episodes"]
            assert any(point["clean_false_trips"] == 0
                       and point["fault_misses"] == 0 for point in curve)

    def test_stripped_stages_fail_loudly(self, document):
        doctored = copy.deepcopy(document)
        for result in fleet_results(doctored):
            result["stages"] = []
        with pytest.raises(ValueError, match="without recorded stage"):
            calibrate(doctored)


class TestSeedSevenRegression:
    """The motivating bug: seed-7 clean full rollout must not trip."""

    def test_seed7_clean_rollout_allows_under_the_defaults(self, document):
        episode = next(r for r in fleet_results(document)
                       if r["id"] == "fleet-full-clean-s07")
        assert episode["expected"] == "allow"
        verdict = fleet_verdict(GateConfig(), episode["stages"])
        assert verdict["verdict"] == "allow"

    def test_seed7_tripped_under_the_old_gate(self, document):
        episode = next(r for r in fleet_results(document)
                       if r["id"] == "fleet-full-clean-s07")
        verdict = fleet_verdict(OLD_GATE, episode["stages"])
        assert verdict["verdict"] == "trip"
        assert verdict["tripped_axes"] == ["p95"]


class TestEvaluateAndCompare:
    def test_defaults_separate_every_labelled_episode(self, document):
        results = fleet_results(document)
        outcome = evaluate_config(GateConfig(), results)
        assert outcome["passed"]
        assert all(entry["correct"] for entry in outcome["per_episode"])

    def test_old_gate_false_trips_half_the_clean_full_seeds(self, document):
        # The EXPERIMENTS.md numbers: 6 of 12 clean full-fleet seeds
        # false-tripped under max_p95_ratio=1.75, zero under 16.0.
        outcome = evaluate_config(OLD_GATE, fleet_results(document))
        assert outcome["clean_trips"] == 6
        assert outcome["missed_faults"] == 0

    def test_compare_configs_is_deterministic_and_significant(self, document):
        diff = compare_configs(document, OLD_GATE, GateConfig())
        again = compare_configs(document, OLD_GATE, GateConfig())
        assert diff == again
        assert diff["b"]["correct"] == diff["n"]
        assert diff["a"]["correct"] == diff["n"] - 6
        assert diff["p_value"] < 0.05

    def test_every_fault_kind_trips_its_constructed_axis(self, document):
        for result in fleet_results(document):
            if not result["fault_hosts"]:
                continue
            verdict = fleet_verdict(GateConfig(), result["stages"])
            assert verdict["verdict"] == "trip", result["id"]
            assert AXIS_BY_FAULT_KIND[result["fault_kind"]] in \
                verdict["tripped_axes"], result["id"]
