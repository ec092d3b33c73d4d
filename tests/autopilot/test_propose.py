"""Proposal mining: quantiles, envelope clamps, provenance, synthesis."""

import pytest

from repro.autopilot.propose import (
    Proposal,
    build_tighten_spec,
    exact_quantile,
    mine_false_submit_samples,
    observed_band,
    propose_synthesis,
    propose_tightening,
    storage_policy_manifest,
)
from repro.core.compiler import GuardrailCompiler
from repro.core.synthesis import SYNTHESIS_SOURCES
from repro.fleet.aggregate import HostDigest
from repro.service.store import ResultsStore


# -- exact_quantile ----------------------------------------------------------


def test_exact_quantile_interpolates():
    samples = [0.0, 1.0, 2.0, 3.0]
    assert exact_quantile(samples, 0.0) == 0.0
    assert exact_quantile(samples, 1.0) == 3.0
    assert exact_quantile(samples, 0.5) == pytest.approx(1.5)
    assert exact_quantile([5.0], 0.99) == 5.0


def test_exact_quantile_is_order_independent():
    assert exact_quantile([3.0, 0.0, 2.0, 1.0], 0.25) == exact_quantile(
        [0.0, 1.0, 2.0, 3.0], 0.25)


def test_observed_band_summarizes_evidence():
    band = observed_band([0.1, 0.2, 0.3], 1.0)
    assert band == {"samples": 3, "quantile": 1.0, "quantile_value": 0.3,
                    "observed_min": 0.1, "observed_max": 0.3}


def test_exact_quantile_rejects_bad_input():
    with pytest.raises(ValueError, match="no samples"):
        exact_quantile([], 0.5)
    with pytest.raises(ValueError, match="quantile"):
        exact_quantile([1.0], 1.5)


# -- mining ------------------------------------------------------------------


def make_digest(host_id, round_index, version, submits, false_submits):
    digest = HostDigest(host_id, round_index, (round_index + 1) * 10 ** 9,
                        version)
    for i in range(submits):
        digest.observe_io(100.0, i < false_submits, True)
    return digest


def test_mining_filters_by_version_and_skips_empty(tmp_path):
    with ResultsStore(str(tmp_path / "s.sqlite")) as store:
        run_id = store.begin_run("autopilot.observe", {}, 10 ** 9, 3)
        store.commit_round(run_id, 0, 10 ** 9, [
            make_digest(0, 0, 1, 10, 1),   # 0.1, mined
            make_digest(1, 0, 2, 10, 5),   # wrong version, skipped
            make_digest(2, 0, 1, 0, 0),    # no submits, skipped
        ])
        samples = mine_false_submit_samples(store, [run_id], version=1)
        assert samples == [0.1]
        # Unfiltered mining sees both non-empty rows.
        assert mine_false_submit_samples(store, [run_id]) == [0.1, 0.5]


def test_mining_order_is_run_round_host(tmp_path):
    with ResultsStore(str(tmp_path / "s.sqlite")) as store:
        run_a = store.begin_run("autopilot.observe", {}, 10 ** 9, 2)
        store.commit_round(run_a, 0, 10 ** 9, [
            make_digest(0, 0, 1, 10, 1), make_digest(1, 0, 1, 10, 2)])
        store.commit_round(run_a, 1, 2 * 10 ** 9, [
            make_digest(0, 1, 1, 10, 3), make_digest(1, 1, 1, 10, 4)])
        run_b = store.begin_run("autopilot.observe", {}, 10 ** 9, 1)
        store.commit_round(run_b, 0, 10 ** 9, [make_digest(0, 0, 1, 10, 5)])
        # Run ids are sorted even when passed out of order.
        samples = mine_false_submit_samples(store, [run_b, run_a])
        assert samples == [0.1, 0.2, 0.3, 0.4, 0.5]


# -- tightening proposals ----------------------------------------------------


def test_proposal_tracks_quantile_times_margin():
    samples = [0.1] * 100
    proposal = propose_tightening(samples, 0.5, 2, quantile=0.99,
                                  margin=1.5, floor=0.05, max_step=1.0)
    assert proposal.provenance["threshold"] == pytest.approx(0.15)
    assert proposal.version == 2
    assert proposal.kind == "tighten"
    assert "0.15" in proposal.spec
    band = proposal.provenance["band"]
    assert band["samples"] == 100
    assert band["quantile_value"] == pytest.approx(0.1)
    assert proposal.provenance["prior_threshold"] == 0.5


def test_max_step_caps_the_shrink():
    proposal = propose_tightening([0.01] * 50, 0.5, 2, margin=1.5,
                                  floor=0.0, max_step=0.5)
    assert proposal.provenance["threshold"] == pytest.approx(0.25)


def test_floor_is_respected():
    proposal = propose_tightening([0.001] * 50, 0.5, 2, margin=1.5,
                                  floor=0.2, max_step=1.0)
    assert proposal.provenance["threshold"] == pytest.approx(0.2)


def test_converged_and_empty_propose_nothing():
    # Candidate at/above the prior threshold: nothing to propose.
    assert propose_tightening([0.4] * 50, 0.5, 2, margin=1.5) is None
    assert propose_tightening([], 0.5, 2) is None


def test_threshold_is_rounded_to_two_significant_figures():
    proposal = propose_tightening([0.123] * 50, 0.5, 2, margin=1.5,
                                  floor=0.0, max_step=1.0)
    # 0.123 * 1.5 = 0.1845 -> 0.18
    assert proposal.provenance["threshold"] == pytest.approx(0.18)


def test_proposed_spec_compiles():
    proposal = propose_tightening([0.1] * 50, 0.5, 3, margin=1.5)
    compiler = GuardrailCompiler()
    compiled = compiler.compile(proposal.spec)
    assert compiled


def test_guardrail_version_carries_provenance():
    proposal = propose_tightening([0.1] * 50, 0.5, 2)
    version = proposal.guardrail_version()
    assert version.version == 2
    assert version.provenance["kind"] == "tighten"
    data = version.to_dict()
    assert data["provenance"]["prior_threshold"] == 0.5
    # Hand-written versions still serialize without the key.
    from repro.fleet.scenario import fleet_versions
    assert "provenance" not in fleet_versions()[0].to_dict()


def test_build_tighten_spec_formats_threshold_plainly():
    assert "<= 0.25" in build_tighten_spec(0.25, 2)
    assert "v7" in build_tighten_spec(0.2, 7)


# -- synthesis proposals -----------------------------------------------------


def test_synthesis_proposals_from_storage_manifest():
    proposals = propose_synthesis(storage_policy_manifest())
    by_property = {p.provenance["property"]: p for p in proposals}
    # The storage manifest declares a reward metric (P4); P5 is always on.
    assert set(by_property) == {"P4", "P5"}
    for proposal in proposals:
        assert proposal.kind == "synthesize"
        assert proposal.guardrail.startswith("storage-")
        fields = set(proposal.provenance["manifest"])
        assert fields == set(SYNTHESIS_SOURCES[
            proposal.provenance["property"]])
        GuardrailCompiler().compile(proposal.spec)


def test_proposal_to_dict_round_trip_shape():
    proposal = Proposal("tighten", "g", 4, "spec", {"a": 1})
    assert proposal.to_dict() == {
        "kind": "tighten", "guardrail": "g", "version": 4,
        "spec": "spec", "provenance": {"a": 1}}
