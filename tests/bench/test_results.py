"""Gate logic and BENCH.json document plumbing (pure, no subprocesses)."""

import json
import math

import pytest

from repro.bench.results import (
    SCHEMA_VERSION,
    compare_to_baseline,
    deterministic_view,
    load_document,
    make_document,
)


def sres(sid, metrics, status="ok", **extra):
    result = {
        "id": sid,
        "module": "bench_" + sid,
        "seed": 1,
        "attempts": 1,
        "status": status,
        "wall_time_s": 0.5,
        "metrics": metrics,
        "error": None,
    }
    result.update(extra)
    return result


def doc(*scenario_results):
    return make_document(list(scenario_results), tier="full", jobs=1)


def gate(current, baseline, tolerance, **kw):
    return compare_to_baseline(current, baseline, tolerance, **kw)


def test_pass_at_tolerance_boundary_fail_beyond():
    baseline = doc(sres("s", {"lat_us": 100.0}))
    # exactly 15% drift passes a 0.15 gate (boundary is inclusive) ...
    assert gate(doc(sres("s", {"lat_us": 115.0})), baseline, 0.15) == []
    assert gate(doc(sres("s", {"lat_us": 85.0})), baseline, 0.15) == []
    # ... one tick past it fails, in either direction
    (reg,) = gate(doc(sres("s", {"lat_us": 115.1})), baseline, 0.15)
    assert reg.metric == "lat_us" and "drifted" in reg.detail
    (reg,) = gate(doc(sres("s", {"lat_us": 84.9})), baseline, 0.15)
    assert "drifted" in reg.detail  # two-sided: improvements gate too


def test_exact_gate_by_default_tolerance_zero():
    baseline = doc(sres("s", {"n": 10}))
    assert gate(doc(sres("s", {"n": 10})), baseline, 0.0) == []
    assert len(gate(doc(sres("s", {"n": 11})), baseline, 0.0)) == 1


def test_zero_baseline_uses_absolute_fallback():
    baseline = doc(sres("s", {"errors": 0}))
    assert gate(doc(sres("s", {"errors": 0.1})), baseline, 0.15) == []
    (reg,) = gate(doc(sres("s", {"errors": 1})), baseline, 0.15)
    assert reg.metric == "errors"


def test_missing_scenario_fails_the_gate():
    baseline = doc(sres("a", {"x": 1}), sres("b", {"x": 1}))
    (reg,) = gate(doc(sres("a", {"x": 1})), baseline, 0.5)
    assert reg.scenario_id == "b"
    assert "missing from current run" in reg.detail


def test_selected_ids_scopes_a_restricted_run():
    baseline = doc(sres("a", {"x": 1}), sres("b", {"x": 1}))
    current = doc(sres("a", {"x": 1}))
    assert gate(current, baseline, 0.5, selected_ids={"a"}) == []
    # unrestricted comparison still notices the vanished scenario
    assert len(gate(current, baseline, 0.5)) == 1


def test_non_ok_current_scenario_fails_the_gate():
    baseline = doc(sres("s", {"x": 1}))
    current = doc(sres("s", {}, status="crash",
                       error="boom\nworker exited with code 9"))
    (reg,) = gate(current, baseline, 0.5)
    assert "did not complete" in reg.detail
    assert "worker exited with code 9" in reg.detail


def test_non_ok_baseline_entry_is_skipped():
    baseline = doc(sres("s", {}, status="error"))
    assert gate(doc(), baseline, 0.0) == []


def test_missing_metric_fails_the_gate():
    baseline = doc(sres("s", {"kept": 1, "dropped": 2}))
    (reg,) = gate(doc(sres("s", {"kept": 1})), baseline, 0.5)
    assert reg.metric == "dropped" and "missing" in reg.detail


def test_new_metrics_and_new_scenarios_pass_until_baselined():
    baseline = doc(sres("s", {"x": 1}))
    current = doc(sres("s", {"x": 1, "brand_new": 99}),
                  sres("t", {"y": 1}))
    assert gate(current, baseline, 0.0) == []


def test_non_numeric_metrics_must_match_exactly():
    baseline = doc(sres("s", {"label": "fast", "enabled": True,
                              "hole": None}))
    assert gate(doc(sres("s", {"label": "fast", "enabled": True,
                               "hole": None})), baseline, 0.5) == []
    (reg,) = gate(doc(sres("s", {"label": "slow", "enabled": True,
                                 "hole": None})), baseline, 0.5)
    assert reg.detail == "value changed"
    # bool is not a number here: True -> 1 is a type change, not 0% drift
    (reg,) = gate(doc(sres("s", {"label": "fast", "enabled": 1,
                                 "hole": None})), baseline, 0.5)
    assert reg.metric == "enabled"


def test_nan_matches_nan_but_nothing_else():
    baseline = doc(sres("s", {"v": math.nan}))
    assert gate(doc(sres("s", {"v": math.nan})), baseline, 0.0) == []
    (reg,) = gate(doc(sres("s", {"v": 1.0})), baseline, 0.0)
    assert reg.detail == "NaN mismatch"


def test_regression_render_is_greppable():
    baseline = doc(sres("s", {"lat": 100.0}))
    (reg,) = gate(doc(sres("s", {"lat": 150.0})), baseline, 0.15)
    line = reg.render()
    assert line.startswith("GATE  s.lat:")
    assert "baseline=100.0" in line and "current=150.0" in line
    assert "s.lat" in repr(reg)


def test_deterministic_view_strips_run_noise():
    document = doc(sres("s", {"x": 1}, wall_time_s=9.9, attempts=2,
                        error="retried once"))
    (view,) = deterministic_view(document)
    assert set(view) == {"id", "module", "seed", "status", "metrics"}
    assert view["metrics"] == {"x": 1}


def test_document_round_trip_and_schema_check(tmp_path):
    document = doc(sres("b", {"x": 1}), sres("a", {"x": 2}))
    assert [s["id"] for s in document["scenarios"]] == ["a", "b"]
    assert document["schema_version"] == SCHEMA_VERSION
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps(document))
    assert load_document(path) == document

    bad = dict(document, schema_version=SCHEMA_VERSION + 1)
    path_bad = tmp_path / "BENCH_bad.json"
    path_bad.write_text(json.dumps(bad))
    with pytest.raises(ValueError, match="schema_version"):
        load_document(path_bad)
    path_list = tmp_path / "BENCH_nolist.json"
    path_list.write_text(json.dumps({"schema_version": SCHEMA_VERSION}))
    with pytest.raises(ValueError, match="scenario list"):
        load_document(path_list)
