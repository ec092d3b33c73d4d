"""Pooled scenario runner: determinism across jobs and reruns."""

import json

import pytest

from repro.scenarios import (
    deterministic_document,
    run_scenarios,
    select_scenarios,
)

#: A small but representative selection: single-domain quiet + trip +
#: inconclusive plus one cross-product, cheap enough to run twice per test.
_SELECTION = "storage"


def _dumps(document):
    return json.dumps(deterministic_document(document), sort_keys=True)


def test_select_scenarios_filters_and_sorts():
    specs = select_scenarios(filter_substring=_SELECTION, quick=True)
    assert specs
    names = [spec.name for spec in specs]
    assert names == sorted(names)
    assert all(_SELECTION in name for name in names)
    assert all(spec.quick for spec in specs)


def test_document_identical_across_jobs_and_reruns():
    specs = select_scenarios(filter_substring=_SELECTION, quick=True)
    one = run_scenarios(specs, jobs=1)
    four = run_scenarios(specs, jobs=4)
    again = run_scenarios(specs, jobs=4)
    assert _dumps(one) == _dumps(four) == _dumps(again)
    assert one["matched"] == one["count"] == len(specs)
    assert one["errors"] == []


def test_document_schema_and_ordering():
    specs = select_scenarios(filter_substring=_SELECTION, quick=True)
    document = run_scenarios(specs, jobs=2)
    assert document["schema"] == "repro-scenarios/v1"
    names = [result["name"] for result in document["scenarios"]]
    assert names == sorted(names)
    assert set(document["info"]["wall_time_s"]) == set(names)
    assert "info" not in deterministic_document(document)


def test_runner_reports_scenario_errors():
    """A scenario that cannot complete lands in ``errors``, not a raise."""
    from repro.scenarios import get_scenario

    # The pool polls every 50 ms and a worker that has already reported
    # is never timed out, so the scenario must outlast several polls:
    # this one runs ~0.5 s (storage/quiet/clean, ~45 ms, raced the poll).
    spec = get_scenario("all-five/stress/clean")
    document = run_scenarios([spec], jobs=1, timeout_s=0.000001)
    assert document["matched"] == 0
    assert [error["name"] for error in document["errors"]] == [spec.name]


def test_runner_rejects_broken_registry(monkeypatch):
    import repro.scenarios.runner as runner_module

    monkeypatch.setattr(runner_module, "self_check",
                        lambda: ["synthetic problem"])
    with pytest.raises(ValueError, match="synthetic problem"):
        run_scenarios(select_scenarios(quick=True), jobs=1)
