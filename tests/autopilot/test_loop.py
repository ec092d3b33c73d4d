"""The closed loop: convergence, rollback + backoff, determinism, tracing."""

import json
import sqlite3

import pytest

from repro.autopilot.loop import (
    INITIAL_THRESHOLD,
    AutopilotError,
    run_autopilot,
)
from repro.service.loop import ServiceError, resume
from repro.service.store import ResultsStore
from repro.trace.tracer import TRACER

ARGS = dict(hosts=8, seed=42, quick=True)


def open_store(tmp_path, name="ap.sqlite"):
    return ResultsStore(str(tmp_path / name))


def loop_json(tmp_path, name, **kwargs):
    with open_store(tmp_path, name) as store:
        result = run_autopilot(store, **kwargs)
    return json.dumps(result, indent=2, sort_keys=True)


def test_clean_loop_converges(tmp_path):
    with open_store(tmp_path) as store:
        result = run_autopilot(store, iterations=5, **ARGS)
        rows = store.proposal_rows()
    final = result["final"]
    assert final["converged"]
    assert final["rolled_back"] == 0
    assert final["deployed"] >= 2
    assert final["threshold"] < INITIAL_THRESHOLD
    # Monotone tightening: each deployed proposal shrinks the threshold.
    thresholds = [INITIAL_THRESHOLD] + [
        e["proposal"]["provenance"]["threshold"]
        for e in result["iterations"] if e["action"] == "deployed"]
    assert all(b < a for a, b in zip(thresholds, thresholds[1:]))
    # Every deployed proposal is persisted with its deploy run.
    deployed_rows = [r for r in rows if r["verdict"] == "deployed"]
    assert len(deployed_rows) == final["deployed"]
    assert all(r["deploy_run"] is not None for r in deployed_rows)


def test_versions_are_never_reused(tmp_path):
    with open_store(tmp_path) as store:
        run_autopilot(store, iterations=5, **ARGS)
        versions = [r["version"] for r in store.proposal_rows()
                    if r["kind"] == "tighten"]
    assert versions == sorted(set(versions))


def test_corrupt_canary_is_rolled_back_and_backs_off(tmp_path):
    with open_store(tmp_path) as store:
        result = run_autopilot(store, iterations=3, corrupt_at=0, **ARGS)
        rows = store.proposal_rows()
    entry = result["iterations"][0]
    assert entry["action"] == "rolled_back"
    assert entry["rolled_back_at_stage"] == "canary"
    assert any("inconclusive" in reason for reason in entry["gate_reasons"])
    # The deployed threshold did not move.
    assert entry["threshold_after"] == INITIAL_THRESHOLD
    # Backoff: margin widened and the next iteration only observes.
    assert entry["margin_after"] > result["scenario"]["margin"]
    assert result["iterations"][1]["action"] == "cooldown"
    # The rejected proposal's exact spec is never re-proposed.
    specs = [r["spec"] for r in rows if r["kind"] == "tighten"]
    rolled = [r["spec"] for r in rows if r["verdict"] == "rolled_back"]
    assert len(rolled) == 1
    assert specs.count(rolled[0]) == 1
    # Verdict persisted with the deploy run that tripped.
    row = [r for r in rows if r["verdict"] == "rolled_back"][0]
    assert row["deploy_run"] == entry["deploy_run"]


def test_observe_and_deploy_runs_land_in_the_store(tmp_path):
    with open_store(tmp_path) as store:
        run_autopilot(store, iterations=1, **ARGS)
        kinds = [run["kind"] for run in store.runs()]
        assert kinds == ["autopilot.observe", "autopilot.deploy"]
        assert all(run["status"] == "completed" for run in store.runs())


def test_autopilot_runs_do_not_resume(tmp_path):
    # A crashed autopilot run (still "running") must not resume through
    # the service path: autopilot iterations replay as a whole.
    with open_store(tmp_path) as store:
        run_id = store.begin_run("autopilot.observe", {}, 10 ** 9, 2,
                                 total_rounds=2)
        with pytest.raises(ServiceError, match="rerun `grctl autopilot`"):
            resume(store, run_id=run_id)


def test_deploy_false_records_without_deploying(tmp_path):
    with open_store(tmp_path) as store:
        result = run_autopilot(store, iterations=1, deploy=False, **ARGS)
        rows = store.proposal_rows()
        kinds = [run["kind"] for run in store.runs()]
    assert result["iterations"][0]["action"] == "proposed"
    assert result["final"]["deployed"] == 0
    assert [r["verdict"] for r in rows if r["kind"] == "tighten"] == [
        "proposed"]
    assert kinds == ["autopilot.observe"]  # no deploy run


def test_report_is_byte_identical_across_reruns_and_jobs(tmp_path):
    a = loop_json(tmp_path, "a.sqlite", iterations=3, **ARGS)
    b = loop_json(tmp_path, "b.sqlite", iterations=3, **ARGS)
    c = loop_json(tmp_path, "c.sqlite", iterations=3, jobs=4, **ARGS)
    assert a == b
    assert a == c


def store_dump(tmp_path, name, **kwargs):
    """Every table of the store a loop leaves behind, as SQL text."""
    path = str(tmp_path / name)
    with ResultsStore(path) as store:
        run_autopilot(store, **kwargs)
    connection = sqlite3.connect(path)
    try:
        return "\n".join(connection.iterdump())
    finally:
        connection.close()


def test_store_is_byte_identical_across_reruns_and_jobs(tmp_path):
    # Deployed, rolled back, then cooldown: every run kind and verdict.
    kwargs = dict(iterations=3, corrupt_at=1, **ARGS)
    a = store_dump(tmp_path, "a.sqlite", **kwargs)
    b = store_dump(tmp_path, "b.sqlite", **kwargs)
    c = store_dump(tmp_path, "c.sqlite", jobs=2, **kwargs)
    assert "autopilot.observe" in a and "autopilot.deploy" in a
    assert "'rolled_back'" in a and "'deployed'" in a
    assert a == b
    assert a == c


def test_corrupt_report_is_byte_identical_across_jobs(tmp_path):
    a = loop_json(tmp_path, "a.sqlite", iterations=2, corrupt_at=0, **ARGS)
    b = loop_json(tmp_path, "b.sqlite", iterations=2, corrupt_at=0, jobs=3,
                  **ARGS)
    assert a == b


def test_synthesis_proposals_recorded_not_deployed(tmp_path):
    with open_store(tmp_path) as store:
        result = run_autopilot(store, iterations=1, deploy=False, **ARGS)
        rows = [r for r in store.proposal_rows()
                if r["kind"] == "synthesize"]
    assert len(rows) == len(result["synthesis"]) == 2
    assert all(r["verdict"] == "recorded" for r in rows)
    assert all(r["deploy_run"] is None for r in rows)


def test_synthesize_false_skips_synthesis(tmp_path):
    with open_store(tmp_path) as store:
        result = run_autopilot(store, iterations=1, deploy=False,
                               synthesize=False, **ARGS)
        assert store.proposal_rows()[0]["kind"] == "tighten"
    assert result["synthesis"] == []


def test_iterations_must_be_positive(tmp_path):
    with open_store(tmp_path) as store:
        with pytest.raises(AutopilotError, match="iterations"):
            run_autopilot(store, iterations=0, **ARGS)


def test_loop_emits_autopilot_trace_events(tmp_path):
    TRACER.start(categories=("autopilot",))
    try:
        with open_store(tmp_path) as store:
            run_autopilot(store, iterations=1, **ARGS)
        names = [e.name for e in TRACER.events(category="autopilot")]
    finally:
        TRACER.stop()
    assert "observe.start" in names
    assert "propose" in names
    assert "deploy.start" in names
    assert "verdict.deployed" in names
