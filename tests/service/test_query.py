"""Typed queries: mid-run answers, margins, and regeneration guards."""

import io
import json
import sqlite3

import pytest

from repro.fleet.rollout import GateConfig
from repro.service.loop import resume, serve_rollout, serve_soak
from repro.service.query import (
    QUERIES,
    gate_margins,
    latency_trend,
    list_runs,
    regenerate_report,
    rollback_timeline,
    run_status,
    stage_rates,
)
from repro.service.store import ResultsStore, RetentionPolicy, StoreError
from repro.tools.grctl import main


@pytest.fixture
def store(tmp_path):
    with ResultsStore(str(tmp_path / "s.sqlite")) as opened:
        yield opened


@pytest.fixture
def faulted(store):
    serve_rollout(store, hosts=4, quick=True, fault_hosts=1, seed=42)
    return store


def test_run_status_reads_live_state(faulted):
    status = run_status(faulted)
    assert status["kind"] == "rollout"
    assert status["status"] == "rolled_back"
    assert status["hosts"] == 4
    assert status["phase"]["kind"] == "rollback"
    assert status["rolled_back_at_stage"] == "canary"
    assert status["inconclusive_rate"] > 0
    assert status["totals"]["completed_ios"] > 0


def test_status_is_answerable_mid_run(store):
    serve_rollout(store, hosts=4, quick=True, seed=7, max_rounds=2)
    status = run_status(store)
    assert status["status"] == "running"
    assert status["committed_round"] == 1
    trend = latency_trend(store)
    assert len(trend["points"]) == 2


def test_stage_rates_per_phase(faulted):
    phases = stage_rates(faulted)["phases"]
    assert [p["kind"] for p in phases] == ["baseline", "stage", "rollback"]
    stage = phases[1]
    assert stage["cohort_hosts"] == 1  # the canary
    assert stage["inconclusive_rate"] > phases[0]["inconclusive_rate"]
    assert stage["coverage"]["approximate"] is False


def test_latency_trend_orders_points(faulted):
    trend = latency_trend(faulted)
    rounds = [tuple(p["rounds"]) for p in trend["points"]]
    assert rounds == sorted(rounds)
    assert all(not p["downsampled"] for p in trend["points"])
    assert all(p["p95_us"] is not None for p in trend["points"])


def test_gate_margins_show_the_tripped_axis(faulted):
    gates = gate_margins(faulted)
    (gate,) = gates["gates"]
    assert gate["stage"] == "canary"
    assert gate["passed"] is False
    assert gate["margins"]["inconclusive_rate_delta"] < 0  # the trip
    assert gate["margins"]["violation_rate_delta"] > 0  # headroom
    assert gates["gate"]["max_p95_ratio"] == GateConfig().max_p95_ratio


def test_rollback_timeline_tells_the_story(faulted):
    timeline = rollback_timeline(faulted)
    events = [entry["event"] for entry in timeline["events"]]
    assert events == ["gate.trip", "rollback.start", "rollback.done"]
    assert timeline["rolled_back_at_stage"] == "canary"


def test_list_runs(store):
    serve_soak(store, hosts=2, seed=1, rate_ios=40, rounds=2)
    serve_rollout(store, hosts=4, quick=True, seed=7)
    runs = list_runs(store)["runs"]
    assert [r["kind"] for r in runs] == ["soak", "rollout"]


def test_queries_registry_is_complete():
    assert sorted(QUERIES) == ["autopilot", "gates", "report", "rollbacks",
                               "runs", "stages", "status", "trend"]


def test_regenerate_report_matches_live(faulted):
    from repro.fleet.scenario import run_fleet_rollout

    live = run_fleet_rollout(hosts=4, quick=True, fault_hosts=1, seed=42)
    regen = regenerate_report(faulted)
    assert json.dumps(regen, indent=2, sort_keys=True) == \
        json.dumps(live, indent=2, sort_keys=True)


def test_regenerate_report_after_resume_matches_live(store):
    from repro.fleet.scenario import run_fleet_rollout

    serve_rollout(store, hosts=4, quick=True, seed=7, max_rounds=2)
    resume(store)
    live = run_fleet_rollout(hosts=4, quick=True, seed=7)
    regen = regenerate_report(store)
    assert json.dumps(regen, indent=2, sort_keys=True) == \
        json.dumps(live, indent=2, sort_keys=True)


def rewrite(store, sql, *args):
    """Change stored rows behind the store's back (a second connection)."""
    db = sqlite3.connect(store.path)
    with db:
        db.execute(sql, args)
    db.close()


def query_report_exit_code(store):
    return main(["query", "report", "--store", store.path], out=io.StringIO())


@pytest.mark.parametrize("sql, match", [
    # No directive has moved host 0 off v1 in the first baseline round.
    ("UPDATE host_digests SET version=2 WHERE round_index=0 AND host_id=0",
     "version 2"),
    ("DELETE FROM host_digests WHERE round_index=0 AND host_id=3",
     "do not cover"),
], ids=["wrong-version", "missing-host"])
def test_regenerate_refuses_digests_the_replay_contradicts(faulted, sql,
                                                           match):
    rewrite(faulted, sql)
    with pytest.raises(StoreError, match=match):
        regenerate_report(faulted)
    assert query_report_exit_code(faulted) == 2


def test_regenerate_refuses_a_rewritten_event(faulted):
    (trip,) = [row for row in faulted.event_rows(faulted.latest_run_id())
               if row["event"] == "gate.trip"]
    forged = dict(json.loads(trip["entry"]), reasons=["forged"])
    rewrite(faulted, "UPDATE events SET entry=? WHERE seq=?",
            json.dumps(forged, sort_keys=True), trip["seq"])
    with pytest.raises(StoreError, match="stored events disagree"):
        regenerate_report(faulted)
    assert query_report_exit_code(faulted) == 2


def test_regenerate_refuses_running_runs(store):
    serve_rollout(store, hosts=4, quick=True, seed=7, max_rounds=1)
    with pytest.raises(StoreError, match="still running"):
        regenerate_report(store)


def test_regenerate_refuses_soaks(store):
    serve_soak(store, hosts=2, seed=1, rate_ios=40, rounds=2)
    with pytest.raises(StoreError, match="only rollouts"):
        regenerate_report(store)


def test_regenerate_refuses_downsampled_runs(tmp_path):
    policy = RetentionPolicy(raw_rounds=2, bucket_rounds=2)
    with ResultsStore(str(tmp_path / "r.sqlite"), retention=policy) as store:
        serve_rollout(store, hosts=4, quick=True, seed=7)
        with pytest.raises(StoreError, match="downsampled"):
            regenerate_report(store)


def test_empty_store_raises(store):
    with pytest.raises(StoreError, match="no runs"):
        run_status(store)
