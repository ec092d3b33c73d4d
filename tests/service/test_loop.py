"""Service loop: streaming ingest, interrupt/resume, error mapping."""

import pytest

from repro.service.loop import (
    ServiceError,
    resume,
    serve_rollout,
    serve_soak,
)
from repro.service.store import ResultsStore
from repro.trace.tracer import tracing


@pytest.fixture
def store(tmp_path):
    with ResultsStore(str(tmp_path / "s.sqlite")) as opened:
        yield opened


def test_serve_rollout_streams_everything(store):
    summary = serve_rollout(store, hosts=4, quick=True, fault_hosts=1,
                            seed=42)
    assert summary["status"] == "rolled_back"
    assert summary["kind"] == "rollout"
    run = store.run(summary["run"])
    assert run["status"] == "rolled_back"
    assert run["rolled_back_at"] == "canary"
    assert run["final_rounds"] == run["committed_round"] + 1
    # Every round's digests landed; nothing buffered the whole run.
    assert summary["digests_ingested_now"] == 4 * run["final_rounds"]
    assert len(store.phase_rows(summary["run"])) == 3  # base, stage, rollbk
    assert len(store.gate_rows(summary["run"])) == 1
    assert store.event_rows(summary["run"])  # timeline persisted


def test_serve_rollout_clean_completes(store):
    summary = serve_rollout(store, hosts=4, quick=True, seed=7)
    assert summary["status"] == "completed"
    run = store.run(summary["run"])
    assert run["rolled_back_at"] is None
    # plan and versions round-trip for later regeneration
    assert run["plan"]["stages"]
    assert run["versions"]["new"]["version"] == 2


def test_serve_soak_summary(store):
    summary = serve_soak(store, hosts=3, seed=5, rate_ios=50, rounds=4)
    assert summary["status"] == "completed"
    assert summary["kind"] == "soak"
    assert summary["committed_round"] == 3
    assert summary["totals"]["completed_ios"] > 0


def test_max_rounds_interrupts_without_finalizing(store):
    summary = serve_rollout(store, hosts=4, quick=True, seed=7,
                            max_rounds=2)
    assert summary["status"] == "running"
    assert summary["committed_round"] == 1
    run = store.run(summary["run"])
    assert run["status"] == "running"
    assert run["final_rounds"] is None


def test_resume_requires_an_interrupted_run(store):
    serve_soak(store, hosts=2, seed=1, rate_ios=40, rounds=2)
    with pytest.raises(ServiceError, match="only interrupted"):
        resume(store)


def test_resume_empty_store_is_an_error(store):
    with pytest.raises(ServiceError, match="no runs"):
        resume(store)


def test_resume_rollout_finishes_identically(store):
    serve_rollout(store, hosts=4, quick=True, fault_hosts=1, seed=42,
                  max_rounds=1)
    summary = resume(store)
    assert summary["status"] == "rolled_back"
    run = store.run(summary["run"])
    # The resumed run's stored rows equal an uninterrupted serve's
    # (full byte-identity is asserted via the regenerated report in
    # test_service_cli.py); spot-check the control plane here.
    assert len(store.gate_rows(summary["run"])) == 1
    assert run["rolled_back_at"] == "canary"
    events = [row["event"] for row in store.event_rows(summary["run"])]
    assert events.count("baseline.start") == 1  # no duplicated replay


def test_service_trace_category_emits(store, tmp_path):
    with tracing(categories=["service"]) as tracer:
        serve_soak(store, hosts=2, seed=3, rate_ios=40, rounds=2)
    names = [event.name for event in tracer.events()]
    assert "round.commit" in names
    assert "run.finalized" in names
    assert all(event.category == "service" for event in tracer.events())
