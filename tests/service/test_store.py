"""ResultsStore basics: schema, run lifecycle, transactional commits."""

import json
import sqlite3

import pytest

from repro.fleet.aggregate import HostDigest
from repro.service.store import (
    ResultsStore,
    RetentionPolicy,
    SCHEMA_VERSION,
    StoreError,
)


def make_digest(host_id, round_index, ios=5, violations=0):
    digest = HostDigest(host_id, round_index, (round_index + 1) * 10 ** 9, 1)
    for i in range(ios):
        digest.observe_io((round_index * 10 + i) * 10 ** 8,
                          100.0 + 7.0 * i + host_id, i % 3 == 0, True)
    digest.checks = 1
    digest.violations = violations
    return digest


def commit(store, run_id, round_index, hosts=2, **kwargs):
    digests = [make_digest(h, round_index) for h in range(hosts)]
    return store.commit_round(run_id, round_index,
                              (round_index + 1) * 10 ** 9, digests, **kwargs)


def test_schema_version_is_stamped_and_checked(tmp_path):
    path = str(tmp_path / "s.sqlite")
    with ResultsStore(path) as store:
        store.begin_run("soak", {}, 10 ** 9, 2)
    db = sqlite3.connect(path)
    db.execute("UPDATE meta SET value='999' WHERE key='schema_version'")
    db.commit()
    db.close()
    with pytest.raises(StoreError, match="schema v999"):
        ResultsStore(path)
    assert SCHEMA_VERSION == 3


def test_proposal_lifecycle(tmp_path):
    with ResultsStore(str(tmp_path / "s.sqlite")) as store:
        provenance = {"prior_threshold": 0.5, "samples": 64,
                      "band": {"observed_max": 0.13}}
        pid = store.record_proposal("tighten", "low-false-submit", 2,
                                    "guardrail ... { }", provenance)
        row = store.proposal_rows()[0]
        assert row["proposal_id"] == pid
        assert row["verdict"] == "proposed"
        assert row["deploy_run"] is None
        assert json.loads(row["provenance"]) == provenance
        store.set_proposal_verdict(pid, "deployed", deploy_run=7)
        row = store.proposal_rows()[0]
        assert row["verdict"] == "deployed"
        assert row["deploy_run"] == 7


def test_proposal_verdict_requires_existing_proposal(tmp_path):
    with ResultsStore(str(tmp_path / "s.sqlite")) as store:
        with pytest.raises(StoreError, match="no proposal 99"):
            store.set_proposal_verdict(99, "deployed")


def test_run_lifecycle_and_watermark(tmp_path):
    with ResultsStore(str(tmp_path / "s.sqlite")) as store:
        run_id = store.begin_run("soak", {"hosts": 2}, 10 ** 9, 2,
                                 total_rounds=3)
        run = store.run(run_id)
        assert run["status"] == "running"
        assert run["committed_round"] == -1
        assert run["scenario"] == {"hosts": 2}
        for round_index in range(3):
            commit(store, run_id, round_index)
            assert store.run(run_id)["committed_round"] == round_index
        store.finalize_run(run_id, "completed", final_rounds=3)
        run = store.run(run_id)
        assert run["status"] == "completed"
        assert run["final_rounds"] == 3
        assert store.latest_run_id() == run_id
        assert [r["run_id"] for r in store.runs()] == [run_id]


def test_out_of_order_rounds_are_refused(tmp_path):
    with ResultsStore(str(tmp_path / "s.sqlite")) as store:
        run_id = store.begin_run("soak", {}, 10 ** 9, 2)
        commit(store, run_id, 0)
        with pytest.raises(StoreError, match="out of order"):
            commit(store, run_id, 2)  # gap
        with pytest.raises(StoreError, match="out of order"):
            commit(store, run_id, 0)  # duplicate
        # The failed commits left nothing behind: round 1 still works.
        commit(store, run_id, 1)
        assert store.run(run_id)["committed_round"] == 1


def test_digest_rows_round_trip_exactly(tmp_path):
    with ResultsStore(str(tmp_path / "s.sqlite")) as store:
        run_id = store.begin_run("soak", {}, 10 ** 9, 3)
        digests = [make_digest(h, 0, ios=11 + h) for h in range(3)]
        store.commit_round(run_id, 0, 10 ** 9, digests)
        rows = store.digest_rows(run_id)
        assert [row["host_id"] for row in rows] == [0, 1, 2]
        for digest, row in zip(digests, rows):
            rebuilt = HostDigest.from_row(row)
            assert rebuilt.to_row() == digest.to_row()
            assert json.dumps(rebuilt.to_dict(), sort_keys=True) == \
                json.dumps(digest.to_dict(), sort_keys=True)


def test_rounds_table_sums_fleet_counters(tmp_path):
    with ResultsStore(str(tmp_path / "s.sqlite")) as store:
        run_id = store.begin_run("soak", {}, 10 ** 9, 2)
        digests = [make_digest(0, 0, ios=4, violations=2),
                   make_digest(1, 0, ios=6, violations=1)]
        store.commit_round(run_id, 0, 10 ** 9, digests)
        (row,) = store.round_rows(run_id)
        assert row["hosts"] == 2
        assert row["completed_ios"] == 10
        assert row["violations"] == 3


def test_control_records_are_idempotent(tmp_path):
    with ResultsStore(str(tmp_path / "s.sqlite")) as store:
        run_id = store.begin_run("rollout", {}, 10 ** 9, 2)
        phase = {"kind": "baseline", "label": "baseline", "target_hosts": 2,
                 "start_round": 0, "end_round": 2}
        gate = ("canary", 2, {"passed": True, "reasons": [],
                              "measurements": {"checks": 4}})
        event = (0, {"round": 0, "time_s": 0.0, "event": "baseline.start"})
        commit(store, run_id, 0, events=[event], phases=[phase], gates=[gate])
        # A resume replays the same phase/gate records: REPLACE, not dup.
        commit(store, run_id, 1, phases=[phase], gates=[gate])
        assert len(store.phase_rows(run_id)) == 1
        assert len(store.gate_rows(run_id)) == 1
        assert len(store.event_rows(run_id)) == 1
        assert store.max_event_seq(run_id) == 0
        (entry,) = store.event_rows(run_id)
        assert json.loads(entry["entry"])["event"] == "baseline.start"


def test_retention_policy_validation():
    with pytest.raises(ValueError):
        RetentionPolicy(raw_rounds=0)
    with pytest.raises(ValueError):
        RetentionPolicy(bucket_rounds=0)
    policy = RetentionPolicy(raw_rounds=4, bucket_rounds=2)
    assert (policy.raw_rounds, policy.bucket_rounds) == (4, 2)


def test_unopenable_path_is_store_error(tmp_path):
    with pytest.raises(StoreError, match="cannot open"):
        ResultsStore(str(tmp_path / "no" / "such" / "dir" / "s.sqlite"))
