"""Store schema v3: v2 stores open as they are; their rows read the same.

A v2 row is a v3 row whose ``sketches`` blob carries one more key, the
``false_submit_rate`` event log no reader ever used.  The v2 stores here
are hand-built from a natively written one: every raw and bucket blob gets
that key back (a window and one ``[time, hit]`` pair per model submit, the
shape v2 wrote) and the stamp is set to ``'2'``.
"""

import json
import shutil
import sqlite3

import pytest

from repro.service.loop import resume, serve_soak
from repro.service.query import latency_trend, merged_digest, run_status
from repro.service.store import (
    ResultsStore,
    RetentionPolicy,
    SCHEMA_VERSION,
    StoreError,
)

ROUND_NS = 10 ** 9
SOAK = {"hosts": 4, "seed": 5, "rate_ios": 40, "rounds": 12}


def retention():
    # Rounds 0-7 end up bucketed and 8-11 raw: both row kinds are read.
    return RetentionPolicy(raw_rounds=4, bucket_rounds=4)


def restamp(path, version):
    db = sqlite3.connect(path)
    db.execute("UPDATE meta SET value=? WHERE key='schema_version'",
               (version,))
    db.commit()
    db.close()


def stamp(path):
    db = sqlite3.connect(path)
    value, = db.execute(
        "SELECT value FROM meta WHERE key='schema_version'").fetchone()
    db.close()
    return value


def legacy_keys(path):
    """How many stored blobs still carry the v2-only key."""
    db = sqlite3.connect(path)
    blobs = [blob for table in ("host_digests", "host_buckets")
             for blob, in db.execute("SELECT sketches FROM " + table)]
    db.close()
    return sum("false_submit_rate" in json.loads(blob) for blob in blobs)


def downgrade_to_v2(path):
    """Rewrite a natively written store the way a v2 build left one."""
    db = sqlite3.connect(path)
    for table in ("host_digests", "host_buckets"):
        rows = db.execute(
            "SELECT rowid, time_ns, model_submits, false_submits, sketches"
            " FROM " + table).fetchall()
        for rowid, time_ns, submits, hits, blob in rows:
            sketches = json.loads(blob)
            sketches["false_submit_rate"] = {
                "window": ROUND_NS,
                "events": [[time_ns - submits + index, int(index < hits)]
                           for index in range(submits)]}
            db.execute(
                "UPDATE " + table + " SET sketches=? WHERE rowid=?",
                (json.dumps(sketches, sort_keys=True), rowid))
    db.commit()
    db.close()
    restamp(path, "2")


def answers(store):
    digest, coverage = merged_digest(store, store.latest_run_id(), 0,
                                     SOAK["rounds"])
    return {"run_status": run_status(store),
            "latency_trend": latency_trend(store),
            "merged_digest": [digest.to_dict(), coverage]}


def test_v2_store_opens_is_restamped_and_answers_like_a_native_one(tmp_path):
    native = str(tmp_path / "native.sqlite")
    with ResultsStore(native, retention()) as store:
        serve_soak(store, **SOAK)
        expected = answers(store)
    assert expected["merged_digest"][1] == {
        "raw_rounds": 4, "buckets": 8, "approximate": False}
    assert legacy_keys(native) == 0

    legacy = str(tmp_path / "legacy.sqlite")
    shutil.copy(native, legacy)
    downgrade_to_v2(legacy)
    assert stamp(legacy) == "2"
    assert legacy_keys(legacy) == 4 * 4 + 8

    with ResultsStore(legacy, retention()) as store:
        assert answers(store) == expected
    assert stamp(legacy) == str(SCHEMA_VERSION) == "3"
    # Opening restamps and nothing else: old rows keep their extra key
    # until retention folds them into a bucket written by this build.
    assert legacy_keys(legacy) == 4 * 4 + 8


def test_v2_run_resumed_under_v3_finishes_with_equal_totals(tmp_path):
    clean = str(tmp_path / "clean.sqlite")
    with ResultsStore(clean, retention()) as store:
        clean_summary = serve_soak(store, **SOAK)
        expected = answers(store)

    # The v2 build dies after round 5: bucket 0 holds rounds 0-1 and rounds
    # 2-5 are raw.  The resumed run reopens that half-full v2 bucket, folds
    # v2 raw rows into it, and starts bucket 1 from v2 rows (4, 5) that its
    # own rows (6, 7) then join.
    crashed = str(tmp_path / "crashed.sqlite")
    with ResultsStore(crashed, retention()) as store:
        interrupted = serve_soak(store, max_rounds=6, **SOAK)
    assert interrupted["status"] == "running"
    downgrade_to_v2(crashed)
    assert legacy_keys(crashed) == 4 * 4 + 4

    with ResultsStore(crashed, retention()) as store:
        summary = resume(store)
        assert summary["status"] == "completed"
        assert summary["rounds_committed_now"] == 6
        assert summary["totals"] == clean_summary["totals"]
        assert answers(store) == expected
    assert stamp(crashed) == "3"
    # Every v2 row has since been folded into a bucket this build wrote.
    assert legacy_keys(crashed) == 0


@pytest.mark.parametrize("version", ["1", "999"])
def test_any_other_version_is_still_refused(tmp_path, version):
    path = str(tmp_path / "s.sqlite")
    ResultsStore(path).close()
    restamp(path, version)
    with pytest.raises(StoreError, match="schema v{}".format(version)):
        ResultsStore(path)
    assert stamp(path) == version
