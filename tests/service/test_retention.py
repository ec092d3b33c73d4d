"""Retention/downsampling edges: bucket boundaries, partial folds, seams.

The invariant under test everywhere: folding raw rounds into buckets
never changes any fleet-level aggregate — counters and histogram mass are
exact under merge, and host-second denominators survive via the bucket's
``rounds`` column.
"""

import hashlib
import json

import pytest

from repro.fleet.aggregate import FleetDigest, HostDigest
from repro.service.query import latency_trend, merged_digest
from repro.service.store import ResultsStore, RetentionPolicy, StoreError

ROUND_NS = 10 ** 9
HOSTS = 2


def make_digest(host_id, round_index):
    digest = HostDigest(host_id, round_index, (round_index + 1) * ROUND_NS, 1)
    for i in range(4 + round_index % 3):
        digest.observe_io(50.0 + 13.0 * i + host_id, i % 2 == 0, True)
    digest.checks = 1
    digest.violations = round_index % 2
    return digest


def fill(store, run_id, rounds):
    for round_index in range(rounds):
        digests = [make_digest(h, round_index) for h in range(HOSTS)]
        store.commit_round(run_id, round_index,
                           (round_index + 1) * ROUND_NS, digests)


def reference_digest(rounds):
    """What the merged aggregate must equal, raw or downsampled."""
    digest = FleetDigest(ROUND_NS)
    for round_index in range(rounds):
        for host in range(HOSTS):
            digest.merge_host(make_digest(host, round_index))
    return digest


def totals(digest):
    return (digest.host_rounds, digest.completed_ios, digest.violations,
            digest.checks, digest.latency.total, digest.latency.counts)


def test_horizon_exactly_at_bucket_edge(tmp_path):
    # raw_rounds=4, bucket_rounds=4: after committing round 7, rounds 0-3
    # (exactly bucket 0) have expired — the fold lands precisely on the
    # bucket boundary, leaving bucket 0 complete and bucket 1 untouched.
    policy = RetentionPolicy(raw_rounds=4, bucket_rounds=4)
    with ResultsStore(str(tmp_path / "s.sqlite"), retention=policy) as store:
        run_id = store.begin_run("soak", {}, ROUND_NS, HOSTS)
        fill(store, run_id, 8)
        assert store.raw_round_indexes(run_id) == [4, 5, 6, 7]
        buckets = store.bucket_rows(run_id)
        assert [(b["bucket"], b["start_round"], b["end_round"], b["rounds"])
                for b in buckets] == [(0, 0, 4, 4)] * HOSTS
        merged, meta = merged_digest(store, run_id, 0, 8)
        assert meta == {"raw_rounds": 4, "buckets": 2, "approximate": False}
        assert totals(merged) == totals(reference_digest(8))


def test_partially_filled_bucket_folds_incrementally(tmp_path):
    # bucket_rounds=4 but the horizon advances one round at a time, so
    # bucket 0 is written partially full and re-folded on later commits.
    policy = RetentionPolicy(raw_rounds=2, bucket_rounds=4)
    with ResultsStore(str(tmp_path / "s.sqlite"), retention=policy) as store:
        run_id = store.begin_run("soak", {}, ROUND_NS, HOSTS)
        fill(store, run_id, 4)  # rounds 0,1 expired -> bucket 0 partial
        partial = store.bucket_rows(run_id)
        assert [(b["start_round"], b["end_round"], b["rounds"])
                for b in partial] == [(0, 2, 2)] * HOSTS
        for round_index in range(4, 6):  # expire rounds 2,3 one by one
            digests = [make_digest(h, round_index) for h in range(HOSTS)]
            store.commit_round(run_id, round_index,
                               (round_index + 1) * ROUND_NS, digests)
        full = [b for b in store.bucket_rows(run_id) if b["bucket"] == 0]
        assert [(b["start_round"], b["end_round"], b["rounds"])
                for b in full] == [(0, 4, 4)] * HOSTS
        merged, _ = merged_digest(store, run_id, 0, 6)
        assert totals(merged) == totals(reference_digest(6))


def test_query_across_raw_downsampled_seam(tmp_path):
    policy = RetentionPolicy(raw_rounds=3, bucket_rounds=2)
    with ResultsStore(str(tmp_path / "s.sqlite"), retention=policy) as store:
        run_id = store.begin_run("soak", {}, ROUND_NS, HOSTS)
        fill(store, run_id, 9)  # rounds 0-5 bucketed, 6-8 raw
        assert store.raw_round_indexes(run_id) == [6, 7, 8]
        # Full-range query crosses the seam without double counting.
        merged, meta = merged_digest(store, run_id, 0, 9)
        assert meta["approximate"] is False
        assert totals(merged) == totals(reference_digest(9))
        # A range that splits a bucket cannot be exact: the bucket folds
        # in whole and the result is flagged.
        merged_partial, meta_partial = merged_digest(store, run_id, 1, 9)
        assert meta_partial["approximate"] is True
        assert merged_partial.host_rounds == 9 * HOSTS  # whole bucket 0
        # A range aligned to bucket edges stays exact.
        aligned, meta_aligned = merged_digest(store, run_id, 2, 9)
        assert meta_aligned["approximate"] is False
        assert aligned.host_rounds == 7 * HOSTS


def test_retention_disabled_keeps_everything_raw(tmp_path):
    with ResultsStore(str(tmp_path / "s.sqlite")) as store:
        run_id = store.begin_run("soak", {}, ROUND_NS, HOSTS)
        fill(store, run_id, 6)
        assert store.raw_round_indexes(run_id) == list(range(6))
        assert store.bucket_rows(run_id) == []


def test_resume_after_crash_mid_round_no_dup_no_missing(tmp_path):
    """A crash between rounds leaves the watermark trailing the work the
    service had *started*; the resumed service replays and the store ends
    with each round exactly once."""
    from repro.service.loop import resume, serve_soak

    path = str(tmp_path / "s.sqlite")
    with ResultsStore(path) as store:
        # max_rounds plays the crash: the service dies after committing
        # round 2 of 6, mid-run from the scenario's point of view.
        summary = serve_soak(store, hosts=2, seed=9, rate_ios=60, rounds=6,
                             max_rounds=3)
        assert summary["status"] == "running"
        assert summary["committed_round"] == 2
    with ResultsStore(path) as store:
        summary = resume(store)
        assert summary["status"] == "completed"
        assert summary["committed_round"] == 5
        # Only the uncommitted rounds were ingested by the resume...
        assert summary["rounds_committed_now"] == 3
        run_id = summary["run"]
        # ...and every round appears exactly once, no dups, no gaps.
        assert [r["round_index"] for r in store.round_rows(run_id)] == \
            list(range(6))
        assert [row["host_id"] for row in store.digest_rows(run_id)] == \
            [0, 1] * 6
        with pytest.raises(StoreError, match="out of order"):
            store.commit_round(run_id, 3, 4 * ROUND_NS, [])


def test_resumed_store_matches_uninterrupted_store(tmp_path):
    """Crash + resume must leave byte-identical rows to a clean run."""
    from repro.service.loop import resume, serve_soak

    clean = ResultsStore(str(tmp_path / "clean.sqlite"))
    serve_soak(clean, hosts=2, seed=4, rate_ios=50, rounds=5)

    crashed = ResultsStore(str(tmp_path / "crashed.sqlite"))
    serve_soak(crashed, hosts=2, seed=4, rate_ios=50, rounds=5, max_rounds=2)
    resume(crashed)

    run_a = clean.latest_run_id()
    run_b = crashed.latest_run_id()
    rows_a = [tuple(row)[1:] for row in clean.digest_rows(run_a)]
    rows_b = [tuple(row)[1:] for row in crashed.digest_rows(run_b)]
    assert rows_a == rows_b
    clean.close()
    crashed.close()


def test_folds_are_byte_identical_to_the_eager_merge(tmp_path):
    """Range folds, the trend series and retention-folded bucket blobs over
    a 16-host x 40-round soak hash to values recorded from earlier commits.

    The fleet digest's *full* sketch state is hashed, not only its
    ``to_dict()``.  The ``latency_trend`` hash is the one recorded at commit
    18e3ccb.  The other two were recorded at a374e11, the last commit whose
    digests carried a ``false_submit_rate`` event log, with that log left
    out: ``full`` built without its ``false_submit_rate`` entry, and every
    bucket blob decoded, the ``false_submit_rate`` key popped, and dumped
    again with ``sort_keys=True``.  Dropping the log from the digest must
    reproduce exactly those bytes — every other sketch untouched.
    """
    from repro.service.loop import serve_soak

    def sha(value):
        return hashlib.sha256(
            json.dumps(value, sort_keys=True).encode()).hexdigest()

    policy = RetentionPolicy(raw_rounds=8, bucket_rounds=8)
    with ResultsStore(str(tmp_path / "s.sqlite"), retention=policy) as store:
        run_id = serve_soak(store, hosts=16, rounds=40, rate_ios=20,
                            seed=42)["run"]
        digest, meta = merged_digest(store, run_id, 0, 40)
        assert meta == {"raw_rounds": 8, "buckets": 64, "approximate": False}
        assert digest.model_submits == 12840
        full = {"digest": digest.to_dict(), "meta": meta,
                "latency": digest.latency.to_json(),
                "summary": digest.latency_summary.to_json(),
                "tail": digest.latency_tail.to_json()}
        assert sha(full) == ("963a58b10f00b662e062053313186217"
                             "35a0c0b9fd23284e3cb37b0d1e7b8608")
        trend = latency_trend(store, run_id)
        assert [point["downsampled"] for point in trend["points"]] == \
            [True] * 4 + [False] * 8
        assert sha(trend) == ("0b8d4902ae1ff3f98382cf33179cea01"
                              "4047ced8236e0fe547ec334a64989408")
        blobs = [[row["bucket"], row["host_id"], row["sketches"]]
                 for row in store.bucket_rows(run_id)]
        assert len(blobs) == 64
        assert sha(blobs) == ("7058db5f5e139786f28ff13052d1b2cf"
                              "055af49e9602d0e20167e981fb42bdfa")
