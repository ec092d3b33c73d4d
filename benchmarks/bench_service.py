"""Service loop + results store — streaming ingest, regen, retention.

Two claims under the regression gate: (1) a rollout served through
``repro.service`` ingests every round and regenerates a report
byte-identical to the live ``fleet --json`` run — exactness of the store
round-trip is a *metric*, so any drift in sketch serialization or merge
order shows up as a baseline diff; (2) a retention-bounded soak folds
expired raw rounds into buckets without changing fleet totals, and the
raw tail stays capped at the horizon.
"""

import json
import os
import tempfile

from repro.bench.report import format_table
from repro.bench.results import scenario
from repro.fleet.scenario import run_fleet_rollout
from repro.service.loop import serve_rollout, serve_soak
from repro.service.query import latency_trend, merged_digest, regenerate_report
from repro.service.store import ResultsStore, RetentionPolicy

HOSTS = 4
SEED = 42
SOAK_ROUNDS = 16
SOAK_RATE = 120


@scenario(cost=1.5, seed=SEED)
def run_service(report=None):
    live = run_fleet_rollout(hosts=HOSTS, seed=SEED, fault_hosts=1,
                             quick=True)
    with tempfile.TemporaryDirectory(prefix="bench_service_") as workdir:
        with ResultsStore(os.path.join(workdir, "fleet.sqlite")) as store:
            summary = serve_rollout(store, hosts=HOSTS, seed=SEED,
                                    fault_hosts=1, quick=True)
            regen = regenerate_report(store)
        policy = RetentionPolicy(raw_rounds=4, bucket_rounds=4)
        with ResultsStore(os.path.join(workdir, "soak.sqlite"),
                          retention=policy) as store:
            soak = serve_soak(store, hosts=HOSTS, seed=SEED,
                              rate_ios=SOAK_RATE, rounds=SOAK_ROUNDS)
            run_id = soak["run"]
            raw_rounds = store.raw_round_indexes(run_id)
            bucket_rows = store.bucket_rows(run_id)
            folded, meta = merged_digest(store, run_id, 0, SOAK_ROUNDS)
            trend = latency_trend(store, run_id)
    live_text = json.dumps(live, indent=2, sort_keys=True)
    regen_text = json.dumps(regen, indent=2, sort_keys=True)

    metrics = {
        "regen_byte_identical": regen_text == live_text,
        "serve_status": summary["status"],
        "rounds_committed": summary["rounds_committed_now"],
        "digests_ingested": summary["digests_ingested_now"],
        "soak_rows_deleted": soak["raw_rows_deleted_now"],
        "soak_raw_tail_rounds": len(raw_rounds),
        "soak_bucket_rows": len(bucket_rows),
        "soak_total_ios": soak["totals"]["completed_ios"],
        "folded_host_rounds": folded.host_rounds,
        "folded_ios": folded.completed_ios,
        "folded_exact": not meta["approximate"],
        "trend_points": len(trend["points"]),
    }

    # The acceptance contract: store round-trip changes nothing.
    assert metrics["regen_byte_identical"] is True
    assert metrics["serve_status"] == "rolled_back"
    assert metrics["digests_ingested"] == HOSTS * metrics["rounds_committed"]
    # Retention bounds the raw tail at the horizon and loses no data.
    assert metrics["soak_raw_tail_rounds"] == 4
    assert metrics["soak_rows_deleted"] == HOSTS * (SOAK_ROUNDS - 4)
    assert metrics["folded_host_rounds"] == HOSTS * SOAK_ROUNDS
    assert metrics["folded_exact"] is True

    if report is not None:
        rows = [[p["rounds"][0], p["rounds"][1] - 1,
                 "bucket" if p["downsampled"] else "raw",
                 "{:.3f}".format(p["violation_rate"]),
                 "{:.0f}".format(p["p95_us"])
                 if p["p95_us"] is not None else "n/a",
                 p["completed_ios"]]
                for p in trend["points"]]
        lines = ["regenerated report identical to live: {}".format(
            metrics["regen_byte_identical"])]
        lines.append(format_table(
            ["from", "to", "grain", "viol/host-s", "p95us", "IOs"], rows,
            title="soak trend across the raw/bucket seam "
                  "({} hosts, {} rounds, horizon 4)".format(
                      HOSTS, SOAK_ROUNDS)))
        report("service_store", "\n".join(lines))
    return metrics


def scenarios():
    return [("service_store", run_service)]
