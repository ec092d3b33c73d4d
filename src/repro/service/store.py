"""Append-only sqlite time-series store for fleet results.

One store file holds any number of *runs* (rollouts or steady-state
soaks).  Per run the store keeps:

- ``rounds``        — one row per committed lockstep round: fleet-summed
  counters (cheap, kept forever);
- ``host_digests``  — the raw per-host :class:`~repro.fleet.aggregate.
  HostDigest` rows, counters in columns and sketch state as JSON, exact
  under :meth:`HostDigest.to_row`/``from_row``;
- ``host_buckets``  — time-bucketed downsampled digests: when a
  :class:`RetentionPolicy` is set, raw rows older than the retention
  horizon are *folded* (counters add, sketches merge) into one row per
  ``(host, bucket)`` and deleted, so disk stays bounded for soaks of
  millions of I/Os while coarse history remains queryable;
- ``events``        — the rollout control-plane timeline, entries stored
  verbatim as JSON (floats survive repr-exactly);
- ``phases``        — baseline / stage-bake / rollback-settle round
  intervals, the index that lets queries re-aggregate any cohort;
- ``gates``         — every health-gate evaluation with its measurements;
- ``proposals``     — every autopilot proposal (tightened threshold or
  synthesized metric) with its machine-readable provenance and final
  verdict (``proposed`` / ``recorded`` / ``deployed`` / ``rolled_back``),
  linked to the deploy run that carried it — the audit trail behind
  ``grctl query autopilot``.

Writes are transactional per round: ``commit_round`` inserts the round's
digests, trailing control-plane records, and the checkpoint watermark in
one transaction, so a crash can never leave a half-committed round — the
service resumes from ``committed_round`` and replays forward.  The file
runs in WAL mode; readers (queries, dashboards) can watch a store while a
service writes it.
"""

import json
import sqlite3

from repro.fleet.aggregate import HostDigest

#: Bump on any table/column/row-content change; stores created by other
#: versions are refused rather than silently misread.  v2 added the
#: ``proposals`` table.  v3 dropped the false-submit event log from the
#: ``sketches`` blobs: same tables, and a v2 row is a v3 row plus one key
#: no reader looks at, so v2 stores open as they are and are restamped.
SCHEMA_VERSION = 3

_COUNTERS = HostDigest.COUNTER_FIELDS  # checks .. model_submits

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
  key   TEXT PRIMARY KEY,
  value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
  run_id          INTEGER PRIMARY KEY,
  kind            TEXT NOT NULL,
  status          TEXT NOT NULL,
  scenario        TEXT NOT NULL,
  plan            TEXT,
  versions        TEXT,
  round_ns        INTEGER NOT NULL,
  hosts           INTEGER NOT NULL,
  total_rounds    INTEGER,
  committed_round INTEGER NOT NULL DEFAULT -1,
  final_rounds    INTEGER,
  rolled_back_at  TEXT
);
CREATE TABLE IF NOT EXISTS rounds (
  run_id        INTEGER NOT NULL,
  round_index   INTEGER NOT NULL,
  time_ns       INTEGER NOT NULL,
  hosts         INTEGER NOT NULL,
  checks        INTEGER NOT NULL,
  violations    INTEGER NOT NULL,
  actions       INTEGER NOT NULL,
  inconclusive  INTEGER NOT NULL,
  completed_ios INTEGER NOT NULL,
  false_submits INTEGER NOT NULL,
  model_submits INTEGER NOT NULL,
  PRIMARY KEY (run_id, round_index)
);
CREATE TABLE IF NOT EXISTS host_digests (
  run_id        INTEGER NOT NULL,
  round_index   INTEGER NOT NULL,
  host_id       INTEGER NOT NULL,
  time_ns       INTEGER NOT NULL,
  version       INTEGER NOT NULL,
  checks        INTEGER NOT NULL,
  violations    INTEGER NOT NULL,
  actions       INTEGER NOT NULL,
  inconclusive  INTEGER NOT NULL,
  completed_ios INTEGER NOT NULL,
  false_submits INTEGER NOT NULL,
  model_submits INTEGER NOT NULL,
  sketches      TEXT NOT NULL,
  PRIMARY KEY (run_id, round_index, host_id)
);
CREATE TABLE IF NOT EXISTS host_buckets (
  run_id        INTEGER NOT NULL,
  bucket        INTEGER NOT NULL,
  host_id       INTEGER NOT NULL,
  start_round   INTEGER NOT NULL,
  end_round     INTEGER NOT NULL,
  rounds        INTEGER NOT NULL,
  time_ns       INTEGER NOT NULL,
  version       INTEGER NOT NULL,
  checks        INTEGER NOT NULL,
  violations    INTEGER NOT NULL,
  actions       INTEGER NOT NULL,
  inconclusive  INTEGER NOT NULL,
  completed_ios INTEGER NOT NULL,
  false_submits INTEGER NOT NULL,
  model_submits INTEGER NOT NULL,
  sketches      TEXT NOT NULL,
  PRIMARY KEY (run_id, bucket, host_id)
);
CREATE TABLE IF NOT EXISTS events (
  run_id      INTEGER NOT NULL,
  seq         INTEGER NOT NULL,
  round_index INTEGER NOT NULL,
  time_s      REAL NOT NULL,
  event       TEXT NOT NULL,
  entry       TEXT NOT NULL,
  PRIMARY KEY (run_id, seq)
);
CREATE TABLE IF NOT EXISTS phases (
  run_id       INTEGER NOT NULL,
  start_round  INTEGER NOT NULL,
  kind         TEXT NOT NULL,
  label        TEXT NOT NULL,
  target_hosts INTEGER NOT NULL,
  end_round    INTEGER NOT NULL,
  PRIMARY KEY (run_id, start_round)
);
CREATE TABLE IF NOT EXISTS gates (
  run_id       INTEGER NOT NULL,
  stage        TEXT NOT NULL,
  round_index  INTEGER NOT NULL,
  passed       INTEGER NOT NULL,
  reasons      TEXT NOT NULL,
  measurements TEXT NOT NULL,
  PRIMARY KEY (run_id, stage, round_index)
);
CREATE TABLE IF NOT EXISTS proposals (
  proposal_id INTEGER PRIMARY KEY,
  kind        TEXT NOT NULL,
  guardrail   TEXT NOT NULL,
  version     INTEGER NOT NULL,
  spec        TEXT NOT NULL,
  provenance  TEXT NOT NULL,
  verdict     TEXT NOT NULL,
  deploy_run  INTEGER
);
"""


class StoreError(Exception):
    """Schema mismatch, broken round ordering, or an unreadable store."""


def digest_from_bucket_row(row):
    """A :class:`HostDigest` from a ``host_buckets`` row.

    Bucket rows carry ``start_round``/``end_round`` instead of a single
    ``round_index``; the rebuilt digest reports the bucket's first round.
    """
    return HostDigest.from_row(row, round_index=row["start_round"])


class RetentionPolicy:
    """How long raw per-host digests stay raw.

    ``raw_rounds`` is the retention horizon: after committing round ``R``,
    raw rows with ``round_index <= R - raw_rounds`` are folded into their
    time bucket and deleted (``None`` disables retention entirely — every
    round stays raw, which is what report regeneration needs).
    ``bucket_rounds`` is the downsampling grain: bucket ``k`` covers
    rounds ``[k*bucket_rounds, (k+1)*bucket_rounds)``.  A bucket can be
    folded incrementally — first the part of it that crossed the horizon,
    later the rest — and the folds merge exactly for counters and
    histogram mass (float sketch merges are tolerance-bounded, same as
    cross-host merges).
    """

    __slots__ = ("raw_rounds", "bucket_rounds")

    def __init__(self, raw_rounds=None, bucket_rounds=8):
        if raw_rounds is not None and raw_rounds < 1:
            raise ValueError(
                "raw_rounds must be >= 1 or None, got {}".format(raw_rounds))
        if bucket_rounds < 1:
            raise ValueError(
                "bucket_rounds must be >= 1, got {}".format(bucket_rounds))
        self.raw_rounds = raw_rounds
        self.bucket_rounds = int(bucket_rounds)


class ResultsStore:
    """One sqlite results store (see the module docstring for the schema)."""

    def __init__(self, path, retention=None):
        self.path = path
        self.retention = retention or RetentionPolicy()
        try:
            self._db = sqlite3.connect(path)
        except sqlite3.Error as exc:
            raise StoreError("cannot open store {!r}: {}".format(path, exc))
        self._db.row_factory = sqlite3.Row
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA synchronous=NORMAL")
        self._init_schema()

    def _init_schema(self):
        with self._db:
            self._db.executescript(_SCHEMA)
            row = self._db.execute(
                "SELECT value FROM meta WHERE key='schema_version'").fetchone()
            if row is None:
                self._db.execute(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(SCHEMA_VERSION)))
            elif row["value"] == "2":
                self._db.execute(
                    "UPDATE meta SET value=? WHERE key='schema_version'",
                    (str(SCHEMA_VERSION),))
            elif int(row["value"]) != SCHEMA_VERSION:
                raise StoreError(
                    "store {!r} has schema v{}, this build speaks v{}".format(
                        self.path, row["value"], SCHEMA_VERSION))

    def close(self):
        self._db.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- runs ---------------------------------------------------------------

    def begin_run(self, kind, scenario, round_ns, hosts, total_rounds=None,
                  plan=None, versions=None):
        """Open a new run in ``running`` state; returns its id."""
        with self._db:
            cursor = self._db.execute(
                "INSERT INTO runs (kind, status, scenario, plan, versions,"
                " round_ns, hosts, total_rounds) VALUES (?,?,?,?,?,?,?,?)",
                (kind, "running", json.dumps(scenario, sort_keys=True),
                 None if plan is None else json.dumps(plan, sort_keys=True),
                 None if versions is None
                 else json.dumps(versions, sort_keys=True),
                 int(round_ns), int(hosts), total_rounds))
        return cursor.lastrowid

    def run(self, run_id):
        """The run row as a dict (JSON columns decoded); StoreError if absent."""
        row = self._db.execute("SELECT * FROM runs WHERE run_id=?",
                               (run_id,)).fetchone()
        if row is None:
            raise StoreError("no run {} in store {!r}".format(
                run_id, self.path))
        run = dict(row)
        run["scenario"] = json.loads(run["scenario"])
        for key in ("plan", "versions"):
            if run[key] is not None:
                run[key] = json.loads(run[key])
        return run

    def runs(self):
        rows = self._db.execute(
            "SELECT run_id FROM runs ORDER BY run_id").fetchall()
        return [self.run(row["run_id"]) for row in rows]

    def latest_run_id(self):
        row = self._db.execute("SELECT MAX(run_id) AS m FROM runs").fetchone()
        return row["m"]

    # -- per-round ingest ---------------------------------------------------

    def commit_round(self, run_id, round_index, time_ns, digests,
                     events=(), phases=(), gates=()):
        """Commit one round atomically; returns retention fold statistics.

        ``round_index`` must be exactly ``committed_round + 1`` — the store
        accepts no gaps and no duplicates, which is what makes the
        watermark a safe resume point.  ``events``/``phases``/``gates`` are
        the control-plane records that accrued since the previous commit
        (they describe earlier rounds; replays rewrite them identically).
        """
        run = self.run(run_id)
        if round_index != run["committed_round"] + 1:
            raise StoreError(
                "round {} out of order: store has committed through {}"
                .format(round_index, run["committed_round"]))
        folded = {"rounds_folded": 0, "rows_deleted": 0}
        with self._db:
            self._insert_digests(run_id, round_index, time_ns, digests)
            self._insert_control(run_id, events, phases, gates)
            self._db.execute(
                "UPDATE runs SET committed_round=? WHERE run_id=?",
                (round_index, run_id))
            if self.retention.raw_rounds is not None:
                folded = self._apply_retention(run_id, round_index)
        return folded

    def _insert_digests(self, run_id, round_index, time_ns, digests):
        rows = []
        fleet = {field: 0 for field in _COUNTERS}
        for digest in digests:
            row = digest.to_row()
            rows.append((run_id, round_index, row["host_id"], row["time_ns"],
                         row["version"])
                        + tuple(row[field] for field in _COUNTERS)
                        + (row["sketches"],))
            for field in _COUNTERS:
                fleet[field] += row[field]
        self._db.executemany(
            "INSERT INTO host_digests VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?)",
            rows)
        self._db.execute(
            "INSERT INTO rounds VALUES (?,?,?,?,?,?,?,?,?,?,?)",
            (run_id, round_index, time_ns, len(rows))
            + tuple(fleet[field] for field in _COUNTERS))

    def _insert_control(self, run_id, events, phases, gates):
        for seq, entry in events:
            self._db.execute(
                "INSERT INTO events VALUES (?,?,?,?,?,?)",
                (run_id, seq, entry["round"], entry["time_s"],
                 entry["event"], json.dumps(entry, sort_keys=True)))
        for phase in phases:
            self._db.execute(
                "INSERT OR REPLACE INTO phases VALUES (?,?,?,?,?,?)",
                (run_id, phase["start_round"], phase["kind"], phase["label"],
                 phase["target_hosts"], phase["end_round"]))
        for stage, round_index, result in gates:
            self._db.execute(
                "INSERT OR REPLACE INTO gates VALUES (?,?,?,?,?,?)",
                (run_id, stage, round_index, int(result["passed"]),
                 json.dumps(result["reasons"], sort_keys=True),
                 json.dumps(result["measurements"], sort_keys=True)))

    def finalize_run(self, run_id, status, rolled_back_at=None,
                     final_rounds=None, events=(), phases=(), gates=()):
        """Close a run: trailing control-plane records + final status."""
        with self._db:
            self._insert_control(run_id, events, phases, gates)
            self._db.execute(
                "UPDATE runs SET status=?, rolled_back_at=?, final_rounds=?"
                " WHERE run_id=?",
                (status, rolled_back_at, final_rounds, run_id))

    def max_event_seq(self, run_id):
        row = self._db.execute(
            "SELECT MAX(seq) AS m FROM events WHERE run_id=?",
            (run_id,)).fetchone()
        return -1 if row["m"] is None else row["m"]

    # -- autopilot proposals ------------------------------------------------

    def record_proposal(self, kind, guardrail, version, spec, provenance,
                        verdict="proposed"):
        """Persist one autopilot proposal; returns its id.

        ``provenance`` is the machine-readable why (observed band, sample
        count, prior threshold ...), stored as canonical JSON.
        """
        with self._db:
            cursor = self._db.execute(
                "INSERT INTO proposals (kind, guardrail, version, spec,"
                " provenance, verdict, deploy_run) VALUES (?,?,?,?,?,?,?)",
                (kind, guardrail, int(version), spec,
                 json.dumps(provenance, sort_keys=True), verdict, None))
        return cursor.lastrowid

    def set_proposal_verdict(self, proposal_id, verdict, deploy_run=None):
        """Record how a proposal ended up (``deployed`` / ``rolled_back``)."""
        with self._db:
            cursor = self._db.execute(
                "UPDATE proposals SET verdict=?, deploy_run=?"
                " WHERE proposal_id=?",
                (verdict, deploy_run, proposal_id))
        if cursor.rowcount == 0:
            raise StoreError("no proposal {} in store {!r}".format(
                proposal_id, self.path))

    def proposal_rows(self):
        return self._db.execute(
            "SELECT * FROM proposals ORDER BY proposal_id").fetchall()

    # -- retention / downsampling ------------------------------------------

    def _apply_retention(self, run_id, committed_round):
        """Fold raw rows past the horizon into buckets (runs in-transaction).

        The horizon keeps the most recent ``raw_rounds`` rounds raw: after
        committing round ``R``, rounds ``<= R - raw_rounds`` expire.  Folds
        walk expired rounds in ascending order per host, merging each into
        its bucket row; a bucket that already exists (an earlier partial
        fold) is loaded, merged, and rewritten.
        """
        policy = self.retention
        cutoff = committed_round - policy.raw_rounds  # expired: <= cutoff
        expired = self._db.execute(
            "SELECT * FROM host_digests WHERE run_id=? AND round_index<=?"
            " ORDER BY host_id, round_index", (run_id, cutoff)).fetchall()
        if not expired:
            return {"rounds_folded": 0, "rows_deleted": 0}
        buckets = {}
        for row in expired:
            bucket = row["round_index"] // policy.bucket_rounds
            key = (bucket, row["host_id"])
            digest = HostDigest.from_row(row)
            if key not in buckets:
                existing = self._db.execute(
                    "SELECT * FROM host_buckets WHERE run_id=? AND bucket=?"
                    " AND host_id=?", (run_id, bucket, row["host_id"]),
                ).fetchone()
                if existing is None:
                    buckets[key] = {
                        "digest": digest,
                        "start_round": row["round_index"],
                        "end_round": row["round_index"] + 1,
                        "rounds": 1,
                    }
                    continue
                buckets[key] = {
                    "digest": digest_from_bucket_row(existing),
                    "start_round": existing["start_round"],
                    "end_round": existing["end_round"],
                    "rounds": existing["rounds"],
                }
            state = buckets[key]
            state["digest"].merge_round(digest)
            state["start_round"] = min(state["start_round"],
                                       row["round_index"])
            state["end_round"] = max(state["end_round"],
                                     row["round_index"] + 1)
            state["rounds"] += 1
        for (bucket, host_id), state in sorted(buckets.items()):
            row = state["digest"].to_row()
            self._db.execute(
                "INSERT OR REPLACE INTO host_buckets VALUES"
                " (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)",
                (run_id, bucket, host_id, state["start_round"],
                 state["end_round"], state["rounds"], row["time_ns"],
                 row["version"])
                + tuple(row[field] for field in _COUNTERS)
                + (row["sketches"],))
        self._db.execute(
            "DELETE FROM host_digests WHERE run_id=? AND round_index<=?",
            (run_id, cutoff))
        return {"rounds_folded": len(buckets), "rows_deleted": len(expired)}

    # -- reads --------------------------------------------------------------

    def round_rows(self, run_id):
        """Every ``rounds`` row of ``run_id``, ascending."""
        return self._db.execute(
            "SELECT * FROM rounds WHERE run_id=? ORDER BY round_index",
            (run_id,)).fetchall()

    def digest_rows(self, run_id, start_round=0, end_round=None):
        """Raw host-digest rows in range, ordered (round, host) ascending."""
        if end_round is None:
            end_round = 1 << 62
        return self._db.execute(
            "SELECT * FROM host_digests WHERE run_id=? AND round_index>=?"
            " AND round_index<? ORDER BY round_index, host_id",
            (run_id, start_round, end_round)).fetchall()

    def bucket_rows(self, run_id, start_round=0, end_round=None):
        """Bucket rows overlapping ``[start_round, end_round)``, ascending."""
        if end_round is None:
            end_round = 1 << 62
        return self._db.execute(
            "SELECT * FROM host_buckets WHERE run_id=? AND end_round>? AND"
            " start_round<? ORDER BY bucket, host_id",
            (run_id, start_round, end_round)).fetchall()

    def event_rows(self, run_id):
        return self._db.execute(
            "SELECT * FROM events WHERE run_id=? ORDER BY seq",
            (run_id,)).fetchall()

    def phase_rows(self, run_id):
        return self._db.execute(
            "SELECT * FROM phases WHERE run_id=? ORDER BY start_round",
            (run_id,)).fetchall()

    def gate_rows(self, run_id):
        return self._db.execute(
            "SELECT * FROM gates WHERE run_id=? ORDER BY round_index",
            (run_id,)).fetchall()

    def raw_round_indexes(self, run_id):
        """Round indexes that still have raw digests (ascending)."""
        rows = self._db.execute(
            "SELECT DISTINCT round_index FROM host_digests WHERE run_id=?"
            " ORDER BY round_index", (run_id,)).fetchall()
        return [row["round_index"] for row in rows]


__all__ = [
    "ResultsStore",
    "RetentionPolicy",
    "SCHEMA_VERSION",
    "StoreError",
    "digest_from_bucket_row",
]
