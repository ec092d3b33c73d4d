"""BENCH.json — the machine-readable benchmark result format and its gate.

Scenario contract
-----------------
Every ``benchmarks/bench_*.py`` module exposes::

    def scenarios() -> list[(scenario_id, fn)]

where ``fn(report=None)`` runs one seed-pinned, deterministic experiment and
returns a flat dict of metrics (numbers, strings, bools, None; any other
value makes the scenario an ``error``).  Every metric must be
byte-identical across runs and across ``--jobs`` values, which is what
makes the regression gate meaningful; wall-clock cost is measured by the
``benchmarks/perf`` spine, never here.  ``report``, when given, is a
``(name, text) -> path`` sink for the human-readable table ``grctl bench``
writes under ``benchmarks/out/``, which is deterministic too.

The :func:`scenario` decorator attaches scheduling metadata (``quick``
tier membership, relative ``cost`` for longest-first sharding, the pinned
``seed``) as plain function attributes so ``scenarios()`` stays a list of
``(id, fn)`` pairs.

File format (schema version 1)
------------------------------
::

    {
      "schema_version": 1,
      "git_sha": "abc123..." | null,
      "created_unix": 1720000000.0,
      "tier": "full" | "quick",
      "jobs": 4,
      "filter": null,
      "scenarios": [            // sorted by id
        {
          "id": "fig2_linnos",
          "module": "bench_fig2_linnos",
          "status": "ok" | "error" | "crash" | "timeout",
          "attempts": 1,
          "seed": 2 | null,
          "wall_time_s": 5.1,   // excluded from gating/determinism
          "metrics": {...},     // deterministic, gated
          "error": null | "traceback..."
        }, ...
      ]
    }
"""

import json
import math
import subprocess

SCHEMA_VERSION = 1

#: scenario-result fields that may legitimately differ between two runs of
#: the same tree (the determinism tests and the gate both ignore them).
NONDETERMINISTIC_FIELDS = ("wall_time_s", "attempts", "error")


def scenario(*, quick=True, cost=1.0, seed=None):
    """Attach scheduling metadata to a scenario function:
    ``@scenario(quick=False, cost=8.0, seed=2)``.
    """
    def apply(func):
        func.quick = quick
        func.cost = cost
        func.seed = seed
        return func

    return apply


def git_sha(cwd=None):
    """The current commit sha, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def make_document(scenario_results, tier, jobs, filter_expr=None,
                  sha=None, created_unix=None):
    """Merge per-scenario results into one canonically-ordered document."""
    return {
        "schema_version": SCHEMA_VERSION,
        "git_sha": sha,
        "created_unix": created_unix,
        "tier": tier,
        "jobs": jobs,
        "filter": filter_expr,
        "scenarios": sorted(scenario_results, key=lambda r: r["id"]),
    }


def load_document(path):
    """Load and schema-check a BENCH.json; raise ValueError on mismatch."""
    with open(path) as handle:
        document = json.load(handle)
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            "unsupported BENCH.json schema_version {!r} (expected {})".format(
                version, SCHEMA_VERSION))
    if not isinstance(document.get("scenarios"), list):
        raise ValueError("BENCH.json has no scenario list")
    return document


def deterministic_view(document):
    """The subset of a document that must be identical across runs.

    Strips the run-level envelope (jobs, timestamps, sha) and every
    per-scenario field named in :data:`NONDETERMINISTIC_FIELDS`; what is
    left — id, module, seed, status, metrics — is what the determinism
    tests compare byte-for-byte.
    """
    view = []
    for result in document["scenarios"]:
        view.append({key: value for key, value in sorted(result.items())
                     if key not in NONDETERMINISTIC_FIELDS})
    return view


class Regression:
    """One gate failure: a metric moved beyond tolerance, or went missing."""

    def __init__(self, scenario_id, metric, baseline, current, detail):
        self.scenario_id = scenario_id
        self.metric = metric
        self.baseline = baseline
        self.current = current
        self.detail = detail

    def __repr__(self):
        return "Regression({}.{}: {})".format(
            self.scenario_id, self.metric, self.detail)

    def render(self):
        return "GATE  {}.{}: {} (baseline={!r}, current={!r})".format(
            self.scenario_id, self.metric, self.detail,
            self.baseline, self.current)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare_to_baseline(current, baseline, tolerance, selected_ids=None):
    """Gate ``current`` against ``baseline``; return a list of Regressions.

    Scenarios are seed-pinned and deterministic, so the gate is
    *two-sided*: any gated metric drifting beyond ``tolerance`` (relative,
    against the baseline magnitude) fails, improvements included —
    improvements are ratified by refreshing the committed baseline, which
    keeps it honest.  Non-numeric metrics must match exactly.  Wall times
    are never gated.

    ``selected_ids`` scopes the gate to a deliberately restricted run
    (``--quick``, ``--filter``): baseline scenarios outside the selection
    are skipped, so one committed full-tier baseline serves every tier.
    With ``selected_ids=None`` (an unrestricted run) every ok baseline
    scenario must be present — a deleted benchmark fails the gate until
    the baseline is refreshed deliberately.  Scenarios newly added in
    ``current`` pass silently until baselined.
    """
    regressions = []
    current_by_id = {r["id"]: r for r in current["scenarios"]}
    for base in baseline["scenarios"]:
        sid = base["id"]
        if selected_ids is not None and sid not in selected_ids:
            continue
        if base.get("status") != "ok":
            continue  # a broken baseline entry cannot anchor a comparison
        run = current_by_id.get(sid)
        if run is None:
            regressions.append(Regression(
                sid, "<scenario>", "present", "missing",
                "scenario missing from current run"))
            continue
        if run.get("status") != "ok":
            tail = (run.get("error") or "").strip().splitlines()
            regressions.append(Regression(
                sid, "<scenario>", "ok", run.get("status"),
                "scenario did not complete: {}".format(
                    tail[-1] if tail else "no detail")))
            continue
        base_metrics = base.get("metrics") or {}
        run_metrics = run.get("metrics") or {}
        for name, base_value in sorted(base_metrics.items()):
            if name not in run_metrics:
                regressions.append(Regression(
                    sid, name, base_value, None, "metric missing"))
                continue
            value = run_metrics[name]
            failure = _compare_metric(base_value, value, tolerance)
            if failure:
                regressions.append(
                    Regression(sid, name, base_value, value, failure))
    return regressions


def _compare_metric(base_value, value, tolerance):
    """None when within tolerance, else a human-readable reason."""
    if _is_number(base_value) and _is_number(value):
        if math.isnan(base_value) and math.isnan(value):
            return None
        if math.isnan(base_value) != math.isnan(value):
            return "NaN mismatch"
        delta = abs(value - base_value)
        # Relative against the baseline magnitude; a zero baseline falls
        # back to an absolute tolerance so 0 -> 0.0001 still passes a
        # 0.15 gate but 0 -> 1 does not.
        scale = abs(base_value) if base_value else 1.0
        if delta > tolerance * scale:
            return "drifted {:.1%} (> {:.1%} tolerance)".format(
                delta / scale, tolerance)
        return None
    if type(base_value) is not type(value) or base_value != value:
        return "value changed"
    return None
