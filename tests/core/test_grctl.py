"""The grctl command-line tool."""

import builtins
import importlib
import io
import pathlib

import pytest

from repro.core.spec import parse_guardrails
from repro.tools import grctl
from repro.tools.grctl import main
from tests.bench.conftest import GOOD_MODULES, write_bench_dir

GOOD = """
guardrail a {
  trigger: { TIMER(start_time, 1s) },
  rule: { LOAD(x) <= 1 },
  action: { REPORT() }
}
guardrail b {
  trigger: { FUNCTION(mm.alloc) },
  rule: { granted <= available },
  action: { REPLACE(slot.x, impl.y) }
}
"""

BAD_SYNTAX = "guardrail oops { trigger: }"

OVER_BUDGET = """
guardrail heavy {
  trigger: { TIMER(start_time, 1s) },
  rule: { LOAD(a) + LOAD(b) + LOAD(c) + LOAD(d) <= 1 },
  action: { REPORT() }
}
"""


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def good_file(tmp_path):
    path = tmp_path / "good.grd"
    path.write_text(GOOD)
    return str(path)


def test_check_good_file(good_file):
    code, output = run(["check", good_file])
    assert code == 0
    assert "OK    a" in output
    assert "OK    b" in output
    assert "2 guardrail(s), 0 failure(s)" in output


def test_check_reports_parse_errors(tmp_path):
    path = tmp_path / "bad.grd"
    path.write_text(BAD_SYNTAX)
    code, output = run(["check", str(path)])
    assert code == 1
    assert "PARSE ERROR" in output


def test_check_empty_file_fails(tmp_path):
    path = tmp_path / "empty.grd"
    path.write_text("// nothing\n")
    code, output = run(["check", str(path)])
    assert code == 1
    assert "no guardrails" in output


def test_check_budget_override(tmp_path):
    path = tmp_path / "heavy.grd"
    path.write_text(OVER_BUDGET)
    code, _ = run(["check", str(path)])
    assert code == 0
    code, output = run(["check", "--budget-ops", "5", str(path)])
    assert code == 1
    assert "FAIL  heavy" in output


def test_inspect_shows_costs_and_read_set(good_file):
    code, output = run(["inspect", good_file])
    assert code == 0
    assert "guardrail a" in output
    assert "[4 ops]" in output  # LOAD(x) <= 1: fused threshold
    assert "reads    x" in output
    assert "reads    <none>" in output   # guardrail b reads payload only
    assert "REPLACE(slot.x, impl.y)" in output


def test_inspect_json_structure(good_file):
    import json

    code, output = run(["inspect", "--json", good_file])
    assert code == 0
    data = json.loads(output)
    names = [g["name"] for g in data["guardrails"]]
    assert names == ["a", "b"]
    first = data["guardrails"][0]
    assert first["reads"] == ["x"]
    assert first["rules"][0]["ops"] == 4
    assert sorted(first["rules"][0]) == ["ops", "source"]
    assert first["ops_per_check"] == 4
    assert first["actions"] == ["REPORT()"]
    assert data["guardrails"][1]["reads"] == []


def test_inspect_json_parse_error(tmp_path):
    import json

    path = tmp_path / "bad.grd"
    path.write_text(BAD_SYNTAX)
    code, output = run(["inspect", "--json", str(path)])
    assert code == 1
    assert "error" in json.loads(output)


def test_budget_ops_must_be_positive(good_file):
    for sub in ("check", "inspect"):
        code, _ = run([sub, "--budget-ops", "0", good_file])
        assert code == 2


def test_trace_duration_must_be_positive():
    code, _ = run(["trace", "--duration", "0"])
    assert code == 2


def test_faults_duration_must_be_positive():
    code, _ = run(["faults", "--duration", "-1"])
    assert code == 2


def test_fmt_canonical_and_idempotent(good_file, tmp_path):
    code, formatted = run(["fmt", good_file])
    assert code == 0
    # Formatted output parses to the same specs.
    assert [s.name for s in parse_guardrails(formatted)] == ["a", "b"]
    # fmt of the formatted text is a fixed point.
    path = tmp_path / "fmt.grd"
    path.write_text(formatted)
    _, again = run(["fmt", str(path)])
    assert again == formatted


def test_fmt_write_in_place(good_file):
    code, output = run(["fmt", "--write", good_file])
    assert code == 0
    assert output == ""
    with open(good_file) as handle:
        assert handle.read().startswith("guardrail a {")


def test_fmt_parse_error(tmp_path):
    path = tmp_path / "bad.grd"
    path.write_text(BAD_SYNTAX)
    code, output = run(["fmt", str(path)])
    assert code == 1
    assert "PARSE ERROR" in output


AGGREGATED = """
guardrail agg {
  trigger: { TIMER(start_time, 1s) },
  rule: { AVG(fault_ms, 10s) <= 2 && P95(fault_ms) <= 20 },
  action: { REPORT() }
}
"""


def test_inspect_shows_aggregate_read_set(tmp_path):
    path = tmp_path / "agg.grd"
    path.write_text(AGGREGATED)
    code, output = run(["inspect", str(path)])
    assert code == 0
    # The read set names the lowered derived keys.
    assert "fault_ms.avg10000000000" in output
    assert "fault_ms.p95" in output


def test_check_accepts_aggregates(tmp_path):
    path = tmp_path / "agg.grd"
    path.write_text(AGGREGATED)
    code, output = run(["check", str(path)])
    assert code == 0
    assert "OK    agg" in output


def test_fmt_check_passes_on_canonical_file(good_file, tmp_path):
    _, formatted = run(["fmt", good_file])
    path = tmp_path / "canonical.grd"
    path.write_text(formatted)
    code, output = run(["fmt", "--check", str(path)])
    assert code == 0
    assert output == ""


def test_fmt_check_fails_without_writing(good_file):
    with open(good_file) as handle:
        original = handle.read()
    code, output = run(["fmt", "--check", good_file])
    assert code == 1
    assert "would reformat" in output
    with open(good_file) as handle:
        assert handle.read() == original  # --check never writes


def test_fmt_check_with_write_is_usage_error(good_file):
    # Contradictory flags are an operator mistake (exit 2), not a formatting
    # failure (exit 1) — and the file must never be touched.
    with open(good_file) as handle:
        original = handle.read()
    code, _ = run(["fmt", "--check", "--write", good_file])
    assert code == 2
    with open(good_file) as handle:
        assert handle.read() == original


def test_fmt_check_parse_error(tmp_path):
    path = tmp_path / "bad.grd"
    path.write_text(BAD_SYNTAX)
    code, output = run(["fmt", "--check", str(path)])
    assert code == 1
    assert "PARSE ERROR" in output


def test_trace_quick_scenario_summary_and_exports(tmp_path):
    import json

    jsonl = str(tmp_path / "run.jsonl")
    chrome = str(tmp_path / "run.json")
    code, output = run(["trace", "--scenario", "quick", "--duration", "2",
                        "--jsonl", jsonl, "--chrome", chrome])
    assert code == 0
    assert "per-guardrail counters (exact):" in output
    assert "queue-bound" in output and "alloc-bound" in output
    assert "hottest hooks" in output and "mm.alloc" in output

    with open(chrome) as fp:
        data = json.load(fp)
    categories = {r["cat"] for r in data["traceEvents"] if r["ph"] != "M"}
    assert len(categories) >= 4

    code, replay_out = run(["trace", "--replay", jsonl])
    assert code == 0
    assert "per-guardrail counters (from events; lower bound):" in replay_out
    assert "queue-bound" in replay_out


def test_trace_sampling_and_category_flags(tmp_path):
    jsonl = str(tmp_path / "sampled.jsonl")
    code, output = run(["trace", "--scenario", "quick", "--duration", "2",
                        "--categories", "hook,monitor.check,action",
                        "--sample", "hook=8", "--jsonl", jsonl])
    assert code == 0
    from repro.trace import read_jsonl

    events = read_jsonl(jsonl)
    assert events
    assert {e.category for e in events} <= {"hook", "monitor.check", "action"}
    # Counters stay exact even though the event stream is filtered/sampled.
    assert "per-guardrail counters (exact):" in output


# -- unwritable output paths --------------------------------------------------

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Every file-writing flag: (id, argv builder, module, run function).  The
#: argv puts ``bad`` in the flag under test; the run function must never be
#: entered, because the output is opened before the run starts.
UNWRITABLE_OUTPUTS = [
    ("fleet --out", lambda tmp, bad: [
        "fleet", "--hosts", "2", "--quick", "--out", bad],
     "repro.fleet.scenario", "run_fleet_rollout"),
    ("autopilot --out", lambda tmp, bad: [
        "autopilot", "loop", "--store", str(tmp / "ap.sqlite"), "--quick",
        "--out", bad],
     "repro.autopilot.loop", "run_autopilot"),
    ("scenarios run --out", lambda tmp, bad: [
        "scenarios", "run", "--quick", "--filter", "storage/quiet/clean",
        "--out", bad],
     "repro.scenarios", "run_scenarios"),
    ("eval run --out", lambda tmp, bad: [
        "eval", "run", "--quick", "--out", bad],
     "repro.eval.runner", "run_eval"),
    ("eval calibrate --out", lambda tmp, bad: [
        "eval", "calibrate", "--from", str(REPO_ROOT / "EVAL_baseline.json"),
        "--out", bad],
     "repro.eval.calibrate", "calibrate"),
    ("faults --json", lambda tmp, bad: [
        "faults", "--fault", "raise@storage.pick_device:start=3,stop=5",
        "--duration", "1", "--json", bad],
     "repro.bench.scenarios", "run_faults_demo_scenario"),
    ("bench --out", lambda tmp, bad: [
        "bench", "--bench-dir", str(write_bench_dir(
            tmp / "benchmarks", GOOD_MODULES)), "--quick", "--out", bad],
     "repro.bench.runner", "run_scenarios"),
    ("trace --jsonl", lambda tmp, bad: ["trace", "--jsonl", bad],
     "repro.bench.scenarios", "run_trace_demo_scenario"),
    ("trace --chrome", lambda tmp, bad: ["trace", "--chrome", bad],
     "repro.bench.scenarios", "run_trace_demo_scenario"),
    ("dash --html", lambda tmp, bad: [
        "dash", "--store", str(tmp / "s.sqlite"), "--html", bad],
     "repro.service.dashboard", "render_html"),
]


@pytest.mark.parametrize(
    "argv, module, function",
    [row[1:] for row in UNWRITABLE_OUTPUTS],
    ids=[row[0] for row in UNWRITABLE_OUTPUTS])
def test_unwritable_output_exits_2_before_the_run(
        tmp_path, monkeypatch, capsys, argv, module, function):
    def entered(*args, **kwargs):
        raise AssertionError("{} ran before its output was opened".format(
            function))

    monkeypatch.setattr(importlib.import_module(module), function, entered)
    bad = str(tmp_path / "no-such-dir" / "out.json")
    code, _ = run(argv(tmp_path, bad))
    assert code == 2
    assert "cannot write {!r}".format(bad) in capsys.readouterr().err


def test_fmt_write_to_unwritable_file_is_usage_error(
        good_file, monkeypatch, capsys):
    # Root ignores file modes, so refuse writes at ``open`` instead.
    def read_only_open(path, mode="r", *args, **kwargs):
        if "w" in mode:
            raise PermissionError(13, "Permission denied", path)
        return builtins.open(path, mode, *args, **kwargs)

    monkeypatch.setattr(grctl, "open", read_only_open, raising=False)
    code, output = run(["fmt", "--write", good_file])
    assert code == 2 and output == ""
    assert "cannot write" in capsys.readouterr().err
    with open(good_file) as handle:
        assert handle.read() == GOOD
