"""grctl serve/query/dash and fleet --out: exit codes and byte-identity.

The headline acceptance check lives here: for a fixed seed, the report
regenerated from the sqlite store via ``grctl query report`` is
byte-identical to the live ``grctl fleet --json`` report.
"""

import io
import json

from repro.tools.grctl import main


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_store_regenerated_report_is_byte_identical(tmp_path):
    store = str(tmp_path / "fleet.sqlite")
    args = ["--hosts", "4", "--quick", "--faults", "1", "--seed", "42"]
    code_live, live = run(["fleet", "--json"] + args)
    code_serve, summary = run(["serve", "--store", store] + args)
    code_regen, regen = run(["query", "report", "--store", store])
    assert code_live == 1  # rolled back
    assert code_serve == 1  # same contract through the service
    assert code_regen == 0
    assert regen == live  # byte-identical
    assert json.loads(summary)["status"] == "rolled_back"


def test_fleet_out_writes_the_json_report(tmp_path):
    path = str(tmp_path / "report.json")
    code, stdout = run(["fleet", "--hosts", "4", "--quick", "--seed", "7",
                        "--json", "--out", path])
    assert code == 0
    with open(path) as handle:
        assert handle.read() == stdout  # same bytes both places
    # Human rendering still mentions where the report went.
    code, stdout = run(["fleet", "--hosts", "4", "--quick", "--seed", "7",
                        "--out", path])
    assert code == 0
    assert "wrote report to {}".format(path) in stdout


def test_fleet_out_unwritable_path_is_usage_error(tmp_path):
    code, _ = run(["fleet", "--hosts", "4", "--quick",
                   "--out", str(tmp_path / "no" / "dir" / "x.json")])
    assert code == 2


def test_serve_resume_round_trip(tmp_path):
    store = str(tmp_path / "fleet.sqlite")
    code, out = run(["serve", "--store", store, "--hosts", "4", "--quick",
                     "--seed", "7", "--max-rounds", "2"])
    assert code == 0
    assert json.loads(out)["status"] == "running"
    code, out = run(["serve", "--store", store, "--resume"])
    assert code == 0
    assert json.loads(out)["status"] == "completed"
    # Resumed store regenerates the same bytes as a live run.
    _, live = run(["fleet", "--json", "--hosts", "4", "--quick",
                   "--seed", "7"])
    code, regen = run(["query", "report", "--store", store])
    assert code == 0
    assert regen == live


def test_serve_soak_with_retention(tmp_path):
    store = str(tmp_path / "soak.sqlite")
    code, out = run(["serve", "--store", store, "--soak", "--hosts", "2",
                     "--rounds", "8", "--rate", "60",
                     "--retain-rounds", "2", "--bucket-rounds", "2"])
    assert code == 0
    summary = json.loads(out)
    assert summary["kind"] == "soak"
    assert summary["raw_rows_deleted_now"] > 0  # retention engaged
    code, out = run(["query", "trend", "--store", store])
    assert code == 0
    points = json.loads(out)["points"]
    assert any(p["downsampled"] for p in points)
    assert any(not p["downsampled"] for p in points)


def test_query_usage_errors(tmp_path):
    store = str(tmp_path / "fleet.sqlite")
    code, _ = run(["query", "bogus", "--store", store])
    assert code == 2
    code, _ = run(["query", "status", "--store", store])  # empty store
    assert code == 2
    run(["serve", "--store", store, "--soak", "--hosts", "2",
         "--rounds", "2", "--rate", "40"])
    code, _ = run(["query", "report", "--store", store])  # soak: no report
    assert code == 2
    code, _ = run(["query", "status", "--store", store, "--run", "99"])
    assert code == 2


def test_serve_flag_validation(tmp_path):
    store = str(tmp_path / "fleet.sqlite")
    for argv in (
        ["serve", "--store", store, "--hosts", "0"],
        ["serve", "--store", store, "--run", "1"],  # --run without --resume
        ["serve", "--store", store, "--retain-rounds", "0"],
        ["serve", "--store", store, "--resume"],  # empty store
        ["serve", "--store", store, "--resume", "--run", "99"],  # no run
    ):
        code, _ = run(argv)
        assert code == 2, argv


def test_dash_terminal_and_html(tmp_path):
    store = str(tmp_path / "fleet.sqlite")
    run(["serve", "--store", store, "--hosts", "4", "--quick",
         "--faults", "1", "--seed", "42"])
    code, text = run(["dash", "--store", store])
    assert code == 0
    assert "rolled_back" in text
    page_path = str(tmp_path / "dash.html")
    code, out = run(["dash", "--store", store, "--html", page_path])
    assert code == 0
    with open(page_path) as handle:
        page = handle.read()
    assert page.startswith("<!DOCTYPE html>")
    assert "Fleet health" in page
    code, _ = run(["dash", "--store", store, "--html",
                   str(tmp_path / "no" / "dir" / "x.html")])
    assert code == 2
