"""Runner behavior: discovery, sharding determinism, and failure policy."""

import json

import pytest

from repro.bench.results import deterministic_view, make_document
from repro.bench.runner import (
    DiscoveryError,
    discover,
    run_scenarios,
    select,
)
from tests.bench.conftest import write_bench_dir


def test_discover_orders_longest_first(bench_dir):
    specs = discover(bench_dir)
    assert [s.id for s in specs] == ["alpha_slowtier", "alpha_mix", "beta_sum"]
    assert [s.cost for s in specs] == [5.0, 2.0, 1.0]
    assert specs[0].module == "bench_alpha"
    assert specs[0].seed == 8 and not specs[0].quick


def test_discover_rejects_duplicate_ids(tmp_path):
    root = write_bench_dir(tmp_path / "benchmarks", {
        "bench_dupe_one.py": """
            def run(report=None):
                return {}
            def scenarios():
                return [("same_id", run)]
        """,
        "bench_dupe_two.py": """
            def run(report=None):
                return {}
            def scenarios():
                return [("same_id", run)]
        """,
    })
    with pytest.raises(DiscoveryError, match="duplicate scenario id"):
        discover(root)


def test_discover_rejects_module_without_scenarios(tmp_path):
    root = write_bench_dir(tmp_path / "benchmarks", {
        "bench_nofn.py": "X = 1\n",
    })
    with pytest.raises(DiscoveryError, match="does not define scenarios"):
        discover(root)


def test_discover_missing_dir_and_empty_dir(tmp_path):
    with pytest.raises(DiscoveryError, match="does not exist"):
        discover(tmp_path / "nope")
    (tmp_path / "empty").mkdir()
    with pytest.raises(DiscoveryError, match="no bench_"):
        discover(tmp_path / "empty")


def test_select_tier_and_filter(bench_dir):
    specs = discover(bench_dir)
    assert {s.id for s in select(specs, quick=True)} == {
        "alpha_mix", "beta_sum"}
    assert {s.id for s in select(specs, filter_expr="alpha")} == {
        "alpha_mix", "alpha_slowtier"}
    # filter matches module names too
    assert {s.id for s in select(specs, filter_expr="bench_beta")} == {
        "beta_sum"}
    assert select(specs, filter_expr="nosuchthing") == []


def test_jobs_1_vs_jobs_4_byte_identical(bench_dir):
    specs = discover(bench_dir)
    serial = run_scenarios(specs, jobs=1)
    sharded = run_scenarios(specs, jobs=4)
    view_a = deterministic_view(make_document(serial, tier="full", jobs=1))
    view_b = deterministic_view(make_document(sharded, tier="full", jobs=4))
    assert json.dumps(view_a, sort_keys=True) == json.dumps(
        view_b, sort_keys=True)
    # and the deterministic view really holds metrics
    assert view_a[0]["metrics"]


def test_report_sink_writes_artifacts(bench_dir, tmp_path):
    out_dir = tmp_path / "artifacts"
    run_scenarios(select(discover(bench_dir), quick=True), jobs=1,
                  out_dir=out_dir)
    assert (out_dir / "alpha_mix.txt").read_text() == \
        "mean over 256 hashed points\n"


def test_crash_is_retried_once_then_succeeds(tmp_path):
    sentinel = tmp_path / "crashed_once"
    root = write_bench_dir(tmp_path / "benchmarks", {
        "bench_crash_retry.py": """
            import os

            SENTINEL = {sentinel!r}

            def run(report=None):
                if not os.path.exists(SENTINEL):
                    open(SENTINEL, "w").close()
                    os._exit(13)  # simulated interpreter death
                return {{"recovered": 1}}

            def scenarios():
                return [("crash_retry", run)]
        """.format(sentinel=str(sentinel)),
    })
    (result,) = run_scenarios(discover(root), jobs=1)
    assert result["status"] == "ok"
    assert result["attempts"] == 2
    assert result["metrics"] == {"recovered": 1}


def test_crash_twice_is_terminal(tmp_path):
    root = write_bench_dir(tmp_path / "benchmarks", {
        "bench_crash_always.py": """
            import os

            def run(report=None):
                os._exit(13)

            def scenarios():
                return [("crash_always", run)]
        """,
    })
    (result,) = run_scenarios(discover(root), jobs=1)
    assert result["status"] == "crash"
    assert result["attempts"] == 2
    assert "exited with code 13" in result["error"]
    assert result["metrics"] == {}


def test_timeout_kills_the_worker(tmp_path):
    root = write_bench_dir(tmp_path / "benchmarks", {
        "bench_sleeper.py": """
            import time

            def run(report=None):
                time.sleep(60)
                return {}

            def scenarios():
                return [("sleeper", run)]
        """,
    })
    (result,) = run_scenarios(discover(root), jobs=1, timeout_s=0.3)
    assert result["status"] == "timeout"
    assert result["attempts"] == 2
    assert "timeout" in result["error"]


def test_python_exception_is_error_without_retry(tmp_path):
    root = write_bench_dir(tmp_path / "benchmarks", {
        "bench_raiser.py": """
            def run(report=None):
                raise ValueError("deliberately broken scenario")

            def scenarios():
                return [("raiser", run)]
        """,
    })
    (result,) = run_scenarios(discover(root), jobs=1)
    assert result["status"] == "error"
    assert result["attempts"] == 1  # exceptions are deterministic: no retry
    assert "deliberately broken scenario" in result["error"]


def test_non_dict_return_is_error(tmp_path):
    root = write_bench_dir(tmp_path / "benchmarks", {
        "bench_badreturn.py": """
            def run(report=None):
                return [1, 2, 3]

            def scenarios():
                return [("badreturn", run)]
        """,
    })
    (result,) = run_scenarios(discover(root), jobs=1)
    assert result["status"] == "error"
    assert "expected a metric dict" in result["error"]


def test_nested_metric_value_is_error(tmp_path):
    root = write_bench_dir(tmp_path / "benchmarks", {
        "bench_nested.py": """
            def run(report=None):
                return {"flat": 1, "extras": {"wall_ms": 3.2}}

            def scenarios():
                return [("nested", run)]
        """,
    })
    (result,) = run_scenarios(discover(root), jobs=1)
    assert result["status"] == "error"
    assert result["attempts"] == 1
    assert "'extras' is a dict, expected a scalar" in result["error"]


def test_one_bad_scenario_does_not_poison_the_rest(tmp_path):
    root = write_bench_dir(tmp_path / "benchmarks", {
        "bench_mixed.py": """
            import os

            def good(report=None):
                return {"x": 1}

            def bad(report=None):
                os._exit(1)

            def scenarios():
                return [("mixed_good", good), ("mixed_bad", bad)]
        """,
    })
    results = run_scenarios(discover(root), jobs=2)
    by_id = {r["id"]: r for r in results}
    assert by_id["mixed_good"]["status"] == "ok"
    assert by_id["mixed_bad"]["status"] == "crash"


def test_write_bench_dir_helper_dedents(tmp_path):
    root = write_bench_dir(tmp_path / "b", {"bench_x.py": """
        def scenarios():
            return []
    """})
    assert (root / "bench_x.py").read_text().startswith("\ndef scenarios()")
