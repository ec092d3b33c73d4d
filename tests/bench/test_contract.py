"""The real benchmarks/ tree honors the scenarios() contract.

Cheap structural checks, plus one cheap lane run in-process — running the
whole suite is what ``grctl bench`` does.
"""

import pathlib
import tempfile

from repro.bench.runner import discover, load_bench_module, select

BENCH_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


def test_real_tree_discovers_every_scenario():
    specs = discover(BENCH_DIR)
    ids = [s.id for s in specs]
    assert len(ids) == len(set(ids))
    assert len(ids) >= 20
    # the headline paper scenarios are present and full-tier only
    by_id = {s.id: s for s in specs}
    assert not by_id["fig2_linnos"].quick
    assert not by_id["retrain_loop"].quick
    assert by_id["listing2_pipeline"].quick


def test_real_tree_costs_schedule_training_first():
    specs = discover(BENCH_DIR)
    # longest-first: the model-training scenarios must lead the schedule
    assert specs[0].id == "fig2_linnos"
    assert all(a.cost >= b.cost for a, b in zip(specs, specs[1:]))
    assert all(s.cost > 0 for s in specs)


def test_real_tree_quick_tier_excludes_model_training():
    quick = {s.id for s in select(discover(BENCH_DIR), quick=True)}
    assert "fig2_linnos" not in quick
    assert "retrain_loop" not in quick
    assert "fig1_p1_in_distribution" not in quick
    assert len(quick) >= 15


def test_real_tree_scenarios_are_seed_pinned():
    # Determinism rests on pinned seeds: everything costing >= 0.2 must
    # declare one (the two trivial pipeline/compile smoke scenarios are
    # seed-free by construction).
    for spec in discover(BENCH_DIR):
        if spec.cost >= 0.2:
            assert spec.seed is not None, spec.id


def test_real_tree_lanes_read_no_wall_clock():
    # Lanes gate deterministic counters only; wall clock belongs to the
    # benchmarks/perf spine, whose compare is noise-aware.
    for path in sorted(BENCH_DIR.glob("bench_*.py")):
        source = path.read_text()
        for needle in ("perf_counter", "_info"):
            assert needle not in source, (path.name, needle)


def test_service_lane_leaves_no_temp_files(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    module = load_bench_module(BENCH_DIR / "bench_service.py")
    metrics = dict(module.scenarios())["service_store"]()
    assert metrics["regen_byte_identical"] is True
    assert list(tmp_path.iterdir()) == []
