"""Unit tests of the benchmark's own machinery.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf`` — this
directory is not part of the tier-1 ``testpaths``.
"""

import importlib
import json
import os
import time

import pytest

from benchmarks.perf import cli, compare, harness, layers
from benchmarks.perf.spans import Patches, SpanRecorder, chrome_trace
from benchmarks.perf.workloads import (
    WORKLOADS,
    PerIoGuardrails,
    sliced_kernel_runs,
)


class FakeClock:
    """Returns the scripted instants one after the other."""

    def __init__(self, instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


# -- span aggregation ---------------------------------------------------------


def test_self_time_is_total_minus_children_on_a_nested_trace():
    # outer [0, 10] calls inner [2, 5] and inner [6, 7]; inner [2, 5] calls
    # leaf [3, 4].  Clock reads: start and end of each span, in call order.
    clock = FakeClock([0, 2, 3, 4, 5, 6, 7, 10])
    recorder = SpanRecorder(clock=clock)
    leaf = recorder.wrap("leaf", "c", lambda: None)
    calls = []

    def inner_body():
        if not calls:
            calls.append(1)
            leaf()

    inner = recorder.wrap("inner", "b", inner_body)

    def outer_body():
        inner()
        inner()

    recorder.wrap("outer", "a", outer_body)()

    assert recorder.edges[("outer", "a", "")] == [1, 10, 10 - (3 + 1)]
    assert recorder.edges[("inner", "b", "a")] == [2, 3 + 1, (3 - 1) + 1]
    assert recorder.edges[("leaf", "c", "b")] == [1, 1, 1]
    assert recorder.by_layer() == {"a": [1, 6], "b": [2, 3], "c": [1, 1]}
    # Self times add up to the covered wall time: nothing is counted twice.
    assert sum(v[1] for v in recorder.by_layer().values()) == 10
    assert recorder.covered_s() == 10

    raw = recorder.raw_rows()
    assert [(r["name"], r["parent"]) for r in raw] == [
        ("outer", -1), ("inner", 0), ("leaf", 1), ("inner", 0)]
    assert raw[2]["start_s"] == 3 and raw[2]["end_s"] == 4
    assert len(chrome_trace(raw)["traceEvents"]) == 4


def test_span_closes_and_propagates_when_the_call_raises():
    recorder = SpanRecorder(clock=FakeClock([0, 1]))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        recorder.wrap("boom", "a", boom)()
    assert recorder.edges[("boom", "a", "")] == [1, 1, 1]
    assert len(recorder.stack) == 1


def test_raw_spans_are_capped_but_the_aggregate_is_not():
    recorder = SpanRecorder()
    noop = recorder.wrap("noop", "a", lambda: None)
    for _ in range(1500):
        noop()
    assert len(recorder.raw_rows()) == 1000
    assert recorder.edges[("noop", "a", "")][0] == 1500


# -- installing and restoring wrappers ----------------------------------------


def _wrapped_attributes():
    for _layer, module_name, class_name, methods in layers.CLASS_SPANS:
        cls = getattr(importlib.import_module(module_name), class_name)
        for method in methods:
            yield cls, method
    for _layer, module_name, functions in layers.FUNCTION_SPANS:
        module = importlib.import_module(module_name)
        for function in functions:
            yield module, function


def test_every_listed_callable_exists_and_is_restored():
    before = [(owner, attr, vars(owner)[attr])
              for owner, attr in _wrapped_attributes()]
    from repro.core.monitor import GuardrailMonitor
    from repro.sim.engine import Engine

    schedule_at = Engine.schedule_at
    recorder = SpanRecorder()
    with layers.install(recorder) as patches:
        assert patches.missing == []
        assert hasattr(GuardrailMonitor.check, "perf_span")
        assert Engine.schedule_at is not schedule_at
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, (owner, attr)
    assert Engine.schedule_at is schedule_at
    assert not hasattr(GuardrailMonitor.check, "perf_span")


def test_a_missing_callable_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(layers, "CLASS_SPANS", layers.CLASS_SPANS + [
        ("sim.engine", "repro.sim.engine", "Engine", ("no_such_method",))])
    with layers.install(SpanRecorder()) as patches:
        assert patches.missing == ["Engine.no_such_method"]


def test_function_patch_reaches_modules_that_imported_the_name():
    import repro.scenarios.runner as runner
    import repro.scenarios.spec as spec

    original = spec.run_scenario
    assert runner.run_scenario is original
    with Patches() as patches:
        patches.wrap_function(spec, "run_scenario", lambda fn: "patched")
        assert spec.run_scenario == "patched"
        assert runner.run_scenario == "patched"
    assert spec.run_scenario is original and runner.run_scenario is original


def _cpu_of_untraced_repeat(workload):
    state, _setup_s, repeat = harness._run_once(workload, None, traced=False)
    workload.teardown(state)
    return repeat


def test_traced_repeat_leaves_outputs_and_speed_of_the_next_one_alone():
    workload = PerIoGuardrails(seed=5, scale=0.25)
    before = min((_cpu_of_untraced_repeat(workload) for _ in range(3)),
                 key=lambda r: r.cpu_s)
    _state, _setup_s, traced = harness._run_once(workload, None, traced=True)
    after = min((_cpu_of_untraced_repeat(workload) for _ in range(3)),
                key=lambda r: r.cpu_s)

    assert traced.fingerprint == before.fingerprint == after.fingerprint
    assert traced.missing == []
    # Tracing this workload doubles its CPU time; a wrapper left behind
    # would show.  Best-of-three against a generous factor keeps this
    # steady on a shared box.
    assert after.cpu_s < 1.5 * before.cpu_s

    metrics = layers.per_layer_metrics(traced.recorder, traced.region_s,
                                       traced.outcome.extras)
    assert set(metrics) | {"bench.trace_overhead_x", "bench.calib_ms"} == {
        name for name, _unit in layers.per_layer_spec()}
    fractions = sum(metrics[layer + ".self_frac"] for layer in layers.LAYERS)
    assert fractions + metrics["bench.glue_frac"] == pytest.approx(1.0)
    assert metrics["core.monitor.checks"] == traced.outcome.ops
    assert metrics["core.expr.rule_evals"] == traced.outcome.ops
    # One submit and one completion hook per I/O, bar those still in flight.
    in_flight = 2 * metrics["kernel.storage.ios"] - metrics["sim.hooks.fires"]
    assert 0 <= in_flight <= 3
    guardrail_path = sum(metrics[layer + ".self_frac"]
                         for layer in layers.GUARDRAIL_PATH)
    assert guardrail_path >= 0.5


# -- harness helpers ----------------------------------------------------------


def test_percentile_refuses_fewer_than_ten_samples_beyond_it():
    samples = list(range(1, 100))          # 99 samples: 9.9 beyond p90
    with pytest.raises(harness.BenchError):
        harness.percentile(samples, 0.9)
    samples.append(100)                    # 100 samples: 10 beyond p90
    assert harness.percentile(samples, 0.9) == pytest.approx(90.1)
    assert harness.percentile(samples, 0.5) == pytest.approx(50.5)
    with pytest.raises(harness.BenchError):
        harness.percentile(list(range(19)), 0.5)
    with pytest.raises(harness.BenchError):
        harness.percentile([], 0.5, strict=False)
    assert harness.percentile([4.0, 2.0], 0.9, strict=False) == pytest.approx(3.8)
    assert harness.min_steps(0.9) == 100 and harness.min_steps(0.5) == 20
    # Ten values that each summarise ten measurements count as a hundred.
    assert harness.percentile(list(range(10)), 0.9, raw_count=100) \
        == pytest.approx(8.1)
    with pytest.raises(harness.BenchError):
        harness.percentile(list(range(10)), 0.9, raw_count=99)


def test_step_profile_is_the_median_over_repeats_at_each_position():
    repeats = [[1.0, 10.0, 5.0], [1.2, 50.0, 5.1], [0.9, 11.0, 4.0]]
    assert harness.step_profile(repeats) == [1.0, 11.0, 5.0]
    with pytest.raises(harness.BenchError):
        harness.step_profile([[1.0, 2.0], [1.0]])


def test_step_clock_records_consecutive_durations():
    steps = harness.StepClock()
    steps.start()
    time.sleep(0.002)
    steps.mark()
    steps.mark()
    assert len(steps.durations) == 2
    assert steps.durations[0] >= 0.002 > steps.durations[1] >= 0.0


def _fingerprint(seed):
    workload = PerIoGuardrails(seed=seed, scale=0.1)
    return _cpu_of_untraced_repeat(workload).fingerprint


def test_seed_changes_the_fingerprint_and_one_seed_repeats_it():
    assert _fingerprint(11) == _fingerprint(11)
    assert _fingerprint(11) != _fingerprint(12)


def test_sliced_kernel_run_fires_the_same_events():
    def run(sliced):
        workload = PerIoGuardrails(seed=3, scale=0.15)   # 3 simulated s
        kernel, volume, monitors, _listing2 = workload.setup()
        steps = harness.StepClock()
        steps.start()
        if sliced:
            with sliced_kernel_runs(steps):
                kernel.run(until=workload.duration_s * 10 ** 9)
        else:
            kernel.run(until=workload.duration_s * 10 ** 9)
        return (volume.completed, [m.violation_count for m in monitors],
                kernel.store.version("io_latency_us"), len(steps.durations))

    whole, sliced = run(False), run(True)
    assert whole[:3] == sliced[:3]
    assert (whole[3], sliced[3]) == (0, 3)


def test_measure_smoke_reports_every_end_to_end_metric(tmp_path):
    workload = WORKLOADS["serve_soak"](seed=9, scale=0.1,
                                       workdir=str(tmp_path))
    document = harness.measure(workload, seconds=1, traced=True, smoke=True)
    assert document["correct"] and document["failed"] == 0
    assert document["sim_fingerprint_ok"] == 1
    assert list(document["end_to_end"]) == [e[0] for e in harness.END_TO_END]
    assert all(entry["value"] > 0
               for entry in document["end_to_end"].values())
    assert document["per_layer"]["service.store.commits"]["value"] \
        == workload.rounds
    assert document["per_layer"]["service.store.rows_written"]["value"] \
        == workload.rounds * workload.hosts
    assert os.listdir(str(tmp_path)) == []     # stores are cleaned up
    json.dumps(document)                       # the --out file is plain JSON


# -- compare ------------------------------------------------------------------


def test_compare_verdicts():
    steady_a = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady_a, [104.0, 105.0, 103.0, 104.5, 103.5],
                           "lower", 0.10) == ("ok", pytest.approx(0.04))
    assert compare.verdict(steady_a, [120.0, 121.0, 119.0, 120.5, 119.5],
                           "lower", 0.10)[0] == "regressed"
    # Higher-is-better flips the direction of "worse".
    assert compare.verdict(steady_a, [120.0, 121.0, 119.0, 120.5, 119.5],
                           "higher", 0.10)[0] == "ok"
    assert compare.verdict(steady_a, [80.0, 81.0, 79.0, 80.5, 79.5],
                           "higher", 0.10)[0] == "regressed"
    # A side whose own runs spread wider than the bound decides nothing...
    noisy_b = [70.0, 130.0, 100.0, 85.0, 115.0]
    assert compare.verdict(steady_a, noisy_b, "lower", 0.10)[0] == "unresolved"
    # ... unless every B run beats every A run.
    assert compare.verdict(steady_a, [40.0, 80.0, 60.0, 50.0, 70.0],
                           "lower", 0.10)[0] == "ok"
    assert compare.spread([5.0]) == 0.0


def _out_file(path, scale, fingerprint="f" * 64):
    runs = []
    for seed in (1, 2, 3, 4):
        runs.append({"seed": seed, "workloads": {"serve_soak": {
            "sim_fingerprint": fingerprint,
            "end_to_end": {name: {"value": (10.0 + 0.01 * seed) * (
                scale if name == "step_ms_p50" else 1.0), "unit": unit}
                for name, unit, _better, _bound in harness.END_TO_END},
        }}})
    path.write_text(json.dumps({"schema": cli.SCHEMA, "runs": runs}))
    return str(path)


def test_compare_files_prints_a_row_per_pair_and_fails_on_regression(
        tmp_path, capsys):
    a = _out_file(tmp_path / "a.json", 1.0)
    same = _out_file(tmp_path / "same.json", 1.0)
    slower = _out_file(tmp_path / "slower.json", 1.5, fingerprint="e" * 64)

    assert compare.compare_files(a, same) == 0
    text = capsys.readouterr().out
    assert "6 ok, 0 regressed, 0 unresolved" in text
    assert "4 of 4 shared seed(s) identical" in text

    assert compare.compare_files(a, slower) == 1
    text = capsys.readouterr().out
    assert "5 ok, 1 regressed, 0 unresolved" in text
    assert "1.5000" in text and "base A" in text
    assert "0 of 4 shared seed(s) identical" in text


# -- the manifest -------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    manifest = cli._manifest()
    assert cli.validate_schema(manifest, {}, complete=False) == []
    assert manifest["paths"] == ["benchmarks/perf"]
    assert manifest["command"] == ["python3", "benchmarks/perf/run.py"]
    assert any(e["name"] == "setup_s" and e["unit"] == "s"
               and e["better"] == "lower" for e in manifest["end_to_end"])
    assert max(e["bound"] for e in manifest["end_to_end"]) <= 0.25
    runs = 4 + 22 * len(manifest["workloads"])
    assert 1 <= manifest["run_seconds"] <= 60
    # Set-up, warm-up and start-up cost up to ~8 s on top of run_seconds.
    assert runs * (manifest["run_seconds"] + 8) <= 3420


def test_validate_schema_flags_a_metric_the_code_does_not_emit():
    manifest = cli._manifest()
    manifest["per_layer"] = manifest["per_layer"] + [
        {"name": "made.up", "unit": "count", "better": "higher"}]
    assert cli.validate_schema(manifest, {}, complete=False) == [
        "BENCHMARK.json per_layer differs from the code's"]
