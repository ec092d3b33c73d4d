"""Hot-path microbenchmarks: the save→trigger→check→dispatch pipeline.

The paper's FUNCTION triggers (§4.1) only make sense if a guardrail check
is near-free, and the ROADMAP's north star is "fast as the hardware
allows".  This module pins wall-clock microbenchmarks on each lane of the
check pipeline so `docs/performance.md` and the perf-smoke CI job can
watch them:

- ``hotpath_store``       — feature-store SAVE/LOAD, raw and derived keys;
- ``hotpath_timer``       — TIMER-triggered checks driven through the
  engine's event heap (timer rescheduling + monitor check);
- ``hotpath_function``    — FUNCTION-triggered checks driven through a
  hook point (per-call interposition, the paper's most demanding mode);
- ``hotpath_eval``        — compiled-rule evaluation alone, for the
  dominant rule shapes (``LOAD(k) < c``, rate comparison, a costly
  multi-load rule);
- ``hotpath_batch_ssd``   — the SSD completion ingest pipeline (store
  saves + metric records per I/O): scalar per-event path vs the
  ``CompletionIngest`` buffering on a quiet store, bit-identical end state.

Wall-clock timings are environment-noisy, so they ride under ``_info``;
the runner-gated metrics are the deterministic counters (checks fired,
loads served, ops charged), which double as a regression net for the
fast-lane rewrites: any semantic drift in the pipeline shows up as a
count mismatch at ``--gate 0.0``.
"""

import gc
import time

from repro.bench.report import format_table
from repro.bench.results import scenario
from repro.core.compiler import GuardrailCompiler
from repro.core.expr import EvalContext
from repro.core.featurestore import FeatureStore
from repro.core.host import MonitorHost
from repro.sim.units import MILLISECOND, SECOND

STORE_ITERS = 20_000
FUNCTION_FIRES = 20_000
EVAL_ITERS = 50_000
CHECK_ITERS = 50_000
TIMER_SECONDS = 20
TIMER_INTERVAL_MS = 1
REPEATS = 5


def _best(fn, repeats=REPEATS):
    """Best-of-N wall time for ``fn()`` (seconds) plus its last result.

    One untimed warm-up run fills allocator/code caches, and the collector
    is paused around the timed runs — both shrink run-to-run jitter, which
    otherwise swamps sub-microsecond lanes.
    """
    result = fn()
    best = None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            started = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - started
            if best is None or elapsed < best:
                best = elapsed
    finally:
        if gc_was_enabled:
            gc.enable()
    return best, result


def _spec(name, rule, trigger):
    return (
        "guardrail {} {{ trigger: {{ {} }}, "
        "rule: {{ {} }}, action: {{ REPORT() }} }}".format(name, trigger, rule)
    )


@scenario(cost=0.5, seed=60)
def run_store_save_load(report=None):
    """Raw and derived SAVE/LOAD — the per-event feature-store tax."""

    def raw_loop():
        store = FeatureStore()
        save, load = store.save, store.load
        value = 0.0
        for i in range(STORE_ITERS):
            save("io_latency_us", i & 7)
            value = load("io_latency_us")
        return store, value

    def derived_loop():
        # The clock advances 1 ms per save, so the 1 s rate window holds a
        # steady ~1000 samples — realistic per-event cadence, bounded state.
        clock = [0]
        store = FeatureStore(clock=lambda: clock[0])
        store.derive_rate("event", window=1 * SECOND, name="event.rate")
        save, load = store.save, store.load
        value = 0.0
        for i in range(STORE_ITERS):
            clock[0] = i * MILLISECOND
            save("event", i & 1)
            value = load("event.rate")
        return store, value

    raw_s, (raw_store, raw_last) = _best(raw_loop)
    derived_s, (derived_store, derived_rate) = _best(derived_loop)

    metrics = {
        "iterations": STORE_ITERS,
        "raw_save_count": raw_store.save_count,
        "raw_load_count": raw_store.load_count,
        "raw_last_value": raw_last,
        "derived_save_count": derived_store.save_count,
        "derived_final_rate": round(derived_rate, 6),
        "_info": {
            "raw_ns_per_save_load": round(raw_s / STORE_ITERS * 1e9, 1),
            "derived_ns_per_save_load": round(
                derived_s / STORE_ITERS * 1e9, 1),
            "raw_ops_per_s": round(STORE_ITERS / raw_s),
        },
    }
    if report is not None:
        report("hotpath_store", format_table(
            ["lane", "ns / save+load"],
            [["raw key", metrics["_info"]["raw_ns_per_save_load"]],
             ["derived rate key",
              metrics["_info"]["derived_ns_per_save_load"]]],
            title="Feature-store hot path ({} save+load pairs)".format(
                STORE_ITERS)))
    return metrics


@scenario(cost=0.8, seed=61)
def run_timer_trigger_check(report=None):
    """TIMER-triggered checks end to end through the event heap."""

    def timer_run():
        host = MonitorHost()
        host.store.save("m0", 0)
        compiled = GuardrailCompiler().compile(_spec(
            "timer_hot", "LOAD(m0) <= 1",
            "TIMER(start_time, {}ms)".format(TIMER_INTERVAL_MS)))
        monitor = compiled.instantiate(host)
        monitor.arm()
        host.engine.run(until=TIMER_SECONDS * SECOND)
        return host, monitor

    elapsed, (host, monitor) = _best(timer_run)
    expected_checks = TIMER_SECONDS * SECOND // (TIMER_INTERVAL_MS * MILLISECOND)

    metrics = {
        "checks": monitor.check_count,
        "expected_checks": expected_checks,
        "violations": monitor.violation_count,
        "pending_after": host.engine.pending_events(),
        "overhead_ns": monitor.overhead.simulated_ns,
        "_info": {
            "ns_per_check": round(elapsed / monitor.check_count * 1e9, 1),
            "checks_per_s": round(monitor.check_count / elapsed),
        },
    }
    if report is not None:
        report("hotpath_timer", format_table(
            ["aspect", "value"],
            [["virtual checks", metrics["checks"]],
             ["wall ns / check", metrics["_info"]["ns_per_check"]],
             ["checks / s", metrics["_info"]["checks_per_s"]]],
            title="TIMER-trigger check lane ({} ms period, {} s virtual)"
            .format(TIMER_INTERVAL_MS, TIMER_SECONDS)))
    return metrics


@scenario(cost=0.8, seed=62)
def run_function_trigger_check(report=None):
    """FUNCTION-triggered checks — per-call interposition, the §4.1 case."""

    def function_run():
        host = MonitorHost()
        point = host.hooks.declare("bench.hot_call")
        host.store.save("m0", 0)
        compiled = GuardrailCompiler().compile(_spec(
            "function_hot", "LOAD(m0) <= 1", "FUNCTION(bench.hot_call)"))
        monitor = compiled.instantiate(host)
        monitor.arm()
        fire = point.fire
        for i in range(FUNCTION_FIRES):
            fire(arg=i)
        return monitor

    elapsed, monitor = _best(function_run)

    metrics = {
        "fires": FUNCTION_FIRES,
        "checks": monitor.check_count,
        "violations": monitor.violation_count,
        "inconclusive": monitor.inconclusive_count,
        "overhead_ns": monitor.overhead.simulated_ns,
        "_info": {
            "ns_per_fire": round(elapsed / FUNCTION_FIRES * 1e9, 1),
            "fires_per_s": round(FUNCTION_FIRES / elapsed),
        },
    }
    if report is not None:
        report("hotpath_function", format_table(
            ["aspect", "value"],
            [["hook fires", metrics["fires"]],
             ["checks", metrics["checks"]],
             ["wall ns / fire", metrics["_info"]["ns_per_fire"]]],
            title="FUNCTION-trigger check lane ({} fires)".format(
                FUNCTION_FIRES)))
    return metrics


@scenario(cost=0.6, seed=64)
def run_monitor_check(report=None):
    """``GuardrailMonitor.check`` alone — the core every trigger funnels into.

    Measured by direct call so the number isolates the monitor dispatch +
    rule evaluation cost from the engine heap (timer lane) and the hook
    fan-out (function lane).
    """

    def build(rule):
        host = MonitorHost()
        host.store.save("io_latency_us", 120)
        host.store.derive_rate("false_submit", window=1 * SECOND,
                               name="false_submit.rate")
        host.store.save("false_submit", 1)
        for i in range(5):
            host.store.save("m{}".format(i), i)
        compiled = GuardrailCompiler().compile(_spec(
            "check_hot", rule, "TIMER(start_time, 1ms)"))
        return compiled.instantiate(host)

    def single_rule_loop():
        monitor = build("LOAD(io_latency_us) < 500")
        check = monitor.check
        for _ in range(CHECK_ITERS):
            check({})
        return monitor

    def three_rule_loop():
        monitor = build(
            "LOAD(io_latency_us) < 500, LOAD(false_submit.rate) > 0.05, "
            "LOAD(m0) + LOAD(m1) + LOAD(m2) <= max(LOAD(m3), LOAD(m4)) * 2")
        check = monitor.check
        for _ in range(CHECK_ITERS):
            check({})
        return monitor

    single_s, single = _best(single_rule_loop)
    three_s, three = _best(three_rule_loop)

    metrics = {
        "iterations": CHECK_ITERS,
        "single_checks": single.check_count,
        "single_violations": single.violation_count,
        "single_overhead_ns": single.overhead.simulated_ns,
        "three_checks": three.check_count,
        "three_violations": three.violation_count,
        "three_overhead_ns": three.overhead.simulated_ns,
        "_info": {
            "single_rule_ns_per_check": round(
                single_s / CHECK_ITERS * 1e9, 1),
            "three_rule_ns_per_check": round(three_s / CHECK_ITERS * 1e9, 1),
        },
    }
    if report is not None:
        report("hotpath_check", format_table(
            ["monitor", "ns / check"],
            [["1 threshold rule",
              metrics["_info"]["single_rule_ns_per_check"]],
             ["3 mixed rules",
              metrics["_info"]["three_rule_ns_per_check"]]],
            title="Monitor-check lane ({} direct checks)".format(
                CHECK_ITERS)))
    return metrics


RULE_SHAPES = [
    ("threshold", "LOAD(io_latency_us) < 500"),
    ("rate_cmp", "LOAD(false_submit.rate) > 0.05"),
    ("costly",
     "LOAD(m0) + LOAD(m1) + LOAD(m2) <= max(LOAD(m3), LOAD(m4)) * 2"),
]


@scenario(cost=0.5, seed=63)
def run_compiled_rule_eval(report=None):
    """Compiled-rule evaluation alone, per dominant rule shape."""
    from repro.core.spec import parse_guardrail

    store = FeatureStore()
    store.save("io_latency_us", 120)
    store.derive_rate("false_submit", window=1 * SECOND,
                      name="false_submit.rate")
    store.save("false_submit", 1)
    for i in range(5):
        store.save("m{}".format(i), i)

    rows = []
    metrics = {"iterations": EVAL_ITERS}
    info = {}
    for label, rule in RULE_SHAPES:
        spec = parse_guardrail(_spec(
            "eval_" + label, rule, "TIMER(start_time, 1ms)"))
        compiled = GuardrailCompiler().compile(spec)
        _, program, _ = compiled.rules[0]

        def eval_loop(_program=program):
            ctx = EvalContext(store, now=0)
            result = None
            for _ in range(EVAL_ITERS):
                ctx.ops = 0
                result = _program(ctx)
            return result, ctx.ops

        elapsed, (result, ops) = _best(eval_loop)
        metrics["{}_result".format(label)] = result
        metrics["{}_ops".format(label)] = ops
        info["{}_ns_per_eval".format(label)] = round(
            elapsed / EVAL_ITERS * 1e9, 1)
        rows.append([label, rule, info["{}_ns_per_eval".format(label)]])

    metrics["_info"] = info
    if report is not None:
        report("hotpath_eval", format_table(
            ["shape", "rule", "ns / eval"], rows,
            title="Compiled-rule eval lane ({} evals per shape)".format(
                EVAL_ITERS)))
    return metrics


SSD_EVENTS = 50_000


@scenario(cost=0.8, seed=67)
def run_batch_ssd_ingest(report=None):
    """SSD completion ingest: per-event saves vs the buffered ingest.

    Both lanes consume identical pre-generated completion events (buffering
    starts strictly after any RNG draw) and must leave bit-identical
    store, derived-estimator, and metric state — the deterministic gate.
    Nothing touches the store between completions, so the ingest buffers
    every one after the first, draining at ``MAX_PENDING``.
    """
    import random

    from repro.kernel.storage.batch import MAX_PENDING, CompletionIngest
    from repro.sim.metrics import MetricRecorder

    rng = random.Random(67)
    events = []  # (time, latency_us, fs_event or None, slow)
    for i in range(SSD_EVENTS):
        now = (i + 1) * 100_000  # one completion per 100us of virtual time
        latency = round(50.0 + rng.random() * 900.0, 3)
        slow = latency > 500.0
        fs_event = (1 if slow else 0) if i % 5 != 4 else None
        events.append((now, latency, fs_event, slow))

    class _Clock:
        now = 0

    def build_sinks():
        clock = _Clock()
        store = FeatureStore(clock=lambda: clock.now)
        store.derive_rate("false_submit", window=1 * SECOND,
                          name="false_submit_rate")
        metrics_rec = MetricRecorder(clock)
        return clock, store, metrics_rec

    def scalar_ingest():
        clock, store, metrics_rec = build_sinks()
        for now, latency, fs_event, slow in events:
            clock.now = now
            store.save("io_latency_us", latency)
            if fs_event is not None:
                store.save("false_submit", fs_event)
            metrics_rec.record("storage.io_latency_us", latency, time=now)
            metrics_rec.increment("storage.completed")
            if slow:
                metrics_rec.increment("storage.slow_ios")
        return store, metrics_rec

    def batched_ingest():
        clock, store, metrics_rec = build_sinks()
        ingest = CompletionIngest(store, metrics_rec, "storage")
        add = ingest.add
        for now, latency, fs_event, slow in events:
            clock.now = now
            add(now, latency, fs_event, slow)
        ingest.drain()
        return store, metrics_rec

    def fingerprint(store, metrics_rec):
        series = metrics_rec.series("storage.io_latency_us")
        return {
            "save_count": store.save_count,
            "rate": store.load("false_submit_rate"),
            "latency_version": store.version("io_latency_us"),
            "completed": metrics_rec.counter("storage.completed"),
            "slow_ios": metrics_rec.counter("storage.slow_ios"),
            "p95": series.percentile(95),
            "samples": len(series),
        }

    scalar_s, (scalar_store, scalar_metrics) = _best(scalar_ingest)
    batched_s, (batched_store, batched_metrics) = _best(batched_ingest)
    scalar_state = fingerprint(scalar_store, scalar_metrics)
    batched_state = fingerprint(batched_store, batched_metrics)

    metrics = dict(scalar_state)
    metrics["events"] = SSD_EVENTS
    metrics["parity"] = scalar_state == batched_state
    metrics["p95"] = round(metrics["p95"], 6)
    metrics["rate"] = round(metrics["rate"], 6)
    metrics["_info"] = {
        "scalar_ns_per_event": round(scalar_s / SSD_EVENTS * 1e9, 1),
        "batched_ns_per_event": round(batched_s / SSD_EVENTS * 1e9, 1),
        "speedup": round(scalar_s / batched_s, 1),
    }
    if report is not None:
        report("hotpath_batch_ssd", format_table(
            ["lane", "ns / event", "speedup"],
            [["scalar save/record",
              metrics["_info"]["scalar_ns_per_event"], "1.0"],
             ["buffered ingest",
              metrics["_info"]["batched_ns_per_event"],
              metrics["_info"]["speedup"]]],
            title="SSD completion ingest ({} events, batch={})".format(
                SSD_EVENTS, MAX_PENDING)))
    return metrics


def scenarios():
    return [
        ("hotpath_store", run_store_save_load),
        ("hotpath_timer", run_timer_trigger_check),
        ("hotpath_function", run_function_trigger_check),
        ("hotpath_check", run_monitor_check),
        ("hotpath_eval", run_compiled_rule_eval),
        ("hotpath_batch_ssd", run_batch_ssd_ingest),
    ]


def test_hotpath_store(benchmark, report_sink):
    metrics = benchmark.pedantic(
        run_store_save_load, kwargs={"report": report_sink},
        rounds=1, iterations=1)
    assert metrics["raw_save_count"] == STORE_ITERS
    assert metrics["raw_load_count"] == STORE_ITERS
    assert 0.0 <= metrics["derived_final_rate"] <= 1.0


def test_hotpath_timer(benchmark, report_sink):
    metrics = benchmark.pedantic(
        run_timer_trigger_check, kwargs={"report": report_sink},
        rounds=1, iterations=1)
    assert metrics["checks"] == metrics["expected_checks"]
    assert metrics["violations"] == 0


def test_hotpath_function(benchmark, report_sink):
    metrics = benchmark.pedantic(
        run_function_trigger_check, kwargs={"report": report_sink},
        rounds=1, iterations=1)
    assert metrics["checks"] == metrics["fires"]
    assert metrics["violations"] == 0


def test_hotpath_check(benchmark, report_sink):
    metrics = benchmark.pedantic(
        run_monitor_check, kwargs={"report": report_sink},
        rounds=1, iterations=1)
    assert metrics["single_checks"] == CHECK_ITERS
    assert metrics["single_violations"] == 0
    assert metrics["three_violations"] == 0
    # ns_per_check=50 + 4 charged ops * ns_per_op=5 per check, exactly.
    assert metrics["single_overhead_ns"] == CHECK_ITERS * 70


def test_hotpath_eval(benchmark, report_sink):
    metrics = benchmark.pedantic(
        run_compiled_rule_eval, kwargs={"report": report_sink},
        rounds=1, iterations=1)
    assert metrics["threshold_result"] is True
    assert metrics["rate_cmp_result"] is True
    assert metrics["costly_result"] is not None
    # static_cost is an upper bound: runtime ops never exceed it.
    assert metrics["threshold_ops"] == 4


def test_hotpath_batch_ssd(benchmark, report_sink):
    metrics = benchmark.pedantic(
        run_batch_ssd_ingest, kwargs={"report": report_sink},
        rounds=1, iterations=1)
    assert metrics["parity"] is True
    assert metrics["completed"] == SSD_EVENTS
    assert metrics["samples"] == SSD_EVENTS
