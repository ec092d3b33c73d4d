"""Hot-path microbenchmarks: the save→trigger→check→dispatch pipeline.

The paper's FUNCTION triggers (§4.1) only make sense if a guardrail check
is near-free.  This module drives each lane of the check pipeline once
at a fixed iteration count and gates what it did:

- ``hotpath_store``       — feature-store SAVE/LOAD, raw and derived keys;
- ``hotpath_timer``       — TIMER-triggered checks driven through the
  engine's event heap (timer rescheduling + monitor check);
- ``hotpath_function``    — FUNCTION-triggered checks driven through a
  hook point (per-call interposition, the paper's most demanding mode);
- ``hotpath_check``       — ``GuardrailMonitor.check`` called directly,
  one threshold rule vs three mixed rules;
- ``hotpath_eval``        — compiled-rule evaluation alone, for the
  dominant rule shapes (``LOAD(k) < c``, rate comparison, a costly
  multi-load rule);
- ``hotpath_batch_ssd``   — the SSD completion ingest pipeline (store
  saves + metric records per I/O): scalar per-event path vs the
  ``CompletionIngest`` buffering on a quiet store, bit-identical end state.

The gated metrics are deterministic counters (checks fired, loads
served, ops charged), a regression net for the fast-lane rewrites: any
semantic drift in the pipeline shows up as a count mismatch at
``--gate 0.0``.  What these lanes cost in wall clock is measured by the
``benchmarks/perf`` spine (``core.monitor`` ``self_s``/``checks``,
``core.expr`` ``self_s``/``rule_evals``, ``core.featurestore``
``self_s``/``saves + loads``), not here.
"""

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


def _spec(name, rule, trigger):
    return (
        "guardrail {} {{ trigger: {{ {} }}, "
        "rule: {{ {} }}, action: {{ REPORT() }} }}".format(name, trigger, rule)
    )


@scenario(cost=0.5, seed=60)
def run_store_save_load(report=None):
    """Raw and derived SAVE/LOAD — the per-event feature-store tax."""
    raw_store = FeatureStore()
    save, load = raw_store.save, raw_store.load
    raw_last = 0.0
    for i in range(STORE_ITERS):
        save("io_latency_us", i & 7)
        raw_last = load("io_latency_us")

    # The clock advances 1 ms per save, so the 1 s rate window holds a
    # steady ~1000 samples — realistic per-event cadence, bounded state.
    clock = [0]
    derived_store = FeatureStore(clock=lambda: clock[0])
    derived_store.derive_rate("event", window=1 * SECOND, name="event.rate")
    save, load = derived_store.save, derived_store.load
    derived_rate = 0.0
    for i in range(STORE_ITERS):
        clock[0] = i * MILLISECOND
        save("event", i & 1)
        derived_rate = load("event.rate")

    assert raw_store.save_count == raw_store.load_count == STORE_ITERS
    assert 0.0 <= derived_rate <= 1.0
    return {
        "iterations": STORE_ITERS,
        "raw_save_count": raw_store.save_count,
        "raw_load_count": raw_store.load_count,
        "raw_last_value": raw_last,
        "derived_save_count": derived_store.save_count,
        "derived_final_rate": round(derived_rate, 6),
    }


@scenario(cost=0.8, seed=61)
def run_timer_trigger_check(report=None):
    """TIMER-triggered checks end to end through the event heap."""
    host = MonitorHost()
    host.store.save("m0", 0)
    compiled = GuardrailCompiler().compile(_spec(
        "timer_hot", "LOAD(m0) <= 1",
        "TIMER(start_time, {}ms)".format(TIMER_INTERVAL_MS)))
    monitor = compiled.instantiate(host)
    monitor.arm()
    host.engine.run(until=TIMER_SECONDS * SECOND)
    expected_checks = TIMER_SECONDS * SECOND // (TIMER_INTERVAL_MS * MILLISECOND)

    assert monitor.check_count == expected_checks
    assert monitor.violation_count == 0
    return {
        "checks": monitor.check_count,
        "expected_checks": expected_checks,
        "violations": monitor.violation_count,
        "pending_after": host.engine.pending_events(),
        "overhead_ns": monitor.overhead.simulated_ns,
    }


@scenario(cost=0.8, seed=62)
def run_function_trigger_check(report=None):
    """FUNCTION-triggered checks — per-call interposition, the §4.1 case."""
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

    assert monitor.check_count == FUNCTION_FIRES
    assert monitor.violation_count == 0
    return {
        "fires": FUNCTION_FIRES,
        "checks": monitor.check_count,
        "violations": monitor.violation_count,
        "inconclusive": monitor.inconclusive_count,
        "overhead_ns": monitor.overhead.simulated_ns,
    }


@scenario(cost=0.6, seed=64)
def run_monitor_check(report=None):
    """``GuardrailMonitor.check`` alone — the core every trigger funnels into.

    Called directly so the counts isolate the monitor dispatch + rule
    evaluation from the engine heap (timer lane) and the hook fan-out
    (function lane).
    """

    def check_loop(rule):
        host = MonitorHost()
        host.store.save("io_latency_us", 120)
        host.store.derive_rate("false_submit", window=1 * SECOND,
                               name="false_submit.rate")
        host.store.save("false_submit", 1)
        for i in range(5):
            host.store.save("m{}".format(i), i)
        monitor = GuardrailCompiler().compile(_spec(
            "check_hot", rule, "TIMER(start_time, 1ms)")).instantiate(host)
        check = monitor.check
        for _ in range(CHECK_ITERS):
            check({})
        return monitor

    single = check_loop("LOAD(io_latency_us) < 500")
    three = check_loop(
        "LOAD(io_latency_us) < 500, LOAD(false_submit.rate) > 0.05, "
        "LOAD(m0) + LOAD(m1) + LOAD(m2) <= max(LOAD(m3), LOAD(m4)) * 2")

    assert single.check_count == CHECK_ITERS
    assert single.violation_count == three.violation_count == 0
    # ns_per_check=50 + 4 charged ops * ns_per_op=5 per check, exactly.
    assert single.overhead.simulated_ns == CHECK_ITERS * 70
    return {
        "iterations": CHECK_ITERS,
        "single_checks": single.check_count,
        "single_violations": single.violation_count,
        "single_overhead_ns": single.overhead.simulated_ns,
        "three_checks": three.check_count,
        "three_violations": three.violation_count,
        "three_overhead_ns": three.overhead.simulated_ns,
    }


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

    metrics = {"iterations": EVAL_ITERS}
    for label, rule in RULE_SHAPES:
        spec = parse_guardrail(_spec(
            "eval_" + label, rule, "TIMER(start_time, 1ms)"))
        _, program, _ = GuardrailCompiler().compile(spec).rules[0]
        ctx = EvalContext(store, now=0)
        result = None
        for _ in range(EVAL_ITERS):
            ctx.ops = 0
            result = program(ctx)
        metrics["{}_result".format(label)] = result
        metrics["{}_ops".format(label)] = ctx.ops

    assert metrics["threshold_result"] is True
    assert metrics["rate_cmp_result"] is True
    assert metrics["costly_result"] is not None
    # static_cost is an upper bound: runtime ops never exceed it.
    assert metrics["threshold_ops"] == 4
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

    from repro.kernel.storage.batch import CompletionIngest
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

    scalar_state = fingerprint(*scalar_ingest())
    batched_state = fingerprint(*batched_ingest())

    metrics = dict(scalar_state)
    metrics["events"] = SSD_EVENTS
    metrics["parity"] = scalar_state == batched_state
    metrics["p95"] = round(metrics["p95"], 6)
    metrics["rate"] = round(metrics["rate"], 6)
    assert metrics["parity"] is True
    assert metrics["completed"] == metrics["samples"] == SSD_EVENTS
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
