"""Monitor overhead scaling and compilation-path cost.

Backs the framework's P5/verifier story with numbers:

- simulated in-kernel overhead scales linearly in guardrail count and rule
  cost, and stays a tiny fraction of system time at sane check rates;
- the host-side compilation pipeline (parse -> validate -> compile ->
  verify) prices a costly rule before it is deployed;
- 1-in-64 sampling of the repro.trace tracepoints drops ~63/64 of the
  event volume.

Every metric here is deterministic: *simulated* costs and traced event
counts.  Real time is measured by the ``benchmarks/perf`` spine
(``core.compiler.compile_s``, ``bench.trace_overhead_x``).
"""

from repro.bench.report import format_table
from repro.bench.results import scenario
from repro.core.compiler import GuardrailCompiler
from repro.kernel import Kernel
from repro.sim.units import SECOND
from repro.trace import TRACER, tracing

SIMPLE_RULE = "LOAD(m0) <= 1"
COSTLY_RULE = (
    "LOAD(m0) + LOAD(m1) + LOAD(m2) + LOAD(m3) + LOAD(m4) "
    "<= max(LOAD(m5), LOAD(m6)) * 2"
)


def _spec(name, rule, interval="100ms"):
    return (
        "guardrail {} {{ trigger: {{ TIMER(start_time, {}) }}, "
        "rule: {{ {} }}, action: {{ REPORT() }} }}".format(name, interval, rule)
    )


def _scaling_run(guardrail_count, rule):
    kernel = Kernel(seed=55)
    for i in range(7):
        kernel.store.save("m{}".format(i), 0)
    for g in range(guardrail_count):
        kernel.guardrails.load(_spec("g{}".format(g), rule))
    kernel.run(until=10 * SECOND)
    total = kernel.guardrails.total_overhead_ns()
    return total, total / (10 * SECOND)


@scenario(cost=0.3, seed=55)
def run_overhead_scaling(report=None):
    results = {}
    for count in (1, 4, 16):
        for label, rule in (("simple", SIMPLE_RULE),
                            ("costly", COSTLY_RULE)):
            results[(count, label)] = _scaling_run(count, rule)

    metrics = {}
    for (count, label), (total, fraction) in sorted(results.items()):
        metrics["g{}_{}_overhead_ns".format(count, label)] = total
        metrics["g{}_{}_fraction".format(count, label)] = round(fraction, 12)

    # Linear-ish scaling in guardrail count, costly rules cost more than
    # simple ones, and even 16 costly guardrails stay far below 0.1% of
    # system time.
    assert (metrics["g16_simple_overhead_ns"]
            >= metrics["g1_simple_overhead_ns"] * 10)
    assert (metrics["g4_costly_overhead_ns"]
            > metrics["g4_simple_overhead_ns"])
    assert metrics["g16_costly_fraction"] < 1e-3

    if report is not None:
        rows = [
            [count, label, total, "{:.2e}".format(fraction)]
            for (count, label), (total, fraction) in sorted(results.items())
        ]
        report("overhead_scaling", format_table(
            ["guardrails", "rule", "overhead ns / 10s", "fraction of time"],
            rows,
            title="Simulated monitor overhead at 10 Hz checks"))
    return metrics


@scenario(cost=0.1)
def run_compilation_pipeline(report=None):
    compiled = GuardrailCompiler().compile(_spec("pipeline", COSTLY_RULE))
    assert compiled.name == "pipeline"
    metrics = {
        "rules": len(compiled.rules),
        "verified_total_cost_ops": compiled.verification.total_cost,
        "estimated_ops_per_s": round(
            compiled.verification.estimated_ops_per_second),
    }
    assert metrics["rules"] == 1
    if report is not None:
        report("overhead_compile", format_table(
            ["aspect", "value"],
            [
                ["rules", metrics["rules"]],
                ["verified total cost (ops)",
                 metrics["verified_total_cost_ops"]],
                ["estimated ops/s", metrics["estimated_ops_per_s"]],
            ],
            title="Compilation pipeline: parse + validate + compile + verify"))
    return metrics


TRACING_ITERS = 100_000


def _tracing_workload():
    kernel = Kernel(seed=57)
    hook = kernel.hooks.declare("bench.hot")
    hook.attach(lambda name, now, payload: None)
    store = kernel.store
    for i in range(TRACING_ITERS):
        hook.fire(i=i)
        store.save("m", i & 1)


@scenario(cost=2.0, seed=57)
def run_tracing_overhead(report=None):
    """repro.trace event volume: full vs. 1-in-64 sampled.

    The workload hammers exactly the two hottest tracepoints — hook fires
    and feature-store saves.
    """
    with tracing(capacity=1 << 15):
        _tracing_workload()
        full_events = TRACER.buffer.total
    with tracing(capacity=1 << 15,
                 sample={"hook": 64, "featurestore.save": 64}):
        _tracing_workload()
        sampled_events = TRACER.buffer.total

    # Sampling drops ~63/64 of the event volume.
    assert sampled_events * 5 < full_events
    return {"full_events": full_events, "sampled_events": sampled_events}


def scenarios():
    return [
        ("overhead_scaling", run_overhead_scaling),
        ("overhead_compile", run_compilation_pipeline),
        ("overhead_tracing", run_tracing_overhead),
    ]
