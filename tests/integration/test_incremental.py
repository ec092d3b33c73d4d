"""Cross-cutting integration: incremental deployment, multi-guardrail kernels,
runtime update, dependency conversion — on a live simulated kernel."""


from repro.core.dependency import convert_to_dependency_triggered
from repro.core.properties import decision_quality, fairness_liveness
from repro.kernel import Kernel
from repro.kernel.cache import KvCache, random_evict
from repro.kernel.sched import CpuScheduler
from repro.policies.cachepol import attach_learned_cache_policy
from repro.policies.schedpol import attach_learned_sched_policy
from repro.sim.units import MILLISECOND, SECOND


def test_many_guardrails_on_one_kernel():
    kernel = Kernel(seed=13)
    sched = kernel.attach("sched", CpuScheduler(kernel))
    attach_learned_sched_policy(kernel, sched)
    sched.spawn("batch", burst_ns=50 * MILLISECOND)
    for i in range(3):
        sched.spawn("short{}".format(i), burst_ns=1 * MILLISECOND)

    cache = kernel.attach("cache", KvCache(kernel, capacity=16))
    cache.add_shadow("random", random_evict(kernel.engine.rng.get("sh")))
    attach_learned_cache_policy(kernel, cache)

    kernel.guardrails.load(fairness_liveness())
    kernel.guardrails.load(decision_quality(
        "cache", "cache.hit_rate", "cache.random.hit_rate", margin=0.05))

    def cache_traffic(step=0):
        cache.access(step % 8)
        if step < 2000:
            kernel.engine.schedule(2 * MILLISECOND, cache_traffic, step + 1)

    cache_traffic()
    kernel.run(until=4 * SECOND)

    fairness = kernel.guardrails.get("sched-fairness-liveness")
    quality = kernel.guardrails.get("cache-decision-quality")
    assert fairness.violation_count >= 1          # SJF starved batch
    assert quality.violation_count == 0           # small loop: cache is fine
    assert kernel.guardrails.total_overhead_ns() > 0


def test_runtime_update_tightens_threshold_mid_run():
    kernel = Kernel(seed=14)
    kernel.store.save("metric", 50.0)
    spec = ("guardrail g {{ trigger: {{ TIMER(start_time, 1s) }}, "
            "rule: {{ LOAD(metric) <= {} }}, action: {{ REPORT() }} }}")
    kernel.guardrails.load(spec.format(100))
    kernel.run(until=2 * SECOND)
    assert kernel.guardrails.get("g").violation_count == 0
    kernel.guardrails.update(spec.format(40))
    kernel.run(until=4 * SECOND)
    assert kernel.guardrails.get("g").violation_count == 2


def test_dependency_conversion_on_live_kernel():
    kernel = Kernel(seed=15)
    kernel.guardrails.load("""
guardrail dep {
  trigger: { TIMER(start_time, 1s) },
  rule: { LOAD(errors) <= 3 },
  action: { REPORT() }
}""")
    monitor = kernel.guardrails.get("dep")
    convert_to_dependency_triggered(monitor)
    kernel.run(until=10 * SECOND)
    assert monitor.check_count == 0  # nothing changed, nothing checked
    kernel.store.save("errors", 10)
    assert monitor.violation_count == 1
    assert monitor.check_count == 1


def test_unload_and_reload_cycle():
    kernel = Kernel(seed=16)
    spec = ("guardrail cyc { trigger: { TIMER(start_time, 1s) }, "
            "rule: { LOAD(x) <= 1 }, action: { REPORT() } }")
    kernel.guardrails.load(spec)
    kernel.guardrails.unload("cyc")
    monitor = kernel.guardrails.load(spec)
    kernel.store.save("x", 5)
    kernel.run(until=1 * SECOND)
    assert monitor.violation_count == 1


def test_guardrail_file_with_multiple_blocks_on_kernel():
    kernel = Kernel(seed=17)
    kernel.store.save("a", 10)
    kernel.store.save("b", 0)
    monitors = kernel.guardrails.load_all("""
// Two guardrails shipped in one file.
guardrail check-a {
  trigger: { TIMER(start_time, 1s) },
  rule: { LOAD(a) <= 5 },
  action: { SAVE(a_violated, true) }
}
guardrail check-b {
  trigger: { TIMER(start_time, 1s) },
  rule: { LOAD(b) <= 5 },
  action: { SAVE(b_violated, true) }
}
""")
    kernel.run(until=1 * SECOND)
    assert kernel.store.load("a_violated") is True
    assert kernel.store.load("b_violated") is None
    assert len(monitors) == 2
