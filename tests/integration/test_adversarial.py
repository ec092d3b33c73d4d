"""§1's security concern: "an adversarial application could influence the
learned model to make bad decisions harming the performance of benign
workloads".

The adversary games the learned cache evictor: it touches throwaway keys in
quick pairs, teaching the reuse predictor a tiny gap so the dead keys are
retained forever and the benign workload's hot set is squeezed out.  The P4
quality guardrail bounds the blast radius by falling back to random
eviction, and the retrain rate limit bounds the adversary's ability to
thrash retraining.
"""

import numpy as np
import pytest

from repro.core.properties import decision_quality
from repro.kernel import Kernel
from repro.kernel.cache import KvCache, random_evict
from repro.policies.cachepol import attach_learned_cache_policy
from repro.sim.units import MILLISECOND, SECOND


def run_cache_attack(with_guardrail, seed=61, duration_s=14, attack_at_s=4):
    kernel = Kernel(seed=seed)
    cache = kernel.attach("cache", KvCache(kernel, capacity=32,
                                           window=2 * SECOND))
    shadow = cache.add_shadow(
        "random", random_evict(kernel.engine.rng.get("shadow")))
    attach_learned_cache_policy(kernel, cache)
    if with_guardrail:
        kernel.guardrails.load(decision_quality(
            "cache", "cache.hit_rate", "cache.random.hit_rate", margin=0.05,
            fallback_slot="cache.evict", fallback_impl="cache.random"),
            cooldown=2 * SECOND)

    rng = np.random.default_rng(0)
    hot = ["benign{}".format(i) for i in range(16)]
    benign = {"hits": 0, "accesses": 0}
    serial = [0]

    def benign_access():
        key = hot[int(rng.integers(len(hot)))]
        benign["hits"] += 1 if cache.access(key) else 0
        benign["accesses"] += 1

    def adversary_access():
        serial[0] += 1
        key = "attack{}".format(serial[0])
        cache.access(key)
        cache.access(key)  # the quick pair: teaches a tiny reuse gap

    def loop(step=0):
        benign_access()
        if kernel.now >= attack_at_s * SECOND:
            adversary_access()
        if kernel.now < duration_s * SECOND:
            kernel.engine.schedule(2 * MILLISECOND, loop, step + 1)

    loop()
    kernel.run(until=duration_s * SECOND)
    return kernel, cache, shadow, benign


def hit_rate(cache):
    return cache.hits / (cache.hits + cache.misses)


@pytest.fixture(scope="module")
def attack_results():
    return {
        guarded: run_cache_attack(guarded) for guarded in (False, True)
    }


def test_adversary_degrades_benign_workload(attack_results):
    kernel, cache, shadow, benign = attack_results[False]
    # Unguarded: the learned evictor retains the dead attack keys; benign
    # hit rate collapses well below what random eviction would give.
    assert benign["hits"] / benign["accesses"] < 0.6
    assert hit_rate(cache) < hit_rate(shadow)


def test_guardrail_bounds_the_blast_radius(attack_results):
    unguarded = attack_results[False][3]
    kernel, cache, shadow, benign = attack_results[True]
    monitor = kernel.guardrails.get("cache-decision-quality")
    assert monitor.violation_count >= 1
    # Fallback took over: benign workload recovers most of its hit rate.
    guarded_rate = benign["hits"] / benign["accesses"]
    unguarded_rate = unguarded["hits"] / unguarded["accesses"]
    assert guarded_rate > unguarded_rate + 0.1


def test_retrain_rate_limit_resists_thrashing():
    # An adversary that *intentionally* trips a RETRAIN-ing guardrail
    # cannot thrash the training pipeline: the per-model rate limit caps
    # accepted requests no matter how often violations fire (§3.2).
    kernel = Kernel(seed=62, retrain_min_interval=5 * SECOND)
    kernel.store.save("metric", 100)  # permanently violating
    kernel.guardrails.load("""
guardrail retrainer {
  trigger: { TIMER(start_time, 100ms) },
  rule: { LOAD(metric) <= 1 },
  action: { RETRAIN(model) }
}""")
    kernel.run(until=10 * SECOND)
    queue = kernel.retrain_queue
    assert queue.accepted_count <= 3
    assert queue.rejected_count > 90
