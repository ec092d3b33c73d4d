"""Learned cache eviction: reuse prediction, wins and losses."""

import numpy as np
import pytest

from repro.kernel.cache import KvCache, random_evict
from repro.kernel.cache.cache import ShadowCache
from repro.policies.cachepol import LearnedReusePolicy, attach_learned_cache_policy


def hit_rate(cache):
    return cache.hits / (cache.hits + cache.misses)


def test_observe_learns_gaps():
    clock = {"t": 0}
    policy = LearnedReusePolicy(lambda: clock["t"])
    for t in [0, 10, 20, 30]:
        clock["t"] = t
        policy.observe("k")
    assert policy._gap_ewma["k"] == pytest.approx(10.0)
    assert policy.observations == 3


def test_unseen_key_gets_pessimistic_gap():
    policy = LearnedReusePolicy(lambda: 0, default_gap=999)
    assert policy.predicted_next_access("new", last_access=1) == 1000


def test_evicts_largest_predicted_distance():
    clock = {"t": 0}
    policy = LearnedReusePolicy(lambda: clock["t"])
    cache = ShadowCache(2, lambda: clock["t"], policy)
    # "hot" is accessed every tick, "cold" once.
    for t in range(5):
        clock["t"] = t
        policy.observe("hot")
        cache.access("hot")
    clock["t"] = 5
    policy.observe("cold")
    cache.access("cold")
    clock["t"] = 6
    policy.observe("newkey")
    cache.access("newkey")  # must evict: picks cold (never-reused)
    assert "hot" in cache._entries
    assert "cold" not in cache._entries


def test_attach_wires_online_training(kernel):
    cache = kernel.attach("cache", KvCache(kernel, capacity=8))
    policy = attach_learned_cache_policy(kernel, cache)
    for step in range(20):
        cache.access("a")
        kernel.run(until=kernel.now + 1000)
    assert policy.observations > 0
    assert kernel.functions.slot("cache.evict").current is policy


def test_learned_beats_random_on_skewed_workload(kernel):
    cache = kernel.attach("cache", KvCache(kernel, capacity=32))
    shadow = cache.add_shadow(
        "random", random_evict(kernel.engine.rng.get("shadow")))
    attach_learned_cache_policy(kernel, cache)
    rng = np.random.default_rng(0)
    for _ in range(3000):
        cache.access(int(rng.zipf(1.4)) % 200)
        kernel.run(until=kernel.now + 100_000)
    assert hit_rate(cache) > hit_rate(shadow)


def test_learned_loses_on_dead_pair_workload(kernel):
    # Adversarial pattern: every key is touched exactly twice in quick
    # succession, then never again.  The learned policy memorizes a tiny
    # reuse gap and keeps the dead keys forever; random at least recycles.
    cache = kernel.attach("cache", KvCache(kernel, capacity=32))
    shadow = cache.add_shadow(
        "random", random_evict(kernel.engine.rng.get("shadow")))
    attach_learned_cache_policy(kernel, cache)
    rng = np.random.default_rng(1)
    hot = [f"hot{i}" for i in range(16)]
    serial = 0
    for step in range(3000):
        if rng.random() < 0.5:
            key = hot[int(rng.integers(len(hot)))]
            cache.access(key)
        else:
            serial += 1
            pair = "dead{}".format(serial)
            cache.access(pair)
            kernel.run(until=kernel.now + 1000)
            cache.access(pair)
        kernel.run(until=kernel.now + 100_000)
    assert hit_rate(cache) < hit_rate(shadow)
