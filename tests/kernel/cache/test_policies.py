"""Eviction policies against known access patterns."""

import numpy as np

from repro.kernel.cache.cache import ShadowCache
from repro.kernel.cache.policies import random_evict


def replay(policy, keys, capacity=4):
    clock = {"t": 0}

    def tick():
        clock["t"] += 1
        return clock["t"]

    cache = ShadowCache(capacity, tick, policy)
    for key in keys:
        cache.access(key)
    return cache


def test_random_evicts_resident_key():
    rng = np.random.default_rng(0)
    cache = replay(random_evict(rng), [str(i) for i in range(50)])
    assert cache.evictions == 46
    assert cache.misses - cache.evictions == 4  # resident keys
