"""Cache mechanics, shadows, published hit rates."""

import pytest

from repro.kernel.cache import KvCache, random_evict


def lru(view):
    """Test-local eviction policy: the least recently used key."""
    return min(view.keys(), key=lambda k: (view.last_access(k), str(k)))


@pytest.fixture
def cache(kernel):
    return kernel.attach("cache", KvCache(kernel, capacity=3))


def test_capacity_validated(kernel):
    with pytest.raises(ValueError):
        KvCache(kernel, 0)


def test_hit_miss_accounting(kernel, cache):
    assert cache.access("a") is False
    assert cache.access("a") is True
    assert cache.hits == 1
    assert cache.misses == 1
    assert kernel.store.load("cache.hit_rate") == 0.5


def test_eviction_at_capacity(kernel, cache):
    for key in "abcd":
        cache.access(key)
    assert cache.evictions == 1
    assert cache.misses - cache.evictions == 3  # resident keys


def test_lru_policy_evicts_least_recent(kernel, cache):
    kernel.functions.register_implementation("cache.lru", lru)
    kernel.functions.replace("cache.evict", "cache.lru")
    for key in "abc":
        cache.access(key)
        kernel.engine.schedule(1000, lambda: None)
        kernel.run(until=kernel.now + 1000)
    cache.access("a")   # refresh a; b is now LRU
    kernel.run(until=kernel.now + 1000)
    cache.access("d")
    assert cache.access("a") is True   # still resident
    assert cache.access("b") is False  # evicted


def test_policy_returning_bad_key_raises(kernel, cache):
    kernel.functions.register_implementation("cache.bad", lambda view: "ghost")
    kernel.functions.replace("cache.evict", "cache.bad")
    for key in "abc":
        cache.access(key)
    with pytest.raises(ValueError, match="non-resident"):
        cache.access("d")


def test_shadow_replays_same_stream(kernel, cache):
    shadow = cache.add_shadow("random",
                              random_evict(kernel.engine.rng.get("r")))
    for key in "abcabc":
        cache.access(key)
    assert shadow.hits + shadow.misses == 6


def test_duplicate_shadow_rejected(kernel, cache):
    cache.add_shadow("s", lru)
    with pytest.raises(ValueError):
        cache.add_shadow("s", lru)


def test_hit_rates_published_to_store(kernel, cache):
    cache.add_shadow("random", random_evict(kernel.engine.rng.get("r")))
    for key in "aabb":
        cache.access(key)
    assert kernel.store.load("cache.hit_rate") == 0.5
    assert kernel.store.load("cache.random.hit_rate") == 0.5


def test_access_hook_fires(kernel, cache):
    events = []
    kernel.hooks.get("cache.access").attach(lambda n, t, p: events.append(p))
    cache.access("k")
    assert events == [{"key": "k", "hit": False}]


def test_view_exposes_bookkeeping(kernel, cache):
    seen = {}

    def spy(view):
        for key in view.keys():
            seen[key] = view.last_access(key)
        return next(iter(view.keys()))

    kernel.functions.register_implementation("cache.spy", spy)
    kernel.functions.replace("cache.evict", "cache.spy")
    for key in "abac":
        cache.access(key)
        kernel.run(until=kernel.now + 1000)
    cache.access("d")  # triggers eviction, spy runs
    assert seen == {"a": 2000, "b": 1000, "c": 3000}


def test_metrics_counters(kernel, cache):
    cache.access("a")
    cache.access("a")
    assert kernel.metrics.counter("cache.accesses") == 2
    assert kernel.metrics.counter("cache.hits") == 1
