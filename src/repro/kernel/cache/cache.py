"""The cache, its policy view, and shadow baselines."""

import collections

from repro.detect.streaming import RateCounter
from repro.kernel.cache.policies import random_evict
from repro.sim.units import SECOND


class CacheView:
    """Read-only window a policy gets over the cache contents."""

    def __init__(self, entries):
        self._entries = entries

    def keys(self):
        return self._entries.keys()

    def last_access(self, key):
        return self._entries[key]


class _PolicyCache:
    """Shared mechanics for the live cache and shadows."""

    def __init__(self, capacity, clock, policy):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._clock = clock
        self._policy = policy
        self._entries = collections.OrderedDict()  # key -> last access time
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def access(self, key):
        now = self._clock()
        if key in self._entries:
            self._entries[key] = now
            self.hits += 1
            return True
        self.misses += 1
        if len(self._entries) >= self.capacity:
            victim = self._policy(CacheView(self._entries))
            if victim not in self._entries:
                raise ValueError(
                    "eviction policy returned non-resident key {!r}".format(victim)
                )
            del self._entries[victim]
            self.evictions += 1
        self._entries[key] = now
        return False


class ShadowCache(_PolicyCache):
    """A baseline cache replaying the live access stream, never serving it."""


class KvCache(_PolicyCache):
    """The live cache: policy through the ``cache.evict`` slot, shadows fed
    automatically, hit rates published to the feature store.

    Published keys: ``cache.hit_rate`` and, per shadow,
    ``cache.<shadow>.hit_rate`` — both windowed over ``window`` ns, so a P4
    rule is simply ``LOAD(cache.hit_rate) >= LOAD(cache.random.hit_rate)``.
    """

    EVICT_SLOT = "cache.evict"
    BASELINE_NAME = "cache.random"

    def __init__(self, kernel, capacity, window=1 * SECOND):
        self.kernel = kernel
        baseline = random_evict(kernel.engine.rng.get("cache.random"))
        if self.EVICT_SLOT not in kernel.functions:
            slot = kernel.functions.register(self.EVICT_SLOT, baseline)
            kernel.functions.register_implementation(self.BASELINE_NAME, baseline)
        else:
            slot = kernel.functions.slot(self.EVICT_SLOT)
        super().__init__(capacity, lambda: kernel.engine.now,
                         lambda view: slot(view))
        self._shadows = {}
        self._hit_window = RateCounter(window)
        self._shadow_windows = {}
        self.access_hook = kernel.hooks.declare("cache.access")

    def add_shadow(self, name, policy):
        """Attach a shadow baseline; returns the :class:`ShadowCache`."""
        if name in self._shadows:
            raise ValueError("shadow {!r} already attached".format(name))
        shadow = ShadowCache(self.capacity, self._clock, policy)
        self._shadows[name] = shadow
        self._shadow_windows[name] = RateCounter(self._hit_window.window)
        return shadow

    def access(self, key):
        hit = super().access(key)
        now = self.kernel.engine.now
        self._hit_window.observe(now, hit)
        store = self.kernel.store
        store.save("cache.hit_rate", self._hit_window.rate(now))
        for name, shadow in self._shadows.items():
            shadow_hit = shadow.access(key)
            window = self._shadow_windows[name]
            window.observe(now, shadow_hit)
            store.save("cache.{}.hit_rate".format(name), window.rate(now))
        self.kernel.metrics.increment("cache.accesses")
        if hit:
            self.kernel.metrics.increment("cache.hits")
        self.access_hook.fire(key=key, hit=hit)
        return hit
