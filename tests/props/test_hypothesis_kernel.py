"""Property-based tests: simulated-kernel conservation invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import Kernel
from repro.kernel.cache import KvCache
from repro.kernel.mm import MemoryAllocator, TieredMemory
from repro.kernel.storage.ssd import DeviceProfile, SsdDevice
from repro.kernel.storage.volume import ReplicatedVolume
from repro.sim.units import SECOND


@given(st.integers(min_value=1, max_value=60),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=30, deadline=None)
def test_volume_conserves_requests(io_count, replicas, seed):
    kernel = Kernel(seed=seed)
    devices = [
        SsdDevice(kernel.engine, kernel.engine.rng.get("d{}".format(i)),
                  "d{}".format(i), DeviceProfile.pre_drift())
        for i in range(replicas)
    ]
    volume = ReplicatedVolume(kernel, devices)
    for _ in range(io_count):
        volume.submit()
    kernel.run(until=60 * SECOND)
    # Every submitted I/O completes exactly once; none are lost or doubled.
    assert volume.completed == io_count
    assert volume.inflight == 0
    assert sum(d.served_count for d in devices) == io_count
    assert len(kernel.metrics.series("storage.io_latency_us")) == io_count


@given(st.lists(st.tuples(st.booleans(),
                          st.integers(min_value=1, max_value=50)),
                min_size=1, max_size=40))
@settings(max_examples=50, deadline=None)
def test_allocator_never_over_commits(operations):
    kernel = Kernel(seed=0)
    alloc = MemoryAllocator(kernel, total_pages=200)
    # An adversarial policy granting wild values; the allocator must stay
    # within bounds regardless.
    wild = iter([10 ** 9, -5, 0, 3] * 40)
    kernel.functions.register_implementation(
        "mm.wild", lambda requested, available: next(wild))
    kernel.functions.replace("mm.prealloc_size", "mm.wild")
    for is_alloc, amount in operations:
        if is_alloc:
            alloc.allocate(amount)
        elif alloc.used_pages:
            alloc.free(min(amount, alloc.used_pages))
        assert 0 <= alloc.used_pages <= alloc.total_pages
        assert alloc.available_pages == alloc.total_pages - alloc.used_pages


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                max_size=300),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=50, deadline=None)
def test_cache_occupancy_and_counts(keys, capacity):
    kernel = Kernel(seed=1)
    cache = KvCache(kernel, capacity=capacity)
    for key in keys:
        cache.access(key)
    assert len(cache._entries) <= capacity
    assert cache.hits + cache.misses == len(keys)
    assert cache.evictions == max(0, cache.misses - min(capacity, cache.misses))
    assert 0.0 <= kernel.store.load("cache.hit_rate") <= 1.0


@given(st.lists(st.integers(min_value=0, max_value=20), min_size=1,
                max_size=200),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=50, deadline=None)
def test_tiered_memory_fast_tier_bounded(pages, capacity):
    kernel = Kernel(seed=2)
    tiered = TieredMemory(kernel, fast_capacity=capacity)
    for page in pages:
        tiered.access(page)
    assert len(tiered._fast) <= capacity
    assert tiered.fast_hits <= tiered.accesses == len(pages)
    assert 0.0 <= kernel.store.load("mm.tier_hit_rate") <= 1.0
