"""Tiered memory."""

import pytest

from repro.kernel.mm import TieredMemory


@pytest.fixture
def tiered(kernel):
    return kernel.attach("tiered", TieredMemory(kernel, fast_capacity=4))


def test_needs_positive_capacity(kernel):
    with pytest.raises(ValueError):
        TieredMemory(kernel, 0)


def test_first_access_is_slow(kernel, tiered):
    assert tiered.access("p1") == tiered.SLOW_LATENCY_NS
    assert "p1" not in tiered._fast


def test_baseline_promotes_on_second_miss(kernel, tiered):
    tiered.access("p1")
    tiered.access("p1")  # second slow access -> promoted (with migration cost)
    assert "p1" in tiered._fast
    assert tiered.access("p1") == tiered.FAST_LATENCY_NS


def test_migration_cost_charged(kernel, tiered):
    tiered.access("p1")
    second = tiered.access("p1")
    assert second == tiered.SLOW_LATENCY_NS + tiered.MIGRATION_COST_NS


def test_eviction_when_fast_tier_full(kernel, tiered):
    for p in ["a", "b", "c", "d", "e"]:
        tiered.access(p)
        tiered.access(p)  # promote each
    assert len(tiered._fast) == 4
    assert "a" not in tiered._fast  # coldest evicted
    assert "e" in tiered._fast


def test_lru_order_updated_on_hit(kernel, tiered):
    for p in ["a", "b", "c", "d"]:
        tiered.access(p)
        tiered.access(p)
    tiered.access("a")  # refresh a
    tiered.access("e")
    tiered.access("e")  # promote e, evicting the coldest (b)
    assert "a" in tiered._fast
    assert "b" not in tiered._fast


def test_hit_rate_and_metrics(kernel, tiered):
    tiered.access("p")
    tiered.access("p")
    tiered.access("p")
    assert tiered.fast_hits / tiered.accesses == pytest.approx(1 / 3)
    assert kernel.store.load("mm.tier_hit_rate") is not None
    assert kernel.metrics.series("mm.tier_access_ns").mean() > 0


def test_never_migrate_policy(kernel, tiered):
    kernel.functions.replace("mm.tier_placement", "mm.never_migrate")
    for _ in range(5):
        tiered.access("p")
    assert "p" not in tiered._fast
    assert tiered.fast_hits == 0


def test_access_hook_payload(kernel, tiered):
    events = []
    kernel.hooks.get("mm.tier_access").attach(lambda n, t, p: events.append(p))
    tiered.access("p", is_write=True)
    assert events[0]["page"] == "p"
    assert events[0]["is_write"] is True
    assert events[0]["hit"] is False
    assert events[0]["serial"] == 1
