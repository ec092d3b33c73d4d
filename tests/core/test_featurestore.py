"""Feature store: SAVE/LOAD, derived keys, versions, subscriptions."""

import math

import pytest

from repro.core.errors import StoreError
from repro.core.featurestore import FeatureStore


@pytest.fixture
def store():
    clock = {"now": 0}
    s = FeatureStore(clock=lambda: clock["now"])
    s._test_clock = clock
    return s


def test_save_load_roundtrip(store):
    store.save("a", 1.5)
    assert store.load("a") == 1.5


def test_load_missing_returns_default(store):
    assert store.load("missing") is None
    assert store.load("missing", default=7) == 7


def test_bool_values_stored_as_is(store):
    store.save("flag", False)
    assert store.load("flag") is False


def test_invalid_keys_rejected(store):
    for bad in ["", "1abc", "a b", "a..b", ".a", "a-", 42]:
        with pytest.raises(StoreError):
            store.save(bad, 1)


def test_dotted_keys_accepted(store):
    store.save("storage.io_latency.p95", 1)
    assert "storage.io_latency.p95" in store


def test_save_and_load_counters(store):
    store.save("a", 1)
    store.load("a")
    store.load("a")
    assert store.save_count == 1
    assert store.load_count == 2


def test_version_increments_per_save(store):
    assert store.version("a") == 0
    store.save("a", 1)
    store.save("a", 2)
    assert store.version("a") == 2


def test_subscription_fires_and_unsubscribes(store):
    seen = []
    unsubscribe = store.subscribe(lambda k, v, now: seen.append((k, v)))
    store.save("a", 1)
    unsubscribe()
    store.save("a", 2)
    assert seen == [("a", 1)]


def test_unsubscribe_twice_is_safe(store):
    unsubscribe = store.subscribe(lambda *a: None)
    unsubscribe()
    unsubscribe()


class TestDerivedKeys:
    def test_moving_average(self, store):
        store.derive_moving_average("x", window=2)
        store.save("x", 2.0)
        store.save("x", 4.0)
        store.save("x", 6.0)
        assert store.load("x.avg") == 5.0

    def test_custom_name(self, store):
        store.derive_moving_average("x", window=4, name="x.mean4")
        store.save("x", 2.0)
        assert store.load("x.mean4") == 2.0

    def test_ewma(self, store):
        store.derive_ewma("x", alpha=0.5)
        store.save("x", 0.0)
        store.save("x", 10.0)
        assert store.load("x.ewma") == 5.0

    def test_quantile(self, store):
        store.derive_quantile("x", 0.5, name="x.p50")
        for v in [1, 2, 3, 4, 100]:
            store.save("x", v)
        assert store.load("x.p50") == pytest.approx(3, abs=1)

    def test_rate_over_window(self, store):
        store.derive_rate("hit", window=100, name="hit_rate")
        clock = store._test_clock
        for t, hit in [(0, 1), (10, 0), (20, 1), (30, 1)]:
            clock["now"] = t
            store.save("hit", hit)
        assert store.load("hit_rate") == pytest.approx(0.75)
        clock["now"] = 500  # all events age out
        assert store.load("hit_rate") == 0.0

    def test_rate_counts_bools(self, store):
        store.derive_rate("ev", window=100)
        store.save("ev", True)
        store.save("ev", False)
        assert store.load("ev.rate") == 0.5

    def test_derived_key_cannot_be_saved(self, store):
        store.derive_moving_average("x", window=2)
        with pytest.raises(StoreError, match="derived"):
            store.save("x.avg", 1)

    def test_duplicate_derived_name_rejected(self, store):
        store.derive_moving_average("x", window=2)
        with pytest.raises(StoreError, match="already exists"):
            store.derive_ewma("y", alpha=0.5, name="x.avg")

    def test_derived_before_any_save_is_nan(self, store):
        store.derive_moving_average("x", window=2)
        assert math.isnan(store.load("x.avg"))

    def test_non_numeric_saves_skip_derived(self, store):
        store.derive_moving_average("x", window=2)
        store.save("x", "a string")
        assert math.isnan(store.load("x.avg"))

    def test_derived_version_bumps_on_source_save(self, store):
        store.derive_moving_average("x", window=2)
        before = store.version("x.avg")
        store.save("x", 1.0)
        assert store.version("x.avg") == before + 1


def test_snapshot_includes_values_and_skips_nan_derived(store):
    store.derive_moving_average("x", window=2)
    store.save("a", 1)
    snap = store.snapshot()
    assert snap == {"a": 1}
    store.save("x", 3.0)
    assert store.snapshot()["x.avg"] == 3.0


def test_subscriber_mutation_during_bump_is_safe(store):
    unsubscribes = []

    def subscriber(key, value, now):
        # Unsubscribing from inside a notification must not break iteration.
        for u in unsubscribes:
            u()

    unsubscribes.append(store.subscribe(subscriber))
    store.save("a", 1)
    store.save("a", 2)


# -- crash containment in the notify path (the _bump bugfix) ----------------


def test_crashing_subscriber_does_not_starve_the_rest(store):
    seen = []

    def bomb(key, value, now):
        raise KeyError("subscriber bug")

    store.subscribe(bomb)
    store.subscribe(lambda k, v, now: seen.append((k, v)))
    store.save("a", 1)          # must not raise
    assert seen == [("a", 1)]   # the later subscriber still heard about it
    assert store.load("a") == 1  # and the value itself was written
    assert store.subscriber_error_count == 1
    entry = store.subscriber_errors[0]
    assert entry["key"] == "a"
    assert "KeyError" in entry["error"]
    assert "bomb" in entry["subscriber"]


def test_subscriber_error_log_is_bounded(store):
    store.subscribe(lambda k, v, now: (_ for _ in ()).throw(ValueError("x")))
    for i in range(store.MAX_SUBSCRIBER_ERRORS + 10):
        store.save("a", i)
    assert store.subscriber_error_count == store.MAX_SUBSCRIBER_ERRORS + 10
    assert len(store.subscriber_errors) == store.MAX_SUBSCRIBER_ERRORS


def test_double_subscribe_is_idempotent(store):
    # The dedup bugfix: subscribing the same callback twice must not double
    # every notification.
    seen = []

    def subscriber(key, value, now):
        seen.append(key)

    first = store.subscribe(subscriber)
    second = store.subscribe(subscriber)
    store.save("a", 1)
    assert seen == ["a"]        # one delivery, not two
    second()                    # either handle removes the one registration
    store.save("a", 2)
    assert seen == ["a"]
    first()                     # and the other stays harmlessly idempotent


def test_snapshot_drops_nan_raw_values(store):
    store.save("ok", 1.5)
    store.save("stale", math.nan)
    snap = store.snapshot()
    assert snap == {"ok": 1.5}
    store.save("stale", 2.0)
    assert store.snapshot() == {"ok": 1.5, "stale": 2.0}


def test_unhashable_key_raises_store_error(store):
    with pytest.raises(StoreError):
        store.save(["not", "a", "key"], 1)
    with pytest.raises(StoreError):
        store.load({"also": "bad"})


def test_validated_key_cache_still_rejects_bad_keys(store):
    store.save("good.key", 1)
    assert "good.key" in store._valid_keys
    with pytest.raises(StoreError):
        store.save("still bad", 1)
    with pytest.raises(StoreError):
        store.load("1starts_with_digit")
    # The cached key keeps working after rejected lookups.
    assert store.load("good.key") == 1
