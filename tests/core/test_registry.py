"""Guardrail manager: incremental deployment and runtime update."""

import pytest

from repro.core.errors import GuardrailError
from repro.core.registry import GuardrailManager
from repro.sim.units import SECOND


def spec(name="g", threshold=10):
    return (
        "guardrail {} {{ trigger: {{ TIMER(start_time, 1s) }}, "
        "rule: {{ LOAD(m) <= {} }}, action: {{ REPORT() }} }}".format(
            name, threshold
        )
    )


@pytest.fixture
def manager(host):
    return GuardrailManager(host)


def test_load_compiles_and_arms(manager, host):
    monitor = manager.load(spec())
    assert monitor.enabled
    assert "g" in manager
    host.store.save("m", 99)
    host.engine.run(until=1 * SECOND)
    assert monitor.violation_count == 1


def test_load_without_arming(manager):
    monitor = manager.load(spec(), arm=False)
    assert not monitor.enabled


def test_duplicate_load_rejected(manager):
    manager.load(spec())
    with pytest.raises(GuardrailError, match="already loaded"):
        manager.load(spec())


def test_incremental_deployment_while_running(manager, host):
    manager.load(spec("first"))
    host.engine.run(until=2 * SECOND)
    manager.load(spec("second"))
    host.engine.run(until=4 * SECOND)
    assert manager.get("first").check_count == 4
    assert manager.get("second").check_count == 2


def test_update_replaces_without_gap(manager, host):
    host.store.save("m", 15)
    manager.load(spec(threshold=10))
    host.engine.run(until=1 * SECOND)
    assert manager.get("g").violation_count == 1

    updated = manager.update(spec(threshold=20))  # relax at runtime
    host.engine.run(until=3 * SECOND)
    assert updated.violation_count == 0
    assert manager.update_count == 1


def test_update_disarms_old_monitor(manager, host):
    old = manager.load(spec())
    manager.update(spec())
    assert not old.enabled
    host.engine.run(until=2 * SECOND)
    assert old.check_count == 0


def test_update_unloaded_rejected(manager):
    with pytest.raises(GuardrailError, match="not loaded"):
        manager.update(spec())


def test_unload_disarms_and_removes(manager, host):
    monitor = manager.load(spec())
    manager.unload("g")
    assert "g" not in manager
    host.engine.run(until=2 * SECOND)
    assert monitor.check_count == 0


def test_get_unknown_lists_loaded(manager):
    manager.load(spec("known"))
    with pytest.raises(GuardrailError, match="known"):
        manager.get("ghost")


def test_enable_disable_by_name(manager, host):
    manager.load(spec())
    manager.disable("g")
    host.engine.run(until=2 * SECOND)
    assert manager.get("g").check_count == 0
    manager.enable("g")
    host.engine.run(until=4 * SECOND)
    assert manager.get("g").check_count == 2


def test_load_all_from_one_file(manager):
    text = spec("a") + "\n" + spec("b")
    monitors = manager.load_all(text)
    assert [m.name for m in monitors] == ["a", "b"]
    assert manager.names() == ["a", "b"]


def test_totals_aggregate(manager, host):
    host.store.save("m", 99)
    manager.load(spec("a"))
    manager.load(spec("b"))
    host.engine.run(until=2 * SECOND)
    assert manager.total_overhead_ns() > 0
    stats = manager.stats()
    assert set(stats) == {"a", "b"}
    assert sum(entry["violations"] for entry in stats.values()) == 4


def test_monitors_in_load_order(manager):
    manager.load(spec("zz"))
    manager.load(spec("aa"))
    assert [m.name for m in manager.monitors()] == ["zz", "aa"]
    assert manager.names() == ["aa", "zz"]


def test_update_with_aggregates_keeps_estimator_state(manager, host):
    """Updating a guardrail must not reset a shared derived key's history."""
    agg_spec = (
        "guardrail g {{ trigger: {{ TIMER(start_time, 1s) }}, "
        "rule: {{ AVG(m, 60s) <= {} }}, action: {{ REPORT() }} }}"
    )
    manager.load(agg_spec.format(100))
    for v in (10.0, 20.0, 30.0):
        host.store.save("m", v)
    before = host.store.load("m.avg60000000000")
    manager.update(agg_spec.format(50))
    assert host.store.load("m.avg60000000000") == before == 20.0
