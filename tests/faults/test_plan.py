"""Fault plans: spec validation, the --fault grammar, JSON round-trips."""

import json

import pytest

from repro.core.errors import FaultError
from repro.faults.plan import (
    FAULT_KINDS,
    POLICY_KINDS,
    STORE_KINDS,
    FaultPlan,
    FaultSpec,
    parse_fault_flag,
)
from repro.sim.units import SECOND


def test_every_kind_is_policy_or_store():
    assert set(POLICY_KINDS) | set(STORE_KINDS) == set(FAULT_KINDS)
    assert not set(POLICY_KINDS) & set(STORE_KINDS)


def test_unknown_kind_rejected():
    with pytest.raises(FaultError, match="unknown fault kind"):
        FaultSpec("explode", "storage.pick_device")


def test_stall_requires_latency():
    with pytest.raises(FaultError, match="latency_us"):
        FaultSpec("stall", "storage.pick_device")
    spec = FaultSpec("stall", "storage.pick_device", latency_us=500)
    assert spec.latency_ns == 500_000


@pytest.mark.parametrize("probability", [0.0, -0.1, 1.5])
def test_probability_bounds(probability):
    with pytest.raises(FaultError, match="probability"):
        FaultSpec("raise", "slot", probability=probability)


def test_empty_window_rejected():
    with pytest.raises(FaultError, match="window is empty"):
        FaultSpec("raise", "slot", start_s=5, stop_s=5)


def test_active_window_semantics():
    spec = FaultSpec("raise", "slot", start_s=2, stop_s=4)
    assert not spec.active(0)
    assert spec.active(2 * SECOND)
    assert spec.active(4 * SECOND - 1)
    assert not spec.active(4 * SECOND)
    open_ended = FaultSpec("raise", "slot", start_s=1)
    assert open_ended.active(10**15)


def test_parse_fault_flag_full_grammar():
    spec = parse_fault_flag(
        "stall@storage.pick_device:start=3,stop=9,p=0.25,count=7,"
        "latency_us=1500")
    assert spec.kind == "stall"
    assert spec.target == "storage.pick_device"
    assert spec.start_ns == 3 * SECOND
    assert spec.stop_ns == 9 * SECOND
    assert spec.probability == 0.25
    assert spec.count == 7
    assert spec.latency_ns == 1_500_000


def test_parse_fault_flag_bare():
    spec = parse_fault_flag("nan@storage.pick_device")
    assert spec.kind == "nan"
    assert spec.start_ns == 0
    assert spec.stop_ns is None


@pytest.mark.parametrize("text", [
    "raise",                        # no @TARGET
    "raise@slot:bogus=1",           # unknown option key
    "raise@slot:start",             # no value
    "raise@slot:count=many",        # uncoercible value
])
def test_parse_fault_flag_rejects_bad_input(text):
    with pytest.raises(FaultError):
        parse_fault_flag(text)


def test_plan_round_trips_through_json():
    plan = FaultPlan.from_flags(
        ["raise@storage.pick_device:start=6,stop=9",
         "corrupt@false_submit_rate:start=6,p=0.5",
         "stall@storage.pick_device:latency_us=800,count=3"],
        seed=11)
    rebuilt = FaultPlan.from_json(json.dumps(plan.to_dict()))
    assert rebuilt.to_dict() == plan.to_dict()
    assert rebuilt.seed == 11
    assert [spec.index for spec in rebuilt] == [0, 1, 2]


def test_plan_groups_by_target_kind():
    plan = FaultPlan.from_flags(
        ["raise@slot.a", "nan@slot.a", "stale@key.b", "corrupt@key.c"])
    assert set(plan.policy_faults()) == {"slot.a"}
    assert len(plan.policy_faults()["slot.a"]) == 2
    assert set(plan.store_faults()) == {"key.b", "key.c"}


def test_plan_rejects_unknown_fields():
    with pytest.raises(FaultError, match="unknown fault-plan field"):
        FaultPlan.from_json('{"seed": 1, "surprise": true}')
    with pytest.raises(FaultError, match="unknown fault field"):
        FaultPlan.from_json(
            '{"faults": [{"kind": "raise", "target": "s", "when": 3}]}')
