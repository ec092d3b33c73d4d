"""Overhead accounting and the inference cost/benefit meter."""


from repro.core.featurestore import FeatureStore
from repro.core.overhead import CostModel, InferenceMeter, OverheadAccount


class TestCostModel:
    def test_action_cost_fixed(self):
        assert CostModel(ns_per_action=7).action_cost() == 7


class TestOverheadAccount:
    def test_charges_accumulate(self):
        account = OverheadAccount(CostModel(ns_per_op=1, ns_per_check=10,
                                            ns_per_action=100))
        account.charge_check(5)
        account.charge_check(5)
        account.charge_action()
        assert account.checks == 2
        assert account.ops == 10
        assert account.actions == 1
        assert account.simulated_ns == 15 + 15 + 100

    def test_snapshot(self):
        account = OverheadAccount()
        account.charge_check(1)
        snap = account.snapshot()
        assert set(snap) == {"checks", "ops", "actions", "simulated_ns"}


class TestInferenceMeter:
    def test_publishes_ledger_keys(self):
        store = FeatureStore()
        meter = InferenceMeter(store, "policy")
        assert store.load("policy.net_benefit") == 0
        meter.record_inference(100)
        meter.record_decision(100, 500)
        assert store.load("policy.inference_ns") == 200
        assert store.load("policy.gain_ns") == 500
        assert store.load("policy.net_benefit") == 300
        assert store.load("policy.inferences") == 2

    def test_negative_net_benefit_possible(self):
        store = FeatureStore()
        meter = InferenceMeter(store, "p")
        meter.record_decision(1000, 10)
        assert store.load("p.net_benefit") == -990
        assert meter.net_benefit == -990
