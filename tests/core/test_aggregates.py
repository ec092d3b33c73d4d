"""Declarative aggregates: parsing, lowering, registration, semantics."""

import math

import pytest

from repro.core.compiler import GuardrailCompiler
from repro.core.errors import ParseError
from repro.core.registry import GuardrailManager
from repro.core.spec import ast as A
from repro.core.spec import parse_guardrail
from repro.sim.units import MILLISECOND, SECOND


def guardrail(rule, action="REPORT()"):
    return (
        "guardrail g {{ trigger: {{ TIMER(start_time, 1s) }}, "
        "rule: {{ {} }}, action: {{ {} }} }}".format(rule, action)
    )


class TestParsing:
    def test_avg_with_unit_window(self):
        spec = parse_guardrail(guardrail("AVG(lat, 10s) <= 2"))
        agg = spec.rules[0].expression.left
        assert isinstance(agg, A.Aggregate)
        assert agg.function == "AVG"
        assert agg.key == "lat"
        assert agg.arg == 10 * SECOND

    def test_quantiles_take_no_parameter(self):
        spec = parse_guardrail(guardrail("P99(lat) <= 50"))
        assert spec.rules[0].expression.left.function == "P99"
        with pytest.raises(ParseError, match="no parameter"):
            parse_guardrail(guardrail("P99(lat, 5) <= 50"))

    def test_windowed_aggregates_require_parameter(self):
        with pytest.raises(ParseError, match="needs a parameter"):
            parse_guardrail(guardrail("AVG(lat) <= 2"))

    def test_window_must_be_positive(self):
        with pytest.raises(ParseError, match="positive"):
            parse_guardrail(guardrail("RATE(x, 0) <= 1"))

    def test_ewma_alpha_range(self):
        parse_guardrail(guardrail("EWMA(x, 0.3) <= 1"))
        with pytest.raises(ParseError, match="alpha"):
            parse_guardrail(guardrail("EWMA(x, 1.5) <= 1"))

    def test_parameter_must_be_constant(self):
        with pytest.raises(ParseError, match="numeric constant"):
            parse_guardrail(guardrail("AVG(x, LOAD(y)) <= 1"))

    def test_roundtrip(self):
        spec = parse_guardrail(guardrail("AVG(lat, 10s) <= 2 && P95(lat) <= 9"))
        assert parse_guardrail(spec.to_source()) == spec


class TestDerivedNames:
    def test_names_encode_parameters(self):
        assert A.Aggregate("AVG", "k", 1000).derived_name() == "k.avg1000"
        assert A.Aggregate("RATE", "k", 5).derived_name() == "k.rate5"
        assert A.Aggregate("P95", "k").derived_name() == "k.p95"
        assert A.Aggregate("EWMA", "k", 0.5).derived_name() == "k.ewma0_5"

    def test_names_are_valid_store_keys(self):
        from repro.core.featurestore import FeatureStore

        store = FeatureStore()
        for agg in (A.Aggregate("AVG", "a.b", 10), A.Aggregate("EWMA", "k", 0.25)):
            store._check_key(agg.derived_name())


class TestCompilation:
    def test_aggregates_collected_once_across_rules(self):
        text = (
            "guardrail g { trigger: { TIMER(start_time, 1s) }, "
            "rule: { AVG(lat, 1s) <= 2, AVG(lat, 1s) >= 0 }, "
            "action: { REPORT() } }"
        )
        compiled = GuardrailCompiler().compile(text)
        assert len(compiled.aggregates) == 1

    def test_action_aggregates_also_lowered(self):
        compiled = GuardrailCompiler().compile(guardrail(
            "LOAD(x) <= 1", action="SAVE(out, AVG(lat, 1s))"))
        names = [name for _, _, _, name in compiled.aggregates]
        assert "lat.avg1000000000" in names

    def test_registration_is_idempotent_across_guardrails(self, host):
        manager = GuardrailManager(host)
        manager.load(guardrail("AVG(lat, 1s) <= 2"))
        text2 = (
            "guardrail h { trigger: { TIMER(start_time, 1s) }, "
            "rule: { AVG(lat, 1s) <= 5 }, action: { REPORT() } }"
        )
        manager.load(text2)  # same derived key; must not raise
        assert "lat.avg1000000000" in host.store


class TestSemantics:
    def test_paper_example_average_over_every_10s(self, host):
        """'The average page fault latency over every 10 seconds is below
        2 ms' — written directly in the DSL (§4.3)."""
        manager = GuardrailManager(host)
        monitor = manager.load(guardrail(
            "AVG(page_fault_latency_ms, 10s) <= 2"))
        for i in range(80):
            host.engine.schedule_at(
                i * 100 * MILLISECOND, host.store.save,
                "page_fault_latency_ms", 0.5)
        host.engine.run(until=8 * SECOND)
        assert monitor.violation_count == 0
        for i in range(80, 160):
            host.engine.schedule_at(
                i * 100 * MILLISECOND, host.store.save,
                "page_fault_latency_ms", 9.0)
        # Run past the last save so the 10 s window holds only 9.0 samples.
        host.engine.run(until=19 * SECOND)
        assert monitor.violation_count >= 1
        value = host.store.load("page_fault_latency_ms.avg10000000000")
        assert value == pytest.approx(9.0, abs=0.01)

    def test_rate_aggregate(self, host):
        manager = GuardrailManager(host)
        monitor = manager.load(guardrail("RATE(err, 1s) <= 0.5"))
        for i in range(10):
            host.engine.schedule_at(i * 50 * MILLISECOND, host.store.save,
                                    "err", 1)
        host.engine.run(until=1 * SECOND)
        assert monitor.violation_count == 1

    def test_quantile_aggregate(self, host):
        manager = GuardrailManager(host)
        monitor = manager.load(guardrail("P95(lat) <= 100"))
        for v in [10.0] * 50 + [500.0] * 50:
            host.store.save("lat", v)
        host.engine.run(until=1 * SECOND)
        assert monitor.violation_count == 1

    def test_no_data_is_inconclusive(self, host):
        manager = GuardrailManager(host)
        monitor = manager.load(guardrail("AVG(never_saved, 1s) <= 2"))
        host.engine.run(until=3 * SECOND)
        assert monitor.violation_count == 0
        assert monitor.inconclusive_count == 3

    def test_dependency_tracking_watches_derived_key(self, host):
        from repro.core.dependency import convert_to_dependency_triggered

        manager = GuardrailManager(host)
        monitor = manager.load(guardrail("AVG(lat, 1s) <= 2"))
        convert_to_dependency_triggered(monitor)
        host.engine.run(until=5 * SECOND)
        assert monitor.check_count == 0
        host.store.save("lat", 50.0)
        assert monitor.check_count == 1
        assert monitor.violation_count == 1


def test_windowed_mean_estimator_directly():
    from repro.detect.streaming import WindowedMean

    wm = WindowedMean(100)
    assert math.isnan(wm.mean(0))
    wm.observe(0, 10.0)
    wm.observe(50, 20.0)
    assert wm.mean(50) == 15.0
    assert wm.mean(120) == 20.0   # first sample aged out
    assert math.isnan(wm.mean(500))   # every sample aged out
    with pytest.raises(ValueError):
        WindowedMean(0)


def test_derive_time_average_store_api(host):
    host.store.derive_time_average("x", window=100, name="x.win")
    seen = []
    host.engine.schedule_at(0, host.store.save, "x", 4.0)
    host.engine.schedule_at(50, host.store.save, "x", 8.0)
    host.engine.schedule_at(60, lambda: seen.append(host.store.load("x.win")))
    host.engine.schedule_at(200, lambda: seen.append(host.store.load("x.win")))
    host.engine.run()
    assert seen[0] == 6.0
    assert math.isnan(seen[1])
