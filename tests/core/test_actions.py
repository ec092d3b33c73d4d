"""Actions A1-A4 plus SAVE."""

import pytest

from repro.core.actions import (
    ActionContext,
    DeprioritizeAction,
    ReplaceAction,
    ReportAction,
    RetrainAction,
    SaveAction,
)
from repro.core.errors import ActionError
from repro.core.expr import compile_expression
from repro.core.host import ViolationReporter
from repro.core.spec import ast as A


def ctx_for(host, payload=None):
    return ActionContext(host, "g", "rule-src", host.engine.now, payload or {})


class TestReport:
    def test_records_context_snapshot(self, host):
        host.store.save("metric", 42)
        ReportAction().execute(ctx_for(host, {"input": 3}))
        report = host.reporter.reports[0]
        assert report["guardrail"] == "g"
        assert report["rule"] == "rule-src"
        assert report["payload"] == {"input": 3}
        assert report["store"]["metric"] == 42

    def test_extra_expressions_evaluated(self, host):
        host.store.save("x", 5)
        program = compile_expression(A.Load("x"))
        action = ReportAction([program], ["LOAD(x)"])
        action.execute(ctx_for(host))
        assert host.reporter.reports[0]["extras"] == {"LOAD(x)": 5}


class TestReplace:
    def test_swaps_and_notes(self, host):
        host.functions.register("slot", lambda: "learned")
        host.functions.register_implementation("safe", lambda: "safe")
        ReplaceAction("slot", "safe").execute(ctx_for(host))
        assert host.functions.slot("slot")() == "safe"
        notes = host.reporter.notes_for(kind="REPLACE")
        assert notes[0]["detail"] == "slot -> safe"

    def test_unknown_slot_raises(self, host):
        with pytest.raises(ActionError):
            ReplaceAction("ghost", "safe").execute(ctx_for(host))


class TestRetrain:
    def test_enqueues_request(self, host):
        RetrainAction("model").execute(ctx_for(host))
        assert host.retrain_queue.pending[0]["model"] == "model"
        assert host.retrain_queue.pending[0]["requested_by"] == "g"

    def test_input_expression_becomes_data_ref(self, host):
        host.store.save("window", 9)
        program = compile_expression(A.Load("window"))
        RetrainAction("model", program, "LOAD(window)").execute(ctx_for(host))
        assert host.retrain_queue.pending[0]["data_ref"] == 9

    def test_rate_limited_requests_noted_as_rejected(self, host):
        host.retrain_queue.min_interval = 1000
        RetrainAction("m").execute(ctx_for(host))
        RetrainAction("m").execute(ctx_for(host))
        assert host.retrain_queue.accepted_count == 1
        assert host.retrain_queue.rejected_count == 1
        notes = host.reporter.notes_for(kind="RETRAIN")
        assert "accepted=False" in notes[1]["detail"]


class TestDeprioritize:
    def test_forwards_to_controller(self, host):
        DeprioritizeAction(["t1", "t2"], [5, 0]).execute(ctx_for(host))
        assert host.task_controller.requests == [(["t1", "t2"], [5, 0])]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ActionError):
            DeprioritizeAction(["a"], [1, 2])


class TestSave:
    def test_writes_expression_value(self, host):
        host.store.save("x", 2)
        program = compile_expression(
            A.BinaryOp("+", A.Load("x"), A.NumberLiteral(1))
        )
        SaveAction("y", program, "LOAD(x) + 1").execute(ctx_for(host))
        assert host.store.load("y") == 3

    def test_listing2_style_disable(self, host):
        host.store.save("ml_enabled", True)
        program = compile_expression(A.BoolLiteral(False))
        SaveAction("ml_enabled", program, "false").execute(ctx_for(host))
        assert host.store.load("ml_enabled") is False


class TestReporterBounds:
    def test_reports_capacity_drops_oldest(self, host):
        host.reporter = ViolationReporter(capacity=3)
        for i in range(5):
            host.store.save("i", i)
            ReportAction().execute(ctx_for(host))
        assert len(host.reporter.reports) == 3
        assert host.reporter.dropped == 2
        assert host.reporter.reports[0]["store"]["i"] == 2

    def test_notes_filtering(self, host):
        host.functions.register("s", lambda: 1)
        host.functions.register_implementation("f", lambda: 2)
        ReplaceAction("s", "f").execute(ctx_for(host))
        RetrainAction("m").execute(ctx_for(host))
        assert len(host.reporter.notes_for(kind="REPLACE")) == 1
        assert len(host.reporter.notes_for(guardrail="g")) == 2
        assert host.reporter.notes_for(kind="REPLACE", guardrail="other") == []
