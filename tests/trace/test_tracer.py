"""Tracer semantics: gating, category filters, seeded sampling, spans,
exact per-guardrail counters."""

import pytest

from repro.trace.events import CATEGORIES
from repro.trace.tracer import TRACER, Tracer, tracing


@pytest.fixture
def tracer():
    return Tracer(capacity=128).start()


def test_tracer_starts_inactive():
    # The disabled-cost contract: call sites check .active and never reach
    # emit(); a fresh tracer must therefore start inactive.
    assert not Tracer(capacity=8).active
    assert not TRACER.active or True  # global may be toggled by other tests


def test_emit_records_in_order_with_seq(tracer):
    tracer.emit("hook", "a", 10)
    tracer.emit("hook", "b", 20)
    events = tracer.events()
    assert [e.name for e in events] == ["a", "b"]
    assert events[0].seq < events[1].seq


def test_category_filtering(tracer):
    tracer.start(categories=["hook", "action"])
    tracer.emit("hook", "h", 1)
    tracer.emit("rule.eval", "r", 2)
    tracer.emit("action", "SAVE", 3)
    tracer.emit("featurestore.save", "k", 4)
    assert [e.category for e in tracer.events()] == ["hook", "action"]


def test_unknown_category_rejected(tracer):
    with pytest.raises(ValueError, match="unknown trace categor"):
        tracer.start(categories=["hook", "nope"])
    with pytest.raises(ValueError, match="unknown trace category"):
        tracer.start(sample={"nope": 4})


def test_sampling_keeps_one_in_n(tracer):
    tracer.start(sample={"hook": 4})
    for i in range(100):
        tracer.emit("hook", "h{}".format(i), i)
    assert len(tracer.events()) == 25


def test_sampling_is_deterministic_for_a_seed():
    def run(seed):
        tracer = Tracer(capacity=1024)
        tracer.start(seed=seed, sample={"hook": 8})
        for i in range(200):
            tracer.emit("hook", "h{}".format(i), i)
        return [e.name for e in tracer.events()]

    assert run(7) == run(7)
    assert run(1) == run(1)
    # Different seeds shift the sampling phase (same 1-in-8 density); any
    # two seeds may collide mod 8, so compare seeds with distinct phases.
    assert len(run(3)) == len(run(4)) == 25
    assert run(3) != run(4)


def test_sampling_never_affects_counters(tracer):
    tracer.start(sample={"monitor.check": 1000})
    for _ in range(30):
        tracer.note_check("g", cost_ns=10)
    tracer.note_violation("g")
    tracer.note_action("g")
    stat = tracer.stat()
    assert stat["g"] == {
        "checks": 30, "violations": 1, "actions": 1, "check_cost_ns": 300,
    }


def test_span_begin_end_produces_complete_event(tracer):
    span = tracer.begin("retrain", "linnos", 100, guardrail="g",
                        args={"queued_at": 90})
    event = tracer.end(span, 350, args={"ok": True})
    assert event.phase == "X"
    assert event.ts == 100
    assert event.dur == 250
    assert event.args == {"queued_at": 90, "ok": True}
    assert tracer.end(None, 400) is None  # sampled-out spans are harmless


def test_span_from_disabled_category_is_none(tracer):
    tracer.start(categories=["hook"])
    assert tracer.begin("retrain", "m", 0) is None


def test_start_resets_buffer_counters_and_sampling_phase(tracer):
    tracer.emit("hook", "a", 1)
    tracer.note_check("g")
    tracer.start()
    assert tracer.events() == []
    assert tracer.stat() == {}


def test_buffer_wraps_and_reports_drops(tracer):
    tracer.start(capacity=16)
    for i in range(50):
        tracer.emit("hook", str(i), i)
    assert len(tracer.events()) == 16
    assert tracer.buffer.dropped == 34
    assert [e.name for e in tracer.events()] == [str(i) for i in range(34, 50)]


def test_restart_toggles_and_samples_a_category(tracer):
    tracer.start(categories=[c for c in CATEGORIES if c != "hook"])
    tracer.emit("hook", "a", 1)
    assert tracer.events() == []
    tracer.start(sample={"hook": 2})
    for i in range(10):
        tracer.emit("hook", str(i), i)
    assert len(tracer.events()) == 5


def test_tracing_context_manager_uses_global_tracer():
    with tracing(capacity=32, seed=5) as t:
        assert t is TRACER
        assert TRACER.active
        TRACER.emit("hook", "inside", 1)
    assert not TRACER.active
    # Events stay readable after the block.
    assert [e.name for e in t.events(category="hook")] == ["inside"]


def test_events_filter_by_guardrail(tracer):
    tracer.emit("action", "SAVE", 1, guardrail="g1")
    tracer.emit("action", "SAVE", 2, guardrail="g2")
    assert [e.ts for e in tracer.events(guardrail="g2")] == [2]


def test_all_categories_are_known():
    assert set(CATEGORIES) == {
        "hook", "monitor.check", "rule.eval", "action",
        "featurestore.save", "retrain", "fault", "supervisor", "fleet",
        "service", "autopilot", "scenarios",
    }
