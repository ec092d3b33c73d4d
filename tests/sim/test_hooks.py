"""Hook points and probes."""

import pytest

from repro.sim.hooks import HookRegistry, Probe


@pytest.fixture
def hooks(engine):
    return HookRegistry(engine)


def test_declare_creates_and_returns_same_point(hooks):
    a = hooks.declare("x.y")
    b = hooks.declare("x.y")
    assert a is b


def test_get_unknown_raises_with_known_names(hooks):
    hooks.declare("a.b")
    with pytest.raises(KeyError, match="a.b"):
        hooks.get("nope")


def test_fire_delivers_payload_and_time(engine, hooks):
    point = hooks.declare("p")
    seen = []
    point.attach(lambda name, now, payload: seen.append((name, now, payload)))
    engine.schedule(7, lambda: point.fire(value=3))
    engine.run()
    assert seen == [("p", 7, {"value": 3})]


def test_fire_with_no_probes_is_cheap_noop(hooks):
    point = hooks.declare("p")
    point.fire(x=1)
    assert point.fire_count == 1


def test_multiple_probes_all_fire(hooks):
    point = hooks.declare("p")
    seen = []
    point.attach(lambda *a: seen.append(1))
    point.attach(lambda *a: seen.append(2))
    point.fire()
    assert sorted(seen) == [1, 2]


def test_detach_stops_delivery(hooks):
    point = hooks.declare("p")
    seen = []
    probe = point.attach(lambda *a: seen.append(1))
    point.fire()
    probe.detach()
    point.fire()
    assert seen == [1]


def test_detach_is_idempotent(hooks):
    point = hooks.declare("p")
    probe = point.attach(lambda *a: None)
    probe.detach()
    probe.detach()


def test_probe_can_detach_itself_while_firing(hooks):
    point = hooks.declare("p")
    seen = []

    def once(name, now, payload):
        seen.append(now)
        probe.detach()

    probe = point.attach(once)
    point.fire()
    point.fire()
    assert len(seen) == 1


def test_reattaching_attached_probe_raises(hooks):
    point = hooks.declare("p")
    probe = Probe(lambda *a: None)
    point.attach(probe)
    with pytest.raises(ValueError):
        hooks.declare("q").attach(probe)


def test_fire_iterates_live_list_without_copying(hooks):
    # The perf contract: a steady-state fire allocates no probe-list copy.
    # Observable proxy: the list object is the same before and after, and
    # steady firing reaches every probe.
    point = hooks.declare("p")
    seen = []
    point.attach(lambda *a: seen.append("a"))
    point.attach(lambda *a: seen.append("b"))
    probes_list = point._probes
    for _ in range(3):
        point.fire()
    assert point._probes is probes_list
    assert seen == ["a", "b"] * 3


def test_probe_attached_during_fire_waits_for_next_fire(hooks):
    point = hooks.declare("p")
    seen = []

    def attacher(name, now, payload):
        seen.append("first")
        if len(seen) == 1:
            point.attach(lambda *a: seen.append("late"))

    point.attach(attacher)
    point.fire()
    assert seen == ["first"]  # late probe not invoked mid-fire
    point.fire()
    assert seen == ["first", "first", "late"]


def test_probe_detaching_a_later_probe_mid_fire_skips_it(hooks):
    point = hooks.declare("p")
    seen = []

    def saboteur(name, now, payload):
        seen.append("saboteur")
        victim.detach()

    point.attach(saboteur)
    victim = point.attach(lambda *a: seen.append("victim"))
    point.fire()
    assert seen == ["saboteur"]
    assert len(point._probes) == 1
    point.fire()
    assert seen == ["saboteur", "saboteur"]


def test_probe_detaching_an_earlier_probe_mid_fire(hooks):
    point = hooks.declare("p")
    seen = []
    early = point.attach(lambda *a: seen.append("early"))

    def saboteur(name, now, payload):
        seen.append("saboteur")
        early.detach()

    point.attach(saboteur)
    tail = point.attach(lambda *a: seen.append("tail"))
    point.fire()
    # early already ran this round; the tail probe must still run even
    # though the list shrank logically mid-iteration.
    assert seen == ["early", "saboteur", "tail"]
    point.fire()
    assert seen == ["early", "saboteur", "tail", "saboteur", "tail"]
    assert len(point._probes) == 2


def test_reentrant_fire_from_probe_is_safe(hooks):
    point = hooks.declare("p")
    seen = []

    def reenter(name, now, payload):
        seen.append("outer")
        if len(seen) == 1:
            point.fire()        # nested fire from inside a probe
            other.detach()      # deferred until the outermost fire ends

    point.attach(reenter)
    other = point.attach(lambda *a: seen.append("other"))
    point.fire()
    # Nested fire sees both probes; when it unwinds, the detach takes
    # effect immediately (the outer pass skips `other`) while the physical
    # list removal is deferred until the outermost fire ends.
    assert seen == ["outer", "outer", "other"]
    assert len(point._probes) == 1
    point.fire()
    assert seen == ["outer", "outer", "other", "outer"]


def test_crashing_probe_is_contained_and_counted(hooks):
    # Crash-only containment: a raising probe must not abort the firing
    # site (a kernel code path) or starve the probes behind it.
    point = hooks.declare("p")
    seen = []
    point.attach(lambda *a: (_ for _ in ()).throw(RuntimeError("probe bug")),
                 name="bomb")
    point.attach(lambda name, now, payload: seen.append(payload["x"]))
    point.fire(x=1)             # must not raise
    point.fire(x=2)
    assert seen == [1, 2]
    assert point.probe_error_count == 2
    assert point.fire_count == 2


def test_crashing_probe_emits_supervisor_trace_event(hooks):
    from repro.trace.tracer import tracing

    point = hooks.declare("p")
    point.attach(lambda *a: (_ for _ in ()).throw(ValueError("bug")),
                 name="bomb")
    with tracing() as tracer:
        point.fire()
    events = tracer.events(category="supervisor")
    assert [e.name for e in events] == ["probe_crash"]
    assert events[0].args == {"hook": "p", "probe": "bomb",
                              "error": "ValueError"}
