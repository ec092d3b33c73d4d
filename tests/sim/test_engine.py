"""Engine: event ordering, cancellation, stop, run-until semantics."""

import pytest

from repro.sim.engine import SimulationError


def test_starts_at_time_zero(engine):
    assert engine.now == 0


def test_schedule_and_run_fires_callback(engine):
    fired = []
    engine.schedule(10, fired.append, "a")
    engine.run()
    assert fired == ["a"]
    assert engine.now == 10


def test_events_fire_in_time_order(engine):
    order = []
    engine.schedule(30, order.append, 3)
    engine.schedule(10, order.append, 1)
    engine.schedule(20, order.append, 2)
    engine.run()
    assert order == [1, 2, 3]


def test_same_time_events_fire_in_schedule_order(engine):
    order = []
    for i in range(5):
        engine.schedule(10, order.append, i)
    engine.run()
    assert order == [0, 1, 2, 3, 4]


def test_schedule_at_absolute_time(engine):
    engine.schedule(5, lambda: None)
    engine.run()
    times = []
    engine.schedule_at(12, lambda: times.append(engine.now))
    engine.run()
    assert times == [12]


def test_scheduling_in_the_past_raises(engine):
    engine.schedule(10, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule_at(5, lambda: None)


def test_negative_delay_raises(engine):
    with pytest.raises(SimulationError):
        engine.schedule(-1, lambda: None)


def test_cancelled_event_does_not_fire(engine):
    fired = []
    event = engine.schedule(10, fired.append, "x")
    event.cancel()
    engine.run()
    assert fired == []


def test_cancel_is_idempotent(engine):
    event = engine.schedule(10, lambda: None)
    event.cancel()
    event.cancel()
    engine.run()


def test_callback_can_schedule_more_events(engine):
    seen = []

    def chain(n):
        seen.append(engine.now)
        if n > 0:
            engine.schedule(10, chain, n - 1)

    engine.schedule(0, chain, 3)
    engine.run()
    assert seen == [0, 10, 20, 30]


def test_run_until_stops_clock_exactly(engine):
    engine.schedule(10, lambda: None)
    engine.schedule(100, lambda: None)
    engine.run(until=50)
    assert engine.now == 50
    assert engine.pending_events() == 1


def test_run_until_fires_events_at_boundary(engine):
    fired = []
    engine.schedule(50, fired.append, "edge")
    engine.run(until=50)
    assert fired == ["edge"]


def test_run_until_does_not_fire_later_events(engine):
    fired = []
    engine.schedule(51, fired.append, "late")
    engine.run(until=50)
    assert fired == []
    engine.run(until=60)
    assert fired == ["late"]


def test_stop_halts_the_loop(engine):
    fired = []
    engine.schedule(10, fired.append, 1)
    engine.schedule(20, lambda: engine.stop())
    engine.schedule(30, fired.append, 3)
    engine.run()
    assert fired == [1]
    assert engine.pending_events() == 1


def test_reentrant_run_raises(engine):
    def nested():
        with pytest.raises(SimulationError):
            engine.run()

    engine.schedule(1, nested)
    engine.run()


def test_step_returns_false_when_empty(engine):
    assert engine.step() is False


def test_step_fires_one_event(engine):
    fired = []
    engine.schedule(1, fired.append, "a")
    engine.schedule(2, fired.append, "b")
    assert engine.step() is True
    assert fired == ["a"]


def test_peek_skips_cancelled(engine):
    event = engine.schedule(5, lambda: None)
    engine.schedule(9, lambda: None)
    event.cancel()
    assert engine.peek() == 9


def test_peek_empty_returns_none(engine):
    assert engine.peek() is None


def test_pending_events_counts_only_live(engine):
    a = engine.schedule(1, lambda: None)
    engine.schedule(2, lambda: None)
    a.cancel()
    assert engine.pending_events() == 1


def test_callback_args_passed_through(engine):
    result = []
    engine.schedule(1, lambda a, b: result.append((a, b)), 1, "x")
    engine.run()
    assert result == [(1, "x")]


def test_event_repr_shows_state(engine):
    event = engine.schedule(5, lambda: None)
    assert "pending" in repr(event)
    event.cancel()
    assert "cancelled" in repr(event)


def test_float_times_are_truncated_to_int(engine):
    event = engine.schedule(10.7, lambda: None)
    assert event.time == 10


def test_cancel_decrements_pending_immediately(engine):
    a = engine.schedule(1, lambda: None)
    engine.schedule(2, lambda: None)
    engine.schedule(3, lambda: None)
    a.cancel()
    # The live-event counter is maintained at cancel time, not lazily at
    # pop time: pending_events() is O(1) and never over-counts.
    assert engine.pending_events() == 2
    assert engine._pending == 2


def test_cancel_then_peek_keeps_pending_consistent(engine):
    fired = []
    a = engine.schedule(5, fired.append, "a")
    engine.schedule(7, fired.append, "b")
    engine.schedule(9, fired.append, "c")
    a.cancel()
    assert engine.pending_events() == 2
    # peek() pops the cancelled head; the count must not be decremented a
    # second time for an event cancel() already accounted for.
    assert engine.peek() == 7
    assert engine.pending_events() == 2
    engine.run()
    assert fired == ["b", "c"]
    assert engine.pending_events() == 0


def test_cancel_removes_dead_heap_head_eagerly(engine):
    a = engine.schedule(1, lambda: None)
    engine.schedule(2, lambda: None)
    a.cancel()
    assert len(engine._heap) == 1


def test_cancel_after_fire_is_a_noop(engine):
    event = engine.schedule(1, lambda: None)
    engine.run()
    event.cancel()
    assert "fired" in repr(event)
    assert engine.pending_events() == 0


def test_schedule_at_fractional_time_rounds_up(engine):
    # 0.9 must not truncate to 0: the event would fire before the requested
    # instant.  Fractional absolute times round up to the next nanosecond.
    event = engine.schedule_at(0.9, lambda: None)
    assert event.time == 1
    fired = []
    engine.schedule_at(10.2, lambda: fired.append(engine.now))
    engine.run()
    assert fired == [11]


def test_schedule_at_fraction_of_now_is_coerced_before_validation(engine):
    engine.schedule(10, lambda: None)
    engine.run()
    assert engine.now == 10
    # 9.5 rounds up to exactly now — valid; pre-coercion validation would
    # have rejected it as "in the past".
    event = engine.schedule_at(9.5, lambda: None)
    assert event.time == 10
    with pytest.raises(SimulationError):
        engine.schedule_at(8.9, lambda: None)


def test_reschedule_reuses_the_event_object(engine):
    fired = []
    event = engine.schedule(5, lambda: fired.append(engine.now))
    engine.run()
    again = engine.reschedule(event, 12)
    assert again is event
    assert not event.fired
    engine.run()
    assert fired == [5, 12]


def test_reschedule_orders_like_a_fresh_schedule(engine):
    order = []
    event = engine.schedule(1, order.append, "first")
    engine.run()
    engine.schedule_at(10, order.append, "a")
    engine.reschedule(event, 10)
    engine.schedule_at(10, order.append, "b")
    event.args = ("recycled",)
    engine.run()
    assert order == ["first", "a", "recycled", "b"]


def test_reschedule_rejects_pending_and_cancelled_events(engine):
    pending = engine.schedule(5, lambda: None)
    with pytest.raises(SimulationError):
        engine.reschedule(pending, 10)
    pending.cancel()
    with pytest.raises(SimulationError):
        engine.reschedule(pending, 10)


def test_stop_inside_run_until_does_not_advance_past_pending_events(engine):
    # Pre-fix: run(until=100) set now=100 although the event at 20 was still
    # pending, so the next run() fired it with the clock moving backwards and
    # scheduling from inside it failed with "before now".
    times = []

    def late():
        times.append(engine.now)
        engine.schedule_at(25, times.append, "child")

    engine.schedule(10, engine.stop)
    engine.schedule(20, late)
    engine.run(until=100)
    assert engine.now == 10
    assert engine.pending_events() == 1
    engine.run(until=100)
    assert times == [20, "child"]
    assert engine.now == 100


def test_run_until_still_advances_when_the_queue_drains_or_runs_ahead(engine):
    engine.schedule(10, lambda: None)
    engine.run(until=40)            # drained
    assert engine.now == 40
    engine.schedule_at(90, lambda: None)
    cancelled = engine.schedule_at(95, lambda: None)
    engine.run(until=60)            # next event is later than until
    assert engine.now == 60
    cancelled.cancel()
    engine.run(until=92)
    assert engine.now == 92 and engine.pending_events() == 0


def test_seeded_operations_fire_in_reference_time_seq_order():
    """Differential: the heap against ``sorted(key=(time, seq))``.

    A few thousand seeded schedule / schedule_at / cancel / reschedule
    operations, issued both up front and from inside callbacks.  The
    reference is a plain list of ``(time, seq, label)`` kept alongside;
    ``seq`` is this test's own operation counter, which orders same-time
    events by scheduling order exactly as the engine promises to.
    """
    import random

    from repro.sim.engine import Engine

    rng = random.Random(2024)
    engine = Engine()
    live = {}        # label -> (time, seq) of every pending event
    handles = {}     # label -> Event
    fired = []       # labels, in firing order
    expected = []    # labels, by repeatedly taking min(live)
    spent = []       # fired events available to reschedule
    counter = [0]

    def note(label, time, event):
        counter[0] += 1
        live[label] = (time, counter[0])
        handles[label] = event
        assert engine.pending_events() == len(live)

    def fire(label):
        # The reference decides which event *should* be firing now.
        want = min(live, key=live.get)
        expected.append(want)
        fired.append(label)
        assert engine.now == live[want][0]
        del live[want]
        spent.append(label)
        assert engine.pending_events() == len(live)
        if rng.random() < 0.6:
            operate(rng.randrange(1, 4))

    def operate(count):
        for _ in range(count):
            roll = rng.random()
            label = "e{}".format(counter[0] + 1)
            if roll < 0.35:
                delay = rng.choice([0, 0, 1, 5, 5, 17, rng.randrange(200)])
                note(label, engine.now + delay,
                     engine.schedule(delay, fire, label))
            elif roll < 0.65:
                time = engine.now + rng.choice([0, 3, 3, 40, rng.randrange(300)])
                note(label, time, engine.schedule_at(time, fire, label))
            elif roll < 0.8 and live:
                victim = rng.choice(sorted(live))
                handles[victim].cancel()
                del live[victim]
                assert engine.pending_events() == len(live)
            elif spent:
                reused = spent.pop(rng.randrange(len(spent)))
                time = engine.now + rng.choice([0, 5, 5, rng.randrange(100)])
                # A rescheduled event keeps its callback and args (its
                # label) and draws a fresh sequence number.
                note(reused, time, engine.reschedule(handles[reused], time))

    operate(400)
    horizon = 0
    while len(fired) < 3000:
        horizon += rng.randrange(1, 120)
        engine.run(until=horizon)
        assert engine.now == horizon
        operate(rng.randrange(0, 8))
    engine.run()
    assert not live
    assert fired == expected
    assert engine.pending_events() == len(live)


def test_every_schedule_passes_through_schedule_at():
    # benchmarks/perf attributes event callbacks to layers by wrapping
    # Engine.schedule_at at class level; schedule() bypassing it would blind
    # the sim.engine.events count without failing anything else.
    from repro.sim.engine import Engine

    class Watched(Engine):
        def __init__(self):
            super().__init__()
            self.seen = []

        def schedule_at(self, time, callback, *args):
            self.seen.append((time, callback, args))
            return super().schedule_at(time, callback, *args)

    engine = Watched()
    fired = []
    engine.schedule(5, fired.append, "a")
    engine.schedule(0, fired.append, "b")
    engine.schedule_at(7, fired.append, "c")
    engine.schedule(2.9, lambda: engine.schedule(1, fired.append, "d"))
    engine.run()
    assert fired == ["b", "d", "a", "c"]
    assert [(time, args) for time, _, args in engine.seen] == [
        (5, ("a",)), (0, ("b",)), (7, ("c",)), (2, ()), (3, ("d",))]
