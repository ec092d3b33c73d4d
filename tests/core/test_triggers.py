"""Runtime triggers: TIMER and FUNCTION."""

import pytest

from repro.core.triggers import FunctionTrigger, TimerTrigger


class TestTimerTrigger:
    def test_fires_every_interval(self, host):
        fired = []
        trigger = TimerTrigger(interval=100)
        trigger.arm(host, lambda payload: fired.append(host.engine.now))
        host.engine.run(until=350)
        assert fired == [100, 200, 300]

    def test_first_check_is_one_interval_after_start(self, host):
        fired = []
        trigger = TimerTrigger(interval=100, start=500)
        trigger.arm(host, lambda payload: fired.append(host.engine.now))
        host.engine.run(until=700)
        assert fired == [600, 700]

    def test_stop_time_respected(self, host):
        fired = []
        trigger = TimerTrigger(interval=100, stop=250)
        trigger.arm(host, lambda payload: fired.append(host.engine.now))
        host.engine.run(until=1000)
        assert fired == [100, 200]

    def test_payload_has_tick_info(self, host):
        payloads = []
        TimerTrigger(interval=100).arm(host, payloads.append)
        host.engine.run(until=200)
        assert payloads[0] == {"tick": 1, "tick_time": 100}
        assert payloads[1]["tick"] == 2

    def test_disarm_stops_firing(self, host):
        fired = []
        trigger = TimerTrigger(interval=100)
        trigger.arm(host, lambda payload: fired.append(1))
        host.engine.run(until=150)
        trigger.disarm()
        host.engine.run(until=500)
        assert len(fired) == 1

    def test_disarm_from_inside_callback(self, host):
        trigger = TimerTrigger(interval=100)

        def once(payload):
            trigger.disarm()

        trigger.arm(host, once)
        host.engine.run(until=1000)
        assert trigger.tick_count == 1

    def test_rearm_after_disarm(self, host):
        fired = []
        trigger = TimerTrigger(interval=100)
        trigger.arm(host, lambda p: fired.append(1))
        trigger.disarm()
        trigger.arm(host, lambda p: fired.append(2))
        host.engine.run(until=100)
        assert fired == [2]

    def test_double_arm_raises(self, host):
        trigger = TimerTrigger(interval=100)
        trigger.arm(host, lambda p: None)
        with pytest.raises(RuntimeError):
            trigger.arm(host, lambda p: None)

    def test_bad_interval_raises(self):
        with pytest.raises(ValueError):
            TimerTrigger(interval=0)

    def test_start_in_the_past_clamps_to_now(self, host):
        host.engine.schedule(500, lambda: None)
        host.engine.run()
        fired = []
        trigger = TimerTrigger(interval=100, start=0)
        trigger.arm(host, lambda p: fired.append(host.engine.now))
        host.engine.run(until=700)
        assert fired == [600, 700]


class TestFunctionTrigger:
    def test_fires_on_hook(self, host):
        point = host.hooks.declare("mm.alloc")
        payloads = []
        trigger = FunctionTrigger("mm.alloc")
        trigger.arm(host, payloads.append)
        point.fire(granted=5, available=10)
        assert payloads == [{"granted": 5, "available": 10, "hook": "mm.alloc"}]
        assert trigger.call_count == 1

    def test_unknown_hook_raises_at_arm_time(self, host):
        trigger = FunctionTrigger("nope")
        with pytest.raises(KeyError):
            trigger.arm(host, lambda p: None)

    def test_disarm_detaches(self, host):
        point = host.hooks.declare("h")
        fired = []
        trigger = FunctionTrigger("h")
        trigger.arm(host, lambda p: fired.append(1))
        trigger.disarm()
        point.fire()
        assert fired == []

    def test_double_arm_raises(self, host):
        host.hooks.declare("h")
        trigger = FunctionTrigger("h")
        trigger.arm(host, lambda p: None)
        with pytest.raises(RuntimeError):
            trigger.arm(host, lambda p: None)

    def test_payload_hook_name_not_overwritten(self, host):
        point = host.hooks.declare("h")
        payloads = []
        FunctionTrigger("h").arm(host, payloads.append)
        point.fire(hook="custom")
        assert payloads[0]["hook"] == "custom"


class TestTriggerLifecycle:
    """Arm/disarm/re-arm cycles must leave no stale state behind."""

    def test_timer_full_cycle(self, host):
        fired = []
        trigger = TimerTrigger(interval=100)
        trigger.arm(host, lambda p: fired.append(host.engine.now))
        host.engine.run(until=250)
        trigger.disarm()
        assert host.engine.pending_events() == 0
        trigger.arm(host, lambda p: fired.append(host.engine.now))
        host.engine.run(until=500)
        assert fired == [100, 200, 350, 450]

    def test_timer_disarm_and_rearm_inside_callback(self, host):
        fired = []
        trigger = TimerTrigger(interval=100)

        def check(payload):
            fired.append(host.engine.now)
            if len(fired) == 1:
                # A check that re-arms its own trigger must not end up
                # double-scheduled by the tick's re-arm path.
                trigger.disarm()
                trigger.arm(host, check)

        trigger.arm(host, check)
        host.engine.run(until=400)
        assert fired == [100, 200, 300, 400]

    def test_timer_disarm_is_idempotent_and_clears_fire(self, host):
        trigger = TimerTrigger(interval=100)
        trigger.arm(host, lambda p: None)
        trigger.disarm()
        trigger.disarm()
        assert trigger._fire is None

    def test_function_full_cycle(self, host):
        point = host.hooks.declare("h")
        fired = []
        trigger = FunctionTrigger("h")
        trigger.arm(host, lambda p: fired.append(1))
        point.fire()
        trigger.disarm()
        point.fire()
        trigger.arm(host, lambda p: fired.append(2))
        point.fire()
        assert fired == [1, 2]
        assert trigger.call_count == 2

    def test_function_disarm_clears_fire_callback(self, host):
        host.hooks.declare("h")
        trigger = FunctionTrigger("h")
        assert trigger._fire is None  # defined from birth, not first arm
        trigger.arm(host, lambda p: None)
        trigger.disarm()
        assert trigger._fire is None

    def test_function_stale_delivery_does_not_reach_disarmed_monitor(self, host):
        host.hooks.declare("h")
        fired = []
        trigger = FunctionTrigger("h")
        trigger.arm(host, fired.append)
        trigger.disarm()
        # A probe delivery racing disarm through the hooks' deferred-removal
        # path must hit the _fire guard, not a stale monitor callback.
        trigger._on_call("h", 0, {})
        assert fired == []
        assert trigger.call_count == 0
