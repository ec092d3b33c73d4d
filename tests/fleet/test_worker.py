"""SimulatedHost and FleetRunner: real kernels, inline vs process shards."""

import gc
import time
import tracemalloc

import pytest

from repro.fleet.scenario import fleet_versions, make_fleet_specs
from repro.fleet.worker import FleetError, FleetRunner, HostSpec, SimulatedHost
from repro.sim.units import SECOND

V1, V2 = fleet_versions()


def digests_as_dicts(digests):
    return [d.to_dict() for d in digests]


def test_simulated_host_serves_ios_and_checks():
    spec = HostSpec(0, seed=7, rate_ios=300)
    host = SimulatedHost(spec, V1, SECOND, total_rounds=3)
    host.step(1 * SECOND)
    digest = host.digest(0)
    assert digest.host_id == 0
    assert digest.version == 1
    assert digest.completed_ios > 0
    assert digest.checks >= 1
    assert digest.latency.total == digest.completed_ios


def test_counter_deltas_survive_guardrail_update():
    # GuardrailManager.update() replaces the monitor and zeroes its
    # counters; per-round deltas must not go negative across an apply().
    spec = HostSpec(0, seed=7, rate_ios=300)
    host = SimulatedHost(spec, V1, SECOND, total_rounds=4)
    host.step(1 * SECOND)
    first = host.digest(0)
    assert first.checks >= 1
    host.apply(V2)
    assert host.version == 2
    host.step(2 * SECOND)
    second = host.digest(1)
    assert second.version == 2
    assert second.checks >= 1  # not negative, not reset-swallowed


def test_apply_same_version_is_a_no_op():
    spec = HostSpec(0, seed=7, rate_ios=300)
    host = SimulatedHost(spec, V1, SECOND, total_rounds=2)
    monitor_before = host.kernel.guardrails.get(V1.name)
    host.apply(V1)
    assert host.kernel.guardrails.get(V1.name) is monitor_before


def test_digest_sketches_are_per_round():
    spec = HostSpec(0, seed=7, rate_ios=300)
    host = SimulatedHost(spec, V1, SECOND, total_rounds=3)
    host.step(1 * SECOND)
    first = host.digest(0)
    host.step(2 * SECOND)
    second = host.digest(1)
    # Fresh sketches each round: totals are per-round, not cumulative.
    assert second.latency.total == second.completed_ios
    assert first.round_index == 0 and second.round_index == 1
    assert second.time_ns == 2 * SECOND


def test_runner_rejects_empty_fleet():
    with pytest.raises(ValueError):
        FleetRunner([], V1, SECOND, 2)


@pytest.mark.slow
def test_inline_and_process_shards_produce_identical_digests():
    specs = make_fleet_specs(4, seed=5, rate_ios=250)
    rounds = 2
    with FleetRunner(specs, V1, SECOND, rounds, jobs=1) as inline, \
            FleetRunner(make_fleet_specs(4, seed=5, rate_ios=250), V1,
                        SECOND, rounds, jobs=3) as sharded:
        for round_index in range(rounds):
            until = (round_index + 1) * SECOND
            a = inline.step_round(round_index, until)
            b = sharded.step_round(round_index, until)
            assert digests_as_dicts(a) == digests_as_dicts(b)
            assert [d.host_id for d in a] == [0, 1, 2, 3]


@pytest.mark.slow
def test_directives_reach_the_right_hosts_across_shards():
    specs = make_fleet_specs(4, seed=5, rate_ios=250)
    with FleetRunner(specs, V1, SECOND, 2, jobs=2) as runner:
        runner.step_round(0, 1 * SECOND)
        digests = runner.step_round(
            1, 2 * SECOND, {1: [V2.to_dict()], 3: [V2.to_dict()]})
        assert [d.version for d in digests] == [1, 2, 1, 2]


def test_runner_close_is_idempotent():
    specs = make_fleet_specs(2, seed=5, rate_ios=250)
    runner = FleetRunner(specs, V1, SECOND, 1, jobs=1)
    runner.close()
    runner.close()


def test_hung_worker_times_out_as_a_fleet_error(monkeypatch):
    from repro.fleet import worker

    class SilentConn:
        def poll(self, _timeout=0):
            time.sleep(0.001)
            return False

    class LiveProcess:
        def is_alive(self):
            return True

    shard = worker._ProcessShard.__new__(worker._ProcessShard)
    shard.specs = make_fleet_specs(1, seed=5, rate_ios=250)
    shard.conn = SilentConn()
    shard.process = LiveProcess()
    monkeypatch.setattr(worker, "_WORKER_TIMEOUT_S", 0)
    with pytest.raises(FleetError, match="timed out"):
        shard.collect()


def test_inline_runner_close_frees_its_hosts_without_a_gc_pass():
    # Host kernels, probes and engine events reference each other; close()
    # must release the bulk of each host (its per-I/O metric series) by
    # itself, not leave it for the cyclic collector.
    from repro.fleet.scenario import run_fleet_rollout

    def retained_kb(runs=3):
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(runs):
            run_fleet_rollout(hosts=4, quick=True, seed=42, jobs=1)
        return (tracemalloc.get_traced_memory()[0] - start) / runs / 1024

    was_enabled = gc.isenabled()
    run_fleet_rollout(hosts=4, quick=True, seed=42, jobs=1)  # warm caches
    gc.disable()
    tracemalloc.start()
    try:
        per_rollout_kb = retained_kb()
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    # Without the teardown: ~490 KB per rollout; with it: ~230 KB.
    assert per_rollout_kb < 340
