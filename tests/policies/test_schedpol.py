"""Learned SJF scheduler policy: the P6 starvation story."""


from repro.core.properties import fairness_liveness
from repro.kernel.sched import CpuScheduler
from repro.policies.schedpol import (
    BurstPredictor,
    LearnedShortestJobPolicy,
    attach_learned_sched_policy,
)
from repro.sim.units import MILLISECOND, SECOND


def test_predictor_ewma():
    predictor = BurstPredictor(alpha=0.5, initial_ns=100)
    assert predictor.predict("t") == 100
    predictor.observe("t", 200)
    assert predictor.predict("t") == 200
    predictor.observe("t", 100)
    assert predictor.predict("t") == 150


def test_policy_picks_shortest_predicted(kernel):
    sched = kernel.attach("sched", CpuScheduler(kernel))
    policy = LearnedShortestJobPolicy()
    policy.predictor.observe("long", 50_000_000)
    policy.predictor.observe("short", 1_000_000)
    sched.spawn("long")
    sched.spawn("short")
    assert policy(sched).name == "short"


def test_policy_none_when_no_runnable(kernel):
    sched = kernel.attach("sched", CpuScheduler(kernel))
    assert LearnedShortestJobPolicy()(sched) is None


def test_sjf_starves_long_task(kernel):
    sched = kernel.attach("sched", CpuScheduler(kernel))
    attach_learned_sched_policy(kernel, sched)
    sched.spawn("batch", burst_ns=50 * MILLISECOND)
    for i in range(4):
        sched.spawn("short{}".format(i), burst_ns=1 * MILLISECOND)
    kernel.run(until=3 * SECOND)
    stats = sched.wait_stats()
    # The batch task barely runs while shorts dominate.
    assert stats["batch"]["executed_ms"] < 100
    assert all(stats["short{}".format(i)]["executed_ms"] > 500 for i in range(4))


def test_sjf_improves_mean_wait_for_shorts(kernel):
    # The reason anyone would deploy it: short tasks wait less than under CFS.
    def mean_short_wait(learned):
        from repro.kernel import Kernel

        k = Kernel(seed=1)
        sched = k.attach("sched", CpuScheduler(k))
        if learned:
            attach_learned_sched_policy(k, sched)
        sched.spawn("batch", burst_ns=40 * MILLISECOND)
        for i in range(3):
            sched.spawn("short{}".format(i), burst_ns=1 * MILLISECOND,
                        think_ns=2 * MILLISECOND)
        k.run(until=2 * SECOND)
        stats = sched.wait_stats()
        waits = [stats["short{}".format(i)]["mean_wait_ms"] for i in range(3)]
        return sum(waits) / len(waits)

    assert mean_short_wait(True) < mean_short_wait(False)


def test_p6_guardrail_restores_liveness(kernel):
    sched = kernel.attach("sched", CpuScheduler(kernel))
    attach_learned_sched_policy(kernel, sched)
    sched.spawn("batch", burst_ns=50 * MILLISECOND)
    for i in range(4):
        sched.spawn("short{}".format(i), burst_ns=1 * MILLISECOND)
    monitor = kernel.guardrails.load(fairness_liveness())
    kernel.run(until=5 * SECOND)
    assert monitor.violation_count >= 1
    stats = sched.wait_stats()
    assert stats["batch"]["executed_ms"] > 500  # recovered under CFS


def test_deprioritize_action_variant(kernel):
    # A4 instead of A2: kill the starving batch task's competitors is too
    # harsh; here we renice the shorts so batch can run.
    sched = kernel.attach("sched", CpuScheduler(kernel))
    attach_learned_sched_policy(kernel, sched)
    sched.spawn("batch", burst_ns=50 * MILLISECOND)
    sched.spawn("short", burst_ns=1 * MILLISECOND)
    kernel.guardrails.load("""
guardrail starvation-deprioritize {
  trigger: { TIMER(start_time, 100ms) },
  rule: { LOAD(sched.max_wait_ms) <= 100 },
  action: { DEPRIORITIZE({short}, {19}) }
}""")
    kernel.run(until=2 * SECOND)
    assert sched.find_task("short").nice == 19
