"""Figure 1 (right table) — the A1–A4 action API semantics and cost.

One scenario per action: REPORT records context, REPLACE swaps the policy,
RETRAIN queues (rate-limited) training, DEPRIORITIZE renices/kills tasks.
Each also measures the simulated dispatch cost so the table carries an
overhead column.
"""

from repro.bench.report import format_table
from repro.bench.results import scenario
from repro.kernel import Kernel
from repro.kernel.sched import CpuScheduler
from repro.sim.units import MILLISECOND, SECOND


def _spec(action):
    return (
        "guardrail act {{ trigger: {{ TIMER(start_time, 100ms) }}, "
        "rule: {{ LOAD(metric) <= 1 }}, action: {{ {} }} }}".format(action)
    )


@scenario(cost=0.2, seed=41)
def run_a1_report(report=None):
    kernel = Kernel(seed=41)
    kernel.store.save("metric", 99)
    kernel.store.save("context_value", 7)
    monitor = kernel.guardrails.load(
        _spec("REPORT(LOAD(metric), LOAD(context_value))"))
    kernel.run(until=1 * SECOND)

    reports = kernel.reporter.reports
    metrics = {
        "violations": monitor.violation_count,
        "reports_recorded": len(reports),
        "extra_metric": reports[0]["extras"]["LOAD(metric)"],
        "store_snapshot_keys": len(reports[0]["store"]),
        "simulated_cost_ns": monitor.overhead.simulated_ns,
    }
    assert metrics["reports_recorded"] == metrics["violations"] >= 5
    assert metrics["extra_metric"] == 99
    if report is not None:
        report("fig1_a1_report", format_table(
            ["aspect", "value"],
            [
                ["violations", metrics["violations"]],
                ["reports recorded", metrics["reports_recorded"]],
                ["extras captured", str(reports[0]["extras"])],
                ["store snapshot keys", metrics["store_snapshot_keys"]],
                ["simulated cost (ns total)", metrics["simulated_cost_ns"]],
            ],
            title="A1 REPORT: violation context for offline analysis"))
    return metrics


@scenario(cost=0.2, seed=42)
def run_a2_replace(report=None):
    kernel = Kernel(seed=42)
    decisions = []
    kernel.functions.register("policy", lambda: decisions.append("learned"))
    kernel.functions.register_implementation(
        "fallback", lambda: decisions.append("safe"))
    kernel.store.save("metric", 0)
    kernel.guardrails.load(_spec("REPLACE(policy, fallback)"))

    def call_policy(step=0):
        kernel.functions.slot("policy")()
        if step < 19:
            kernel.engine.schedule(50 * MILLISECOND, call_policy, step + 1)

    call_policy()
    kernel.engine.schedule(500 * MILLISECOND, kernel.store.save, "metric", 9)
    kernel.run(until=1 * SECOND)

    switch = decisions.index("safe")
    metrics = {
        "decisions_before_swap": switch,
        "decisions_after_swap": len(decisions) - switch,
        "swap_count": kernel.functions.slot("policy").swap_count,
        "all_safe_after_swap": all(d == "safe" for d in decisions[switch:]),
        "saw_learned": "learned" in decisions,
    }
    assert metrics["saw_learned"] and metrics["decisions_after_swap"] > 0
    assert metrics["all_safe_after_swap"]
    if report is not None:
        report("fig1_a2_replace", format_table(
            ["aspect", "value"],
            [
                ["decisions before swap", metrics["decisions_before_swap"]],
                ["decisions after swap", metrics["decisions_after_swap"]],
                ["slot swap count", metrics["swap_count"]],
                ["fallback starts immediately",
                 decisions[switch] == "safe"],
            ],
            title="A2 REPLACE: fall back to the known-safe policy"))
    return metrics


@scenario(cost=0.2, seed=43)
def run_a3_retrain(report=None):
    kernel = Kernel(seed=43, retrain_min_interval=1 * SECOND)
    kernel.store.save("metric", 9)  # violating from the start
    trained = []
    kernel.retrain_queue.register_trainer(
        "model", lambda request: trained.append(request))
    monitor = kernel.guardrails.load(_spec("RETRAIN(model, LOAD(metric))"))
    kernel.run(until=3 * SECOND)
    completed = kernel.retrain_queue.drain()

    queue = kernel.retrain_queue
    metrics = {
        "violations": monitor.violation_count,
        "retrains_accepted": queue.accepted_count,
        "retrains_rate_limited": queue.rejected_count,
        "trainer_invocations": len(trained),
        "data_ref": completed[0]["data_ref"],
    }
    # ~30 violations but only ~3 accepted retrains: the rate limit works.
    assert metrics["violations"] >= 25
    assert metrics["retrains_accepted"] <= 4
    assert metrics["retrains_rate_limited"] >= 20
    assert metrics["trainer_invocations"] == metrics["retrains_accepted"]
    if report is not None:
        report("fig1_a3_retrain", format_table(
            ["aspect", "value"],
            [
                ["violations (10 Hz checks)", metrics["violations"]],
                ["retrains accepted", metrics["retrains_accepted"]],
                ["retrains rate-limited", metrics["retrains_rate_limited"]],
                ["trainer invocations after drain",
                 metrics["trainer_invocations"]],
                ["data_ref forwarded", metrics["data_ref"]],
            ],
            title="A3 RETRAIN: asynchronous, abuse-protected retraining"))
    return metrics


@scenario(cost=0.2, seed=44)
def run_a4_deprioritize(report=None):
    kernel = Kernel(seed=44)
    sched = kernel.attach("sched", CpuScheduler(kernel))
    sched.spawn("victim", burst_ns=5 * MILLISECOND)
    sched.spawn("bystander", burst_ns=5 * MILLISECOND)
    sched.spawn("expendable", burst_ns=5 * MILLISECOND)
    kernel.store.save("metric", 9)
    kernel.guardrails.load(
        _spec("DEPRIORITIZE({victim, expendable}, {19, 0})"),
        cooldown=10 * SECOND)
    kernel.run(until=2 * SECOND)

    stats = sched.wait_stats()
    metrics = {
        "victim_nice": sched.find_task("victim").nice,
        "expendable_killed": sched.find_task("expendable").killed,
        "victim_cpu_ms": round(stats["victim"]["executed_ms"], 3),
        "expendable_cpu_ms": round(stats["expendable"]["executed_ms"], 3),
        "bystander_cpu_ms": round(stats["bystander"]["executed_ms"], 3),
    }
    assert metrics["victim_nice"] == 19
    assert metrics["expendable_killed"]
    assert metrics["bystander_cpu_ms"] > metrics["victim_cpu_ms"] * 2
    if report is not None:
        report("fig1_a4_deprioritize", format_table(
            ["task", "outcome", "cpu ms"],
            [
                ["victim", "reniced to 19",
                 round(stats["victim"]["executed_ms"])],
                ["expendable", "killed (priority 0)",
                 round(stats["expendable"]["executed_ms"])],
                ["bystander", "untouched",
                 round(stats["bystander"]["executed_ms"])],
            ],
            title="A4 DEPRIORITIZE: free resources from the workload side"))
    return metrics


def scenarios():
    return [
        ("fig1_a1_report", run_a1_report),
        ("fig1_a2_replace", run_a2_replace),
        ("fig1_a3_retrain", run_a3_retrain),
        ("fig1_a4_deprioritize", run_a4_deprioritize),
    ]
