"""P6 fairness/liveness: a learned scheduler that starves batch work.

A learned shortest-predicted-job-first picker optimizes turnaround for
short interactive tasks but starves the long batch task.  The P6 guardrail
("no ready task should be starved for more than 100 ms") REPLACEs the
picker with the CFS baseline.

Run:  python examples/scheduler_fairness.py
"""

from repro.bench.report import format_table
from repro.core.properties import fairness_liveness
from repro.kernel import Kernel
from repro.kernel.sched import CpuScheduler
from repro.policies.schedpol import attach_learned_sched_policy
from repro.sim.units import MILLISECOND, SECOND


def build(with_guardrail):
    kernel = Kernel(seed=7)
    sched = kernel.attach("sched", CpuScheduler(kernel))
    attach_learned_sched_policy(kernel, sched)
    sched.spawn("batch", burst_ns=50 * MILLISECOND)
    for i in range(4):
        sched.spawn("interactive{}".format(i), burst_ns=1 * MILLISECOND)
    monitor = None
    if with_guardrail:
        monitor = kernel.guardrails.load(fairness_liveness())
    kernel.run(until=5 * SECOND)
    return kernel, sched, monitor


def main():
    for with_guardrail in (False, True):
        kernel, sched, monitor = build(with_guardrail)
        title = "with P6 guardrail" if with_guardrail else "learned SJF, no guardrail"
        rows = [
            [name, s["dispatches"], round(s["executed_ms"], 1),
             round(s["max_wait_ms"], 1)]
            for name, s in sorted(sched.wait_stats().items())
        ]
        print(format_table(["task", "dispatches", "cpu (ms)", "max wait (ms)"],
                           rows, title=title))
        if monitor is not None:
            swaps = kernel.functions.slot("sched.pick_next").swap_count
            print("violations: {}   REPLACE fired: {} time(s)".format(
                monitor.violation_count, swaps))
        print()

    print("Without the guardrail the batch task starves behind the\n"
          "interactive tasks; the guardrail detects >100 ms waits and swaps\n"
          "the picker back to CFS, after which batch makes steady progress.")


if __name__ == "__main__":
    main()
