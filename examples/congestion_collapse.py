"""The §2 congestion-control misbehavior: utilization collapse + recovery.

A small MLP imitates AIMD on a 100 Mbps link, then the link's capacity
quadruples (a path change).  The model keeps operating around its training
equilibrium and leaves the link three-quarters idle — "a sudden drop in
bandwidth utilization" it never recovers from.  A behavioral guardrail on
windowed utilization REPLACEs it with AIMD, which ramps up within seconds.

Run:  python examples/congestion_collapse.py
"""

from repro.bench.report import format_table
from repro.kernel import Kernel
from repro.kernel.net import BottleneckLink
from repro.policies.ccpol import install_learned_cc
from repro.sim.units import SECOND

UTILIZATION_GUARDRAIL = """
guardrail cc-utilization {
  trigger: { TIMER(start_time, 1e9) },
  rule:    { LOAD(net.utilization.avg) >= 0.5 },
  action:  { REPORT(LOAD(net.rate_mbps)), REPLACE(net.cc_update, net.aimd) }
}
"""


def run(with_guardrail):
    kernel = Kernel(seed=11)
    link = kernel.attach("net", BottleneckLink(kernel, capacity_mbps=100.0,
                                               noise_std=0.05))
    install_learned_cc(kernel, link)
    install_swaps = kernel.functions.slot("net.cc_update").swap_count
    monitor = None
    if with_guardrail:
        monitor = kernel.guardrails.load(UTILIZATION_GUARDRAIL,
                                         cooldown=2 * SECOND)
    link.start()
    kernel.run(until=10 * SECOND)
    link.set_capacity(400.0)      # the path changes
    kernel.run(until=25 * SECOND)

    series = kernel.metrics.series("net.utilization")
    def mean(start_s, end_s):
        window = series.window(start_s * SECOND, end_s * SECOND)
        return sum(v for _, v in window) / len(window)

    return {
        "before": mean(2, 10),
        "after": mean(15, 25),
        "violations": monitor.violation_count if monitor else 0,
        "swaps": kernel.functions.slot("net.cc_update").swap_count - install_swaps,
        "sensitivity": kernel.store.load("learned_cc.output_sensitivity"),
    }


def main():
    rows = []
    for with_guardrail in (False, True):
        result = run(with_guardrail)
        rows.append([
            "guarded" if with_guardrail else "learned CC only",
            round(result["before"], 3),
            round(result["after"], 3),
            result["violations"],
            result["swaps"],
        ])
        sensitivity = result["sensitivity"]
    print(format_table(
        ["mode", "utilization @100Mbps", "utilization @400Mbps",
         "violations", "REPLACEs"],
        rows, title="Capacity jump at t=10s (100 -> 400 Mbps)"))
    print("\nP2 note: the model's output swings {:.0f} Mbps under ~1% input "
          "noise\n(published as learned_cc.output_sensitivity) — AIMD's "
          "sign-based update\nis immune to the same noise.".format(sensitivity))


if __name__ == "__main__":
    main()
