"""Declarative scenario specs and the single-scenario runner.

A :class:`ScenarioSpec` names one reproducible experiment: which policy
domains to compose on one kernel, which workload and policy variant each
runs, an optional fault plan, a seed, and the *expected* per-guardrail
verdict.  Running one returns a deterministic JSON-friendly result dict;
``matched`` records whether reality agreed with the registry's
expectations, which is what ``grctl scenarios run`` exits on.

Verdict vocabulary per guardrail:

- ``trip`` — at least one rule violation was dispatched;
- ``inconclusive`` — no violation, but at least half the checks could not
  evaluate (missing/NaN telemetry, e.g. under ``corrupt-telemetry``);
- ``quiet`` — checks ran and passed.

The scenario's ``overall`` verdict collapses those for the eval harness:
any trip → ``trip``, else any inconclusive → ``inconclusive``, else
``allow`` — the same ladder :mod:`repro.eval` uses for host episodes.
"""

from repro.sim.units import SECOND
from repro.trace.tracer import TRACER

FAULT_CLEAN = "clean"
FAULT_CORRUPT = "corrupt-telemetry"


class ScenarioSpec:
    """One named, seeded, expectation-carrying scenario (immutable-ish)."""

    __slots__ = ("name", "kind", "domains", "workloads", "policies", "fault",
                 "seed", "duration_s", "expected", "description", "quick")

    def __init__(self, name, domains, workloads, fault=FAULT_CLEAN, seed=1,
                 duration_s=8.0, expected=None, kind="zoo", description="",
                 quick=True):
        self.name = str(name)
        self.kind = str(kind)
        self.domains = tuple(domains)
        self.workloads = tuple(workloads)
        # Every registered scenario runs the learned policy in each domain.
        self.policies = ("learned",) * len(self.domains)
        if len(self.domains) != len(self.workloads):
            raise ValueError(
                "scenario {!r}: domains/workloads must align".format(name))
        if fault not in (FAULT_CLEAN, FAULT_CORRUPT):
            raise ValueError("scenario {!r}: unknown fault {!r}"
                             .format(name, fault))
        self.fault = fault
        self.seed = int(seed)
        self.duration_s = float(duration_s)
        self.expected = dict(expected or {})
        self.description = str(description)
        self.quick = bool(quick)

    def to_dict(self):
        return {
            "name": self.name,
            "kind": self.kind,
            "domains": list(self.domains),
            "workloads": list(self.workloads),
            "policies": list(self.policies),
            "fault": self.fault,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "expected": dict(self.expected),
            "description": self.description,
            "quick": self.quick,
        }

    def expected_overall(self):
        """Collapse per-guardrail expectations to the eval ladder."""
        values = set(self.expected.values())
        if self.kind == "feedback":
            return "trip" if self.expected.get("behavior") == "oscillates" \
                else "allow"
        if "trip" in values:
            return "trip"
        if "inconclusive" in values:
            return "inconclusive"
        return "allow"

    def __repr__(self):
        return "ScenarioSpec({!r})".format(self.name)


def monitor_verdict(monitor):
    """Collapse one monitor's counters to trip/inconclusive/quiet."""
    if monitor.violation_count > 0:
        return "trip"
    if monitor.check_count == 0 \
            or 2 * monitor.inconclusive_count >= monitor.check_count:
        return "inconclusive"
    return "quiet"


def run_scenario(spec):
    """Run one scenario to completion; returns its deterministic result."""
    if spec.kind == "feedback":
        from repro.scenarios.feedback import run_feedback_scenario

        return run_feedback_scenario(spec)

    from repro.kernel import Kernel
    from repro.scenarios.domains import attach_domain

    duration_ns = int(spec.duration_s * SECOND)
    kernel = Kernel(seed=spec.seed)
    if TRACER.active:
        TRACER.emit("scenarios", "run.begin", 0,
                    args={"name": spec.name, "fault": spec.fault})
    rigs = [
        attach_domain(kernel, domain, workload=workload, policy=policy,
                      duration_ns=duration_ns)
        for domain, workload, policy
        in zip(spec.domains, spec.workloads, spec.policies)
    ]
    if spec.fault == FAULT_CORRUPT:
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan

        flags = tuple("corrupt@{}".format(key)
                      for rig in rigs for key in rig.watched_keys)
        plan = FaultPlan.from_flags(flags, seed=spec.seed)
        FaultInjector(kernel, plan).install()
    kernel.run(until=duration_ns)

    guardrails, verdicts = {}, {}
    for rig in rigs:
        for monitor in rig.monitors:
            verdict = monitor_verdict(monitor)
            verdicts[monitor.name] = verdict
            guardrails[monitor.name] = {
                "domain": rig.domain,
                "checks": monitor.check_count,
                "violations": monitor.violation_count,
                "inconclusive": monitor.inconclusive_count,
                "actions": monitor.action_dispatch_count,
                "verdict": verdict,
            }
    if "trip" in verdicts.values():
        overall = "trip"
    elif "inconclusive" in verdicts.values():
        overall = "inconclusive"
    else:
        overall = "allow"
    result = {
        "name": spec.name,
        "kind": spec.kind,
        "seed": spec.seed,
        "duration_s": spec.duration_s,
        "fault": spec.fault,
        "domains": {
            rig.domain: {"workload": rig.workload, "policy": rig.policy,
                         "counters": rig.counters()}
            for rig in rigs
        },
        "guardrails": guardrails,
        "expected": dict(spec.expected),
        "verdicts": verdicts,
        "overall": overall,
        "matched": verdicts == spec.expected,
    }
    if TRACER.active:
        TRACER.emit("scenarios", "run.end", kernel.engine.now,
                    args={"name": spec.name, "overall": overall,
                          "matched": result["matched"]})
    return result
