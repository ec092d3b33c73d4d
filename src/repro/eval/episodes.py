"""Executable eval episodes: host property probes and fleet rollouts.

**Host episodes** exercise one guardrail family per run on a bare
:class:`~repro.kernel.Kernel`: the P1-P6 property templates from
:mod:`repro.core.properties` (plus a dedicated A4 DEPRIORITIZE family —
the only Figure-1 action no property template dispatches) watch a
deterministic, seeded signal generator instead of a trained model, so an
episode runs in milliseconds while the guardrail text, trigger kind, rule
shape, and action are the real thing.  Three regimes per family:

- ``clean`` — the signal stays inside the rule's bound: expected *allow*;
- ``faulty`` — the signal crosses the bound mid-run: expected *trip*;
- ``blinded`` — the signal stays clean but a ``repro.faults``
  ``corrupt@key`` injection NaNs the watched key mid-run: the rule
  runtime treats missing data as *inconclusive*, never as a violation.

**Fleet episodes** run the canonical staged rollout with a *permissive*
gate (every threshold infinite) so all stages execute and every stage's
gate measurements are recorded.  The verdict under any real
:class:`~repro.fleet.rollout.GateConfig` is then computed offline by
:meth:`GateConfig.tripped_axes` — exactly, not approximately: a gate
only ever *halts* a rollout, so the simulation up to the first tripping
stage is identical with or without enforcement, and "would config C
trip this run" is decidable from the recorded measurements alone.
Calibration sweeps thresholds over these records without re-running
anything.
"""

import math
import random

from repro.sim.units import MILLISECOND, SECOND

#: Virtual duration of one host episode and the regime switch point.
HOST_DURATION_S = 8
FAULT_START_S = 3.5
_SIGNAL_PERIOD_NS = 200 * MILLISECOND

HOST_REGIMES = ("clean", "faulty", "blinded")

EXPECTED_BY_REGIME = {"clean": "allow", "faulty": "trip",
                      "blinded": "inconclusive"}


class _Family:
    """One host-episode family: guardrail text plus its signal model."""

    def __init__(self, prop, action_kind, blind_key, build, signals):
        self.prop = prop
        self.action_kind = action_kind
        self.blind_key = blind_key
        self.build = build        # (kernel) -> guardrail spec text
        self.signals = signals    # (rng, faulty) -> {key: value}


def _noop():
    return None


def _build_p1(kernel):
    from repro.core.properties import in_distribution
    kernel.retrain_queue.register_trainer("probe", lambda request: None)
    return in_distribution("probe")


def _signals_p1(rng, faulty):
    return {
        "probe.input_psi_max": (0.55 + rng.uniform(-0.05, 0.05)) if faulty
        else (0.10 + rng.uniform(-0.05, 0.05)),
        "probe.input_oor_max": 0.01 + rng.uniform(0.0, 0.01),
    }


def _build_p2(kernel):
    from repro.core.properties import robustness
    kernel.retrain_queue.register_trainer("probe", lambda request: None)
    return robustness("probe", sensitivity_threshold=0.5)


def _signals_p2(rng, faulty):
    return {
        "probe.output_sensitivity":
            (1.2 + rng.uniform(-0.2, 0.2)) if faulty
            else (0.15 + rng.uniform(-0.1, 0.1)),
    }


def _build_p3(kernel):
    from repro.core.properties import output_bounds
    kernel.hooks.declare("mm.alloc")
    kernel.functions.register("mm.alloc_policy", _noop)
    kernel.functions.register_implementation("mm.baseline", _noop)
    return output_bounds("mm", "mm.alloc", "granted <= LOAD(mm.quota)",
                         "mm.alloc_policy", "mm.baseline")


def _signals_p3(rng, faulty):
    # The hook payload, not store keys: see _drive_signals.
    quota = 4096.0
    granted = quota * ((1.5 + rng.uniform(-0.1, 0.1)) if faulty
                       else (0.6 + rng.uniform(-0.1, 0.1)))
    return {"mm.quota": quota, "__hook__mm.alloc": {"granted": granted}}


def _build_p4(kernel):
    from repro.core.properties import decision_quality
    kernel.functions.register("cache.policy", _noop)
    kernel.functions.register_implementation("cache.lru", _noop)
    return decision_quality("cache", "cache.hit_rate",
                            "cache.shadow_hit_rate", margin=0.02,
                            fallback_slot="cache.policy",
                            fallback_impl="cache.lru")


def _signals_p4(rng, faulty):
    return {
        "cache.shadow_hit_rate": 0.70 + rng.uniform(-0.02, 0.02),
        "cache.hit_rate": (0.45 + rng.uniform(-0.03, 0.03)) if faulty
        else (0.78 + rng.uniform(-0.03, 0.03)),
    }


def _build_p5(kernel):
    from repro.core.properties import decision_overhead
    return decision_overhead("probe")


def _signals_p5(rng, faulty):
    net = ((-800_000 + rng.uniform(-100_000, 100_000)) if faulty
           else (500_000 + rng.uniform(-100_000, 100_000)))
    # The template's REPORT action loads the meter's cost/gain ledger keys,
    # so the generator publishes a coherent triple, not just the rule key.
    return {
        "probe.net_benefit": net,
        "probe.inference_ns": 200_000.0,
        "probe.gain_ns": net + 200_000.0,
    }


def _build_p6(kernel):
    from repro.core.properties import fairness_liveness
    kernel.functions.register("sched.pick_next", _noop)
    kernel.functions.register_implementation("sched.cfs", _noop)
    return fairness_liveness()


def _signals_p6(rng, faulty):
    return {
        "sched.max_wait_ms": (240.0 + rng.uniform(-40.0, 40.0)) if faulty
        else (30.0 + rng.uniform(-20.0, 20.0)),
    }


_A4_SPEC = """
guardrail probe-deprioritize {
  trigger: { TIMER(start_time, 1000000000) },
  rule: { LOAD(probe.hog_wait_ms) <= 100.0 },
  action: { DEPRIORITIZE({hog}, {19}) }
}
"""


def _build_a4(kernel):
    from repro.kernel.sched import CpuScheduler
    sched = kernel.attach("sched", CpuScheduler(kernel))
    sched.spawn("hog", burst_ns=5 * MILLISECOND)
    sched.spawn("service", burst_ns=1 * MILLISECOND)
    return _A4_SPEC


def _signals_a4(rng, faulty):
    # The scheduler publishes its own sched.* keys; the probe watches a
    # dedicated wait signal so the generator never fights the subsystem.
    return {
        "probe.hog_wait_ms": (300.0 + rng.uniform(-50.0, 50.0)) if faulty
        else (40.0 + rng.uniform(-20.0, 20.0)),
    }


HOST_FAMILIES = {
    "P1": _Family("P1", "A3", "probe.input_psi_max", _build_p1, _signals_p1),
    "P2": _Family("P2", "A3", "probe.output_sensitivity", _build_p2,
                  _signals_p2),
    "P3": _Family("P3", "A2", "mm.quota", _build_p3, _signals_p3),
    "P4": _Family("P4", "A2", "cache.hit_rate", _build_p4, _signals_p4),
    "P5": _Family("P5", "A1", "probe.net_benefit", _build_p5, _signals_p5),
    "P6": _Family("P6", "A2", "sched.max_wait_ms", _build_p6, _signals_p6),
    "A4": _Family("P6", "A4", "probe.hog_wait_ms", _build_a4, _signals_a4),
}


def _drive_signals(kernel, family, regime, seed):
    """Schedule the episode's whole signal tape up front (deterministic)."""
    rng = random.Random(seed)
    fault_start_ns = int(FAULT_START_S * SECOND)
    ticks = (HOST_DURATION_S * SECOND) // _SIGNAL_PERIOD_NS
    for tick in range(int(ticks) + 1):
        at_ns = tick * _SIGNAL_PERIOD_NS
        faulty = regime == "faulty" and at_ns >= fault_start_ns
        values = family.signals(rng, faulty)
        for key, value in values.items():
            if key.startswith("__hook__"):
                kernel.engine.schedule_at(
                    at_ns, _fire_hook, kernel, key[len("__hook__"):], value)
            else:
                kernel.engine.schedule_at(at_ns, kernel.store.save, key,
                                          value)


def _fire_hook(kernel, name, payload):
    kernel.hooks.get(name).fire(**payload)


def run_host_episode(family_name, regime, seed):
    """Run one host episode; returns its deterministic outcome dict.

    Verdict rule (crisp, in labelling order): any rule violation during
    the run is a ``trip``; otherwise any inconclusive check (NaN/missing
    signal) is ``inconclusive``; otherwise ``allow``.
    """
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.kernel import Kernel

    if family_name not in HOST_FAMILIES:
        raise ValueError("unknown host episode family {!r}; known: {}".format(
            family_name, ", ".join(sorted(HOST_FAMILIES))))
    if regime not in HOST_REGIMES:
        raise ValueError("unknown regime {!r}; known: {}".format(
            regime, ", ".join(HOST_REGIMES)))
    family = HOST_FAMILIES[family_name]
    kernel = Kernel(seed=seed)
    spec = family.build(kernel)
    if regime == "blinded":
        plan = FaultPlan.from_flags(
            ("corrupt@{}:start={}".format(family.blind_key, FAULT_START_S),),
            seed=seed)
        FaultInjector(kernel, plan).install()
    _drive_signals(kernel, family, regime, seed)
    monitor = kernel.guardrails.load(spec, cooldown=10 * SECOND)
    kernel.run(until=HOST_DURATION_S * SECOND)

    if monitor.violation_count > 0:
        verdict = "trip"
    elif monitor.inconclusive_count > 0:
        verdict = "inconclusive"
    else:
        verdict = "allow"
    return {
        "verdict": verdict,
        "guardrail": monitor.name,
        "property": family.prop,
        "action": family.action_kind,
        "checks": monitor.check_count,
        "violations": monitor.violation_count,
        "inconclusive": monitor.inconclusive_count,
        "actions_dispatched": monitor.action_dispatch_count,
    }


# -- fleet episodes ----------------------------------------------------------

def permissive_gate():
    """A GateConfig that never trips — used to record all-stage data."""
    from repro.fleet.rollout import GateConfig
    return GateConfig(max_violation_rate_delta=math.inf,
                      max_inconclusive_rate_delta=math.inf,
                      max_p95_ratio=math.inf)


def fleet_verdict(gate, stages):
    """Offline verdict of a recorded fleet episode under ``gate``.

    ``trip`` at the first stage with a tripping axis (the real rollout
    would have halted there), else ``allow``.
    """
    for stage in stages:
        axes = gate.tripped_axes(stage["measurements"])
        if axes:
            return {"verdict": "trip", "tripped_stage": stage["stage"],
                    "tripped_axes": axes}
    return {"verdict": "allow", "tripped_stage": None, "tripped_axes": []}


def run_fleet_episode(hosts, seed, fault_hosts, fault_kind, quick):
    """Run one recorded fleet rollout episode; its per-stage records.

    Each record is ``{"stage": label, "measurements": {...}}``; the caller
    judges them under a real gate (:func:`fleet_verdict`).
    """
    from repro.fleet.scenario import run_fleet_rollout

    report = run_fleet_rollout(hosts=hosts, seed=seed,
                               fault_hosts=fault_hosts,
                               fault_kind=fault_kind if fault_hosts else
                               "corrupt",
                               quick=quick, gate=permissive_gate())
    return [{"stage": entry["stage"]["label"],
             "measurements": entry["gate"]["measurements"]}
            for entry in report["stages"]]


__all__ = [
    "EXPECTED_BY_REGIME",
    "FAULT_START_S",
    "HOST_DURATION_S",
    "HOST_FAMILIES",
    "HOST_REGIMES",
    "fleet_verdict",
    "permissive_gate",
    "run_fleet_episode",
    "run_host_episode",
]
