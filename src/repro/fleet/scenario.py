"""The canonical fleet experiment: Listing 2 rolled out across a fleet.

Every host runs the Figure-2 storage stack (replicated pre-drift SSD
volume, shortest-queue stand-in policy that predicts "fast" on every
submit, Poisson read workload).  The rollout moves the fleet's
``low-false-submit`` guardrail from a report-only v1 to the enforcing v2
below through a staged plan with health gates.

Thresholds follow the §3.3 "thresholds require system knowledge" story:
the stand-in policy false-submits at the volume's stationary slow fraction
(~9% pre-drift), so v2 enforces at 0.2 — quiet on a healthy host, loud on
a broken one.  The faulted cohort carries a ``corrupt@false_submit_rate``
fault: the signal reads as NaN, which the rule runtime treats as *missing
data*, so every check on a faulted host comes back inconclusive instead
of violating.  That is exactly the hazard the gate's inconclusive-rate
axis exists for — a guardrail that cannot evaluate on the canary cohort
(~1 inconclusive/host-second against a ~0 baseline) is not safe to
enforce, so the rollout halts and rolls back.
"""

from repro.fleet.rollout import (
    GateConfig,
    GuardrailVersion,
    RolloutController,
    RolloutPlan,
    parse_stages,
)
from repro.fleet.worker import FleetRunner, HostSpec
from repro.sim.units import SECOND

GUARDRAIL_NAME = "low-false-submit"

#: v1 — observation mode: a loose bound, report-only.
FLEET_SPEC_V1 = """
guardrail low-false-submit {
  // v1: observe-only.  The bound is loose; violations just file reports.
  trigger: { TIMER(start_time, 1e9) },
  rule: { LOAD(false_submit_rate) <= 0.5 },
  action: { REPORT() }
}
"""

#: v2 — enforcement: the Listing-2 action at the fleet threshold.
FLEET_SPEC_V2 = """
guardrail low-false-submit {
  // v2: enforce.  0.2 clears the ~9% stationary false-submit floor of the
  // stand-in policy but catches a corrupted/broken signal immediately.
  trigger: { TIMER(start_time, 1e9) },
  rule: { LOAD(false_submit_rate) <= 0.2 },
  action: {
    SAVE(ml_enabled, false),
    REPORT()
  }
}
"""


def fleet_versions():
    """The (old, new) guardrail versions the canonical rollout moves between."""
    return (GuardrailVersion(GUARDRAIL_NAME, 1, FLEET_SPEC_V1),
            GuardrailVersion(GUARDRAIL_NAME, 2, FLEET_SPEC_V2))


#: How the faulted cohort misbehaves, keyed to the one gate axis
#: (:attr:`GateConfig.AXES`) each kind is built to stress: ``corrupt``
#: blinds the guardrail signal (NaN telemetry -> inconclusive checks),
#: ``drift`` switches the device regime so the stand-in policy genuinely
#: false-submits (violations), ``stall`` adds inference latency to every
#: pick (tail-latency blowup).
AXIS_BY_FAULT_KIND = {"corrupt": "inconclusive", "drift": "violation",
                      "stall": "p95"}
FLEET_FAULT_KINDS = tuple(AXIS_BY_FAULT_KIND)

#: Stall magnitude: with an ~130us clean p95, an 8ms decision stall pushes
#: the cohort p95 to the digest histogram cap — unambiguously past any
#: calibrated ratio threshold.
_STALL_LATENCY_US = 8000


def make_fleet_specs(hosts, seed, rate_ios, fault_hosts=0, fault_start_s=0,
                     fault_kind="corrupt"):
    """Deterministic per-host specs; hosts ``0..fault_hosts-1`` are faulted.

    Stage cohorts fill from host id 0 upward, so faulted hosts land in the
    canary cohort and the rollout's first gate sees them.  The fault starts
    at ``fault_start_s`` (normally the baseline boundary) so the pre-rollout
    baseline stays clean.  ``fault_kind`` picks the failure mode (see
    :data:`FLEET_FAULT_KINDS`).
    """
    if fault_kind not in FLEET_FAULT_KINDS:
        raise ValueError("unknown fleet fault kind {!r}; known: {}".format(
            fault_kind, ", ".join(FLEET_FAULT_KINDS)))
    specs = []
    for host_id in range(hosts):
        flags = ()
        drift_s = None
        if host_id < fault_hosts:
            if fault_kind == "corrupt":
                flags = ("corrupt@false_submit_rate:start={}".format(
                    int(fault_start_s)),)
            elif fault_kind == "stall":
                flags = ("stall@storage.pick_device:start={},latency_us={}"
                         .format(int(fault_start_s), _STALL_LATENCY_US),)
            else:  # drift
                drift_s = fault_start_s
        specs.append(HostSpec(
            host_id,
            # Distinct, seed-derived stream per host: reruns match exactly,
            # neighbouring hosts decorrelate.
            seed=seed * 10_000 + host_id * 101 + 7,
            rate_ios=rate_ios,
            fault_flags=flags,
            fault_seed=seed + host_id,
            drift_s=drift_s,
        ))
    return specs


class FleetScenario:
    """Everything needed to run (or re-run) one canonical rollout.

    Built by :func:`build_fleet_rollout` from the scenario knobs alone, so
    a run and its later regeneration from a results store construct
    identical plans, specs, and versions — the determinism the service's
    byte-identity contract rests on.
    """

    __slots__ = ("specs", "plan", "old_version", "new_version",
                 "total_rounds", "scenario")

    def __init__(self, specs, plan, old_version, new_version, total_rounds,
                 scenario):
        self.specs = specs
        self.plan = plan
        self.old_version = old_version
        self.new_version = new_version
        self.total_rounds = total_rounds
        self.scenario = scenario

    def run(self, jobs=1, observer=None):
        """Step the fleet through the staged rollout; the controller report."""
        with FleetRunner(self.specs, self.old_version, SECOND,
                         self.total_rounds, jobs=jobs) as runner:
            return RolloutController(
                runner, self.old_version, self.new_version, self.plan,
                SECOND, observer=observer).run()


def build_fleet_rollout(hosts=8, stages="canary:1,25%,100%", seed=42,
                        fault_hosts=0, quick=False, fault_kind="corrupt",
                        gate=None, versions=None):
    """Construct the canonical rollout scenario without running it.

    ``gate=None`` deploys behind the calibrated :class:`GateConfig`
    defaults; passing a config overrides them (``repro.eval`` uses a
    permissive gate here to record every stage's measurements).
    ``versions`` overrides the ``(old, new)`` :class:`GuardrailVersion`
    pair — the autopilot deploys its own proposed specs through the same
    workload, stages, and gates the canonical rollout uses.
    """
    if hosts < 1:
        raise ValueError("hosts must be >= 1, got {}".format(hosts))
    if quick:
        rate_ios, baseline_rounds, bake_rounds = 250, 2, 1
    else:
        rate_ios, baseline_rounds, bake_rounds = 500, 3, 2
    stage_list = parse_stages(stages, hosts, default_bake=bake_rounds)
    plan = RolloutPlan(stage_list, baseline_rounds=baseline_rounds,
                       gate=gate or GateConfig())
    total_rounds = (plan.baseline_rounds
                    + sum(stage.bake_rounds for stage in plan.stages)
                    + plan.SETTLE_ROUNDS)
    old_version, new_version = versions if versions else fleet_versions()
    specs = make_fleet_specs(hosts, seed, rate_ios,
                             fault_hosts=fault_hosts,
                             fault_start_s=plan.baseline_rounds,
                             fault_kind=fault_kind)
    scenario = {
        "hosts": hosts,
        "stages": stages,
        "seed": seed,
        "fault_hosts": fault_hosts,
        "fault_kind": fault_kind,
        "rate_ios": rate_ios,
        "quick": bool(quick),
    }
    return FleetScenario(specs, plan, old_version, new_version, total_rounds,
                         scenario)


def run_fleet_rollout(hosts=8, stages="canary:1,25%,100%", seed=42, jobs=1,
                      fault_hosts=0, quick=False, fault_kind="corrupt",
                      gate=None, observer=None):
    """Run the canonical staged rollout; returns the rollout report dict.

    The report is deterministic for ``(hosts, stages, seed, fault_hosts,
    fault_kind, quick, gate)`` — it contains no wall-clock time and no
    ``jobs`` field, so the same run sharded differently is byte-identical
    once serialised.
    """
    built = build_fleet_rollout(hosts=hosts, stages=stages, seed=seed,
                                fault_hosts=fault_hosts, quick=quick,
                                fault_kind=fault_kind, gate=gate)
    report = built.run(jobs=jobs, observer=observer)
    report["scenario"] = built.scenario
    return report


__all__ = [
    "AXIS_BY_FAULT_KIND",
    "FLEET_FAULT_KINDS",
    "FLEET_SPEC_V1",
    "FLEET_SPEC_V2",
    "FleetScenario",
    "GUARDRAIL_NAME",
    "build_fleet_rollout",
    "fleet_versions",
    "make_fleet_specs",
    "run_fleet_rollout",
]
