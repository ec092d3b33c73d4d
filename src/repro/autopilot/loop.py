"""The autopilot loop: observe -> propose -> deploy -> verdict -> back off.

One iteration of :func:`run_autopilot`:

1. **Observe** — bake the fleet on the currently deployed guardrail
   version for a few lockstep rounds, streaming every host digest into
   the results store as a run of kind ``autopilot.observe`` through the
   service loop's :func:`~repro.service.loop.drive_soak`.
2. **Propose** — mine the observe run's digests for per-``(round, host)``
   false-submit fractions and build a tightened-threshold
   :class:`~repro.autopilot.propose.Proposal`; persist it with its
   provenance in the store's ``proposals`` table.
3. **Deploy** — roll the proposed spec out through the *existing*
   staged-rollout control plane (canary -> 25% -> 100%, three-axis health
   gates, whole-cohort rollback), recorded as a run of kind
   ``autopilot.deploy`` by :func:`~repro.service.loop.drive_rollout`,
   the driver ``grctl serve`` uses.  The autopilot gets no special path:
   its proposals face exactly the gates a human operator's would.
4. **Verdict** — a completed rollout promotes the proposal (the next
   iteration observes under the new version); a tripped gate records
   ``rolled_back``, widens the proposal margin by :data:`BACKOFF_FACTOR`,
   and holds the loop observe-only for :data:`COOLDOWN_ITERATIONS`
   iterations.  A spec that was
   rolled back is never re-proposed verbatim — the margin widening and
   the explicit rejected-spec guard both forbid it.

The loop converges when a fresh proposal would not tighten the deployed
threshold any further.  Everything is virtual-clock deterministic: the
result dict is byte-identical across reruns and ``jobs`` values.
"""

from repro.autopilot.propose import (
    TIGHTEN_FLOOR,
    TIGHTEN_MARGIN,
    TIGHTEN_MAX_STEP,
    TIGHTEN_QUANTILE,
    mine_false_submit_samples,
    propose_synthesis,
    propose_tightening,
    storage_policy_manifest,
)
from repro.fleet.scenario import (
    build_fleet_rollout,
    fleet_versions,
    make_fleet_specs,
)
from repro.service.loop import StoreObserver, drive_rollout, drive_soak
from repro.service.store import StoreError
from repro.sim.units import SECOND
from repro.trace.tracer import TRACER

#: The relaxed starting point: FLEET_SPEC_V1's observe-only threshold.
INITIAL_THRESHOLD = 0.5

#: How long each observe bake runs, in lockstep rounds.
OBSERVE_ROUNDS = 3
OBSERVE_ROUNDS_QUICK = 2

#: Backoff defaults: widen the envelope margin after a rollback, then
#: observe-only for this many iterations before proposing again.
BACKOFF_FACTOR = 2.0
COOLDOWN_ITERATIONS = 1


class AutopilotError(Exception):
    """The loop cannot run against the given store or scenario."""


def run_autopilot(store, hosts=8, stages="canary:1,25%,100%", seed=42,
                  jobs=1, iterations=3, quick=False, corrupt_at=None,
                  quantile=TIGHTEN_QUANTILE, margin=TIGHTEN_MARGIN,
                  deploy=True, synthesize=True):
    """Run the closed loop; returns the deterministic autopilot report.

    ``corrupt_at`` injects the fig2 corrupt-telemetry fault into the
    canary host during that iteration's deploy bake — the deliberately
    bad proposal the health gates must catch.  ``deploy=False`` stops
    after recording the first proposal (``grctl autopilot propose``).
    """
    if iterations < 1:
        raise AutopilotError("iterations must be >= 1")
    try:
        observe_rounds = OBSERVE_ROUNDS_QUICK if quick else OBSERVE_ROUNDS
        rate_ios = 250 if quick else 500

        loop = _LoopState(margin)
        current_version, _ = fleet_versions()  # v1: the relaxed observe spec
        threshold = INITIAL_THRESHOLD
        next_version = current_version.version + 1
        rejected_specs = set()
        entries = []

        synthesis = []
        if synthesize:
            manifest = storage_policy_manifest()
            for proposal in propose_synthesis(manifest):
                proposal_id = _record(store, proposal, verdict="recorded")
                synthesis.append(dict(proposal.to_dict(),
                                      proposal_id=proposal_id,
                                      verdict="recorded"))
                _emit("synthesize", loop,
                      {"guardrail": proposal.guardrail,
                       "property": proposal.provenance["property"]})

        converged = False
        deployed = rolled_back = 0
        for iteration in range(iterations):
            entry = {"iteration": iteration}
            observe_run = _observe(store, loop, current_version, hosts, seed,
                                   rate_ios, observe_rounds, jobs, iteration,
                                   threshold)
            samples = mine_false_submit_samples(
                store, [observe_run], version=current_version.version)
            entry["observe_run"] = observe_run
            entry["samples"] = len(samples)

            if loop.cooldown_left > 0:
                loop.cooldown_left -= 1
                entry["action"] = "cooldown"
                entry["cooldown_left"] = loop.cooldown_left
                _finish_entry(entry, threshold, loop)
                entries.append(entry)
                _emit("cooldown", loop, {"iteration": iteration,
                                         "left": loop.cooldown_left})
                continue

            proposal = propose_tightening(
                samples, threshold, next_version, quantile=quantile,
                margin=loop.margin, guardrail=current_version.name)
            if proposal is None:
                converged = True
                entry["action"] = "converged"
                _finish_entry(entry, threshold, loop)
                entries.append(entry)
                _emit("converged", loop, {"threshold": threshold})
                break
            if proposal.spec in rejected_specs:
                # The gates already rejected this exact spec; widen further
                # rather than asking the fleet the same question again.
                loop.margin *= BACKOFF_FACTOR
                entry["action"] = "suppressed"
                entry["proposal"] = proposal.to_dict()
                _finish_entry(entry, threshold, loop)
                entries.append(entry)
                _emit("suppressed", loop,
                      {"version": proposal.version, "margin": loop.margin})
                continue

            proposal_id = _record(store, proposal)
            next_version += 1
            entry["proposal"] = proposal.to_dict()
            entry["proposal_id"] = proposal_id
            _emit("propose", loop,
                  {"version": proposal.version,
                   "threshold": proposal.provenance["threshold"],
                   "samples": len(samples)})
            if not deploy:
                entry["action"] = "proposed"
                _finish_entry(entry, threshold, loop)
                entries.append(entry)
                break

            fault_hosts = 1 if corrupt_at == iteration else 0
            deploy_run, report = _deploy(
                store, loop, current_version, proposal, hosts, stages, seed,
                quick, jobs, iteration, fault_hosts)
            entry["deploy_run"] = deploy_run
            if report["status"] == "completed":
                store.set_proposal_verdict(proposal_id, "deployed",
                                           deploy_run=deploy_run)
                current_version = proposal.guardrail_version()
                threshold = proposal.provenance["threshold"]
                deployed += 1
                entry["action"] = "deployed"
                _emit("verdict.deployed", loop,
                      {"version": proposal.version, "threshold": threshold})
            else:
                store.set_proposal_verdict(proposal_id, "rolled_back",
                                           deploy_run=deploy_run)
                rejected_specs.add(proposal.spec)
                loop.margin *= BACKOFF_FACTOR
                loop.cooldown_left = COOLDOWN_ITERATIONS
                rolled_back += 1
                entry["action"] = "rolled_back"
                entry["rolled_back_at_stage"] = report["rolled_back_at_stage"]
                entry["gate_reasons"] = _trip_reasons(report)
                _emit("verdict.rolled_back", loop,
                      {"version": proposal.version,
                       "stage": report["rolled_back_at_stage"],
                       "margin": loop.margin})
            _finish_entry(entry, threshold, loop)
            entries.append(entry)

        return {
            "guardrail": current_version.name,
            "scenario": {
                "hosts": hosts, "stages": stages, "seed": seed,
                "iterations": iterations, "quick": bool(quick),
                "corrupt_at": corrupt_at, "quantile": quantile,
                "margin": margin, "floor": TIGHTEN_FLOOR,
                "max_step": TIGHTEN_MAX_STEP, "backoff": BACKOFF_FACTOR,
                "cooldown": COOLDOWN_ITERATIONS,
                "observe_rounds": observe_rounds, "rate_ios": rate_ios,
            },
            "initial": {"threshold": INITIAL_THRESHOLD,
                        "version": fleet_versions()[0].version},
            "iterations": entries,
            "synthesis": synthesis,
            "final": {
                "threshold": threshold,
                "version": current_version.version,
                "margin": loop.margin,
                "converged": converged,
                "deployed": deployed,
                "rolled_back": rolled_back,
            },
        }
    except StoreError as exc:
        raise AutopilotError(str(exc))


# -- internals ---------------------------------------------------------------


class _LoopState:
    """Mutable loop bookkeeping: margin, cooldown, virtual clock."""

    __slots__ = ("margin", "cooldown_left", "sim_ns")

    def __init__(self, margin):
        self.margin = margin
        self.cooldown_left = 0
        self.sim_ns = 0


def _finish_entry(entry, threshold, loop):
    entry["threshold_after"] = threshold
    entry["margin_after"] = loop.margin


def _emit(name, loop, args):
    if TRACER.active:
        TRACER.emit("autopilot", name, loop.sim_ns, args=args)


def _trip_reasons(report):
    """The tripped gate's reasons, from the deploy report's stages."""
    for stage in report["stages"]:
        if not stage["gate"]["passed"]:
            return list(stage["gate"]["reasons"])
    return []


def _record(store, proposal, verdict="proposed"):
    return store.record_proposal(
        proposal.kind, proposal.guardrail, proposal.version,
        proposal.spec, proposal.provenance, verdict=verdict)


def _observe(store, loop, version, hosts, seed, rate_ios, rounds, jobs,
             iteration, threshold):
    """One observe bake on the deployed version; returns its run id."""
    _emit("observe.start", loop, {"iteration": iteration,
                                  "version": version.version,
                                  "threshold": threshold})
    scenario = {"iteration": iteration, "hosts": hosts, "seed": seed,
                "rate_ios": rate_ios, "rounds": rounds,
                "threshold": threshold}
    run_id = store.begin_run(
        "autopilot.observe", scenario, SECOND, hosts,
        total_rounds=rounds, versions={"deployed": version.to_dict()})
    # Each iteration observes a decorrelated workload stream; reruns of
    # the same iteration are identical.
    specs = make_fleet_specs(hosts, seed + 1000 * (iteration + 1), rate_ios)
    drive_soak(StoreObserver(store, run_id), specs, version, rounds, jobs)
    loop.sim_ns += rounds * SECOND
    _emit("observe.done", loop, {"iteration": iteration, "run": run_id})
    return run_id


def _deploy(store, loop, old_version, proposal, hosts, stages, seed, quick,
            jobs, iteration, fault_hosts):
    """Deploy one proposal through the rollout control plane, into the store."""
    new_version = proposal.guardrail_version()
    _emit("deploy.start", loop, {"iteration": iteration,
                                 "version": new_version.version,
                                 "fault_hosts": fault_hosts})
    built = build_fleet_rollout(
        hosts=hosts, stages=stages, seed=seed + 1000 * (iteration + 1) + 1,
        fault_hosts=fault_hosts, quick=quick, fault_kind="corrupt",
        versions=(old_version, new_version))
    run_id = store.begin_run(
        "autopilot.deploy", dict(built.scenario, iteration=iteration),
        SECOND, hosts, total_rounds=built.total_rounds,
        plan=built.plan.to_dict(),
        versions={"old": old_version.to_dict(),
                  "new": new_version.to_dict()})
    report = drive_rollout(StoreObserver(store, run_id), built, jobs)
    loop.sim_ns += report["rounds"] * SECOND
    return run_id, report


__all__ = [
    "AutopilotError",
    "BACKOFF_FACTOR",
    "COOLDOWN_ITERATIONS",
    "INITIAL_THRESHOLD",
    "OBSERVE_ROUNDS",
    "run_autopilot",
]
