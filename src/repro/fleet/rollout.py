"""Staged-rollout control plane for fleet guardrail deployments.

The paper (§3.3) treats guardrail thresholds as operator policy that must
be deployed carefully; this module gives that deployment a kernel-style
control plane.  A rollout moves a fleet from one :class:`GuardrailVersion`
to the next through a :class:`RolloutPlan`: first a pre-rollout *baseline*
bake on the old version, then stages (``canary:1 -> 25% -> 100%``) that
widen the cohort of hosts running the new version.  After each stage bakes,
a health *gate* compares the cohort's aggregated digests against the
baseline — violation rate per host-second and the merged latency P95 —
and a tripped gate halts the rollout and rolls every updated host back to
the old version through ``GuardrailManager.update()``, the same no-reboot
path the rollout itself used.

Everything the controller does lands in a deterministic event timeline
(virtual-clock rounds, no wall time), mirrored onto the tracer's ``fleet``
category when tracing is active.
"""

import math

from repro.fleet.aggregate import FleetDigest, none_if_nan
from repro.trace.tracer import TRACER


class GuardrailVersion:
    """One immutable, versioned guardrail spec (picklable via dicts).

    ``provenance`` is an optional machine-readable record of where the
    spec came from — the autopilot attaches the observed band, sample
    count, and prior threshold it tightened from.  Hand-written versions
    carry none, and ``to_dict`` omits the key entirely then, so reports
    of pre-autopilot rollouts are byte-identical to what they always were.
    """

    __slots__ = ("name", "version", "text", "provenance")

    def __init__(self, name, version, text, provenance=None):
        self.name = name
        self.version = int(version)
        self.text = text
        self.provenance = provenance

    def to_dict(self):
        out = {"name": self.name, "version": self.version, "text": self.text}
        if self.provenance is not None:
            out["provenance"] = self.provenance
        return out

    @classmethod
    def from_dict(cls, data):
        return cls(data["name"], data["version"], data["text"],
                   provenance=data.get("provenance"))

    def __repr__(self):
        return "GuardrailVersion({} v{})".format(self.name, self.version)


class Stage:
    """One rollout stage: widen the new-version cohort to ``target_hosts``."""

    __slots__ = ("label", "target_hosts", "bake_rounds")

    def __init__(self, label, target_hosts, bake_rounds):
        self.label = label
        self.target_hosts = int(target_hosts)
        self.bake_rounds = int(bake_rounds)

    def to_dict(self):
        return {"label": self.label, "target_hosts": self.target_hosts,
                "bake_rounds": self.bake_rounds}

    def __repr__(self):
        return "Stage({} -> {} hosts)".format(self.label, self.target_hosts)


def parse_stages(text, hosts, default_bake=2):
    """Parse a stage-plan string like ``"canary:1,25%,100%"``.

    Comma-separated entries; each is ``label:size``, a bare ``P%`` (percent
    of the fleet, rounded up), or a bare host count.  Unlabelled entries use
    their size spec as the label.  Targets are cumulative cohort sizes; an
    entry whose clamped target adds no hosts over its predecessor is
    dropped (on a 4-host fleet, ``canary:1,25%,100%`` collapses to two
    stages).  A plan that never grows the cohort is a :exc:`ValueError`.
    """
    if hosts <= 0:
        raise ValueError("hosts must be positive, got {}".format(hosts))
    stages = []
    previous = 0
    for raw in text.split(","):
        entry = raw.strip()
        if not entry:
            raise ValueError("empty stage entry in {!r}".format(text))
        if ":" in entry:
            label, _, size_text = entry.partition(":")
            label = label.strip()
            size_text = size_text.strip()
        else:
            label, size_text = entry, entry
        if not label or not size_text:
            raise ValueError("bad stage entry {!r}".format(entry))
        if size_text.endswith("%"):
            try:
                percent = float(size_text[:-1])
            except ValueError:
                raise ValueError("bad stage size {!r}".format(size_text))
            if not 0 < percent <= 100:
                raise ValueError(
                    "stage percent must be in (0, 100], got {!r}".format(
                        size_text))
            target = min(hosts, int(math.ceil(hosts * percent / 100.0)))
        else:
            try:
                target = int(size_text)
            except ValueError:
                raise ValueError("bad stage size {!r}".format(size_text))
            if target <= 0:
                raise ValueError(
                    "stage size must be positive, got {!r}".format(size_text))
            target = min(hosts, target)
        if target <= previous:
            continue  # adds no hosts at this fleet size
        stages.append(Stage(label, target, default_bake))
        previous = target
    if not stages:
        raise ValueError(
            "stage plan {!r} never grows the cohort on {} host(s)".format(
                text, hosts))
    return stages


class GateConfig:
    """Health-gate thresholds applied after every stage bake.

    A stage passes unless the cohort's digests degrade past one of the
    bounds relative to the pre-rollout baseline:

    - ``max_violation_rate_delta``: absolute increase in guardrail
      violations per host-second;
    - ``max_inconclusive_rate_delta``: absolute increase in *inconclusive*
      checks per host-second.  A NaN/missing signal reads as inconclusive,
      not as a violation (see ``repro.core.expr``), so a cohort whose
      telemetry went dark would sail through a violations-only gate — and a
      guardrail that cannot evaluate is not safe to enforce;
    - ``max_p95_ratio``: multiplicative increase of the merged latency P95.

    ``min_checks`` is the sample floor: with fewer guardrail checks than
    this in the cohort digest, the gate reports "insufficient data" and
    passes rather than tripping on noise.

    The defaults are **calibrated**, not hand-picked: ``grctl eval
    calibrate`` sweeps each axis over the labelled episode dataset
    (``eval/dataset.jsonl``, see ``DATASET_VERSION.md``) and reproduces
    these exact values.  The violation and inconclusive bounds sit inside
    their feasible bands (clean cohorts measure ~0 on both axes; drift and
    corrupt faults push them to 1.0 and 0.875+).  The p95 bound is the
    log-midpoint of the clean noise ceiling (a 1-host canary cohort
    against a fleet-wide baseline measures ratios up to ~10x on a clean
    fleet — a Poisson burst blows the cohort tail) and the stall-fault
    floor (~25x): the old hand-picked 1.75 sat *inside* the clean noise
    band and false-tripped roughly half of all clean 16-host rollouts.
    """

    __slots__ = ("max_violation_rate_delta", "max_inconclusive_rate_delta",
                 "max_p95_ratio", "min_checks")

    def __init__(self, max_violation_rate_delta=0.5,
                 max_inconclusive_rate_delta=0.5, max_p95_ratio=16.0,
                 min_checks=1):
        self.max_violation_rate_delta = float(max_violation_rate_delta)
        self.max_inconclusive_rate_delta = float(max_inconclusive_rate_delta)
        self.max_p95_ratio = float(max_p95_ratio)
        self.min_checks = int(min_checks)

    def to_dict(self):
        return {
            "max_violation_rate_delta": self.max_violation_rate_delta,
            "max_inconclusive_rate_delta": self.max_inconclusive_rate_delta,
            "max_p95_ratio": self.max_p95_ratio,
            "min_checks": self.min_checks,
        }

    def evaluate(self, baseline, observed):
        """Compare cohort ``observed`` against ``baseline``; both digests."""
        base_rate = baseline.violation_rate()
        obs_rate = observed.violation_rate()
        rate_delta = obs_rate - base_rate
        base_inconclusive = baseline.inconclusive_rate()
        obs_inconclusive = observed.inconclusive_rate()
        inconclusive_delta = obs_inconclusive - base_inconclusive
        base_p95 = baseline.p95_us()
        obs_p95 = observed.p95_us()
        if base_p95 and not math.isnan(base_p95) and not math.isnan(obs_p95):
            p95_ratio = obs_p95 / base_p95
        else:
            p95_ratio = None
        measurements = {
            "baseline_violation_rate": base_rate,
            "violation_rate": obs_rate,
            "violation_rate_delta": rate_delta,
            "baseline_inconclusive_rate": base_inconclusive,
            "inconclusive_rate": obs_inconclusive,
            "inconclusive_rate_delta": inconclusive_delta,
            "baseline_p95_us": none_if_nan(base_p95),
            "p95_us": none_if_nan(obs_p95),
            "p95_ratio": p95_ratio,
            "checks": observed.checks,
        }
        if observed.checks < self.min_checks:
            return GateResult(True, ["insufficient data ({} < {} checks)"
                                     .format(observed.checks,
                                             self.min_checks)],
                              measurements)
        reasons = []
        if rate_delta > self.max_violation_rate_delta:
            reasons.append(
                "violation rate delta {:.3f} > {:.3f}/host-s".format(
                    rate_delta, self.max_violation_rate_delta))
        if inconclusive_delta > self.max_inconclusive_rate_delta:
            reasons.append(
                "inconclusive rate delta {:.3f} > {:.3f}/host-s".format(
                    inconclusive_delta, self.max_inconclusive_rate_delta))
        if p95_ratio is not None and p95_ratio > self.max_p95_ratio:
            reasons.append("p95 ratio {:.2f} > {:.2f}".format(
                p95_ratio, self.max_p95_ratio))
        return GateResult(not reasons, reasons, measurements)


class GateResult:
    """Outcome of one gate evaluation."""

    __slots__ = ("passed", "reasons", "measurements")

    def __init__(self, passed, reasons, measurements):
        self.passed = passed
        self.reasons = reasons
        self.measurements = measurements

    def to_dict(self):
        return {"passed": self.passed, "reasons": list(self.reasons),
                "measurements": dict(self.measurements)}


class RolloutPlan:
    """The full deployment recipe: baseline bake, stages, gate bounds."""

    __slots__ = ("stages", "baseline_rounds", "gate")

    #: Rounds a rollback bakes on the old version before the run ends.
    SETTLE_ROUNDS = 1

    def __init__(self, stages, baseline_rounds=3, gate=None):
        if not stages:
            raise ValueError("a rollout needs at least one stage")
        if baseline_rounds < 1:
            raise ValueError("baseline_rounds must be >= 1")
        self.stages = list(stages)
        self.baseline_rounds = int(baseline_rounds)
        self.gate = gate or GateConfig()

    def to_dict(self):
        return {
            "baseline_rounds": self.baseline_rounds,
            "settle_rounds": self.SETTLE_ROUNDS,
            "stages": [stage.to_dict() for stage in self.stages],
            "gate": self.gate.to_dict(),
        }


class RolloutObserver:
    """Streaming hooks into a running :class:`RolloutController`.

    The controller calls these in deterministic order as the rollout
    advances; the default implementation ignores everything, so observers
    override only what they need.  ``repro.service`` subclasses this to
    ingest each round into the results store without buffering the run.
    """

    def on_round(self, round_index, time_ns, digests):
        """Every host digest of one committed lockstep round."""

    def on_timeline(self, entry):
        """One control-plane timeline entry, as recorded."""

    def on_phase(self, phase):
        """A phase (baseline / stage bake / rollback settle) finished.

        ``phase`` carries ``kind``, ``label``, ``target_hosts``,
        ``start_round`` and ``end_round`` (half-open round interval).
        """

    def on_gate(self, stage_label, round_index, result):
        """A stage gate was evaluated at the end of ``round_index``."""


class RolloutController:
    """Drives one rollout across a :class:`~repro.fleet.worker.FleetRunner`.

    The controller only ever sees digests — never raw samples — and only
    ever speaks directives (versioned spec updates keyed by host id), so
    the same logic would hold against real hosts behind an RPC boundary.
    An optional :class:`RolloutObserver` sees every round's digests and
    every control-plane event as they happen.
    """

    def __init__(self, runner, old_version, new_version, plan, round_ns,
                 observer=None):
        self.runner = runner
        self.old_version = old_version
        self.new_version = new_version
        self.plan = plan
        self.round_ns = round_ns
        self.observer = observer or RolloutObserver()
        self.timeline = []
        self._round_index = 0

    # -- internals ----------------------------------------------------------

    def _now_ns(self):
        return self._round_index * self.round_ns

    def _record(self, event, **detail):
        entry = {"round": self._round_index,
                 "time_s": self._now_ns() / 1e9,
                 "event": event}
        entry.update(detail)
        self.timeline.append(entry)
        if TRACER.active:
            TRACER.emit("fleet", event, self._now_ns(), args=detail or None)
        self.observer.on_timeline(entry)

    def _step(self, directives=None):
        """One lockstep round; returns the per-host digests."""
        round_index = self._round_index
        until_ns = (round_index + 1) * self.round_ns
        digests = self.runner.step_round(round_index, until_ns, directives)
        self._round_index += 1
        self.observer.on_round(round_index, until_ns, digests)
        return digests

    def _bake(self, rounds, cohort_ids, directives=None):
        """Run ``rounds`` rounds, folding cohort digests into one digest."""
        cohort = FleetDigest(self.round_ns)
        for _ in range(rounds):
            for digest in self._step(directives):
                if digest.host_id in cohort_ids:
                    cohort.merge_host(digest)
            directives = None  # only the first round carries the update
        return cohort

    def _directives(self, host_ids, version):
        payload = version.to_dict()
        return {host_id: [payload] for host_id in host_ids}

    # -- the rollout --------------------------------------------------------

    def _notify_phase(self, kind, label, target_hosts, start_round):
        self.observer.on_phase({
            "kind": kind,
            "label": label,
            "target_hosts": target_hosts,
            "start_round": start_round,
            "end_round": self._round_index,
        })

    def run(self):
        """Execute the plan; returns the deterministic rollout report."""
        host_ids = list(self.runner.host_ids)
        all_ids = set(host_ids)
        self._record("baseline.start", rounds=self.plan.baseline_rounds,
                     version=self.old_version.version)
        baseline = self._bake(self.plan.baseline_rounds, all_ids)
        self._notify_phase("baseline", "baseline", len(host_ids), 0)
        self._record("baseline.done",
                     violation_rate=baseline.violation_rate(),
                     p95_us=none_if_nan(baseline.p95_us()))

        status = "completed"
        rolled_back_at = None
        stage_reports = []
        cohort_size = 0  # hosts[:cohort_size] run the new version
        for stage in self.plan.stages:
            target = min(stage.target_hosts, len(host_ids))
            new_hosts = host_ids[cohort_size:target]
            self._record("stage.start", stage=stage.label,
                         target_hosts=target, new_hosts=len(new_hosts),
                         version=self.new_version.version)
            stage_start = self._round_index
            cohort = self._bake(
                stage.bake_rounds, set(host_ids[:target]),
                self._directives(new_hosts, self.new_version))
            cohort_size = target
            self._notify_phase("stage", stage.label, target, stage_start)
            gate = self.plan.gate.evaluate(baseline, cohort)
            self.observer.on_gate(stage.label, self._round_index, gate)
            stage_reports.append({
                "stage": stage.to_dict(),
                "digest": cohort.to_dict(),
                "gate": gate.to_dict(),
            })
            if gate.passed:
                self._record("gate.pass", stage=stage.label,
                             violation_rate=gate.measurements[
                                 "violation_rate"])
                continue
            self._record("gate.trip", stage=stage.label,
                         reasons=list(gate.reasons))
            status = "rolled_back"
            rolled_back_at = stage.label
            rollback_hosts = host_ids[:cohort_size]
            self._record("rollback.start", hosts=len(rollback_hosts),
                         version=self.old_version.version)
            rollback_start = self._round_index
            settle = self._bake(
                self.plan.SETTLE_ROUNDS, all_ids,
                self._directives(rollback_hosts, self.old_version))
            self._notify_phase("rollback", stage.label, len(rollback_hosts),
                               rollback_start)
            self._record("rollback.done",
                         violation_rate=settle.violation_rate())
            stage_reports[-1]["rollback"] = {"hosts": len(rollback_hosts),
                                             "digest": settle.to_dict()}
            break
        if status == "completed":
            self._record("rollout.completed", hosts=cohort_size,
                         version=self.new_version.version)

        return {
            "status": status,
            "rolled_back_at_stage": rolled_back_at,
            "hosts": len(host_ids),
            "rounds": self._round_index,
            "round_s": self.round_ns / 1e9,
            "versions": {
                "old": self.old_version.to_dict(),
                "new": self.new_version.to_dict(),
            },
            "plan": self.plan.to_dict(),
            "baseline": baseline.to_dict(),
            "stages": stage_reports,
            "timeline": list(self.timeline),
        }


__all__ = [
    "GateConfig",
    "GateResult",
    "GuardrailVersion",
    "RolloutController",
    "RolloutObserver",
    "RolloutPlan",
    "Stage",
    "parse_stages",
]
