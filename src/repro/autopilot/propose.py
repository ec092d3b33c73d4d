"""Proposal mining: from stored fleet behavior to versioned specs.

Two proposal kinds, mirroring §3.3's two maintenance mechanisms:

- ``tighten`` — mine the per-``(round, host)`` false-submit fraction from
  a results store's digest history (the same rows ``service.query``
  aggregates), take an exact quantile of the observed distribution, and
  propose a threshold at ``quantile * margin`` — the fleet-scale analogue
  of :class:`repro.core.tightening.AutoTightener`'s envelope, but computed
  from mergeable digests instead of a live feature store, and rounded to
  two significant figures the same way gate calibration rounds its
  recommendations.  A ``max_step`` cap bounds how much any one proposal
  may shrink the threshold, so convergence happens over several audited
  deployments rather than one uncheckable jump.

- ``synthesize`` — expand a :class:`~repro.core.synthesis.PolicyManifest`
  into property guardrails (P1–P5) via
  :func:`~repro.core.synthesis.synthesize_guardrails`, each carrying
  provenance naming the manifest fields it derives from.

Every proposal is a :class:`Proposal`: kind, guardrail name, version
number, spec text, and a machine-readable provenance dict — convertible
to a :class:`~repro.fleet.rollout.GuardrailVersion` for deployment and
persisted verbatim in the results store's ``proposals`` table.
"""

from repro.core.synthesis import (
    PolicyManifest,
    synthesis_provenance,
    synthesize_guardrails,
)
from repro.eval.calibrate import _round_2sf as round_2sf
from repro.fleet.rollout import GuardrailVersion
from repro.fleet.scenario import GUARDRAIL_NAME

#: Tightening defaults.  The quantile/margin pair is the same envelope
#: shape the host-local AutoTightener uses; the floor is an operator
#: lower bound no proposal may cross; max_step bounds per-proposal shrink.
TIGHTEN_QUANTILE = 0.99
TIGHTEN_MARGIN = 1.5
TIGHTEN_FLOOR = 0.05
TIGHTEN_MAX_STEP = 0.5

#: The proposed enforcing spec, threshold mined from fleet behavior.  Same
#: trigger/rule/action shape as the hand-written FLEET_SPEC_V2 — the
#: autopilot's job is to *derive* the threshold that spec hard-codes.
TIGHTEN_SPEC_TEMPLATE = """
guardrail low-false-submit {{
  // autopilot v{version}: threshold mined from fleet digest history.
  trigger: {{ TIMER(start_time, 1e9) }},
  rule: {{ LOAD(false_submit_rate) <= {threshold} }},
  action: {{
    SAVE(ml_enabled, false),
    REPORT()
  }}
}}
"""


def build_tighten_spec(threshold, version):
    """The enforcing guardrail text for one proposed threshold."""
    return TIGHTEN_SPEC_TEMPLATE.format(
        version=version, threshold=format(threshold, "g"))


class Proposal:
    """One autopilot proposal: a versioned spec plus why it was made."""

    __slots__ = ("kind", "guardrail", "version", "spec", "provenance")

    def __init__(self, kind, guardrail, version, spec, provenance):
        self.kind = kind
        self.guardrail = guardrail
        self.version = int(version)
        self.spec = spec
        self.provenance = provenance

    def to_dict(self):
        return {
            "kind": self.kind,
            "guardrail": self.guardrail,
            "version": self.version,
            "spec": self.spec,
            "provenance": self.provenance,
        }

    def guardrail_version(self):
        """The deployable :class:`GuardrailVersion`, provenance attached."""
        return GuardrailVersion(self.guardrail, self.version, self.spec,
                                provenance=self.provenance)

    def __repr__(self):
        return "Proposal({} {} v{})".format(self.kind, self.guardrail,
                                            self.version)


# -- mining -----------------------------------------------------------------


def mine_false_submit_samples(store, run_ids, version=None):
    """Per-``(round, host)`` false-submit fractions from stored digests.

    Samples come back in deterministic ``(run, round, host)`` order.
    ``version`` restricts mining to digests recorded while that guardrail
    version was deployed — behavior observed under an older spec must not
    leak into a newer proposal's evidence.  Rows with no model submits
    carry no signal and are skipped.
    """
    samples = []
    for run_id in sorted(run_ids):
        for row in store.digest_rows(run_id):
            if version is not None and row["version"] != version:
                continue
            if row["model_submits"] <= 0:
                continue
            samples.append(row["false_submits"] / row["model_submits"])
    return samples


def exact_quantile(samples, q):
    """Exact sorted-interpolation quantile (numpy's ``linear`` method).

    Deterministic pure-python arithmetic: no sketch, no estimator state —
    proposal evidence must be byte-reproducible from the store alone.
    """
    if not samples:
        raise ValueError("cannot take a quantile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1], got {}".format(q))
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def observed_band(samples, quantile):
    """The evidence summary a tightening proposal carries as provenance."""
    return {
        "samples": len(samples),
        "quantile": quantile,
        "quantile_value": exact_quantile(samples, quantile),
        "observed_min": min(samples),
        "observed_max": max(samples),
    }


# -- proposal construction ---------------------------------------------------


def propose_tightening(samples, prior_threshold, next_version,
                       quantile=TIGHTEN_QUANTILE, margin=TIGHTEN_MARGIN,
                       floor=TIGHTEN_FLOOR, max_step=TIGHTEN_MAX_STEP,
                       guardrail=GUARDRAIL_NAME):
    """A tightened-threshold :class:`Proposal`, or ``None`` when converged.

    The candidate is ``quantile(samples) * margin`` clamped three ways:
    never below ``floor``, never shrinking more than ``max_step`` of the
    prior threshold in one proposal, and rounded to two significant
    figures (same rounding gate calibration applies).  A candidate at or
    above the prior threshold means the deployed envelope already sits
    against observed behavior — converged, nothing to propose.
    """
    if not samples:
        return None
    band = observed_band(samples, quantile)
    candidate = band["quantile_value"] * margin
    candidate = max(candidate, floor, prior_threshold * (1.0 - max_step))
    candidate = round_2sf(candidate)
    if candidate >= prior_threshold:
        return None
    provenance = {
        "kind": "tighten",
        "key": "false_submit_rate",
        "prior_threshold": prior_threshold,
        "threshold": candidate,
        "band": band,
        "margin": margin,
        "floor": floor,
        "max_step": max_step,
    }
    spec = build_tighten_spec(candidate, next_version)
    return Proposal("tighten", guardrail, next_version, spec, provenance)


def storage_policy_manifest():
    """The Figure-2 storage stand-in policy, described as a manifest.

    What a training pipeline for the LinnOS-style policy would declare
    anyway: the slot it occupies, the registered safe implementation, and
    the (lower-is-better) reward metric the fleet digests already track.
    """
    return PolicyManifest(
        name="storage",
        slot="storage.pick_device",
        fallback="storage.shortest_queue",
        model="linnos",
        reward_key="false_submit_rate",
        baseline_key="baseline_false_submit_rate",
        higher_is_better=False,
    )


def propose_synthesis(manifest):
    """Synthesized-metric :class:`Proposal` list for one policy manifest.

    One version-1 proposal per applicable property, in property-id order,
    each named ``<policy>-<property>`` and carrying the manifest fields it
    was derived from.  These are *recorded* for audit (``grctl query
    autopilot``), not deployed: the simulated fleet hosts do not publish
    the synthesized instrumentation keys, so deploying would only trip
    the inconclusive-rate gate.
    """
    specs = synthesize_guardrails(manifest)
    proposals = []
    for property_id in sorted(specs):
        provenance = {
            "kind": "synthesize",
            "property": property_id,
            "policy": manifest.name,
            "manifest": synthesis_provenance(manifest, property_id),
        }
        proposals.append(Proposal(
            "synthesize", "{}-{}".format(manifest.name, property_id),
            1, specs[property_id], provenance))
    return proposals


__all__ = [
    "Proposal",
    "TIGHTEN_FLOOR",
    "TIGHTEN_MARGIN",
    "TIGHTEN_MAX_STEP",
    "TIGHTEN_QUANTILE",
    "build_tighten_spec",
    "exact_quantile",
    "mine_false_submit_samples",
    "observed_band",
    "propose_synthesis",
    "propose_tightening",
    "storage_policy_manifest",
]
