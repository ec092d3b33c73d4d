"""The named scenario registry: the cross-policy zoo plus the §6 pair.

Names follow ``<domains>/<workload>/<fault>`` (``cc`` is the net domain's
congestion-control alias in cross-product names, matching the paper's
vocabulary).  Every entry carries a fixed seed and the expected
per-guardrail verdict, so ``grctl scenarios run`` is a regression test:
exit 0 means reality still matches the registry.
"""

from repro.scenarios.spec import FAULT_CLEAN, FAULT_CORRUPT, ScenarioSpec

#: domain -> the guardrail its rig loads (see ``domains.py`` spec texts).
GUARDRAIL_NAMES = {
    "storage": "zoo-storage-false-submit",
    "cache": "zoo-cache-hit-rate",
    "mm": "zoo-mm-tier-hit-rate",
    "net": "zoo-net-utilization",
    "sched": "zoo-sched-starvation",
}

#: each domain's "misbehaving workload" token (see ``domains.py``).
STRESS_WORKLOADS = {
    "storage": "drift",
    "cache": "scan",
    "mm": "random-write",
    "net": "drift",
    "sched": "flood",
}

_ZOO_DOMAINS = ("storage", "cache", "mm", "net", "sched")


def _zoo(name, domains, workloads, fault, seed, expected, description):
    return ScenarioSpec(
        name, domains, workloads, fault=fault, seed=seed,
        expected={GUARDRAIL_NAMES[domain]: verdict
                  for domain, verdict in zip(domains, expected)},
        kind="zoo", description=description)


def _build_registry():
    specs = []

    # -- one domain at a time: quiet / stress / blinded-telemetry ----------
    for index, domain in enumerate(_ZOO_DOMAINS):
        stress = STRESS_WORKLOADS[domain]
        seed = 100 + index
        specs.append(_zoo(
            "{}/quiet/clean".format(domain), (domain,), ("quiet",),
            FAULT_CLEAN, seed, ("quiet",),
            "Healthy {} host: learned policy within its envelope, the "
            "guardrail stays quiet.".format(domain)))
        specs.append(_zoo(
            "{}/{}/clean".format(domain, stress), (domain,), (stress,),
            FAULT_CLEAN, seed + 10, ("trip",),
            "The {} workload pushes the learned {} policy out of its "
            "envelope; the guardrail trips.".format(stress, domain)))
        specs.append(_zoo(
            "{}/quiet/corrupt-telemetry".format(domain), (domain,),
            ("quiet",), FAULT_CORRUPT, seed + 20, ("inconclusive",),
            "Healthy {} host with its watched telemetry corrupted to NaN: "
            "checks come back inconclusive, not quiet.".format(domain)))

    # -- the extra storage burst lane: load is not model failure -----------
    specs.append(_zoo(
        "storage/burst/clean", ("storage",), ("burst",), FAULT_CLEAN, 140,
        ("quiet",),
        "A 900 IOPS burst deepens queues but the device slow fraction is "
        "time-driven, so decision quality holds: the guardrail correctly "
        "refuses to confuse load with model failure."))

    # -- cross-products: several domains on one kernel ---------------------
    specs.append(_zoo(
        "cache+storage/quiet/clean", ("cache", "storage"),
        ("quiet", "quiet"), FAULT_CLEAN, 150, ("quiet", "quiet"),
        "Cache and storage policies coexist on one feature store; both "
        "guardrails stay quiet."))
    specs.append(_zoo(
        "cache+storage/burst/corrupt-telemetry", ("cache", "storage"),
        ("burst", "burst"), FAULT_CORRUPT, 151,
        ("inconclusive", "inconclusive"),
        "Bursty cache scans and GC storms under corrupted telemetry: both "
        "guardrails go inconclusive instead of tripping."))
    specs.append(_zoo(
        "sched+cc/drift/clean", ("sched", "net"), ("quiet", "drift"),
        FAULT_CLEAN, 152, ("quiet", "trip"),
        "Scheduler stays healthy while the link capacity drifts under the "
        "stubborn congestion controller; only the net guardrail trips."))
    specs.append(_zoo(
        "storage+net/drift/clean", ("storage", "net"), ("drift", "drift"),
        FAULT_CLEAN, 153, ("trip", "trip"),
        "Device drift and link-capacity drift land together; both "
        "guardrails trip independently on one kernel."))
    specs.append(_zoo(
        "cache+mm/scan/clean", ("cache", "mm"), ("scan", "quiet"),
        FAULT_CLEAN, 154, ("trip", "quiet"),
        "A one-shot scan wrecks the cache hit rate while the tiered-memory "
        "hot set stays healthy: one trip, one quiet."))
    specs.append(_zoo(
        "mm+sched/quiet/clean", ("mm", "sched"), ("quiet", "quiet"),
        FAULT_CLEAN, 155, ("quiet", "quiet"),
        "Tiered memory and the scheduler coexist quietly."))
    specs.append(_zoo(
        "all-five/quiet/clean", _ZOO_DOMAINS, ("quiet",) * 5, FAULT_CLEAN,
        160, ("quiet",) * 5,
        "All five policy domains on one kernel, all healthy: the full "
        "multi-policy host, every guardrail quiet."))
    specs.append(_zoo(
        "all-five/stress/clean", _ZOO_DOMAINS,
        tuple(STRESS_WORKLOADS[d] for d in _ZOO_DOMAINS), FAULT_CLEAN,
        161, ("trip",) * 5,
        "Every domain pushed out of its envelope at once; all five "
        "guardrails trip concurrently."))

    # -- the §6 feedback-loop pair -----------------------------------------
    specs.append(ScenarioSpec(
        "feedback/coupled/timer", ("storage", "net"), ("timer", "timer"),
        fault=FAULT_CLEAN, seed=17, duration_s=40.0,
        expected={"behavior": "oscillates"}, kind="feedback",
        description="Coupled storage/net guardrails under timer-driven "
                    "checking: detection delay converts retry debt into "
                    "loss, and the pair oscillates for the whole run.",
        quick=False))
    specs.append(ScenarioSpec(
        "feedback/coupled/dependency", ("storage", "net"),
        ("dependency", "dependency"), fault=FAULT_CLEAN, seed=17,
        duration_s=40.0, expected={"behavior": "converges"},
        kind="feedback",
        description="The same coupled rig under dependency-driven "
                    "checking: the storage guardrail fires off the "
                    "feature-store write, debt stays under the drain "
                    "headroom, and the loop damps after one trip.",
        quick=False))
    return specs


_REGISTRY = None


def all_scenarios():
    """Every registered :class:`ScenarioSpec`, sorted by name."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = sorted(_build_registry(), key=lambda spec: spec.name)
    return list(_REGISTRY)


def scenario_names():
    return [spec.name for spec in all_scenarios()]


def get_scenario(name):
    for spec in all_scenarios():
        if spec.name == name:
            return spec
    raise KeyError("no scenario named {!r}".format(name))


def self_check():
    """Structural invariants of the registry; returns a list of problems."""
    problems = []
    specs = all_scenarios()
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        problems.append("duplicate scenario names")
    if len(specs) < 24:
        problems.append("registry has {} scenarios, needs >= 24"
                        .format(len(specs)))
    covered = {domain for spec in specs for domain in spec.domains}
    missing = set(_ZOO_DOMAINS) - covered
    if missing:
        problems.append("domains never exercised: {}"
                        .format(", ".join(sorted(missing))))
    for spec in specs:
        if spec.kind == "feedback":
            if spec.expected.get("behavior") not in ("oscillates",
                                                     "converges"):
                problems.append("{}: feedback scenarios expect a "
                                "behavior".format(spec.name))
            continue
        expected_names = {GUARDRAIL_NAMES[domain]
                          for domain in spec.domains}
        if set(spec.expected) != expected_names:
            problems.append("{}: expected verdicts do not cover its "
                            "guardrails".format(spec.name))
        bad = [verdict for verdict in spec.expected.values()
               if verdict not in ("quiet", "trip", "inconclusive")]
        if bad:
            problems.append("{}: unknown verdicts {}"
                            .format(spec.name, sorted(set(bad))))
    return problems
