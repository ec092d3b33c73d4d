"""DSL generators for the P1–P6 property taxonomy."""

from repro.sim.units import SECOND

#: P6's check period and starvation bound: the paper's "no ready task
#: starved for more than 100 ms", checked every 100 ms.
FAIRNESS_INTERVAL = 100_000_000
MAX_WAIT_MS = 100.0


def _format_actions(actions):
    return ",\n    ".join(actions)


def _guardrail(name, triggers, rules, actions):
    return (
        "guardrail {name} {{\n"
        "  trigger: {{\n    {triggers}\n  }},\n"
        "  rule: {{\n    {rules}\n  }},\n"
        "  action: {{\n    {actions}\n  }}\n"
        "}}\n"
    ).format(
        name=name,
        triggers=",\n    ".join(triggers),
        rules=",\n    ".join(rules),
        actions=_format_actions(actions),
    )


def in_distribution(policy, psi_threshold=0.25, oor_threshold=0.05,
                    interval=1 * SECOND, actions=None, model=None):
    """P1 — model inputs must stay in the training distribution.

    Watches the drift keys an instrumented policy publishes
    (``<policy>.input_psi_max`` / ``input_oor_max``).  Default actions:
    REPORT the offending window, and queue a RETRAIN of ``model`` (defaults
    to the policy name) — "prolonged sequences of out-of-distribution data
    ... require retraining".
    """
    model = model or policy
    if actions is None:
        actions = [
            "REPORT(LOAD({p}.input_psi_max), LOAD({p}.input_oor_max))".format(p=policy),
            "RETRAIN({m})".format(m=model),
        ]
    return _guardrail(
        "{}-in-distribution".format(policy),
        ["TIMER(start_time, {})".format(interval)],
        [
            "LOAD({p}.input_psi_max) <= {t}".format(p=policy, t=psi_threshold),
            "LOAD({p}.input_oor_max) <= {t}".format(p=policy, t=oor_threshold),
        ],
        actions,
    )


def robustness(policy, sensitivity_threshold, interval=1 * SECOND,
               model=None):
    """P2 — similar inputs must yield similar outputs.

    Watches ``<policy>.output_sensitivity`` (EWMA of the output swing under
    small input perturbations, published by the SensitivityProbe).  Action:
    RETRAIN ``model`` (defaults to the policy name), per Figure 1's pairing
    for noise sensitivity.
    """
    actions = [
        "REPORT(LOAD({p}.output_sensitivity))".format(p=policy),
        "RETRAIN({m})".format(m=model or policy),
    ]
    return _guardrail(
        "{}-robustness".format(policy),
        ["TIMER(start_time, {})".format(interval)],
        ["LOAD({p}.output_sensitivity) <= {t}".format(
            p=policy, t=sensitivity_threshold)],
        actions,
    )


def output_bounds(name, hook, rule, fallback_slot, fallback_impl):
    """P3 — outputs must be within legal bounds, checked at the source.

    ``hook`` is the kernel function whose payload carries the decision
    (e.g. ``mm.alloc`` with ``granted``/``available``); ``rule`` is the
    bound over those payload names (e.g. ``granted <= available``).
    Action: REPLACE the policy with its fallback — Figure 1 pairs
    out-of-bound decisions with disabling the learned policy.
    """
    actions = [
        "REPORT()",
        "REPLACE({}, {})".format(fallback_slot, fallback_impl),
    ]
    return _guardrail(
        "{}-output-bounds".format(name),
        ["FUNCTION({})".format(hook)],
        [rule],
        actions,
    )


def decision_quality(name, metric_key, baseline_key, margin=0.0,
                     interval=1 * SECOND, fallback_slot=None,
                     fallback_impl=None):
    """P4 — decisions must beat the baseline.

    Rule: ``LOAD(metric) >= LOAD(baseline) - margin`` (e.g. the learned
    cache's hit rate against the shadow random cache's).  Action: REPLACE
    with the fallback when one is given, else REPORT.
    """
    actions = ["REPORT(LOAD({}), LOAD({}))".format(metric_key, baseline_key)]
    if fallback_slot and fallback_impl:
        actions.append("REPLACE({}, {})".format(fallback_slot, fallback_impl))
    rule = "LOAD({m}) >= LOAD({b}) - {g}".format(
        m=metric_key, b=baseline_key, g=margin
    )
    return _guardrail(
        "{}-decision-quality".format(name),
        ["TIMER(start_time, {})".format(interval)],
        [rule],
        actions,
    )


def decision_overhead(policy, interval=1 * SECOND, fallback_slot=None,
                      fallback_impl=None, windowed=False):
    """P5 — inference cost must be offset by measured gains.

    Rule: ``LOAD(<policy>.net_benefit) >= 0`` over the InferenceMeter's
    ledger; with ``windowed=True`` the rule watches
    ``<policy>.net_benefit_window`` instead, so a regression cannot hide
    behind previously banked gains.  Action: REPLACE with the fallback when
    given (running a model that costs more than it saves is strictly worse
    than the heuristic), else REPORT.
    """
    actions = ["REPORT(LOAD({p}.inference_ns), LOAD({p}.gain_ns))".format(p=policy)]
    if fallback_slot and fallback_impl:
        actions.append("REPLACE({}, {})".format(fallback_slot, fallback_impl))
    key = "net_benefit_window" if windowed else "net_benefit"
    return _guardrail(
        "{}-decision-overhead".format(policy),
        ["TIMER(start_time, {})".format(interval)],
        ["LOAD({p}.{k}) >= 0".format(p=policy, k=key)],
        actions,
    )


def fairness_liveness():
    """P6 — system-level fairness/liveness.

    The paper's running example: "No ready task should be starved for more
    than 100 ms", over the scheduler's published ``sched.max_wait_ms``.
    Action: REPLACE the picker with the CFS baseline.
    """
    return _guardrail(
        "sched-fairness-liveness",
        ["TIMER(start_time, {})".format(FAIRNESS_INTERVAL)],
        ["LOAD(sched.max_wait_ms) <= {}".format(MAX_WAIT_MS)],
        ["REPORT(LOAD(sched.max_wait_ms))",
         "REPLACE(sched.pick_next, sched.cfs)"],
    )
