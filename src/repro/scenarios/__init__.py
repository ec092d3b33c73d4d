"""repro.scenarios: the cross-policy scenario zoo and the §6 study.

Three pillars over the kernel/policies tree:

- **domains** — per-domain composition builders (storage, cache, tiered
  memory, congestion control, scheduling) that stack several learned
  policies, baselines, and guardrails on one kernel;
- **registry/spec/runner** — ≥24 named, seeded scenarios with expected
  verdicts, runnable deterministically under the bench pool
  (``grctl scenarios list|describe|run``);
- **feedback** — the §6 guardrail-feedback study: coupled storage/net
  guardrails that oscillate under timer-driven checking and damp under
  dependency-driven checking, plus the idle-check accounting.
"""

from repro.scenarios.domains import DOMAINS, DomainRig, attach_domain
from repro.scenarios.feedback import (
    IdleCheckAuditor,
    RetryDebtBridge,
    build_feedback_kernel,
    run_feedback_study,
)
from repro.scenarios.registry import (
    GUARDRAIL_NAMES,
    all_scenarios,
    get_scenario,
    scenario_names,
    self_check,
)
from repro.scenarios.runner import (
    deterministic_document,
    run_scenarios,
    select_scenarios,
)
from repro.scenarios.spec import ScenarioSpec, monitor_verdict, run_scenario

__all__ = [
    "DOMAINS",
    "DomainRig",
    "GUARDRAIL_NAMES",
    "IdleCheckAuditor",
    "RetryDebtBridge",
    "ScenarioSpec",
    "all_scenarios",
    "attach_domain",
    "build_feedback_kernel",
    "deterministic_document",
    "get_scenario",
    "monitor_verdict",
    "run_feedback_study",
    "run_scenario",
    "run_scenarios",
    "scenario_names",
    "select_scenarios",
    "self_check",
]
