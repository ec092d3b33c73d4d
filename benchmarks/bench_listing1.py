"""Listing 1 / Listing 2 — the specification language itself.

Regenerates the interface artifacts: Listing 2 parses verbatim, round-trips
through the printer, and compiles under the default verifier budgets.
"""

from repro.bench.report import format_table
from repro.bench.results import scenario
from repro.bench.scenarios import LISTING2_SPEC
from repro.core.compiler import GuardrailCompiler
from repro.core.spec import parse_guardrail


@scenario(cost=0.1)
def run_listing2_pipeline(report=None):
    reparsed = parse_guardrail(parse_guardrail(LISTING2_SPEC).to_source())
    compiled = GuardrailCompiler().compile(reparsed)
    spec = compiled.spec
    metrics = {
        "name": spec.name,
        "trigger_kind": compiled.trigger_params[0][0],
        "timer_interval_ns": compiled.trigger_params[0][2],
        "first_action": compiled.actions[0].kind,
        "verified_cost_ops": compiled.verification.total_cost,
        "estimated_ops_per_s": round(
            compiled.verification.estimated_ops_per_second, 1),
    }
    assert spec.name == "low-false-submit"
    assert compiled.trigger_params[0] == ("timer", None, 10 ** 9, None)
    assert metrics["first_action"] == "SAVE"
    if report is not None:
        report("listing2_pipeline", format_table(
            ["aspect", "value"],
            [
                ["name", spec.name],
                ["triggers", "; ".join(t.to_source() for t in spec.triggers)],
                ["rules", "; ".join(r.to_source() for r in spec.rules)],
                ["actions", "; ".join(a.to_source() for a in spec.actions)],
                ["verified cost (ops/check)", metrics["verified_cost_ops"]],
                ["estimated ops/s", metrics["estimated_ops_per_s"]],
            ],
            title="Listing 2 through the full "
                  "parse/print/compile/verify pipeline"))
    return metrics


def scenarios():
    return [("listing2_pipeline", run_listing2_pipeline)]
