"""§3.3 closed loop — the autopilot tightens through the rollout gates.

Two claims under the regression gate: (1) starting from a deliberately
loose threshold, the autopilot mines fleet digest history, deploys each
tightened guardrail through canary -> 25% -> 100%, and converges on a
tighter envelope with zero rollbacks; (2) when its first deploy bakes a
corrupt-telemetry canary, the inconclusive-rate gate trips at the canary
stage, the cohort rolls back, and the loop backs off (wider margin,
cooldown) instead of re-proposing the rejected spec.  The converged
threshold and the tripped gate's measurement are metrics, so a drift in
mining, envelope math, or gate health shows up as a baseline diff.
"""

import json
import os
import tempfile

from repro.autopilot.loop import run_autopilot
from repro.bench.report import format_table
from repro.bench.results import scenario
from repro.service.store import ResultsStore

HOSTS = 8
SEED = 42
ITERATIONS = 4


@scenario(cost=3.0, seed=SEED)
def run_autopilot_loop(report=None):
    with tempfile.TemporaryDirectory(prefix="bench_autopilot_") as workdir:
        with ResultsStore(os.path.join(workdir, "clean.sqlite")) as store:
            clean = run_autopilot(store, hosts=HOSTS, seed=SEED,
                                  iterations=ITERATIONS, quick=True)
            clean_rows = store.proposal_rows()
        with ResultsStore(os.path.join(workdir, "corrupt.sqlite")) as store:
            corrupt = run_autopilot(store, hosts=HOSTS, seed=SEED,
                                    iterations=2, quick=True, corrupt_at=0)

    tripped = corrupt["iterations"][0]
    metrics = {
        "clean_converged": clean["final"]["converged"],
        "clean_deployed": clean["final"]["deployed"],
        "clean_rolled_back": clean["final"]["rolled_back"],
        "clean_final_threshold": clean["final"]["threshold"],
        "clean_final_version": clean["final"]["version"],
        "clean_proposals_recorded": len(clean_rows),
        "synthesized_properties": len(clean["synthesis"]),
        "corrupt_action": tripped["action"],
        "corrupt_halt_stage": tripped["rolled_back_at_stage"],
        "corrupt_threshold_after": tripped["threshold_after"],
        "corrupt_margin_after": tripped["margin_after"],
        "corrupt_next_action": corrupt["iterations"][1]["action"],
    }

    # The clean loop converges below the hand-picked 0.2 without a single
    # rollback; the corrupt canary trips the first gate and backs off.
    assert metrics["clean_converged"]
    assert metrics["clean_rolled_back"] == 0
    assert metrics["clean_deployed"] >= 2
    assert metrics["clean_final_threshold"] < 0.5
    assert metrics["corrupt_action"] == "rolled_back"
    assert metrics["corrupt_halt_stage"] == "canary"
    # Backoff, not retry: the threshold held and the margin widened.
    assert metrics["corrupt_threshold_after"] == 0.5
    assert metrics["corrupt_margin_after"] > 1.5
    assert metrics["corrupt_next_action"] == "cooldown"

    if report is not None:
        rows = []
        for entry in clean["iterations"]:
            proposal = entry.get("proposal") or {}
            provenance = proposal.get("provenance") or {}
            rows.append([
                entry["iteration"], entry["action"],
                "v{}".format(proposal["version"]) if proposal else "-",
                ("{:g}".format(provenance["threshold"])
                 if provenance else "-"),
                entry["threshold_after"],
            ])
        lines = [format_table(
            ["iter", "action", "version", "proposed", "deployed threshold"],
            rows,
            title="clean loop ({} hosts, seed {})".format(HOSTS, SEED))]
        lines.append("corrupt canary: {} at {} ({})".format(
            tripped["action"], tripped["rolled_back_at_stage"],
            "; ".join(tripped["gate_reasons"])))
        lines.append("provenance of the last deployed proposal:")
        deployed = [r for r in clean_rows if r["verdict"] == "deployed"]
        lines.append(json.dumps(json.loads(deployed[-1]["provenance"]),
                                indent=2, sort_keys=True))
        report("autopilot_loop", "\n".join(lines))
    return metrics


def scenarios():
    return [("autopilot_loop", run_autopilot_loop)]
