"""``grctl`` — check, inspect, and format guardrail files.

A guardrail file holds one or more ``guardrail { ... }`` blocks (the DSL of
Listing 1).  Subcommands:

- ``check``   — parse, validate, compile, and verify every guardrail;
  exit 0 when all are loadable, 1 otherwise (CI gate for guardrail repos);
- ``inspect`` — print each guardrail's triggers, rules with verified cost,
  read set (the feature-store keys its rules LOAD), and actions;
- ``fmt``     — canonically reformat the file via the AST printer
  (``--check`` exits 1 without writing when the file is not canonical,
  the CI gate counterpart to ``--write``);
- ``trace``   — run a traced scenario (or replay a saved JSONL trace) and
  print a human summary: hottest hooks, per-guardrail check/violation/
  action counters, and the violation/action timeline.  ``--jsonl`` and
  ``--chrome`` export the event stream (the latter loads in Perfetto or
  ``chrome://tracing``);
- ``bench``   — run the ``benchmarks/bench_*.py`` scenario suite on a
  process pool, write machine-readable ``BENCH.json``, and optionally
  gate the numbers against a committed baseline (the CI perf gate; see
  ``docs/benchmarking.md``);
- ``faults``  — run a chaos scenario under a declarative fault plan
  (``--plan faults.json`` or repeatable ``--fault KIND@TARGET[:...]``
  flags) and print the containment story: injections, contained
  crashes, circuit-breaker timeline, REPLACE fallbacks.  Exit 0 when
  every fault was contained, 1 when one escaped (see ``docs/faults.md``);
- ``fleet``   — stage a guardrail rollout across a sharded multi-host
  fleet simulation with health gates and automatic rollback (see
  ``docs/fleet.md``).  Exit 0 when the rollout completes, 1 when a gate
  tripped and the fleet rolled back.  ``--out FILE`` saves the
  deterministic JSON report alongside either rendering;
- ``serve``   — run a rollout or steady-state soak as a *service*,
  streaming every round's host digests into an append-only sqlite
  results store with per-round checkpointing (``--resume`` continues an
  interrupted run from its last committed round; see
  ``docs/service.md``).  Exit codes mirror ``fleet``: 1 when the served
  rollout rolled back;
- ``query``   — typed queries over a results store (``status``,
  ``stages``, ``trend``, ``gates``, ``rollbacks``, ``runs``,
  ``report``, ``autopilot``), answerable mid-run; ``report``
  regenerates the exact ``fleet --json`` report from stored rows and
  ``autopilot`` answers "what did the autopilot change and why";
- ``autopilot`` — the §3.3 closed loop: mine fleet digest history for a
  tightened false-submit threshold, record the proposal (with
  machine-readable provenance) in the results store, and deploy it
  through the staged-rollout control plane (``propose`` records one
  proposal without deploying, ``apply`` runs one observe→propose→deploy
  iteration, ``loop`` iterates to convergence; see
  ``docs/autopilot.md``).  Exit 0 when every deployed proposal
  completed, 1 when a proposal tripped its health gates and was rolled
  back;
- ``dash``    — the fleet-health dashboard rendered from store queries
  alone: terminal sparklines by default, a self-contained static HTML
  page with ``--html``;
- ``eval``    — guardrail-quality evaluation over the labelled episode
  dataset (``eval/dataset.jsonl``): ``run`` executes episodes on a
  process pool and scores verdicts against labels (optionally gated on
  a committed baseline, the CI quality gate), ``calibrate`` sweeps
  :class:`GateConfig` thresholds over recorded rollout measurements and
  must reproduce the shipped defaults, ``diff`` compares a saved
  results document to a baseline, and ``--check-dataset`` is the
  dataset-integrity gate (see ``docs/eval.md``);
- ``scenarios`` — the cross-policy scenario zoo (see
  ``docs/scenarios.md``): ``list`` enumerates the registry, ``describe``
  prints one spec, ``run`` executes a selection on a process pool and
  compares every guardrail verdict against the registry's expectations.
  Exit 0 when reality matches the registry, 1 on any mismatch or
  scenario error.

Exit codes are uniform across subcommands: **0** success, **1** a check,
gate, or scenario failed (the thing the subcommand exists to detect),
**2** usage error (bad flags, unreadable input, unknown names).

Usage::

    python -m repro.tools.grctl check mygardrails.grd
    python -m repro.tools.grctl inspect --budget-ops 128 mygardrails.grd
    python -m repro.tools.grctl inspect --json mygardrails.grd
    python -m repro.tools.grctl fmt --write mygardrails.grd
    python -m repro.tools.grctl fmt --check mygardrails.grd
    python -m repro.tools.grctl trace --scenario quick --chrome trace.json
    python -m repro.tools.grctl trace --replay run.jsonl --top 5
    python -m repro.tools.grctl bench --jobs 4 --out BENCH.json
    python -m repro.tools.grctl bench --quick --baseline \
        benchmarks/BENCH_baseline.json --gate 0.15
    python -m repro.tools.grctl faults --list
    python -m repro.tools.grctl faults \
        --fault raise@storage.pick_device:start=3,stop=5 --seed 11
    python -m repro.tools.grctl fleet --hosts 16 --seed 42 --json
    python -m repro.tools.grctl fleet --hosts 16 --faults 2 --jobs 4
    python -m repro.tools.grctl serve --store fleet.sqlite --hosts 16
    python -m repro.tools.grctl serve --store fleet.sqlite --resume
    python -m repro.tools.grctl query report --store fleet.sqlite
    python -m repro.tools.grctl autopilot loop --store fleet.sqlite --quick
    python -m repro.tools.grctl autopilot apply --store fleet.sqlite \
        --corrupt-at 0 --json
    python -m repro.tools.grctl query autopilot --store fleet.sqlite
    python -m repro.tools.grctl dash --store fleet.sqlite --html dash.html
    python -m repro.tools.grctl eval run --quick --jobs 2 \
        --baseline EVAL_baseline.json --out EVAL.json
    python -m repro.tools.grctl eval calibrate --from EVAL_baseline.json
    python -m repro.tools.grctl eval diff EVAL.json \
        --baseline EVAL_baseline.json
    python -m repro.tools.grctl eval --check-dataset
    python -m repro.tools.grctl scenarios list
    python -m repro.tools.grctl scenarios describe feedback/coupled/timer
    python -m repro.tools.grctl scenarios run --quick --jobs 4 --json
    python -m repro.tools.grctl scenarios run --filter storage
"""

import argparse
import sys

from repro.core.compiler import GuardrailCompiler
from repro.core.dependency import rule_load_keys
from repro.core.errors import GuardrailError
from repro.core.spec import parse_guardrails
from repro.core.verifier import VerifierConfig


class UsageError(Exception):
    """Operator mistake (bad flag value, unreadable input): exit code 2."""


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="grctl", description="check/inspect/format guardrail files")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("check", "parse + validate + compile + verify; exit 1 on failure"),
        ("inspect", "print structure, costs, and read sets"),
        ("fmt", "canonically reformat"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("file", help="guardrail file (use '-' for stdin)")
        if name in ("check", "inspect"):
            cmd.add_argument("--budget-ops", type=int, default=None,
                             help="override the per-rule instruction budget")
        if name == "inspect":
            cmd.add_argument("--json", action="store_true", dest="json_out",
                             help="print the structure as JSON instead of "
                                  "the human table")
        if name == "fmt":
            cmd.add_argument("--write", action="store_true",
                             help="rewrite the file in place")
            cmd.add_argument("--check", action="store_true",
                             help="exit 1 if not canonically formatted; "
                                  "never writes")

    trace = sub.add_parser(
        "trace", help="run a traced scenario or replay a JSONL trace")
    trace.add_argument("--scenario", choices=("quick", "fig2"),
                       default="quick",
                       help="quick: synthetic demo run (default); "
                            "fig2: the Listing-2 LinnOS guardrail run "
                            "(trains the model first — slower)")
    trace.add_argument("--replay", metavar="FILE", default=None,
                       help="summarize a saved JSONL trace instead of "
                            "running a scenario")
    trace.add_argument("--duration", type=float, default=None,
                       help="scenario duration in simulated seconds")
    trace.add_argument("--jsonl", metavar="PATH", default=None,
                       help="export the event stream as JSONL")
    trace.add_argument("--chrome", metavar="PATH", default=None,
                       help="export Chrome trace_event JSON "
                            "(Perfetto / chrome://tracing)")
    trace.add_argument("--capacity", type=int, default=262144,
                       help="ring-buffer capacity in events")
    trace.add_argument("--seed", type=int, default=0,
                       help="sampling-phase seed")
    trace.add_argument("--categories", default=None,
                       help="comma-separated categories to enable "
                            "(default: all)")
    trace.add_argument("--sample", default=None, metavar="CAT=N[,CAT=N...]",
                       help="1-in-N sampling per category, e.g. "
                            "hook=16,featurestore.save=8")
    trace.add_argument("--top", type=int, default=10,
                       help="rows per top-N table")

    bench = sub.add_parser(
        "bench", help="run the benchmark suite sharded across processes")
    bench.add_argument("--quick", action="store_true",
                       help="smoke tier: skip the model-training scenarios")
    bench.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes (default 1)")
    bench.add_argument("--filter", default=None, metavar="SUBSTR",
                       help="only scenarios whose id or module contains "
                            "SUBSTR")
    bench.add_argument("--bench-dir", default="benchmarks",
                       help="directory holding bench_*.py "
                            "(default: benchmarks)")
    bench.add_argument("--out", default="BENCH.json", metavar="PATH",
                       help="merged results file (default: BENCH.json)")
    bench.add_argument("--report-dir", default=None, metavar="DIR",
                       help="where per-scenario text artifacts go "
                            "(default: <bench-dir>/out)")
    bench.add_argument("--timeout", type=float, default=300.0, metavar="S",
                       help="per-scenario timeout in seconds (default 300)")
    bench.add_argument("--baseline", default=None, metavar="BENCH.json",
                       help="gate results against this baseline file")
    bench.add_argument("--gate", type=float, default=None, metavar="TOL",
                       help="relative tolerance for the baseline gate "
                            "(default 0.0 = exact; needs --baseline)")
    bench.add_argument("--list", action="store_true", dest="list_only",
                       help="list discovered scenarios and exit")

    faults = sub.add_parser(
        "faults", help="run a chaos scenario under a declarative fault plan")
    faults.add_argument("--list", action="store_true", dest="list_only",
                        help="list fault kinds and the --fault grammar, "
                             "then exit")
    faults.add_argument("--scenario", choices=("demo", "fig2"),
                        default="demo",
                        help="demo: synthetic storage run with a supervised "
                             "stand-in policy (default); fig2: the guarded "
                             "LinnOS run with a supervised pick slot "
                             "(trains the model first — slower)")
    faults.add_argument("--plan", metavar="FILE", default=None,
                        help="JSON fault plan (see docs/faults.md)")
    faults.add_argument("--fault", action="append", default=[],
                        metavar="SPEC",
                        help="one fault as KIND@TARGET[:key=value,...]; "
                             "repeatable (mutually exclusive with --plan)")
    faults.add_argument("--seed", type=int, default=None,
                        help="fault-plan RNG seed (default: the plan "
                             "file's seed, else 0)")
    faults.add_argument("--duration", type=float, default=None,
                        help="scenario duration in simulated seconds")
    faults.add_argument("--threshold", type=int, default=3, metavar="K",
                        help="breaker trips after K consecutive crashes "
                             "(default 3)")
    faults.add_argument("--backoff", type=float, default=1.0, metavar="S",
                        help="base breaker re-arm backoff in virtual "
                             "seconds (default 1.0)")
    faults.add_argument("--json", metavar="PATH", default=None,
                        dest="json_out",
                        help="write the run's full accounting as JSON")

    fleet = sub.add_parser(
        "fleet", help="staged guardrail rollout across a simulated fleet")
    fleet.add_argument("--hosts", type=int, default=8, metavar="N",
                       help="fleet size (default 8)")
    fleet.add_argument("--stages", default="canary:1,25%,100%",
                       metavar="PLAN",
                       help="rollout stages as label:size, P%%, or host "
                            "counts (default canary:1,25%%,100%%)")
    fleet.add_argument("--seed", type=int, default=42,
                       help="fleet seed; every host derives its own "
                            "stream from it (default 42)")
    fleet.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes; the report is identical "
                            "for any value (default 1)")
    fleet.add_argument("--faults", type=int, default=0, metavar="N",
                       help="corrupt the false-submit signal on the "
                            "first N hosts from the baseline boundary on "
                            "(they land in the canary cohort)")
    fleet.add_argument("--quick", action="store_true",
                       help="smoke tier: fewer rounds, lighter workload")
    fleet.add_argument("--json", action="store_true", dest="json_out",
                       help="print the full rollout report as "
                            "deterministic JSON")
    fleet.add_argument("--out", metavar="FILE", default=None,
                       help="also write the deterministic JSON report "
                            "to FILE (unwritable path: exit 2, before "
                            "the run starts)")

    serve = sub.add_parser(
        "serve", help="run a fleet scenario into a sqlite results store")
    serve.add_argument("--store", required=True, metavar="PATH",
                       help="sqlite results store (created if absent)")
    serve.add_argument("--soak", action="store_true",
                       help="steady-state soak (no rollout): every host "
                            "bakes on v1 for --rounds rounds")
    serve.add_argument("--resume", action="store_true",
                       help="resume the latest interrupted run in the "
                            "store (or --run) from its last committed "
                            "round")
    serve.add_argument("--run", type=int, default=None, metavar="ID",
                       help="run id for --resume (default: latest)")
    serve.add_argument("--hosts", type=int, default=8, metavar="N",
                       help="fleet size (default 8)")
    serve.add_argument("--stages", default="canary:1,25%,100%",
                       metavar="PLAN",
                       help="rollout stages (default canary:1,25%%,100%%)")
    serve.add_argument("--seed", type=int, default=42,
                       help="fleet seed (default 42)")
    serve.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes (default 1)")
    serve.add_argument("--faults", type=int, default=0, metavar="N",
                       help="corrupt the false-submit signal on the "
                            "first N hosts (rollout mode)")
    serve.add_argument("--quick", action="store_true",
                       help="smoke tier: fewer rounds, lighter workload")
    serve.add_argument("--rounds", type=int, default=30, metavar="N",
                       help="soak length in lockstep rounds (default 30)")
    serve.add_argument("--rate", type=int, default=400, metavar="IOS",
                       help="soak per-host I/O arrival rate per round "
                            "(default 400)")
    serve.add_argument("--max-rounds", type=int, default=None, metavar="N",
                       help="commit at most N rounds then stop without "
                            "finalizing (the run stays resumable)")
    serve.add_argument("--retain-rounds", type=int, default=None,
                       metavar="N",
                       help="retention horizon: keep the most recent N "
                            "rounds raw, fold older rounds into time "
                            "buckets (default: keep everything raw)")
    serve.add_argument("--bucket-rounds", type=int, default=8, metavar="N",
                       help="downsampling bucket width in rounds "
                            "(default 8)")

    query = sub.add_parser(
        "query", help="typed queries over a results store")
    query.add_argument("name",
                       help="one of: status, stages, trend, gates, "
                            "rollbacks, runs, report, autopilot")
    query.add_argument("--store", required=True, metavar="PATH",
                       help="sqlite results store")
    query.add_argument("--run", type=int, default=None, metavar="ID",
                       help="run id (default: latest)")

    dash = sub.add_parser(
        "dash", help="fleet-health dashboard rendered from a results store")
    dash.add_argument("--store", required=True, metavar="PATH",
                      help="sqlite results store")
    dash.add_argument("--run", type=int, default=None, metavar="ID",
                      help="run id (default: latest)")
    dash.add_argument("--html", metavar="FILE", default=None,
                      help="write the static HTML page to FILE instead "
                           "of printing the terminal summary")

    ap = sub.add_parser(
        "autopilot",
        help="closed-loop guardrail tightening through the rollout gates")
    ap.add_argument("mode", choices=("propose", "apply", "loop"),
                    help="propose: observe and record one proposal "
                         "without deploying; apply: one observe->propose"
                         "->deploy iteration; loop: iterate to "
                         "convergence")
    ap.add_argument("--store", required=True, metavar="PATH",
                    help="sqlite results store (created if absent); "
                         "observe/deploy runs and proposals land here")
    ap.add_argument("--hosts", type=int, default=8, metavar="N",
                    help="fleet size (default 8)")
    ap.add_argument("--stages", default="canary:1,25%,100%", metavar="PLAN",
                    help="deploy stages (default canary:1,25%%,100%%)")
    ap.add_argument("--seed", type=int, default=42,
                    help="fleet seed; each iteration derives its own "
                         "streams from it (default 42)")
    ap.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="worker processes; the report is identical for "
                         "any value (default 1)")
    ap.add_argument("--iterations", type=int, default=3, metavar="N",
                    help="loop iteration cap (default 3; apply/propose "
                         "always run one)")
    ap.add_argument("--quick", action="store_true",
                    help="smoke tier: fewer rounds, lighter workload")
    ap.add_argument("--corrupt-at", type=int, default=None, metavar="I",
                    dest="corrupt_at",
                    help="inject the corrupt-telemetry fault into the "
                         "canary during iteration I's deploy bake (the "
                         "deliberately bad proposal the gates must "
                         "catch)")
    ap.add_argument("--quantile", type=float, default=None,
                    help="observed quantile the envelope tracks "
                         "(default 0.99)")
    ap.add_argument("--margin", type=float, default=None,
                    help="envelope margin over the quantile "
                         "(default 1.5; widened by backoff after a "
                         "rollback)")
    ap.add_argument("--no-synthesize", action="store_true",
                    dest="no_synthesize",
                    help="skip recording synthesized property-metric "
                         "proposals from the policy manifest")
    ap.add_argument("--json", action="store_true", dest="json_out",
                    help="print the full autopilot report as "
                         "deterministic JSON")
    ap.add_argument("--out", metavar="FILE", default=None,
                    help="also write the deterministic JSON report to "
                         "FILE (unwritable path: exit 2, before the "
                         "run starts)")

    ev = sub.add_parser(
        "eval", help="guardrail-quality eval over the labelled dataset")
    ev.add_argument("mode", nargs="?", choices=("run", "calibrate", "diff"),
                    help="run: execute episodes and score them; "
                         "calibrate: sweep gate thresholds over recorded "
                         "measurements; diff: compare a saved results "
                         "document to a baseline")
    ev.add_argument("document", nargs="?", metavar="EVAL.json",
                    help="for diff: the results document to compare")
    ev.add_argument("--check-dataset", action="store_true",
                    dest="check_dataset",
                    help="validate the dataset and its version doc, "
                         "print the summary, and exit (1 on any problem)")
    ev.add_argument("--dataset", metavar="PATH", default=None,
                    help="episode dataset "
                         "(default: the in-repo eval/dataset.jsonl)")
    ev.add_argument("--quick", action="store_true",
                    help="run only quick-tier episodes (the CI smoke set)")
    ev.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="worker processes; the document is identical "
                         "for any value (default 1)")
    ev.add_argument("--timeout", type=float, default=300.0, metavar="S",
                    help="per-episode timeout in seconds (default 300)")
    ev.add_argument("--id", action="append", default=[], dest="ids",
                    metavar="EPISODE",
                    help="run only this episode id; repeatable")
    ev.add_argument("--json", action="store_true", dest="json_out",
                    help="print the deterministic results document as JSON")
    ev.add_argument("--out", metavar="FILE", default=None,
                    help="also write the document to FILE")
    ev.add_argument("--baseline", metavar="FILE", default=None,
                    help="for run/diff: gate per-episode correctness "
                         "against this committed results document")
    ev.add_argument("--from", dest="from_doc", metavar="FILE", default=None,
                    help="for calibrate: recorded results document to "
                         "calibrate from (default: run the full tier now)")

    sc = sub.add_parser(
        "scenarios",
        help="the cross-policy scenario zoo: list, describe, run")
    sc.add_argument("mode", choices=("list", "run", "describe"),
                    help="list: enumerate registered scenarios; describe: "
                         "print one scenario's full spec; run: execute a "
                         "selection and compare verdicts to the registry")
    sc.add_argument("name", nargs="?", metavar="SCENARIO",
                    help="scenario name (required for describe; for run, "
                         "restricts the selection to that one scenario)")
    sc.add_argument("--filter", default=None, metavar="SUBSTR",
                    help="only scenarios whose name contains SUBSTR")
    sc.add_argument("--quick", action="store_true",
                    help="only quick-tier scenarios (drops the long "
                         "feedback pair; the CI smoke set)")
    sc.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="worker processes; the document is identical "
                         "for any value (default 1)")
    sc.add_argument("--timeout", type=float, default=300.0, metavar="S",
                    help="per-scenario timeout in seconds (default 300)")
    sc.add_argument("--json", action="store_true", dest="json_out",
                    help="print the deterministic results document as JSON")
    sc.add_argument("--out", metavar="FILE", default=None,
                    help="also write the full document (including timing "
                         "info) to FILE")
    return parser


def _read(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise UsageError("cannot read {!r}: {}".format(
            path, exc.strerror or exc))


def _compiler(args):
    config = VerifierConfig()
    budget = getattr(args, "budget_ops", None)
    if budget is not None:
        if budget < 1:
            raise UsageError("--budget-ops must be >= 1")
        config.max_rule_cost = budget
    return GuardrailCompiler(verifier_config=config)


def cmd_check(args, out):
    text = _read(args.file)
    try:
        specs = parse_guardrails(text)
    except GuardrailError as error:
        out.write("PARSE ERROR: {}\n".format(error))
        return 1
    if not specs:
        out.write("no guardrails found\n")
        return 1
    compiler = _compiler(args)
    failures = 0
    for spec in specs:
        try:
            compiled = compiler.compile(spec)
        except GuardrailError as error:
            out.write("FAIL  {}: {}\n".format(spec.name, error))
            failures += 1
            continue
        out.write("OK    {} ({} ops/check, ~{:.0f} ops/s)\n".format(
            spec.name, compiled.verification.total_cost,
            compiled.verification.estimated_ops_per_second))
    out.write("{} guardrail(s), {} failure(s)\n".format(len(specs), failures))
    return 1 if failures else 0


def _inspect_json(args, out, specs, compiler):
    """``inspect --json``: the same structure, machine-readable."""
    import json as _json

    guardrails = []
    for spec in specs:
        entry = {
            "name": spec.name,
            "triggers": [t.to_source() for t in spec.triggers],
            "reads": sorted(rule_load_keys(spec)),
            "actions": [a.to_source() for a in spec.actions],
        }
        try:
            compiled = compiler.compile(spec)
            costs = list(compiled.verification.rule_costs)
            entry["ops_per_check"] = compiled.verification.total_cost
        except GuardrailError as error:
            entry["verifier_error"] = str(error)
            costs = [None] * len(spec.rules)
        entry["rules"] = [
            {"source": rule.to_source(), "ops": cost}
            for rule, cost in zip(spec.rules, costs)
        ]
        guardrails.append(entry)
    _json.dump({"guardrails": guardrails}, out, indent=2, sort_keys=True)
    out.write("\n")
    return 0


def cmd_inspect(args, out):
    text = _read(args.file)
    try:
        specs = parse_guardrails(text)
    except GuardrailError as error:
        if args.json_out:
            import json as _json

            _json.dump({"error": str(error)}, out, indent=2, sort_keys=True)
            out.write("\n")
        else:
            out.write("PARSE ERROR: {}\n".format(error))
        return 1
    compiler = _compiler(args)
    if args.json_out:
        return _inspect_json(args, out, specs, compiler)
    for spec in specs:
        out.write("guardrail {}\n".format(spec.name))
        for trigger in spec.triggers:
            out.write("  trigger  {}\n".format(trigger.to_source()))
        try:
            compiled = compiler.compile(spec)
            costs = compiled.verification.rule_costs
        except GuardrailError as error:
            out.write("  VERIFIER: {}\n".format(error))
            costs = [None] * len(spec.rules)
        for rule, cost in zip(spec.rules, costs):
            suffix = "" if cost is None else "  [{} ops]".format(cost)
            out.write("  rule     {}{}\n".format(rule.to_source(), suffix))
        keys = sorted(rule_load_keys(spec))
        out.write("  reads    {}\n".format(", ".join(keys) if keys else "<none>"))
        for action in spec.actions:
            out.write("  action   {}\n".format(action.to_source()))
        out.write("\n")
    return 0


def cmd_fmt(args, out):
    if args.check and args.write:
        raise UsageError("--check and --write are mutually exclusive")
    text = _read(args.file)
    try:
        specs = parse_guardrails(text)
    except GuardrailError as error:
        out.write("PARSE ERROR: {}\n".format(error))
        return 1
    formatted = "\n".join(spec.to_source() for spec in specs) + "\n"
    if args.check:
        if text == formatted:
            return 0
        out.write("would reformat {}\n".format(args.file))
        return 1
    if args.write and args.file != "-":
        with open(args.file, "w") as handle:
            handle.write(formatted)
    else:
        out.write(formatted)
    return 0


def _parse_sample(spec):
    out = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        category, _, every = part.partition("=")
        try:
            out[category.strip()] = int(every)
        except ValueError:
            raise UsageError(
                "bad --sample entry {!r}; expected CAT=N".format(part))
    return out


def cmd_trace(args, out):
    # Scenario imports are deferred: `check`/`fmt` must stay fast and free
    # of kernel/policy (numpy) imports.
    from repro.trace import (
        read_jsonl,
        render_summary,
        save_chrome_trace,
        save_jsonl,
        summarize_events,
        summarize_tracer,
        tracing,
    )

    if args.duration is not None and args.duration <= 0:
        raise UsageError("--duration must be positive")
    if args.replay is not None:
        try:
            events = read_jsonl(args.replay)
        except OSError as exc:
            raise UsageError("cannot read trace {!r}: {}".format(
                args.replay, exc.strerror or exc))
        summary = summarize_events(events)
    else:
        from repro.trace import CATEGORIES

        categories = None
        if args.categories:
            categories = [c.strip() for c in args.categories.split(",") if c.strip()]
        sample = _parse_sample(args.sample) if args.sample else None
        for name in tuple(categories or ()) + tuple(sample or ()):
            if name not in CATEGORIES:
                raise UsageError(
                    "unknown trace category {!r}; known: {}".format(
                        name, ", ".join(CATEGORIES)))
        with tracing(capacity=args.capacity, seed=args.seed,
                     categories=categories, sample=sample) as tracer:
            if args.scenario == "fig2":
                from repro.bench.scenarios import (
                    run_figure2_scenario,
                    train_default_linnos_model,
                )

                out.write("training the LinnOS model (fig2 scenario)...\n")
                model = train_default_linnos_model(seed=1, train_seconds=12)
                run_figure2_scenario(
                    model, "guarded", seed=2,
                    duration_s=int(args.duration or 16))
            else:
                from repro.bench.scenarios import run_trace_demo_scenario

                run_trace_demo_scenario(duration_s=int(args.duration or 4))
        events = tracer.events()
        summary = summarize_tracer(tracer)
    if args.jsonl:
        count = save_jsonl(events, args.jsonl)
        out.write("wrote {} event(s) to {}\n".format(count, args.jsonl))
    if args.chrome:
        save_chrome_trace(events, args.chrome)
        out.write("wrote Chrome trace to {} "
                  "(open in Perfetto or chrome://tracing)\n".format(args.chrome))
    out.write(render_summary(summary, top=args.top))
    out.write("\n")
    return 0


def cmd_bench(args, out):
    # Deferred: keep `check`/`fmt` startup free of bench-module imports.
    import pathlib

    from repro.bench import results as bench_results
    from repro.bench import runner as bench_runner

    if args.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    if args.gate is not None and args.baseline is None:
        raise UsageError("--gate requires --baseline")
    if args.timeout <= 0:
        raise UsageError("--timeout must be positive")

    try:
        specs = bench_runner.select(
            bench_runner.discover(args.bench_dir),
            quick=args.quick, filter_expr=args.filter)
    except bench_runner.DiscoveryError as exc:
        raise UsageError(str(exc))
    if not specs:
        raise UsageError(
            "no scenarios match filter {!r}".format(args.filter))

    if args.list_only:
        for spec in sorted(specs, key=lambda s: s.id):
            out.write("{:<28} {:<26} tier={:<5} cost={:<4g} seed={}\n".format(
                spec.id, spec.module, "quick" if spec.quick else "full",
                spec.cost, spec.seed))
        out.write("{} scenario(s)\n".format(len(specs)))
        return 0

    baseline = None
    if args.baseline is not None:
        try:
            baseline = bench_results.load_document(args.baseline)
        except OSError as exc:
            raise UsageError("cannot read baseline {!r}: {}".format(
                args.baseline, exc.strerror or exc))
        except ValueError as exc:
            raise UsageError("bad baseline {!r}: {}".format(
                args.baseline, exc))

    report_dir = args.report_dir
    if report_dir is None:
        report_dir = str(pathlib.Path(args.bench_dir) / "out")

    import time as _time

    started = _time.time()
    scenario_results = bench_runner.run_scenarios(
        specs, jobs=args.jobs, timeout_s=args.timeout, out_dir=report_dir,
        progress=lambda message: out.write("  " + message + "\n"))
    document = bench_results.make_document(
        scenario_results, tier="quick" if args.quick else "full",
        jobs=args.jobs, filter_expr=args.filter,
        sha=bench_results.git_sha(), created_unix=started)
    bench_results.save_document(document, args.out)

    failed = [r for r in scenario_results if r["status"] != "ok"]
    out.write("{} scenario(s), {} failure(s), {:.1f}s wall, "
              "jobs={} -> {}\n".format(
                  len(scenario_results), len(failed),
                  _time.time() - started, args.jobs, args.out))
    for result in failed:
        tail = (result.get("error") or "").strip().splitlines()
        out.write("FAIL  {} [{}]: {}\n".format(
            result["id"], result["status"],
            tail[-1] if tail else "no detail"))

    exit_code = 1 if failed else 0
    if baseline is not None:
        tolerance = args.gate if args.gate is not None else 0.0
        # A deliberately restricted run only gates what it selected; an
        # unrestricted run also catches baseline scenarios that vanished.
        selected_ids = ({s.id for s in specs}
                        if (args.quick or args.filter) else None)
        regressions = bench_results.compare_to_baseline(
            document, baseline, tolerance, selected_ids=selected_ids)
        for regression in regressions:
            out.write(regression.render() + "\n")
        gated = [b for b in baseline["scenarios"]
                 if selected_ids is None or b["id"] in selected_ids]
        if regressions:
            out.write("gate: {} regression(s) beyond {:.0%} tolerance "
                      "vs {}\n".format(len(regressions), tolerance,
                                       args.baseline))
            exit_code = 1
        else:
            out.write("gate: ok ({} scenario(s) within {:.0%} of {})\n"
                      .format(len(gated), tolerance, args.baseline))
    return exit_code


def _faults_plan(args):
    """Build the FaultPlan (or None for a clean run) from the CLI flags."""
    from repro.core.errors import FaultError
    from repro.faults.plan import FaultPlan

    if args.plan and args.fault:
        raise UsageError("--plan and --fault are mutually exclusive")
    try:
        if args.plan:
            try:
                plan = FaultPlan.from_file(args.plan)
            except OSError as exc:
                raise UsageError("cannot read plan {!r}: {}".format(
                    args.plan, exc.strerror or exc))
            if args.seed is not None:
                plan.seed = args.seed
            return plan
        if args.fault:
            return FaultPlan.from_flags(args.fault, seed=args.seed or 0)
    except FaultError as error:
        raise UsageError(str(error))
    return None


def _render_faults_summary(out, stats):
    from repro.sim.units import SECOND

    plan = stats["plan"]
    if plan is None:
        out.write("plan: <none> (clean run)\n")
    else:
        out.write("plan: {} fault(s), seed={}\n".format(
            len(plan["faults"]), plan["seed"]))
    injected = stats["injected"]
    if injected is not None:
        kinds = "  ".join("{}={}".format(kind, count) for kind, count
                          in injected["by_kind"].items())
        out.write("injected: {} fault(s){}\n".format(
            injected["injected"], "  [" + kinds + "]" if kinds else ""))
    policy = stats["policy"]
    if policy is not None:
        breaker = policy["breaker"]
        out.write("policy {}: crashes={} garbage={} slow={} "
                  "fallback_calls={} replaces={}\n".format(
                      policy["slot"], policy["crashes"],
                      policy["invalid_outputs"], policy["slow_calls"],
                      policy["fallback_calls"], policy["replaces"]))
        out.write("  breaker: {} (trips={}, backoff={:.3f}s)\n".format(
            breaker["state"], breaker["trips"],
            breaker["backoff_ns"] / SECOND))
        for move in breaker["transitions"]:
            out.write("  t={:>8.3f}s  {} -> {}\n".format(
                move["time"] / SECOND, move["from"], move["to"]))
    monitors = stats["monitors"]
    out.write("monitor supervisor: rule_crashes={} action_crashes={} "
              "suppressed={}\n".format(
                  monitors["rule_crashes"], monitors["action_crashes"],
                  monitors["suppressed"]))
    for name, breaker in monitors["breakers"].items():
        out.write("  guardrail {}: {} (failures={}, trips={})\n".format(
            name, breaker["state"], breaker["failures"], breaker["trips"]))
        for move in breaker["transitions"]:
            out.write("    t={:>8.3f}s  {} -> {}\n".format(
                move["time"] / SECOND, move["from"], move["to"]))


def cmd_faults(args, out):
    # Deferred imports, same policy as trace/bench: `check`/`fmt` stay fast.
    from repro.faults.plan import FAULT_KINDS

    if args.list_only:
        out.write("fault kinds (--fault KIND@TARGET[:key=value,...]):\n")
        for kind in sorted(FAULT_KINDS):
            out.write("  {:<8} {}\n".format(kind, FAULT_KINDS[kind]))
        out.write("options: start=S stop=S (virtual seconds), "
                  "p=P (per-opportunity probability),\n"
                  "         count=N (max injections), "
                  "latency_us=U (stall latency)\n")
        out.write("example: --fault raise@storage.pick_device:start=3,stop=5"
                  " \\\n         --fault corrupt@false_submit_rate:start=6,"
                  "p=0.5 --seed 11\n")
        return 0

    import json as _json

    from repro.core.errors import GuardrailError
    from repro.faults.supervisor import BreakerConfig
    from repro.sim.units import SECOND

    if args.threshold < 1:
        raise UsageError("--threshold must be >= 1")
    if args.backoff <= 0:
        raise UsageError("--backoff must be positive")
    if args.duration is not None and args.duration <= 0:
        raise UsageError("--duration must be positive")
    plan = _faults_plan(args)
    config = BreakerConfig(crash_threshold=args.threshold,
                           base_backoff_ns=int(args.backoff * SECOND))
    try:
        if args.scenario == "fig2":
            from repro.bench.scenarios import (
                run_figure2_scenario,
                train_default_linnos_model,
            )

            out.write("training the LinnOS model (fig2 scenario)...\n")
            model = train_default_linnos_model(seed=1, train_seconds=12)
            result = run_figure2_scenario(
                model, "guarded", seed=2,
                duration_s=int(args.duration or 16),
                fault_plan=plan, supervise=True, breaker_config=config)
            kernel = result.kernel
            injector, supervisor = result.injector, result.policy_supervisor
        else:
            from repro.bench.scenarios import run_faults_demo_scenario

            result = run_faults_demo_scenario(
                duration_s=int(args.duration or 12),
                fault_plan=plan, breaker_config=config)
            kernel = result.kernel
            injector, supervisor = result.injector, result.policy_supervisor
    except GuardrailError as error:
        # Misconfigured plan (unknown slot name and friends) surfaces at
        # install time as a typed error: operator mistake, exit 2.
        raise UsageError(str(error))
    except Exception as error:
        # The thing `faults` exists to detect: a fault that escaped
        # containment and took the run down.
        out.write("ESCAPED: {}: {}\n".format(type(error).__name__, error))
        return 1

    stats = {
        "scenario": args.scenario,
        "duration_s": args.duration or (16 if args.scenario == "fig2" else 12),
        "plan": plan.to_dict() if plan is not None else None,
        "injected": injector.stats() if injector is not None else None,
        "policy": supervisor.stats() if supervisor is not None else None,
        "monitors": kernel.supervisor.stats(),
    }
    _render_faults_summary(out, stats)
    if args.json_out:
        with open(args.json_out, "w") as handle:
            _json.dump(stats, handle, indent=2, sort_keys=True)
            handle.write("\n")
        out.write("wrote accounting to {}\n".format(args.json_out))
    out.write("contained: every injected fault was absorbed; "
              "the run completed\n")
    return 0


def _render_fleet_summary(out, report):
    scenario = report["scenario"]
    out.write("fleet: {} host(s), seed {}, stages {}{}{}\n".format(
        report["hosts"], scenario["seed"], scenario["stages"],
        ", {} faulted".format(scenario["fault_hosts"])
        if scenario["fault_hosts"] else "",
        " [quick]" if scenario["quick"] else ""))
    baseline = report["baseline"]
    out.write("baseline: {} round(s), violation_rate={:.3f}/host-s, "
              "p95={}\n".format(
                  report["plan"]["baseline_rounds"],
                  baseline["violation_rate"],
                  "{:.0f}us".format(baseline["latency_p95_us"])
                  if baseline["latency_p95_us"] is not None else "n/a"))
    for stage_report in report["stages"]:
        stage = stage_report["stage"]
        gate = stage_report["gate"]
        out.write("stage {:<10} -> {:>3} host(s): {}\n".format(
            stage["label"], stage["target_hosts"],
            "PASS" if gate["passed"] else
            "TRIP  [" + "; ".join(gate["reasons"]) + "]"))
        if "rollback" in stage_report:
            out.write("  rollback: {} host(s) returned to v{}\n".format(
                stage_report["rollback"]["hosts"],
                report["versions"]["old"]["version"]))
    for entry in report["timeline"]:
        detail = {k: v for k, v in entry.items()
                  if k not in ("round", "time_s", "event")}
        out.write("  t={:>5.1f}s  {:<18}{}\n".format(
            entry["time_s"], entry["event"],
            "  " + ", ".join("{}={}".format(k, detail[k])
                             for k in sorted(detail)) if detail else ""))
    if report["status"] == "completed":
        out.write("completed: v{} on all {} host(s) after {} round(s)\n"
                  .format(report["versions"]["new"]["version"],
                          report["hosts"], report["rounds"]))
    else:
        out.write("ROLLED BACK at stage {!r}: fleet restored to v{}\n"
                  .format(report["rolled_back_at_stage"],
                          report["versions"]["old"]["version"]))


def cmd_fleet(args, out):
    # Deferred imports, same policy as trace/bench: `check`/`fmt` stay fast.
    import json as _json

    if args.hosts < 1:
        raise UsageError("--hosts must be >= 1")
    if args.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    if args.faults < 0 or args.faults > args.hosts:
        raise UsageError("--faults must be between 0 and --hosts")

    from repro.fleet.rollout import parse_stages
    from repro.fleet.scenario import run_fleet_rollout

    try:
        parse_stages(args.stages, args.hosts)
    except ValueError as error:
        raise UsageError(str(error))

    # Fail on an unwritable --out path *before* the run, not after it.
    out_handle = None
    if args.out is not None:
        try:
            out_handle = open(args.out, "w")
        except OSError as exc:
            raise UsageError("cannot write {!r}: {}".format(
                args.out, exc.strerror or exc))

    try:
        report = run_fleet_rollout(
            hosts=args.hosts, stages=args.stages, seed=args.seed,
            jobs=args.jobs, fault_hosts=args.faults, quick=args.quick)
        if out_handle is not None:
            _json.dump(report, out_handle, indent=2, sort_keys=True)
            out_handle.write("\n")
    finally:
        if out_handle is not None:
            out_handle.close()
    if args.json_out:
        _json.dump(report, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        _render_fleet_summary(out, report)
        if args.out is not None:
            out.write("wrote report to {}\n".format(args.out))
    return 0 if report["status"] == "completed" else 1


def _open_store(args, retention=None):
    from repro.service.store import ResultsStore, StoreError

    try:
        return ResultsStore(args.store, retention=retention)
    except StoreError as error:
        raise UsageError(str(error))


def cmd_serve(args, out):
    # Deferred imports, same policy as trace/bench: `check`/`fmt` stay fast.
    from repro.fleet.rollout import parse_stages
    from repro.service.loop import (
        ServiceError,
        resume,
        serve_rollout,
        serve_soak,
        summary_json,
    )
    from repro.service.store import RetentionPolicy

    if args.hosts < 1:
        raise UsageError("--hosts must be >= 1")
    if args.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    if args.faults < 0 or args.faults > args.hosts:
        raise UsageError("--faults must be between 0 and --hosts")
    if args.rounds < 1:
        raise UsageError("--rounds must be >= 1")
    if args.rate < 1:
        raise UsageError("--rate must be >= 1")
    if args.max_rounds is not None and args.max_rounds < 1:
        raise UsageError("--max-rounds must be >= 1")
    if args.run is not None and not args.resume:
        raise UsageError("--run only makes sense with --resume")
    try:
        retention = RetentionPolicy(raw_rounds=args.retain_rounds,
                                    bucket_rounds=args.bucket_rounds)
    except ValueError as error:
        raise UsageError(str(error))
    if not args.resume and not args.soak:
        try:
            parse_stages(args.stages, args.hosts)
        except ValueError as error:
            raise UsageError(str(error))

    with _open_store(args, retention=retention) as store:
        try:
            if args.resume:
                summary = resume(store, run_id=args.run, jobs=args.jobs,
                                 max_rounds=args.max_rounds)
            elif args.soak:
                summary = serve_soak(
                    store, hosts=args.hosts, seed=args.seed,
                    rate_ios=args.rate, rounds=args.rounds, jobs=args.jobs,
                    max_rounds=args.max_rounds)
            else:
                summary = serve_rollout(
                    store, hosts=args.hosts, stages=args.stages,
                    seed=args.seed, fault_hosts=args.faults,
                    quick=args.quick, jobs=args.jobs,
                    max_rounds=args.max_rounds)
        except ServiceError as error:
            raise UsageError(str(error))
    out.write(summary_json(summary))
    out.write("\n")
    # Same contract as `fleet`: a gate trip the service detected is 1.
    return 1 if summary["status"] == "rolled_back" else 0


def cmd_query(args, out):
    import json as _json

    from repro.service.query import QUERIES
    from repro.service.store import StoreError

    if args.name not in QUERIES:
        raise UsageError("unknown query {!r}; known: {}".format(
            args.name, ", ".join(sorted(QUERIES))))
    with _open_store(args) as store:
        try:
            result = QUERIES[args.name](store, args.run)
        except StoreError as error:
            raise UsageError(str(error))
    _json.dump(result, out, indent=2, sort_keys=True)
    out.write("\n")
    return 0


def cmd_dash(args, out):
    from repro.service.dashboard import render_html, render_terminal
    from repro.service.store import StoreError

    with _open_store(args) as store:
        try:
            if args.html is not None:
                page = render_html(store, args.run)
            else:
                text = render_terminal(store, args.run)
        except StoreError as error:
            raise UsageError(str(error))
    if args.html is not None:
        try:
            with open(args.html, "w") as handle:
                handle.write(page)
        except OSError as exc:
            raise UsageError("cannot write {!r}: {}".format(
                args.html, exc.strerror or exc))
        out.write("wrote dashboard to {}\n".format(args.html))
    else:
        out.write(text)
    return 0


def _render_autopilot_summary(out, result):
    final = result["final"]
    out.write("autopilot: {} from threshold {:g}\n".format(
        result["guardrail"], result["initial"]["threshold"]))
    for proposal in result["synthesis"]:
        out.write("  synthesized {} ({}) recorded as proposal {}\n".format(
            proposal["guardrail"], proposal["provenance"]["property"],
            proposal["proposal_id"]))
    for entry in result["iterations"]:
        line = "  iter {}: {}".format(entry["iteration"], entry["action"])
        proposal = entry.get("proposal")
        if proposal is not None:
            line += " v{} threshold {:g}".format(
                proposal["version"], proposal["provenance"]["threshold"])
        if entry["action"] == "rolled_back":
            line += " at {} ({})".format(
                entry["rolled_back_at_stage"],
                "; ".join(entry["gate_reasons"]) or "no reasons recorded")
        out.write(line + "\n")
    out.write("final: threshold {:g} v{} ({} deployed, {} rolled back{})\n"
              .format(final["threshold"], final["version"],
                      final["deployed"], final["rolled_back"],
                      ", converged" if final["converged"] else ""))


def cmd_autopilot(args, out):
    # Deferred imports, same policy as trace/bench: `check`/`fmt` stay fast.
    import json as _json

    if args.hosts < 1:
        raise UsageError("--hosts must be >= 1")
    if args.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    if args.iterations < 1:
        raise UsageError("--iterations must be >= 1")
    if args.corrupt_at is not None and args.corrupt_at < 0:
        raise UsageError("--corrupt-at must be >= 0")
    if args.quantile is not None and not 0.0 <= args.quantile <= 1.0:
        raise UsageError("--quantile must be in [0, 1]")
    if args.margin is not None and args.margin <= 0:
        raise UsageError("--margin must be > 0")

    from repro.autopilot.loop import AutopilotError, run_autopilot
    from repro.autopilot.propose import TIGHTEN_MARGIN, TIGHTEN_QUANTILE
    from repro.fleet.rollout import parse_stages

    try:
        parse_stages(args.stages, args.hosts)
    except ValueError as error:
        raise UsageError(str(error))

    # Fail on an unwritable --out path *before* the run, not after it.
    out_handle = None
    if args.out is not None:
        try:
            out_handle = open(args.out, "w")
        except OSError as exc:
            raise UsageError("cannot write {!r}: {}".format(
                args.out, exc.strerror or exc))

    iterations = 1 if args.mode in ("propose", "apply") else args.iterations
    try:
        with _open_store(args) as store:
            try:
                result = run_autopilot(
                    store, hosts=args.hosts, stages=args.stages,
                    seed=args.seed, jobs=args.jobs, iterations=iterations,
                    quick=args.quick, corrupt_at=args.corrupt_at,
                    quantile=(TIGHTEN_QUANTILE if args.quantile is None
                              else args.quantile),
                    margin=(TIGHTEN_MARGIN if args.margin is None
                            else args.margin),
                    deploy=args.mode != "propose",
                    synthesize=not args.no_synthesize)
            except AutopilotError as error:
                raise UsageError(str(error))
        if out_handle is not None:
            _json.dump(result, out_handle, indent=2, sort_keys=True)
            out_handle.write("\n")
    finally:
        if out_handle is not None:
            out_handle.close()
    if args.json_out:
        _json.dump(result, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        _render_autopilot_summary(out, result)
        if args.out is not None:
            out.write("wrote report to {}\n".format(args.out))
    # Same contract as `fleet`: a gate trip the autopilot provoked is 1.
    return 1 if result["final"]["rolled_back"] else 0


def _render_eval_scores(out, document):
    scores = document["scores"]
    lo, hi = scores["accuracy_ci"]
    out.write("accuracy {}/{} ({:.1%}, CI {:.1%}-{:.1%})\n".format(
        scores["correct"], scores["n"], scores["accuracy"], lo, hi))
    trip = scores["trip_detection"]
    out.write("trip detection: precision {:.3f}  recall {:.3f}  f1 {:.3f}  "
              "false trips {}/{}\n".format(
                  trip["precision"], trip["recall"], trip["f1"],
                  trip["fp"], trip["fp"] + trip["tn"]))
    for axis, cell in sorted(scores["fleet_axis_false_trips"].items()):
        lo, hi = cell["ci"]
        out.write("  gate axis {:<12} false-trip rate {}/{} "
                  "(CI {:.1%}-{:.1%})\n".format(
                      axis, cell["false_trips"], cell["clean_episodes"],
                      lo, hi))
    for result in document["episodes"]:
        if not result["correct"]:
            out.write("WRONG  {}: expected {}, got {}{}\n".format(
                result["id"], result["expected"], result["verdict"],
                "  [" + result["error"].strip().splitlines()[-1] + "]"
                if result.get("error") else ""))


def _render_eval_diff(out, diff):
    for entry in diff["regressions"]:
        out.write("REGRESSION  {}: expected {}, got {} "
                  "(baseline: {})\n".format(
                      entry["id"], entry["expected"], entry["verdict"],
                      entry["baseline_verdict"] or "absent"))
    for entry in diff["improvements"]:
        out.write("improved    {}: now {} (baseline: {})\n".format(
            entry["id"], entry["verdict"], entry["baseline_verdict"]))
    for entry in diff["known_failures"]:
        out.write("known fail  {}: expected {}, got {}\n".format(
            entry["id"], entry["expected"], entry["verdict"]))
    if diff["dataset_version_changed"]:
        out.write("note: dataset version changed "
                  "(baseline {})\n".format(
                      diff["baseline"]["dataset_version"]))
    out.write("baseline gate: {} ({} episode(s) compared, "
              "{} regression(s))\n".format(
                  "ok" if diff["passed"] else "FAIL",
                  diff["compared"], len(diff["regressions"])))


def _render_calibration(out, calibration):
    for axis, band in sorted(calibration["axes"].items()):
        band_text = ("band ({:.4g}, {:.4g})".format(
            band["clean_max"], band["fault_min"])
            if band["clean_max"] is not None and band["fault_min"] is not None
            else "band <incomplete data>")
        out.write("axis {:<12} {}  current {:g} -> {:g}\n"
                  "  {}\n".format(axis, band_text, band["current"],
                                  band["recommended"], band["how"]))
    verification = calibration["verification"]
    out.write("verification: {} (clean trips {}, missed faults {}) over "
              "{} fleet episode(s)\n".format(
                  "ok" if verification["passed"] else "FAIL",
                  verification["clean_trips"], verification["missed_faults"],
                  calibration["fleet_episodes"]))
    out.write("recommended config {} the current one\n".format(
        "differs from" if calibration["changed"] else "matches"))


def _eval_document(args):
    """Run the eval (progress to stderr, never into the document)."""
    from repro.eval.dataset import DatasetError
    from repro.eval.runner import run_eval

    try:
        return run_eval(
            dataset_path=args.dataset,
            tier="quick" if args.quick else "full",
            jobs=args.jobs, ids=args.ids or None, timeout_s=args.timeout,
            progress=lambda message: sys.stderr.write(
                "  " + message + "\n"))
    except (DatasetError, ValueError) as error:
        raise UsageError(str(error))


def cmd_eval(args, out):
    # Deferred imports, same policy as trace/bench: `check`/`fmt` stay fast.
    from repro.eval.calibrate import calibrate
    from repro.eval.dataset import DatasetError, check_dataset
    from repro.eval.results import (
        compare_to_baseline,
        dumps_document,
        load_document,
    )

    if args.check_dataset:
        try:
            summary = check_dataset(args.dataset)
        except DatasetError as error:
            out.write("dataset: FAIL: {}\n".format(error))
            return 1
        out.write("dataset: ok — version {} ({} episode(s): "
                  "{} host / {} fleet / {} scenario, "
                  "{} quick-tier)\n".format(
                      summary["dataset_version"], summary["episodes"],
                      summary["by_kind"]["host"], summary["by_kind"]["fleet"],
                      summary["by_kind"]["scenario"],
                      summary["by_tier"]["quick"]))
        return 0
    if args.mode is None:
        raise UsageError("expected a mode (run, calibrate, diff) "
                         "or --check-dataset")
    if args.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    if args.timeout <= 0:
        raise UsageError("--timeout must be positive")
    if args.document is not None and args.mode != "diff":
        raise UsageError("a document argument only makes sense with diff")

    def load(path, what):
        try:
            return load_document(path)
        except OSError as exc:
            raise UsageError("cannot read {} {!r}: {}".format(
                what, path, exc.strerror or exc))
        except ValueError as exc:
            raise UsageError(str(exc))

    baseline = (load(args.baseline, "baseline")
                if args.baseline is not None else None)

    if args.mode == "diff":
        if args.document is None:
            raise UsageError("diff needs a results document argument")
        if baseline is None:
            raise UsageError("diff needs --baseline")
        diff = compare_to_baseline(load(args.document, "document"), baseline)
        if args.json_out:
            out.write(dumps_document(diff))
        else:
            _render_eval_diff(out, diff)
        return 0 if diff["passed"] else 1

    if args.mode == "calibrate":
        document = (load(args.from_doc, "document")
                    if args.from_doc is not None else _eval_document(args))
        try:
            calibration = calibrate(document)
        except ValueError as error:
            raise UsageError(str(error))
        if args.out is not None:
            with open(args.out, "w") as handle:
                handle.write(dumps_document(calibration))
        if args.json_out:
            out.write(dumps_document(calibration))
        else:
            _render_calibration(out, calibration)
        # The thing calibrate gates on: the shipped defaults must be
        # exactly what the data reproduces, and must separate every
        # labelled episode.
        passed = calibration["verification"]["passed"] and \
            not calibration["changed"]
        return 0 if passed else 1

    document = _eval_document(args)
    if args.out is not None:
        with open(args.out, "w") as handle:
            handle.write(dumps_document(document))
    diff = (compare_to_baseline(document, baseline)
            if baseline is not None else None)
    if args.json_out:
        out.write(dumps_document(document))
    else:
        out.write("eval: {} episode(s), tier {}, dataset v{}\n".format(
            len(document["episodes"]), document["tier"],
            document["dataset"]["dataset_version"]))
        _render_eval_scores(out, document)
        if args.out is not None:
            out.write("wrote document to {}\n".format(args.out))
    if diff is not None:
        if not args.json_out:
            _render_eval_diff(out, diff)
        return 0 if diff["passed"] else 1
    incorrect = sum(1 for result in document["episodes"]
                    if not result["correct"])
    return 1 if incorrect else 0


def _select_scenarios(args):
    """Resolve the run/list selection; UsageError on unknown/empty."""
    from repro.scenarios import get_scenario, select_scenarios

    if args.name is not None:
        try:
            selection = [get_scenario(args.name)]
        except KeyError:
            raise UsageError("unknown scenario {!r}; see "
                             "'grctl scenarios list'".format(args.name))
        if args.filter and args.filter not in args.name:
            selection = []
        if args.quick:
            selection = [spec for spec in selection if spec.quick]
    else:
        selection = select_scenarios(filter_substring=args.filter,
                                     quick=args.quick)
    if not selection:
        raise UsageError("selection matches no scenarios")
    return selection


def cmd_scenarios(args, out):
    # Deferred imports, same policy as trace/bench: `check`/`fmt` stay fast.
    import json as _json

    if args.mode == "describe":
        if args.name is None:
            raise UsageError("describe needs a scenario name")
        from repro.scenarios import get_scenario

        try:
            spec = get_scenario(args.name)
        except KeyError:
            raise UsageError("unknown scenario {!r}; see "
                             "'grctl scenarios list'".format(args.name))
        if args.json_out:
            _json.dump(spec.to_dict(), out, indent=2, sort_keys=True)
            out.write("\n")
        else:
            out.write("{}\n".format(spec.name))
            out.write("  kind:      {}\n".format(spec.kind))
            out.write("  domains:   {}\n".format(", ".join(
                "{}({})".format(domain, workload) for domain, workload
                in zip(spec.domains, spec.workloads))))
            out.write("  policies:  {}\n".format(", ".join(spec.policies)))
            out.write("  fault:     {}\n".format(spec.fault))
            out.write("  seed:      {}\n".format(spec.seed))
            out.write("  duration:  {:g}s\n".format(spec.duration_s))
            out.write("  tier:      {}\n".format(
                "quick" if spec.quick else "full"))
            out.write("  expected:  {}\n".format(", ".join(
                "{}={}".format(key, value) for key, value
                in sorted(spec.expected.items()))))
            out.write("  {}\n".format(spec.description))
        return 0

    selection = _select_scenarios(args)

    if args.mode == "list":
        if args.json_out:
            _json.dump([spec.to_dict() for spec in selection], out,
                       indent=2, sort_keys=True)
            out.write("\n")
        else:
            width = max(len(spec.name) for spec in selection)
            for spec in selection:
                out.write("{:<{width}}  {:<8}  {:<5}  {}\n".format(
                    spec.name, spec.kind,
                    "quick" if spec.quick else "full",
                    spec.expected_overall(), width=width))
            out.write("{} scenario(s)\n".format(len(selection)))
        return 0

    # mode == "run"
    if args.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    from repro.scenarios import deterministic_document, run_scenarios

    # Fail on an unwritable --out path *before* the run, not after it.
    out_handle = None
    if args.out is not None:
        try:
            out_handle = open(args.out, "w")
        except OSError as exc:
            raise UsageError("cannot write {!r}: {}".format(
                args.out, exc.strerror or exc))
    try:
        document = run_scenarios(selection, jobs=args.jobs,
                                 timeout_s=args.timeout)
        if out_handle is not None:
            _json.dump(document, out_handle, indent=2, sort_keys=True)
            out_handle.write("\n")
    finally:
        if out_handle is not None:
            out_handle.close()

    passed = (document["matched"] == document["count"]
              and not document["errors"])
    if args.json_out:
        _json.dump(deterministic_document(document), out, indent=2,
                   sort_keys=True)
        out.write("\n")
        return 0 if passed else 1
    for result in document["scenarios"]:
        if result["matched"]:
            out.write("ok       {}  ({})\n".format(
                result["name"], result["overall"]))
        else:
            out.write("MISMATCH {}  expected {} got {}\n".format(
                result["name"], result["expected"], result["verdicts"]))
    for error in document["errors"]:
        out.write("ERROR    {}  {}\n".format(error["name"], error["error"]))
    out.write("scenarios: {} run, {} matched, {} mismatched, "
              "{} error(s)\n".format(
                  document["count"], document["matched"],
                  len(document["mismatched"]), len(document["errors"])))
    if args.out is not None:
        out.write("wrote document to {}\n".format(args.out))
    return 0 if passed else 1


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    handler = {"check": cmd_check, "inspect": cmd_inspect, "fmt": cmd_fmt,
               "trace": cmd_trace, "bench": cmd_bench, "faults": cmd_faults,
               "fleet": cmd_fleet, "serve": cmd_serve, "query": cmd_query,
               "dash": cmd_dash, "autopilot": cmd_autopilot,
               "eval": cmd_eval, "scenarios": cmd_scenarios}
    try:
        return handler[args.command](args, out)
    except UsageError as error:
        sys.stderr.write("grctl {}: error: {}\n".format(args.command, error))
        return 2


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like other
        # well-behaved CLI tools.  Swap stdout for devnull so the
        # interpreter's exit-time flush does not raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
