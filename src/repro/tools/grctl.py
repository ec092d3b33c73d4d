"""``grctl`` — check, inspect, and format guardrail files.

A guardrail file holds one or more ``guardrail { ... }`` blocks (the DSL of
Listing 1).  Subcommands:

- ``check``   — parse, validate, compile and verify every guardrail (the
  CI gate for guardrail repos);
- ``inspect`` — each guardrail's triggers, rules with verified cost, read
  set (the feature-store keys its rules LOAD) and actions;
- ``fmt``     — canonically reformat via the AST printer (``--check`` is
  the CI gate counterpart to ``--write``);
- ``trace``   — run a traced scenario (or replay a saved JSONL trace) and
  summarize it; ``--jsonl``/``--chrome`` export the event stream;
- ``bench``   — the ``benchmarks/bench_*.py`` suite on a process pool into
  ``BENCH.json``, optionally gated on a baseline (``docs/benchmarking.md``);
- ``faults``  — a chaos scenario under a declarative fault plan and its
  containment story; 1 when a fault escaped (``docs/faults.md``);
- ``fleet``   — a staged guardrail rollout across a simulated fleet with
  health gates; 1 when a gate tripped and it rolled back (``docs/fleet.md``);
- ``serve``   — a rollout or soak streamed into a sqlite results store with
  per-round checkpoints and ``--resume`` (``docs/service.md``);
- ``query``   — typed queries over a results store; ``report`` regenerates
  the exact ``fleet --json`` report, ``autopilot`` says what changed and why;
- ``autopilot`` — the §3.3 closed loop: mine digest history for a tighter
  threshold, record the proposal and deploy it through the rollout gates;
  1 when a proposal was rolled back (``docs/autopilot.md``);
- ``dash``    — the fleet-health dashboard from store queries alone
  (terminal, or static HTML with ``--html``);
- ``eval``    — guardrail-quality evaluation over the labelled episode
  dataset: ``run``, ``calibrate``, ``diff`` and ``--check-dataset``
  (``docs/eval.md``);
- ``scenarios`` — the cross-policy scenario zoo: ``list``, ``describe``,
  ``run``; 1 on any verdict mismatch or error (``docs/scenarios.md``).

Exit codes are uniform across subcommands: **0** success, **1** a check,
gate, or scenario failed (the thing the subcommand exists to detect),
**2** usage error (bad flags, unreadable input, unknown names).  Every
file-writing flag (``--out``, ``faults --json``, ``trace --jsonl`` /
``--chrome``, ``dash --html``, ``fmt --write``) is opened before the run
starts, so an unwritable output path exits 2 and never throws away a
finished run.

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
import contextlib
import json
import sys

from repro.core.compiler import GuardrailCompiler
from repro.core.dependency import rule_load_keys
from repro.core.errors import GuardrailError
from repro.core.spec import parse_guardrails
from repro.core.verifier import VerifierConfig


class UsageError(Exception):
    """Operator mistake (bad flag value, unreadable input): exit code 2."""


def _shared(*names, **overrides):
    """A fresh argparse parent holding the named shared options.

    Every option more than one subcommand takes is defined here once;
    ``overrides[name]`` replaces keyword arguments (a default, a help
    line) for one subcommand.  Fresh per call, because argparse shares
    action objects between a parent and its children.
    """
    parent = argparse.ArgumentParser(add_help=False)

    def opt(name, **kwargs):
        kwargs.update(overrides.get(name, {}))
        return kwargs

    if "jobs" in names:
        parent.add_argument("--jobs", **opt(
            "jobs", type=int, default=1, metavar="N",
            help="worker processes; the output is identical for any "
                 "value (default 1)"))
    if "json" in names:
        parent.add_argument("--json", **opt(
            "json", action="store_true", dest="json_out",
            help="print the deterministic JSON document instead of the "
                 "human rendering"))
    if "out" in names:
        parent.add_argument("--out", **opt(
            "out", metavar="FILE", default=None,
            help="also write the JSON document to FILE"))
    if "quick" in names:
        parent.add_argument("--quick", **opt(
            "quick", action="store_true",
            help="smoke tier: the quick subset CI runs"))
    if "seed" in names:
        parent.add_argument("--seed", **opt(
            "seed", type=int, default=42,
            help="fleet seed; every host derives its own stream from it "
                 "(default 42)"))
    if "hosts" in names:
        parent.add_argument("--hosts", **opt(
            "hosts", type=int, default=8, metavar="N",
            help="fleet size (default 8)"))
    if "stages" in names:
        parent.add_argument("--stages", **opt(
            "stages", default="canary:1,25%,100%", metavar="PLAN",
            help="rollout stages as label:size, P%%, or host counts "
                 "(default canary:1,25%%,100%%)"))
    if "store" in names:
        parent.add_argument("--store", **opt(
            "store", required=True, metavar="PATH",
            help="sqlite results store"))
    if "run" in names:
        parent.add_argument("--run", **opt(
            "run", type=int, default=None, metavar="ID",
            help="run id (default: latest)"))
    if "timeout" in names:
        parent.add_argument("--timeout", **opt(
            "timeout", type=float, default=300.0, metavar="S",
            help="per-task timeout in seconds (default 300)"))
    return parent


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="grctl", description="check/inspect/format guardrail files")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("check", "parse + validate + compile + verify; exit 1 on failure"),
        ("inspect", "print structure, costs, and read sets"),
        ("fmt", "canonically reformat"),
    ):
        cmd = sub.add_parser(
            name, help=help_text,
            parents=[_shared("json")] if name == "inspect" else [])
        cmd.add_argument("file", help="guardrail file (use '-' for stdin)")
        if name in ("check", "inspect"):
            cmd.add_argument("--budget-ops", type=int, default=None,
                             help="override the per-rule instruction budget")
        if name == "fmt":
            cmd.add_argument("--write", action="store_true",
                             help="rewrite the file in place")
            cmd.add_argument("--check", action="store_true",
                             help="exit 1 if not canonically formatted; "
                                  "never writes")

    trace = sub.add_parser(
        "trace", help="run a traced scenario or replay a JSONL trace",
        parents=[_shared("seed", seed={"default": 0,
                                       "help": "sampling-phase seed"})])
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
    trace.add_argument("--categories", default=None,
                       help="comma-separated categories to enable "
                            "(default: all)")
    trace.add_argument("--sample", default=None, metavar="CAT=N[,CAT=N...]",
                       help="1-in-N sampling per category, e.g. "
                            "hook=16,featurestore.save=8")
    trace.add_argument("--top", type=int, default=10,
                       help="rows per top-N table")

    bench = sub.add_parser(
        "bench", help="run the benchmark suite sharded across processes",
        parents=[_shared("quick", "jobs", "out", "timeout", out={
            "default": "BENCH.json",
            "help": "merged results file (default: BENCH.json)"})])
    bench.add_argument("--filter", default=None, metavar="SUBSTR",
                       help="only scenarios whose id or module contains "
                            "SUBSTR")
    bench.add_argument("--bench-dir", default="benchmarks",
                       help="directory holding bench_*.py "
                            "(default: benchmarks)")
    bench.add_argument("--report-dir", default=None, metavar="DIR",
                       help="where per-scenario text artifacts go "
                            "(default: <bench-dir>/out)")
    bench.add_argument("--baseline", default=None, metavar="BENCH.json",
                       help="gate results against this baseline file")
    bench.add_argument("--gate", type=float, default=None, metavar="TOL",
                       help="relative tolerance for the baseline gate "
                            "(default 0.0 = exact; needs --baseline)")
    bench.add_argument("--list", action="store_true", dest="list_only",
                       help="list discovered scenarios and exit")

    faults = sub.add_parser(
        "faults", help="run a chaos scenario under a declarative fault plan",
        parents=[_shared("seed", seed={
            "default": None,
            "help": "fault-plan RNG seed (default: the plan file's seed, "
                    "else 0)"})])
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
        "fleet", help="staged guardrail rollout across a simulated fleet",
        parents=[_shared("hosts", "stages", "seed", "jobs", "quick", "json",
                         "out")])
    fleet.add_argument("--faults", type=int, default=0, metavar="N",
                       help="corrupt the false-submit signal on the "
                            "first N hosts from the baseline boundary on "
                            "(they land in the canary cohort)")

    serve = sub.add_parser(
        "serve", help="run a fleet scenario into a sqlite results store",
        parents=[_shared("store", "run", "hosts", "stages", "seed", "jobs",
                         "quick")])
    serve.add_argument("--soak", action="store_true",
                       help="steady-state soak (no rollout): every host "
                            "bakes on v1 for --rounds rounds")
    serve.add_argument("--resume", action="store_true",
                       help="resume the latest interrupted run in the "
                            "store (or --run) from its last committed "
                            "round")
    serve.add_argument("--faults", type=int, default=0, metavar="N",
                       help="corrupt the false-submit signal on the "
                            "first N hosts (rollout mode)")
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
        "query", help="typed queries over a results store",
        parents=[_shared("store", "run")])
    query.add_argument("name",
                       help="one of: status, stages, trend, gates, "
                            "rollbacks, runs, report, autopilot")

    dash = sub.add_parser(
        "dash", help="fleet-health dashboard rendered from a results store",
        parents=[_shared("store", "run")])
    dash.add_argument("--html", metavar="FILE", default=None,
                      help="write the static HTML page to FILE instead "
                           "of printing the terminal summary")

    ap = sub.add_parser(
        "autopilot",
        help="closed-loop guardrail tightening through the rollout gates",
        parents=[_shared("store", "hosts", "stages", "seed", "jobs",
                         "quick", "json", "out")])
    ap.add_argument("mode", choices=("propose", "apply", "loop"),
                    help="propose: observe and record one proposal "
                         "without deploying; apply: one observe->propose"
                         "->deploy iteration; loop: iterate to "
                         "convergence")
    ap.add_argument("--iterations", type=int, default=3, metavar="N",
                    help="loop iteration cap (default 3; apply/propose "
                         "always run one)")
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

    ev = sub.add_parser(
        "eval", help="guardrail-quality eval over the labelled dataset",
        parents=[_shared("quick", "jobs", "timeout", "json", "out")])
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
    ev.add_argument("--id", action="append", default=[], dest="ids",
                    metavar="EPISODE",
                    help="run only this episode id; repeatable")
    ev.add_argument("--baseline", metavar="FILE", default=None,
                    help="for run/diff: gate per-episode correctness "
                         "against this committed results document")
    ev.add_argument("--from", dest="from_doc", metavar="FILE", default=None,
                    help="for calibrate: recorded results document to "
                         "calibrate from (default: run the full tier now)")

    sc = sub.add_parser(
        "scenarios",
        help="the cross-policy scenario zoo: list, describe, run",
        parents=[_shared("quick", "jobs", "timeout", "json", "out")])
    sc.add_argument("mode", choices=("list", "run", "describe"),
                    help="list: enumerate registered scenarios; describe: "
                         "print one scenario's full spec; run: execute a "
                         "selection and compare verdicts to the registry")
    sc.add_argument("name", nargs="?", metavar="SCENARIO",
                    help="scenario name (required for describe; for run, "
                         "restricts the selection to that one scenario)")
    sc.add_argument("--filter", default=None, metavar="SUBSTR",
                    help="only scenarios whose name contains SUBSTR")
    return parser


# -- the one output/exit layer ------------------------------------------------


def _dumps(document):
    """The one JSON encoding of every document, on stdout and in files."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


@contextlib.contextmanager
def _usage_errors(*error_types):
    """Map library errors of ``error_types`` (operator mistakes) to exit 2."""
    try:
        yield
    except error_types as error:
        raise UsageError(str(error)) from error


@contextlib.contextmanager
def _reading(path, what=None):
    """Map an unreadable input file to exit 2."""
    try:
        yield
    except OSError as exc:
        raise UsageError("cannot read {}{!r}: {}".format(
            what + " " if what else "", path, exc.strerror or exc)) from exc


@contextlib.contextmanager
def _outputs(*paths):
    """Open every file a command writes before the command does any work.

    Yields one handle per path (``None`` for an unset flag).  An
    unwritable path exits 2 before the run starts rather than throwing a
    traceback — and the finished run — away after it.
    """
    with contextlib.ExitStack() as stack:
        handles = []
        for path in paths:
            try:
                handles.append(None if path is None
                               else stack.enter_context(open(path, "w")))
            except OSError as exc:
                raise UsageError("cannot write {!r}: {}".format(
                    path, exc.strerror or exc)) from exc
        yield handles


def _emit(out, document, render, json_out=False, handle=None, wrote=None,
          shown=None):
    """JSON to the ``--out`` handle, then JSON or ``render`` to stdout.

    ``shown`` is what ``--json`` prints when it differs from the file
    document; ``wrote`` names the file in the human ``wrote … to`` line.
    """
    if handle is not None:
        handle.write(_dumps(document))
    if json_out:
        out.write(_dumps(document if shown is None else shown))
        return
    render(out, document)
    if handle is not None and wrote is not None:
        out.write("wrote {} to {}\n".format(wrote, handle.name))


def _at_least(args, floor, *flags):
    """Exit 2 on the first set ``flags`` value below ``floor``."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value < floor:
            raise UsageError("{} must be >= {}".format(flag, floor))


def _positive(args, *flags):
    """Exit 2 on the first set ``flags`` value that is not positive."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value <= 0:
            raise UsageError("{} must be positive".format(flag))


def _check_fleet_flags(args):
    """The size checks fleet, serve and autopilot share."""
    _at_least(args, 1, "--hosts", "--jobs")
    faults = getattr(args, "faults", 0)
    if faults < 0 or faults > args.hosts:
        raise UsageError("--faults must be between 0 and --hosts")


def _check_stages(args):
    from repro.fleet.rollout import parse_stages

    with _usage_errors(ValueError):
        parse_stages(args.stages, args.hosts)


# -- subcommands --------------------------------------------------------------
# Each imports its subsystem inside the function: `check`/`fmt` must stay
# fast and free of kernel/policy (numpy) imports.


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with _reading(path), open(path) as handle:
        return handle.read()


def _compiler(args):
    config = VerifierConfig()
    _at_least(args, 1, "--budget-ops")
    if args.budget_ops is not None:
        config.max_rule_cost = args.budget_ops
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


def _inspect_document(specs, compiler):
    """Each guardrail's triggers, rules with verified cost, reads, actions."""
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
    return {"guardrails": guardrails}


def _render_inspect(out, document):
    for entry in document["guardrails"]:
        out.write("guardrail {}\n".format(entry["name"]))
        for trigger in entry["triggers"]:
            out.write("  trigger  {}\n".format(trigger))
        if "verifier_error" in entry:
            out.write("  VERIFIER: {}\n".format(entry["verifier_error"]))
        for rule in entry["rules"]:
            suffix = "" if rule["ops"] is None else "  [{} ops]".format(
                rule["ops"])
            out.write("  rule     {}{}\n".format(rule["source"], suffix))
        out.write("  reads    {}\n".format(
            ", ".join(entry["reads"]) or "<none>"))
        for action in entry["actions"]:
            out.write("  action   {}\n".format(action))
        out.write("\n")


def cmd_inspect(args, out):
    text = _read(args.file)
    try:
        specs = parse_guardrails(text)
    except GuardrailError as error:
        _emit(out, {"error": str(error)},
              lambda out, _: out.write("PARSE ERROR: {}\n".format(error)),
              args.json_out)
        return 1
    _emit(out, _inspect_document(specs, _compiler(args)), _render_inspect,
          args.json_out)
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
        with _outputs(args.file) as (handle,):
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


def _fig2_model(out):
    from repro.bench.scenarios import train_default_linnos_model

    out.write("training the LinnOS model (fig2 scenario)...\n")
    return train_default_linnos_model(seed=1, train_seconds=12)


def _run_traced(args, out, categories, sample):
    """Run the chosen scenario under a tracer; (events, summary)."""
    from repro.bench import scenarios
    from repro.trace import summarize_tracer, tracing

    with tracing(capacity=args.capacity, seed=args.seed,
                 categories=categories, sample=sample) as tracer:
        if args.scenario == "fig2":
            scenarios.run_figure2_scenario(
                _fig2_model(out), "guarded", seed=2,
                duration_s=int(args.duration or 16))
        else:
            scenarios.run_trace_demo_scenario(
                duration_s=int(args.duration or 4))
    return tracer.events(), summarize_tracer(tracer)


def cmd_trace(args, out):
    from repro.trace import (
        CATEGORIES,
        read_jsonl,
        render_summary,
        summarize_events,
        write_chrome_trace,
        write_jsonl,
    )

    _positive(args, "--duration")
    if args.replay is not None:
        with _reading(args.replay, "trace"):
            events = read_jsonl(args.replay)
    else:
        categories = None
        if args.categories:
            categories = [c.strip() for c in args.categories.split(",") if c.strip()]
        sample = _parse_sample(args.sample) if args.sample else None
        for name in tuple(categories or ()) + tuple(sample or ()):
            if name not in CATEGORIES:
                raise UsageError(
                    "unknown trace category {!r}; known: {}".format(
                        name, ", ".join(CATEGORIES)))
    with _outputs(args.jsonl, args.chrome) as (jsonl, chrome):
        if args.replay is not None:
            summary = summarize_events(events)
        else:
            events, summary = _run_traced(args, out, categories, sample)
        if jsonl is not None:
            count = write_jsonl(events, jsonl)
            out.write("wrote {} event(s) to {}\n".format(count, args.jsonl))
        if chrome is not None:
            write_chrome_trace(events, chrome)
            out.write("wrote Chrome trace to {} (open in Perfetto or "
                      "chrome://tracing)\n".format(args.chrome))
    out.write(render_summary(summary, top=args.top))
    out.write("\n")
    return 0


def cmd_bench(args, out):
    import pathlib
    import time

    from repro.bench import results as bench_results
    from repro.bench import runner as bench_runner

    _at_least(args, 1, "--jobs")
    if args.gate is not None and args.baseline is None:
        raise UsageError("--gate requires --baseline")
    _positive(args, "--timeout")

    with _usage_errors(bench_runner.DiscoveryError):
        specs = bench_runner.select(
            bench_runner.discover(args.bench_dir),
            quick=args.quick, filter_expr=args.filter)
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
        with _reading(args.baseline, "baseline"):
            try:
                baseline = bench_results.load_document(args.baseline)
            except ValueError as exc:
                raise UsageError("bad baseline {!r}: {}".format(
                    args.baseline, exc))

    report_dir = args.report_dir
    if report_dir is None:
        report_dir = str(pathlib.Path(args.bench_dir) / "out")

    with _outputs(args.out) as (handle,):
        started = time.time()
        scenario_results = bench_runner.run_scenarios(
            specs, jobs=args.jobs, timeout_s=args.timeout,
            out_dir=report_dir,
            progress=lambda message: out.write("  " + message + "\n"))
        document = bench_results.make_document(
            scenario_results, tier="quick" if args.quick else "full",
            jobs=args.jobs, filter_expr=args.filter,
            sha=bench_results.git_sha(), created_unix=started)
        handle.write(_dumps(document))

    failed = [r for r in scenario_results if r["status"] != "ok"]
    out.write("{} scenario(s), {} failure(s), {:.1f}s wall, "
              "jobs={} -> {}\n".format(
                  len(scenario_results), len(failed),
                  time.time() - started, args.jobs, args.out))
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
    with _usage_errors(FaultError):
        if args.plan:
            with _reading(args.plan, "plan"):
                plan = FaultPlan.from_file(args.plan)
            if args.seed is not None:
                plan.seed = args.seed
            return plan
        if args.fault:
            return FaultPlan.from_flags(args.fault, seed=args.seed or 0)
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

    from repro.bench import scenarios
    from repro.faults.supervisor import BreakerConfig
    from repro.sim.units import SECOND

    _at_least(args, 1, "--threshold")
    _positive(args, "--backoff", "--duration")
    plan = _faults_plan(args)
    config = BreakerConfig(crash_threshold=args.threshold,
                           base_backoff_ns=int(args.backoff * SECOND))
    with _outputs(args.json_out) as (handle,):
        try:
            if args.scenario == "fig2":
                result = scenarios.run_figure2_scenario(
                    _fig2_model(out), "guarded", seed=2,
                    duration_s=int(args.duration or 16),
                    fault_plan=plan, supervise=True, breaker_config=config)
            else:
                result = scenarios.run_faults_demo_scenario(
                    duration_s=int(args.duration or 12),
                    fault_plan=plan, breaker_config=config)
        except GuardrailError as error:
            # Misconfigured plan (unknown slot name and friends) surfaces
            # at install time as a typed error: operator mistake, exit 2.
            raise UsageError(str(error))
        except Exception as error:
            # The thing `faults` exists to detect: a fault that escaped
            # containment and took the run down.
            out.write("ESCAPED: {}: {}\n".format(type(error).__name__, error))
            return 1

        injector, supervisor = result.injector, result.policy_supervisor
        stats = {
            "scenario": args.scenario,
            "duration_s": args.duration or (
                16 if args.scenario == "fig2" else 12),
            "plan": plan.to_dict() if plan is not None else None,
            "injected": injector.stats() if injector is not None else None,
            "policy": supervisor.stats() if supervisor is not None else None,
            "monitors": result.kernel.supervisor.stats(),
        }
        _emit(out, stats, _render_faults_summary, handle=handle,
              wrote="accounting")
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
    _check_fleet_flags(args)
    _check_stages(args)
    from repro.fleet.scenario import run_fleet_rollout

    with _outputs(args.out) as (handle,):
        report = run_fleet_rollout(
            hosts=args.hosts, stages=args.stages, seed=args.seed,
            jobs=args.jobs, fault_hosts=args.faults, quick=args.quick)
        _emit(out, report, _render_fleet_summary, args.json_out, handle,
              wrote="report")
    return 0 if report["status"] == "completed" else 1


def _open_store(args, retention=None):
    from repro.service.store import ResultsStore, StoreError

    with _usage_errors(StoreError):
        return ResultsStore(args.store, retention=retention)


def cmd_serve(args, out):
    from repro.service.loop import ServiceError, resume, serve_rollout, serve_soak
    from repro.service.store import RetentionPolicy

    _check_fleet_flags(args)
    _at_least(args, 1, "--rounds", "--rate", "--max-rounds")
    if args.run is not None and not args.resume:
        raise UsageError("--run only makes sense with --resume")
    with _usage_errors(ValueError):
        retention = RetentionPolicy(raw_rounds=args.retain_rounds,
                                    bucket_rounds=args.bucket_rounds)
    if not args.resume and not args.soak:
        _check_stages(args)

    with _open_store(args, retention=retention) as store, \
            _usage_errors(ServiceError):
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
    out.write(_dumps(summary))
    # Same contract as `fleet`: a gate trip the service detected is 1.
    return 1 if summary["status"] == "rolled_back" else 0


def cmd_query(args, out):
    from repro.service.query import QUERIES
    from repro.service.store import StoreError

    if args.name not in QUERIES:
        raise UsageError("unknown query {!r}; known: {}".format(
            args.name, ", ".join(sorted(QUERIES))))
    with _open_store(args) as store, _usage_errors(StoreError):
        result = QUERIES[args.name](store, args.run)
    out.write(_dumps(result))
    return 0


def cmd_dash(args, out):
    from repro.service.dashboard import render_html, render_terminal
    from repro.service.store import StoreError

    with _open_store(args) as store, _outputs(args.html) as (html,), \
            _usage_errors(StoreError):
        if html is not None:
            html.write(render_html(store, args.run))
            out.write("wrote dashboard to {}\n".format(args.html))
        else:
            out.write(render_terminal(store, args.run))
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
    _check_fleet_flags(args)
    _at_least(args, 1, "--iterations")
    _at_least(args, 0, "--corrupt-at")
    if args.quantile is not None and not 0.0 <= args.quantile <= 1.0:
        raise UsageError("--quantile must be in [0, 1]")
    if args.margin is not None and args.margin <= 0:
        raise UsageError("--margin must be > 0")

    from repro.autopilot.loop import AutopilotError, run_autopilot
    from repro.autopilot.propose import TIGHTEN_MARGIN, TIGHTEN_QUANTILE

    _check_stages(args)
    iterations = 1 if args.mode in ("propose", "apply") else args.iterations
    with _outputs(args.out) as (handle,):
        with _open_store(args) as store, _usage_errors(AutopilotError):
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
        _emit(out, result, _render_autopilot_summary, args.json_out, handle,
              wrote="report")
    # Same contract as `fleet`: a gate trip the autopilot provoked is 1.
    return 1 if result["final"]["rolled_back"] else 0


def _render_eval_run(out, document):
    out.write("eval: {} episode(s), tier {}, dataset v{}\n".format(
        len(document["episodes"]), document["tier"],
        document["dataset"]["dataset_version"]))
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

    with _usage_errors(DatasetError, ValueError):
        return run_eval(
            dataset_path=args.dataset,
            tier="quick" if args.quick else "full",
            jobs=args.jobs, ids=args.ids or None, timeout_s=args.timeout,
            progress=lambda message: sys.stderr.write(
                "  " + message + "\n"))


def cmd_eval(args, out):
    from repro.eval.calibrate import calibrate
    from repro.eval.dataset import DatasetError, check_dataset
    from repro.eval.results import compare_to_baseline, load_document

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
    _at_least(args, 1, "--jobs")
    _positive(args, "--timeout")
    if args.document is not None and args.mode != "diff":
        raise UsageError("a document argument only makes sense with diff")

    def load(path, what):
        with _reading(path, what), _usage_errors(ValueError):
            return load_document(path)

    baseline = (load(args.baseline, "baseline")
                if args.baseline is not None else None)

    if args.mode == "diff":
        if args.document is None:
            raise UsageError("diff needs a results document argument")
        if baseline is None:
            raise UsageError("diff needs --baseline")
        diff = compare_to_baseline(load(args.document, "document"), baseline)
        _emit(out, diff, _render_eval_diff, args.json_out)
        return 0 if diff["passed"] else 1

    if args.mode == "calibrate":
        document = (load(args.from_doc, "document")
                    if args.from_doc is not None else None)
        with _outputs(args.out) as (handle,):
            if document is None:
                document = _eval_document(args)
            with _usage_errors(ValueError):
                calibration = calibrate(document)
            _emit(out, calibration, _render_calibration, args.json_out,
                  handle)
        # The thing calibrate gates on: the shipped defaults must be
        # exactly what the data reproduces, and must separate every
        # labelled episode.
        passed = calibration["verification"]["passed"] and \
            not calibration["changed"]
        return 0 if passed else 1

    with _outputs(args.out) as (handle,):
        document = _eval_document(args)
        _emit(out, document, _render_eval_run, args.json_out, handle,
              wrote="document")
    if baseline is None:
        incorrect = sum(1 for result in document["episodes"]
                        if not result["correct"])
        return 1 if incorrect else 0
    diff = compare_to_baseline(document, baseline)
    if not args.json_out:
        _render_eval_diff(out, diff)
    return 0 if diff["passed"] else 1


def _scenario(name):
    from repro.scenarios import get_scenario

    try:
        return get_scenario(name)
    except KeyError:
        raise UsageError("unknown scenario {!r}; see "
                         "'grctl scenarios list'".format(name))


def _select_scenarios(args):
    """Resolve the run/list selection; UsageError on unknown/empty."""
    from repro.scenarios import select_scenarios

    if args.name is not None:
        selection = [_scenario(args.name)]
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


def _render_scenario_spec(out, spec):
    out.write("{}\n".format(spec.name))
    out.write("  kind:      {}\n".format(spec.kind))
    out.write("  domains:   {}\n".format(", ".join(
        "{}({})".format(domain, workload) for domain, workload
        in zip(spec.domains, spec.workloads))))
    out.write("  policies:  {}\n".format(", ".join(spec.policies)))
    out.write("  fault:     {}\n".format(spec.fault))
    out.write("  seed:      {}\n".format(spec.seed))
    out.write("  duration:  {:g}s\n".format(spec.duration_s))
    out.write("  tier:      {}\n".format("quick" if spec.quick else "full"))
    out.write("  expected:  {}\n".format(", ".join(
        "{}={}".format(key, value) for key, value
        in sorted(spec.expected.items()))))
    out.write("  {}\n".format(spec.description))


def _render_scenario_list(out, selection):
    width = max(len(spec.name) for spec in selection)
    for spec in selection:
        out.write("{:<{width}}  {:<8}  {:<5}  {}\n".format(
            spec.name, spec.kind, "quick" if spec.quick else "full",
            spec.expected_overall(), width=width))
    out.write("{} scenario(s)\n".format(len(selection)))


def _render_scenario_run(out, document):
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


def cmd_scenarios(args, out):
    if args.mode == "describe":
        if args.name is None:
            raise UsageError("describe needs a scenario name")
        spec = _scenario(args.name)
        _emit(out, spec.to_dict(),
              lambda out, _: _render_scenario_spec(out, spec), args.json_out)
        return 0

    selection = _select_scenarios(args)
    if args.mode == "list":
        _emit(out, [spec.to_dict() for spec in selection],
              lambda out, _: _render_scenario_list(out, selection),
              args.json_out)
        return 0

    # mode == "run"
    _at_least(args, 1, "--jobs")
    from repro.scenarios import deterministic_document, run_scenarios

    with _outputs(args.out) as (handle,):
        document = run_scenarios(selection, jobs=args.jobs,
                                 timeout_s=args.timeout)
        _emit(out, document, _render_scenario_run, args.json_out, handle,
              wrote="document", shown=deterministic_document(document))
    passed = (document["matched"] == document["count"]
              and not document["errors"])
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
