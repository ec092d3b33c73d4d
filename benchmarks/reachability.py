"""Which functions of ``src/repro`` does no entry point enter?

Runs the product's entry points in this process under ``sys.setprofile``
and lists every named function (``def``, including methods and nested
functions) of ``src/repro`` that was never entered, with its line count.
The entry set is fixed here:

- the six ``benchmarks/perf`` workloads, one repeat each at smoke scale;
- every ``grctl`` subcommand and mode, including the full bench suite at
  ``--gate 0.0``, a full ``eval calibrate`` and ``--jobs 2`` runs, plus the
  usage errors that exit 2;
- every ``examples/*.py`` script.

Worker processes forked by the bench/eval/scenario pool and by fleet
shards inherit the profiler; each writes what it entered to a dump
directory before ``os._exit``, and the parent merges it.  Only the
standard library is used: ``coverage`` is not a dependency, and
``sys.monitoring`` needs Python 3.12.

Lines are counted once: a never-entered function nested in another
never-entered function adds to the function count, not to the lines.

The same pass takes a census of defaulted parameters: on each call into
``src/repro`` it records which defaulted parameters received a value
other than their default (a value of another type, or one that does not
compare equal; NaN equals NaN here).  A parameter no call ever moves is
*unturned*: one value in use, so a named constant would do.

The run fails (exit 1) when the never-entered lines exceed
:data:`MAX_UNREACHED_LINES` or the unturned parameters exceed
:data:`MAX_UNTURNED_PARAMS`, and exits 2 when an entry point itself does
not behave (unexpected exit code or exception), since the sweep is then
not measuring the product.

Usage::

    PYTHONPATH=src python -m benchmarks.reachability          # ~4 min, 2 cores
"""

import argparse
import ast
import contextlib
import gc
import inspect
import io
import os
import pathlib
import runpy
import shutil
import sys
import tempfile
import threading
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Never-entered lines of ``src/repro`` under the full entry set.  Lower it
#: when code goes; a change that raises it adds code no entry point runs.
MAX_UNREACHED_LINES = 561

#: Defaulted ``src/repro`` parameters no entry point ever moves off their
#: default.  Lower it when a knob becomes a constant; a change that raises
#: it adds a knob no product run turns.
MAX_UNTURNED_PARAMS = 155


# -- what exists --------------------------------------------------------------


class Function:
    __slots__ = ("path", "line", "qualname", "lines", "parent", "defaulted")

    def __init__(self, path, line, qualname, lines, parent, defaulted):
        self.path = path
        self.line = line
        self.qualname = qualname
        self.lines = lines
        self.parent = parent
        self.defaulted = defaulted


def named_functions(src=SRC):
    """Every ``def`` under ``src``, keyed by (file, first line).

    The first line is the one ``co_firstlineno`` reports: the first
    decorator's, if any.
    """
    functions = {}
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))

        def visit(node, prefix, parent):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [decorator.lineno for decorator
                                                  in child.decorator_list])
                    args = child.args
                    positional = args.posonlyargs + args.args
                    defaulted = tuple(
                        [a.arg for a in positional[len(positional)
                                                   - len(args.defaults):]]
                        + [a.arg for a, default in zip(args.kwonlyargs,
                                                       args.kw_defaults)
                           if default is not None])
                    function = Function(path, first, prefix + child.name,
                                        child.end_lineno - first + 1, parent,
                                        defaulted)
                    functions[(str(path), first)] = function
                    visit(child, prefix + child.name + ".<locals>.", function)
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".", parent)
                else:
                    visit(child, prefix, parent)

        visit(tree, "", None)
    return functions


# -- what runs ----------------------------------------------------------------


_GENERATOR = (inspect.CO_GENERATOR | inspect.CO_COROUTINE
              | inspect.CO_ASYNC_GENERATOR)


def is_default(value, defaults):
    """Whether ``value`` is one of ``defaults``: the same object, or the
    same type and equal (NaN matching NaN).  An ``==`` that raises or
    answers with something other than a truth value (a numpy array) is
    not a match."""
    for default in defaults:
        if value is default:
            return True
        if type(value) is not type(default):
            continue
        try:
            if bool(value == default):
                return True
            if value != value and default != default:
                return True
        except (TypeError, ValueError):
            pass
    return False


class Profiler:
    """Code objects entered in this process and in its forked children,
    and the defaulted parameters those calls moved off their default."""

    def __init__(self, dump_dir, src=SRC):
        self.dump_dir = dump_dir
        self.src = str(src) + os.sep
        # code -> {parameter: its defaults} still unturned; every code
        # entered is a key.
        self.pending = {}
        self.turned = set()
        self._exit = os._exit

    def _defaulted(self, code):
        """``{parameter: defaults}`` for a ``src`` code object; a code
        shared by several live functions (a nested ``def``) may carry a
        default per function."""
        if not os.path.abspath(code.co_filename).startswith(self.src):
            return {}
        positional = code.co_varnames[:code.co_argcount]
        params = {}
        for function in gc.get_referrers(code):
            if not (isinstance(function, types.FunctionType)
                    and function.__code__ is code):
                continue
            defaults = function.__defaults__ or ()
            pairs = list(zip(positional[len(positional) - len(defaults):],
                             defaults))
            pairs += (function.__kwdefaults__ or {}).items()
            for name, default in pairs:
                params.setdefault(name, []).append(default)
        return params

    def _profile(self, frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        pending = self.pending.get(code)
        if pending is None:
            pending = self.pending[code] = self._defaulted(code)
        # A generator's later resumes show its locals, not its arguments.
        if pending and not (code.co_flags & _GENERATOR
                            and frame.f_lineno != code.co_firstlineno):
            values = frame.f_locals
            for name in [name for name, defaults in pending.items()
                         if not is_default(values[name], defaults)]:
                del pending[name]
                self.turned.add((code.co_filename, code.co_firstlineno, name))

    def _child_exit(self, code):
        # A forked worker leaves through os._exit: save its sets first.  The
        # worker must exit whatever happens here, or it would go on to run
        # the parent's remaining entries.
        sys.setprofile(None)
        try:
            pid = os.getpid()
            with open(os.path.join(self.dump_dir,
                                   "entered-{}".format(pid)), "w") as out:
                out.writelines("{}\t{}\n".format(co.co_filename,
                                                 co.co_firstlineno)
                               for co in list(self.pending))
            with open(os.path.join(self.dump_dir,
                                   "turned-{}".format(pid)), "w") as out:
                out.writelines("{}\t{}\t{}\n".format(*row)
                               for row in list(self.turned))
        finally:
            self._exit(code)

    def __enter__(self):
        os._exit = self._child_exit
        threading.setprofile(self._profile)
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        threading.setprofile(None)
        os._exit = self._exit

    def _rows(self, prefix):
        for name in os.listdir(self.dump_dir):
            if name.startswith(prefix):
                with open(os.path.join(self.dump_dir, name)) as handle:
                    for row in handle:
                        yield row.rstrip("\n").split("\t")

    def keys(self):
        """(absolute file, first line) of everything entered, children
        included."""
        rows = {(co.co_filename, co.co_firstlineno) for co in self.pending}
        rows.update((path, int(line)) for path, line in self._rows("entered-"))
        return {(os.path.abspath(path), line) for path, line in rows}

    def turned_params(self):
        """(absolute file, first line, parameter) of every defaulted
        parameter some call moved, children included."""
        rows = set(self.turned)
        rows.update((path, int(line), name)
                    for path, line, name in self._rows("turned-"))
        return {(os.path.abspath(path), line, name)
                for path, line, name in rows}


# -- the entry set ------------------------------------------------------------


def perf_workloads(tmp):
    """One repeat of each spine workload at smoke scale."""
    from benchmarks.perf.cli import SMOKE_SCALE
    from benchmarks.perf.harness import StepClock
    from benchmarks.perf.workloads import WORKLOADS

    for name, cls in WORKLOADS.items():
        def run(cls=cls):
            workload = cls(42, scale=SMOKE_SCALE, workdir=tmp)
            state = workload.setup()
            try:
                steps = StepClock()
                steps.start()
                result = workload.repeat(state, steps)
                outcome = workload.verify(state, result)
            finally:
                workload.teardown(state)
            if outcome.problems:
                raise AssertionError("; ".join(outcome.problems))

        yield "perf " + name, run


def grctl_invocations(tmp):
    """``(argv, expected exit code)`` covering every subcommand and mode."""
    def t(name):
        return os.path.join(tmp, name)

    listing2, fleet_spec = "examples/listing2.grd", "examples/fleet.grd"
    with open(t("plan.json"), "w") as plan:
        plan.write('{"seed": 3, "faults": ['
                   '{"kind": "stall", "target": "storage.pick_device", '
                   '"start_s": 1, "stop_s": 2, "latency_us": 50}, '
                   '{"kind": "nan", "target": "storage.pick_device", '
                   '"start_s": 3, "stop_s": 4, "count": 5}, '
                   '{"kind": "stale", "target": "io_latency_us.tavg", '
                   '"start_s": 4, "stop_s": 5}]}')
    with open(t("messy.grd"), "w") as messy:
        messy.write("guardrail g {trigger: {TIMER(start_time, 1000000000)}, "
                    "rule: {LOAD(x)<=1}, action: {REPORT()}}\n")
    serve = ["--hosts", "4", "--quick", "--seed", "42"]
    return [
        (["check", listing2], 0),
        (["check", fleet_spec, "--budget-ops", "64"], 0),
        (["check", t("messy.grd")], 0),
        (["inspect", listing2], 0),
        (["inspect", "--json", fleet_spec], 0),
        (["fmt", listing2], 0),
        (["fmt", "--check", fleet_spec], 0),
        (["fmt", "--check", t("messy.grd")], 1),
        (["fmt", "--write", t("messy.grd")], 0),
        (["trace", "--jsonl", t("t.jsonl"), "--chrome", t("t.json")], 0),
        (["trace", "--categories", "monitor.check,featurestore.save",
          "--sample", "featurestore.save=8", "--duration", "3"], 0),
        (["trace", "--replay", t("t.jsonl")], 0),
        (["trace", "--scenario", "fig2", "--duration", "12"], 0),
        (["bench", "--list"], 0),
        (["bench", "--jobs", "2", "--baseline",
          "benchmarks/BENCH_baseline.json", "--gate", "0.0",
          "--out", t("BENCH.json"), "--report-dir", t("bench-out")], 0),
        (["faults", "--list"], 0),
        (["faults", "--fault", "raise@storage.pick_device:start=3,stop=5",
          "--fault", "corrupt@io_latency_us.tavg:start=6,stop=8,p=0.5",
          "--seed", "11", "--duration", "10", "--json", t("faults.json")], 0),
        (["faults", "--plan", t("plan.json"), "--duration", "6"], 0),
        (["faults", "--scenario", "fig2", "--duration", "12",
          "--fault", "nan@storage.pick_device:start=3,stop=4"], 0),
        (["fleet"] + serve + ["--json", "--out", t("fleet.json")], 0),
        (["fleet"] + serve + ["--faults", "1"], 1),
        (["fleet"] + serve + ["--jobs", "2", "--stages", "canary:1,50%,4"],
         0),
        (["serve", "--store", t("r.db")] + serve + ["--faults", "1"], 1),
        (["serve", "--store", t("part.db"), "--max-rounds", "3"] + serve, 0),
        (["serve", "--store", t("part.db"), "--resume"] + serve, 0),
        (["serve", "--store", t("soak.db"), "--soak", "--hosts", "8",
          "--rounds", "20", "--rate", "200", "--retain-rounds", "8",
          "--bucket-rounds", "4", "--seed", "42", "--jobs", "2"], 0),
    ] + [
        (["query", name, "--store", t(store)], 0)
        for name in ("status", "stages", "trend", "gates", "rollbacks",
                     "runs", "report")
        for store in ("r.db", "soak.db")
        if (name, store) != ("report", "soak.db")
    ] + [
        (["dash", "--store", t("r.db")], 0),
        (["dash", "--store", t("soak.db")], 0),
        (["dash", "--store", t("r.db"), "--html", t("dash.html")], 0),
        (["autopilot", "loop", "--store", t("ap.db"), "--hosts", "8",
          "--quick", "--seed", "42", "--json", "--out", t("ap.json")], 0),
        (["autopilot", "propose", "--store", t("ap.db"), "--hosts", "8",
          "--quick"], 0),
        (["autopilot", "apply", "--store", t("bad.db"), "--hosts", "8",
          "--quick", "--corrupt-at", "0", "--jobs", "2"], 1),
        (["query", "autopilot", "--store", t("bad.db")], 0),
        (["eval", "--check-dataset"], 0),
        (["eval", "run", "--quick", "--jobs", "2", "--baseline",
          "EVAL_baseline.json", "--out", t("EVAL.json")], 0),
        (["eval", "run", "--quick", "--json", "--id",
          "host-P1-clean-s11"], 0),
        (["eval", "diff", t("EVAL.json"), "--baseline",
          "EVAL_baseline.json"], 0),
        (["eval", "calibrate", "--from", "EVAL_baseline.json", "--json"], 0),
        (["eval", "calibrate", "--jobs", "2"], 0),
        (["scenarios", "list"], 0),
        (["scenarios", "describe", "feedback/coupled/timer"], 0),
        (["scenarios", "run", "--quick", "--jobs", "2", "--json",
          "--out", t("zoo.json")], 0),
        (["scenarios", "run", "feedback/coupled/timer"], 0),
        (["scenarios", "run", "--filter", "dependency"], 0),
        # Operator mistakes: each exits 2 before running anything.
        (["check", t("missing.grd")], 2),
        (["trace", "--sample", "hook=x"], 2),
        (["bench", "--gate", "0.1"], 2),
        (["bench", "--bench-dir", t("nowhere")], 2),
        (["faults", "--fault", "nonsense"], 2),
        (["fleet", "--hosts", "0"], 2),
        (["fleet", "--stages", "bogus"], 2),
        (["serve", "--store", t("r.db"), "--resume"], 2),
        (["query", "nonsense", "--store", t("r.db")], 2),
        (["autopilot", "loop", "--store", t("x.db"), "--iterations", "0"], 2),
        (["eval"], 2),
        (["eval", "run", "--id", "no-such-episode"], 2),
        (["scenarios", "describe"], 2),
        (["scenarios", "run", "--filter", "no-such-scenario"], 2),
    ]


def grctl(tmp):
    from repro.tools import grctl as tool

    for argv, expected in grctl_invocations(tmp):
        def run(argv=argv, expected=expected):
            code = tool.main(argv)
            if code != expected:
                raise AssertionError("exit {}, expected {}".format(
                    code, expected))

        yield "grctl " + " ".join(argv), run


def examples(_tmp):
    for path in sorted((ROOT / "examples").glob("*.py")):
        yield "example " + path.name, (
            lambda path=path: runpy.run_path(str(path), run_name="__main__"))


ENTRY_GROUPS = (perf_workloads, grctl, examples)


def run_entries(tmp):
    """Run every entry quietly; return ``[(label, problem)]`` failures."""
    failures = []
    for group in ENTRY_GROUPS:
        for label, run in group(tmp):
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    run()
            except SystemExit as exit_:
                if exit_.code not in (None, 0):
                    failures.append((label, "SystemExit {}".format(
                        exit_.code)))
            except Exception as error:  # the entry is broken, not the sweep
                failures.append((label, "{}: {}".format(
                    type(error).__name__, error)))
            print("  ran", label, file=sys.stderr)
    return failures


# -- the report ---------------------------------------------------------------


def unreached(functions, entered):
    """Never-entered functions, and the lines they hold counted once."""
    missed = [f for key, f in functions.items() if key not in entered]
    missed_ids = {id(f) for f in missed}
    lines = 0
    for function in missed:
        parent = function.parent
        while parent is not None and id(parent) not in missed_ids:
            parent = parent.parent
        if parent is None:
            lines += function.lines
    return sorted(missed, key=lambda f: (str(f.path), f.line)), lines


def unturned(functions, turned):
    """``[(function, [parameter...])]`` for the defaulted parameters no
    call moved, and their count."""
    rows = []
    for key, function in sorted(functions.items(),
                                key=lambda item: (str(item[1].path),
                                                  item[1].line)):
        names = [name for name in function.defaulted
                 if key + (name,) not in turned]
        if names:
            rows.append((function, names))
    return rows, sum(len(names) for _, names in rows)


def main(argv=None):
    argparse.ArgumentParser(
        prog="python -m benchmarks.reachability",
        description="List src/repro functions no entry point enters and "
                    "defaulted parameters no entry point turns.",
    ).parse_args(argv)

    os.chdir(ROOT)
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    functions = named_functions()
    tmp = tempfile.mkdtemp(prefix="reachability-")
    dump_dir = os.path.join(tmp, "entered")
    os.mkdir(dump_dir)
    try:
        with Profiler(dump_dir) as profiler:
            failures = run_entries(tmp)
        entered = profiler.keys()
        turned = profiler.turned_params()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    missed, lines = unreached(functions, entered)
    for function in missed:
        print("{}:{}  {}  ({} lines)".format(
            function.path.relative_to(ROOT), function.line, function.qualname,
            function.lines))
    print("{} of {} named functions in src/repro never entered, {} lines "
          "(limit {})".format(len(missed), len(functions), lines,
                              MAX_UNREACHED_LINES))
    knobs, count = unturned(functions, turned)
    for function, names in knobs:
        print("{}:{}  {}({})".format(
            function.path.relative_to(ROOT), function.line, function.qualname,
            ", ".join(names)))
    print("{} of {} defaulted parameters never leave their default "
          "(limit {})".format(count, sum(len(f.defaulted)
                                         for f in functions.values()),
                              MAX_UNTURNED_PARAMS))
    for label, problem in failures:
        print("ENTRY FAILED: {}: {}".format(label, problem))
    if failures:
        return 2
    status = 0
    if lines > MAX_UNREACHED_LINES:
        print("never-entered lines {} exceed the limit {}: delete the code "
              "or give it an entry point".format(lines, MAX_UNREACHED_LINES))
        status = 1
    if count > MAX_UNTURNED_PARAMS:
        print("unturned parameters {} exceed the limit {}: fold the knob "
              "into a constant or give it a caller".format(
                  count, MAX_UNTURNED_PARAMS))
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
