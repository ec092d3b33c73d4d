"""Command line of the benchmark.

Three ways in, one measuring primitive:

``--workload W --seed N --seconds S --trace 0|1``
    Measure one workload in this process and print, as the last line, the
    JSON object ``BENCHMARK.json``'s driver reads.  ``--trace 0`` reports
    the end-to-end metrics, ``--trace 1`` the per-layer ones.
no ``--trace``
    Run the selected workloads (all by default), each in a fresh child
    process of the form above, optionally followed by its traced run
    (``--traced``); collect everything into ``--out``.
``--compare A.json B.json``
    Judge two ``--out`` files against the benchmark's bounds.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SCHEMA = "repro-perfbench/v1"
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SMOKE_SCALE = 0.1


def _parser():
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf",
        description="End-to-end and per-layer performance benchmark.")
    parser.add_argument("--seed", type=int, default=42,
                        help="workload seed (same seed, same inputs)")
    parser.add_argument("--workload", action="append", default=None,
                        help="workload name; repeatable (default: all six)")
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="measure ONE workload in this process: "
                             "0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="after each workload, run it again traced")
    parser.add_argument("--runs", type=int, default=1,
                        help="complete sets of runs; run i uses seed + i")
    parser.add_argument("--smoke", action="store_true",
                        help="~1/10 size, one repeat, schema validation")
    parser.add_argument("--out", default=None, help="write the full JSON here")
    parser.add_argument("--chrome-trace", default=None,
                        help="with --trace 1: write the raw spans as a "
                             "Chrome trace here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --out files and exit")
    return parser


def _workdir():
    os.makedirs(WORK_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)


def _drop_workdir(path):
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)
    except OSError:
        pass  # another run is still using it


def _manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _print_metrics(title, metrics):
    print(title)
    for name, entry in metrics.items():
        print("  {:<40} {:>16.6g} {}".format(name, entry["value"],
                                             entry["unit"]))


# -- one workload, this process -----------------------------------------------


def run_single(args):
    from benchmarks.perf import harness
    from benchmarks.perf.spans import chrome_trace
    from benchmarks.perf.workloads import WORKLOADS

    if not args.workload or len(args.workload) != 1:
        print("--trace needs exactly one --workload", file=sys.stderr)
        return 2
    name = args.workload[0]
    if name not in WORKLOADS:
        print("unknown workload {!r}; known: {}".format(
            name, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None \
        else _manifest()["run_seconds"]
    # Seeds feed numpy generators and are multiplied into per-host seeds,
    # so any integer the caller passes is folded into a safe range.
    seed = abs(args.seed) % 1_000_000
    workdir = _workdir()
    try:
        workload = WORKLOADS[name](
            seed, scale=SMOKE_SCALE if args.smoke else 1.0, workdir=workdir)
        document = harness.measure(workload, seconds, traced=bool(args.trace),
                                   smoke=args.smoke)
    except harness.BenchError as error:
        print("benchmark error: {}".format(error), file=sys.stderr)
        return 2
    finally:
        _drop_workdir(workdir)

    samples = document["samples"]
    print("workload {} seed {} sizes {}".format(
        name, seed, json.dumps(document["sizes"], sort_keys=True)))
    print("  op = {}, step = {}; {} timed repeats of {:.3f} s and {} steps "
          "each, {} set-ups".format(
              document["op"], document["step"], samples["repeats"],
              samples["repeat_wall_s"], samples["steps_per_repeat"],
              samples["setups"]))
    _print_metrics("end-to-end (untraced repeats):", document["end_to_end"])
    print("  {:<40} {:>16.6g}".format("failed_frac", document["failed_frac"]))
    print("  {:<40} {:>16d}".format("sim_fingerprint_ok",
                                    document["sim_fingerprint_ok"]))
    print("  sim_fingerprint {}".format(document["sim_fingerprint"]))
    print("  calib_ms before/after {:.3f} / {:.3f}{}".format(
        document["calib_ms"][0], document["calib_ms"][1],
        "  NOISY" if document["noisy"] else ""))
    if args.trace:
        _print_metrics("per-layer (traced repeats):", document["per_layer"])
        if document["spans"]["missing"]:
            print("  spans not installed (callable gone): {}".format(
                ", ".join(document["spans"]["missing"])))
    for problem in document["problems"]:
        print("CHECK FAILED: {}".format(problem))

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
    if args.chrome_trace and args.trace:
        with open(args.chrome_trace, "w") as handle:
            json.dump(chrome_trace(document["spans"]["raw"]), handle)
    metrics = document["per_layer"] if args.trace else document["end_to_end"]
    print(json.dumps({
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": metrics,
    }))
    return 0 if document["correct"] else 1


# -- every workload, one child each -------------------------------------------


def _child(name, seed, seconds, trace, smoke, out_path):
    command = [sys.executable, RUN_PY, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", out_path]
    if smoke:
        command.append("--smoke")
    sys.stdout.flush()
    status = subprocess.run(command, cwd=ROOT).returncode
    if not os.path.exists(out_path):
        raise RuntimeError("workload {} (trace {}) exited {} without a result"
                           .format(name, trace, status))
    with open(out_path) as handle:
        document = json.load(handle)
    os.remove(out_path)
    return document


def run_all(args):
    from benchmarks.perf.workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print("unknown workload(s) {}; known: {}".format(
            ", ".join(unknown), ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    if args.runs < 1:
        print("--runs must be >= 1", file=sys.stderr)
        return 2
    manifest = _manifest()
    seconds = args.seconds if args.seconds is not None \
        else manifest["run_seconds"]
    traced = args.traced or args.smoke
    workdir = _workdir()
    out_path = os.path.join(workdir, "child.json")
    runs = []
    try:
        for index in range(args.runs):
            seed = args.seed + index
            results = {}
            for name in names:
                document = _child(name, seed, seconds, 0, args.smoke, out_path)
                if document["noisy"] and not args.smoke:
                    print("{}: calibration loop drifted, running once more"
                          .format(name))
                    document = _child(name, seed, seconds, 0, False, out_path)
                    document["rerun"] = True
                if traced:
                    layer_doc = _child(name, seed, seconds, 1, args.smoke,
                                       out_path)
                    document["per_layer"] = layer_doc["per_layer"]
                    document["spans"] = layer_doc["spans"]
                    document["traced_correct"] = layer_doc["correct"]
                results[name] = document
            runs.append({"seed": seed, "workloads": results})
    except RuntimeError as error:
        print("benchmark error: {}".format(error), file=sys.stderr)
        return 2
    finally:
        _drop_workdir(workdir)

    combined = {"schema": SCHEMA, "seed": args.seed, "seconds": seconds,
                "smoke": args.smoke, "runs": runs}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(combined, handle, indent=1, sort_keys=True)
    failures = [
        "{} (seed {}): {}".format(name, run["seed"], problem)
        for run in runs for name, document in run["workloads"].items()
        for problem in document["problems"]
    ]
    failures += [
        "{} (seed {}): traced run failed its checks".format(name, run["seed"])
        for run in runs for name, document in run["workloads"].items()
        if document.get("traced_correct") is False
    ]
    if args.smoke:
        failures += validate_schema(manifest, runs[0]["workloads"],
                                    complete=args.workload is None)
    for failure in failures:
        print("FAILED: {}".format(failure))
    print("{} workload run(s), {} failure(s)".format(
        sum(len(run["workloads"]) for run in runs), len(failures)))
    return 1 if failures else 0


def validate_schema(manifest, results, complete=True):
    """Problems with the output schema, as a list of strings.

    The names the code emits, the names ``BENCHMARK.json`` declares and the
    driver's limits must all agree; ``complete`` also requires every
    declared workload to have run.
    """
    from benchmarks.perf.harness import END_TO_END
    from benchmarks.perf.layers import per_layer_spec
    from benchmarks.perf.workloads import WORKLOADS

    problems = []
    declared = [entry["name"] for entry in manifest["workloads"]]
    if declared != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads {} != {}".format(
            declared, list(WORKLOADS)))
    if complete and sorted(results) != sorted(declared):
        problems.append("ran {} but BENCHMARK.json declares {}".format(
            sorted(results), sorted(declared)))
    end_to_end = [(e["name"], e["unit"], e["better"], e["bound"])
                  for e in manifest["end_to_end"]]
    if end_to_end != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from the code's")
    per_layer = [(e["name"], e["unit"]) for e in manifest["per_layer"]]
    if per_layer != per_layer_spec():
        problems.append("BENCHMARK.json per_layer differs from the code's")
    for limit, kind, entries in ((8, "workloads", declared),
                                 (16, "end_to_end", end_to_end),
                                 (128, "per_layer", per_layer)):
        if not 1 <= len(entries) <= limit:
            problems.append("{} {} declared, limit {}".format(
                len(entries), kind, limit))
    names = declared + [e[0] for e in end_to_end] + [e[0] for e in per_layer]
    problems += ["bad metric or workload name {!r}".format(name)
                 for name in names if not NAME_RE.match(name)]
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for name, document in results.items():
        for kind, expected in (("end_to_end", end_to_end),
                               ("per_layer", per_layer)):
            emitted = document[kind] or {}
            want = {e[0]: e[1] for e in expected}
            got = {metric: entry["unit"] for metric, entry in emitted.items()}
            if got != want:
                problems.append("{}: emitted {} metrics differ from declared"
                                " ({} vs {})".format(name, kind, len(got),
                                                     len(want)))
    return problems


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.compare:
        from benchmarks.perf.compare import compare_files

        return compare_files(*args.compare)
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print("src/repro not found under {}: the benchmark measures the "
              "repository it is checked out in".format(ROOT), file=sys.stderr)
        return 2
    if source not in sys.path:
        sys.path.insert(0, source)
    if args.trace is not None:
        return run_single(args)
    return run_all(args)
