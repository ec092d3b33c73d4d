"""Judge two benchmark outputs against the benchmark's own bounds.

``python -m benchmarks.perf --compare A.json B.json`` reads two files
written by ``--out`` (each may hold several runs, see ``--runs``) and prints
one row per (workload, end-to-end metric): both medians, the ratio B/A, the
bound, and a verdict:

``ok``
    B's median is not worse than A's by more than the bound.
``regressed``
    It is, and the runs of each side agree with themselves well enough to
    say so.
``unresolved``
    The spread between the runs of one side (first to third quartile, as a
    share of its median) is wider than the bound, and B's runs are not all
    better than all of A's; no verdict can be read from these runs.

A is the base of every ratio.  Exit code 1 if any row regressed.
"""

import json
import statistics

from benchmarks.perf.harness import END_TO_END

_SPEC = {entry[0]: entry for entry in END_TO_END}


def load(path):
    """``(values, fingerprints)`` of one ``--out`` file.

    ``values[(workload, metric)]`` lists the metric over the file's runs;
    ``fingerprints[(workload, seed)]`` is the run's ``sim_fingerprint``.
    """
    with open(path) as handle:
        document = json.load(handle)
    values, fingerprints = {}, {}
    for run in document["runs"]:
        for workload, result in run["workloads"].items():
            fingerprints[(workload, run["seed"])] = result["sim_fingerprint"]
            for metric, entry in result["end_to_end"].items():
                values.setdefault((workload, metric), []).append(
                    entry["value"])
    return values, fingerprints


def spread(values):
    """Quartile distance as a share of the median; 0 for a single run."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(a_values, b_values, better, bound):
    """``(status, worse_by)`` for one metric; ``worse_by`` is a share of A."""
    a_median = statistics.median(a_values)
    b_median = statistics.median(b_values)
    if better == "lower":
        worse_by = (b_median - a_median) / a_median
        all_better = max(b_values) < min(a_values)
    else:
        worse_by = (a_median - b_median) / a_median
        all_better = min(b_values) > max(a_values)
    if max(spread(a_values), spread(b_values)) > bound and not all_better:
        return "unresolved", worse_by
    return ("regressed" if worse_by > bound else "ok"), worse_by


def compare(a, b):
    """Rows for every (workload, metric) present in both outputs."""
    a_values, _ = a
    b_values, _ = b
    rows = []
    for (workload, metric), a_list in a_values.items():
        b_list = b_values.get((workload, metric))
        if b_list is None:
            continue
        _name, unit, better, bound = _SPEC[metric]
        status, worse_by = verdict(a_list, b_list, better, bound)
        a_median = statistics.median(a_list)
        b_median = statistics.median(b_list)
        rows.append({
            "workload": workload, "metric": metric, "unit": unit,
            "better": better, "bound": bound,
            "a_median": a_median, "b_median": b_median,
            "ratio_b_over_a": b_median / a_median, "worse_by": worse_by,
            "a_runs": len(a_list), "b_runs": len(b_list),
            "a_spread": spread(a_list), "b_spread": spread(b_list),
            "status": status,
        })
    return rows


def fingerprint_rows(a, b):
    """Per workload: how many seeds both sides ran, how many agree."""
    _, a_prints = a
    _, b_prints = b
    rows = {}
    for key in sorted(set(a_prints) & set(b_prints)):
        shared, same = rows.get(key[0], (0, 0))
        rows[key[0]] = (shared + 1, same + (a_prints[key] == b_prints[key]))
    return rows


def compare_files(a_path, b_path):
    a, b = load(a_path), load(b_path)
    rows = compare(a, b)
    print("A = {}\nB = {}\nratio = B/A (base A); spread = (Q3-Q1)/median "
          "over each side's runs".format(a_path, b_path))
    header = "{:<18} {:<14} {:>6} {:>12} {:>12} {:>8} {:>6} {:>8} {:>8}  {}"
    print(header.format("workload", "metric", "unit", "A median", "B median",
                        "B/A", "bound", "A sprd", "B sprd", "status"))
    for row in rows:
        print(header.format(
            row["workload"], row["metric"], row["unit"],
            "{:.5g}".format(row["a_median"]),
            "{:.5g}".format(row["b_median"]),
            "{:.4f}".format(row["ratio_b_over_a"]),
            "{:.0%}".format(row["bound"]),
            "{:.1%}".format(row["a_spread"]),
            "{:.1%}".format(row["b_spread"]),
            row["status"] + (" ({} better)".format(row["better"])
                             if row["status"] != "ok" else "")))
    for workload, (shared, same) in fingerprint_rows(a, b).items():
        print("sim_fingerprint {:<18} {} of {} shared seed(s) identical{}"
              .format(workload, same, shared,
                      "" if same == shared else "  <-- simulated outputs differ"))
    counts = {status: sum(1 for row in rows if row["status"] == status)
              for status in ("ok", "regressed", "unresolved")}
    print("{ok} ok, {regressed} regressed, {unresolved} unresolved"
          .format(**counts))
    return 1 if counts["regressed"] else 0
