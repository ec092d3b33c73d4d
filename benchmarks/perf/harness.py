"""Measure one workload: set-up, warm-up, timed repeats, optional tracing.

End-to-end metrics always come from untraced repeats.  With ``traced=True``
the loop alternates untraced and traced repeats: the traced ones give the
per-layer metrics, the ratio of the two is the tracing overhead.
"""

import hashlib
import json
import math
import resource
import statistics
import time

from benchmarks.perf import layers
from benchmarks.perf.spans import SpanRecorder

#: name, unit, better, bound (share of the parent's median it may worsen by).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("cpu_us_per_op", "us", "lower", 0.25),
    ("step_ms_p50", "ms", "lower", 0.25),
    ("step_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
]

SETUP_RUNS = 3          # up-front set-ups, so setup_s is a median from the start
SETUP_SHARE = 0.1       # ... then more between repeats, for this share of
                        # the time the repeats took, spread over the run
MIN_REPEATS = 3
TAIL = 0.90             # the highest percentile every workload can fill
MIN_BEYOND = 10         # samples that must lie beyond a reported percentile
NOISY_CALIB_DRIFT = 0.15


class BenchError(Exception):
    """The run cannot produce a valid measurement."""


class StepClock:
    """Durations of consecutive latency steps of one repeat."""

    def __init__(self):
        self.durations = []
        self._last = None

    def start(self):
        self._last = time.perf_counter()

    def mark(self):
        now = time.perf_counter()
        self.durations.append(now - self._last)
        self._last = now


def percentile(samples, q, strict=True, raw_count=None):
    """Linear-interpolated ``q`` quantile of ``samples``.

    Refuses (``BenchError``) a percentile with fewer than
    :data:`MIN_BEYOND` samples beyond it unless ``strict`` is off, which
    only the smoke and traced runs use.  ``raw_count`` is the number of
    measurements behind ``samples`` when each sample already summarises
    several (see :func:`step_profile`).
    """
    count = len(samples)
    beyond = (count if raw_count is None else raw_count) * min(q, 1.0 - q)
    if count == 0 or (strict and beyond < MIN_BEYOND - 1e-9):
        raise BenchError(
            "p{:g} needs {} samples beyond it, {} samples give {:.1f}".format(
                q * 100, MIN_BEYOND, count, beyond))
    ordered = sorted(samples)
    position = q * (count - 1)
    low = math.floor(position)
    high = min(low + 1, count - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def step_profile(repeats_steps):
    """Typical duration of each step position: the median over repeats.

    Every repeat runs the same seeded input, so step ``i`` does the same
    work each time and differences between repeats are the machine (on the
    reference box +-15% from one 90 ms step to the next).  Percentiles are
    taken over this profile, so they say which steps are structurally slow
    — the rounds that fold, the heavy scenarios, the digest queries — and
    not how noisy the minute was.  A pause that does not recur at the same
    position in at least half the repeats (most full GC passes) drops out.
    """
    counts = {len(steps) for steps in repeats_steps}
    if len(counts) != 1:
        raise BenchError("repeats of one input took {} steps".format(
            sorted(counts)))
    return [statistics.median(position)
            for position in zip(*repeats_steps)]


def min_steps(q=TAIL):
    """Fewest pooled steps for which :func:`percentile` accepts ``q``."""
    return math.ceil(MIN_BEYOND / min(q, 1.0 - q) - 1e-9)


def _calibration_loop():
    start = time.perf_counter()
    total = 0
    for value in range(200_000):
        total += value * value % 7
    return (time.perf_counter() - start) * 1e3


def calibrate():
    """Milliseconds a fixed pure-Python loop takes now (median of five).

    Taken before and after a workload: the loop does no I/O and allocates
    nothing, so a change is the machine, not the program.
    """
    return statistics.median(_calibration_loop() for _ in range(5))


def fingerprint(outputs):
    """sha256 of the canonical JSON of a repeat's simulated outputs."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _Repeat:
    __slots__ = ("wall_s", "cpu_s", "region_s", "steps", "outcome",
                 "fingerprint", "recorder", "missing")


def _run_once(workload, state, traced):
    """One repeat (with its set-up when the workload needs fresh state).

    Returns ``(state, setup_s or None, _Repeat)``.  The traced region is
    what every iteration pays: the fresh set-up, when there is one, plus
    the repeat.  Verification stays outside both clocks.
    """
    repeat = _Repeat()
    repeat.recorder = recorder = SpanRecorder() if traced else None
    repeat.missing = []
    steps = StepClock()
    setup_s = None
    if workload.fresh_state and state is not None:
        workload.teardown(state)
        state = None
    patches = layers.install(recorder) if traced else None
    try:
        region_start = time.perf_counter()
        if workload.fresh_state:
            state = workload.setup()
            setup_s = time.perf_counter() - region_start
        cpu_start = time.process_time()
        start = time.perf_counter()
        steps.start()
        result = workload.repeat(state, steps)
        end = time.perf_counter()
        repeat.cpu_s = time.process_time() - cpu_start
    finally:
        if patches is not None:
            repeat.missing = patches.missing
            patches.restore()
    repeat.wall_s = end - start
    repeat.region_s = end - region_start
    repeat.steps = steps.durations
    repeat.outcome = workload.verify(state, result)
    repeat.fingerprint = fingerprint(repeat.outcome.outputs)
    return state, setup_s, repeat


def measure(workload, seconds, traced=False, smoke=False):
    """Run ``workload`` for about ``seconds`` and return the result document."""
    calib_before = calibrate()
    setups = []
    state = None
    for _ in range(1 if smoke else SETUP_RUNS):
        if state is not None:
            workload.teardown(state)
        start = time.perf_counter()
        state = workload.setup()
        setups.append(time.perf_counter() - start)
    extra_setup_s = 0.0

    plain, traces, problems = [], [], []
    try:
        state, _, warm = _run_once(workload, state, traced=False)
        reference = warm.fingerprint
        problems.extend(warm.outcome.problems)
        loop_start = time.perf_counter()
        hard_stop = loop_start + max(4.0 * seconds, 60.0)
        while True:
            for kind in ((False, True) if traced else (False,)):
                state, setup_s, repeat = _run_once(workload, state, kind)
                if setup_s is not None:
                    setups.append(setup_s)
                (traces if kind else plain).append(repeat)
            if smoke:
                break
            # Machine speed drifts over seconds, so set-up is sampled all
            # along the run, not in one burst at its start.
            budget = SETUP_SHARE * sum(r.region_s for r in plain + traces)
            typical = statistics.median(setups)
            while extra_setup_s + typical <= budget:
                start = time.perf_counter()
                spare = workload.setup()
                setups.append(time.perf_counter() - start)
                extra_setup_s += setups[-1]
                workload.teardown(spare)
            now = time.perf_counter()
            pooled = sum(len(r.steps) for r in plain)
            if traced:
                # Percentiles are not what a traced run is for: two traced
                # repeats give the per-layer medians, then time decides.
                enough = len(traces) >= 2
            else:
                enough = len(plain) >= MIN_REPEATS and pooled >= min_steps()
            if enough and now - loop_start >= seconds:
                break
            if now >= hard_stop:
                raise BenchError(
                    "{}: {} repeats and {} steps after {:.0f} s, need {} and {}"
                    .format(workload.name, len(plain), pooled,
                            now - loop_start, MIN_REPEATS, min_steps()))
    finally:
        if state is not None:
            workload.teardown(state)
    calib_after = calibrate()

    for repeat in plain + traces:
        problems.extend(repeat.outcome.problems)
    fingerprints_agree = all(r.fingerprint == reference
                             for r in plain + traces)
    if not fingerprints_agree:
        problems.append("repeats of one seeded input gave different outputs")
    attempted = sum(r.outcome.ops for r in plain + traces)
    failed = sum(r.outcome.failed for r in plain + traces)
    if not fingerprints_agree:
        failed = attempted
    if failed and not problems:
        problems.append("{} of {} ops failed".format(failed, attempted))

    profile = step_profile([r.steps for r in plain])
    pooled = sum(len(r.steps) for r in plain)
    strict = not (smoke or traced)
    median_wall = statistics.median(r.wall_s for r in plain)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(
            r.outcome.ops / r.wall_s for r in plain),
        "cpu_us_per_op": statistics.median(
            r.cpu_s * 1e6 / r.outcome.ops for r in plain),
        "step_ms_p50": percentile(profile, 0.5, strict, pooled) * 1e3,
        "step_ms_p90": percentile(profile, TAIL, strict, pooled) * 1e3,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    calib_drift = abs(calib_after - calib_before) / min(calib_after,
                                                        calib_before)
    document = {
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "smoke": smoke,
        "traced": traced,
        "sizes": workload.sizes,
        "op": workload.op,
        "step": workload.step,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "sim_fingerprint": reference,
        "sim_fingerprint_ok": int(fingerprints_agree),
        "problems": sorted(set(problems)),
        "samples": {"repeats": len(plain), "steps": pooled,
                    "steps_per_repeat": len(profile),
                    "setups": len(setups), "traced_repeats": len(traces),
                    "repeat_wall_s": median_wall},
        "calib_ms": [calib_before, calib_after],
        "noisy": calib_drift > NOISY_CALIB_DRIFT,
        "end_to_end": {name: {"value": end_to_end[name], "unit": unit}
                       for name, unit, _better, _bound in END_TO_END},
        "per_layer": None,
        "spans": None,
    }
    if traced:
        document.update(_per_layer(plain, traces, calib_before, calib_after))
    return document


def _per_layer(plain, traces, calib_before, calib_after):
    """Per-layer metrics: the median of each over the traced repeats."""
    per_repeat = [
        layers.per_layer_metrics(r.recorder, r.region_s, r.outcome.extras)
        for r in traces
    ]
    values = {name: statistics.median(m[name] for m in per_repeat)
              for name in per_repeat[0]}
    values["bench.trace_overhead_x"] = (
        statistics.median(r.region_s for r in traces)
        / statistics.median(r.region_s for r in plain))
    values["bench.calib_ms"] = (calib_before + calib_after) / 2.0
    first = traces[0]
    return {
        "per_layer": {name: {"value": values[name], "unit": unit}
                      for name, unit in layers.per_layer_spec()},
        "spans": {
            "edges": first.recorder.edge_rows(),
            "raw": first.recorder.raw_rows(),
            "missing": first.missing,
        },
    }
