"""The six workloads.  Names are permanent; sizes are recorded in the output.

Each workload is a closed loop (the next op starts when the previous one
returns) driven through public entry points of ``src/repro`` with
everything ``jobs=1`` inline.  A workload object is built from the seed
and a size scale and offers:

``setup()``
    Everything that must exist before the first op; timed as ``setup_s``.
    Workloads with ``fresh_state`` get a new state before every repeat.
``repeat(state, steps)``
    One timed pass over the seeded input.  ``steps.mark()`` closes one
    latency step (a round, a query, a scenario, a simulated second).
``verify(state, result)``
    Untimed: checks the outputs and returns an :class:`Outcome`.

``README.md`` records why each workload exists and which layer it loads.
"""

import contextlib
import os
import random

from repro.sim.units import SECOND

from benchmarks.perf.harness import fingerprint


class Outcome:
    """What one repeat produced, after checking it."""

    __slots__ = ("ops", "failed", "outputs", "problems", "extras")

    def __init__(self, ops, outputs, problems=(), failed=None, extras=None):
        self.ops = int(ops)
        self.problems = list(problems)
        # A failed output check fails every op of the repeat unless the
        # workload can say which ones failed.
        if failed is None:
            failed = self.ops if self.problems else 0
        self.failed = int(failed)
        self.outputs = outputs
        self.extras = extras or {}


class Workload:
    name = None
    op = None             # what ops_per_s counts
    step = None           # what step_ms_* times
    fresh_state = False   # set up again before every repeat

    def __init__(self, seed, scale=1.0, workdir=None):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.sizes = {}

    def setup(self):
        return None

    def teardown(self, state):
        pass

    def repeat(self, state, steps):
        raise NotImplementedError

    def verify(self, state, result):
        raise NotImplementedError


# -- fig2_guarded -------------------------------------------------------------


@contextlib.contextmanager
def sliced_kernel_runs(steps, slice_ns=SECOND):
    """Make ``Kernel.run(until=T)`` advance in ``slice_ns`` slices.

    ``run_figure2_scenario`` builds its kernel and runs it in one call, so
    there is no handle to time a simulated second from outside.  Running
    the engine to ``T`` in slices fires exactly the same events in the same
    order (nothing executes between slices), and ``steps.mark()`` after
    each slice gives the wall time per simulated second.
    """
    from repro.kernel.base import Kernel

    original = Kernel.run

    def run(self, until=None):
        if until is None:
            return original(self, until)
        edge = (self.engine.now // slice_ns + 1) * slice_ns
        while edge < until:
            original(self, edge)
            steps.mark()
            edge += slice_ns
        original(self, until)
        steps.mark()

    Kernel.run = run
    try:
        yield
    finally:
        Kernel.run = original


class Fig2Guarded(Workload):
    name = "fig2_guarded"
    op = "simulated I/O"
    step = "simulated second"
    MODEL_SEED = 1

    def __init__(self, seed, scale=1.0, workdir=None):
        super().__init__(seed, scale, workdir)
        self.drift_s = max(4, int(20 * scale))
        self.duration_s = self.drift_s + max(4, int(10 * scale))
        self.sizes = {"drift_at_s": self.drift_s,
                      "duration_s": self.duration_s, "rate_ios": 1200,
                      "train_seconds": 20}

    def setup(self):
        # The model is the policy under test, not an input: it is trained
        # on one fixed trace, and the workload seed drives the devices and
        # arrivals it then serves.  (Models trained from other seeds differ
        # by up to 20% in inference cost per I/O, which would show as
        # run-to-run spread rather than as anything a change did.)
        from repro.bench.scenarios import train_default_linnos_model

        return train_default_linnos_model(seed=self.MODEL_SEED)

    def repeat(self, model, steps):
        from repro.bench.scenarios import run_figure2_scenario

        with sliced_kernel_runs(steps):
            return run_figure2_scenario(
                model, "guarded", seed=self.seed + 1,
                drift_at_s=self.drift_s, duration_s=self.duration_s)

    def verify(self, model, result):
        monitor = result.kernel.guardrails.monitors()[0]
        trip_s = (monitor.violations[0].time / SECOND
                  if monitor.violations else None)
        problems = []
        if trip_s is None or not self.drift_s < trip_s <= self.drift_s + 3:
            problems.append("guardrail tripped at {} s, expected in ({}, {}]"
                            .format(trip_s, self.drift_s, self.drift_s + 3))
        if result.ml_enabled:
            problems.append("ml_enabled is still true after the trip")
        outputs = {
            "completed": result.volume.completed,
            "false_submits": result.volume.false_submits,
            "model_submits": result.volume.model_submits,
            "ml_enabled": result.ml_enabled,
            "trip_s": trip_s,
            "checks": monitor.check_count,
            "violations": monitor.violation_count,
            "latency_series": fingerprint([list(point)
                                           for point in result.series]),
        }
        return Outcome(result.volume.completed, outputs, problems)


# -- per_io_guardrails --------------------------------------------------------

#: Eight FUNCTION guardrails on the completion hook.  Every rule mixes a
#: call-site payload name, a raw LOAD and a windowed AVG (three distinct
#: windows, so three derived keys refresh per save) — except one fused
#: threshold, so both rule lanes the compiler can pick are on the path.
PER_IO_RULES = (
    "latency_us <= 6 * AVG(io_latency_us, 1s) + LOAD(lat_slack_us)",
    "service_us <= LOAD(service_cap_us)"
    " || AVG(io_latency_us, 1s) <= LOAD(avg_cap_us)",
    "latency_us - service_us <= 4 * AVG(io_latency_us, 2s)"
    " + LOAD(lat_slack_us)",
    "AVG(io_latency_us, 500ms) <= LOAD(avg_cap_us)"
    " && latency_us <= LOAD(hard_cap_us)",
    "!(slow) || AVG(io_latency_us, 1s) <= LOAD(avg_cap_us)",
    "LOAD(io_latency_us) <= 6000",
    "service_us <= 8 * AVG(io_latency_us, 2s) + LOAD(lat_slack_us)",
    "latency_us + LOAD(lat_slack_us) >= AVG(io_latency_us, 500ms) / 16",
)

PER_IO_STORE = (("lat_slack_us", 150.0), ("service_cap_us", 3000.0),
                ("avg_cap_us", 1500.0), ("hard_cap_us", 6000.0))


def per_io_spec():
    return "\n".join(
        "guardrail per-io-{} {{\n"
        "  trigger: {{ FUNCTION(storage.io_complete) }},\n"
        "  rule: {{ {} }},\n"
        "  action: {{ REPORT() }}\n"
        "}}".format(index, rule)
        for index, rule in enumerate(PER_IO_RULES))


class PerIoGuardrails(Workload):
    name = "per_io_guardrails"
    op = "guardrail check"
    step = "simulated second"
    fresh_state = True

    def __init__(self, seed, scale=1.0, workdir=None):
        super().__init__(seed, scale, workdir)
        self.duration_s = max(2, int(20 * scale))
        self.rate_ios = 1200
        self.sizes = {"duration_s": self.duration_s,
                      "rate_ios": self.rate_ios,
                      "function_guardrails": len(PER_IO_RULES)}

    def setup(self):
        from repro.bench.scenarios import LISTING2_SPEC, build_storage_kernel
        from repro.kernel.storage import PoissonWorkload

        kernel, _devices, volume = build_storage_kernel(seed=self.seed)
        for key, value in PER_IO_STORE:
            kernel.store.save(key, value)
        monitors = kernel.guardrails.load_all(per_io_spec())
        listing2 = kernel.guardrails.load(LISTING2_SPEC)
        PoissonWorkload(kernel, volume,
                        [(self.duration_s * SECOND, self.rate_ios)]).start()
        return kernel, volume, monitors, listing2

    def repeat(self, state, steps):
        kernel = state[0]
        for second in range(1, self.duration_s + 1):
            kernel.run(until=second * SECOND)
            steps.mark()
        return state

    def verify(self, _state, result):
        kernel, volume, monitors, listing2 = result
        per_io_checks = sum(m.check_count for m in monitors)
        problems = []
        if per_io_checks != len(monitors) * volume.completed:
            problems.append("{} per-I/O checks for {} guardrails x {} I/Os"
                            .format(per_io_checks, len(monitors),
                                    volume.completed))
        if listing2.check_count != self.duration_s:
            problems.append("{} timer checks in {} simulated seconds".format(
                listing2.check_count, self.duration_s))
        crashes = sum(m.rule_crash_count + m.action_crash_count
                      + m.action_error_count
                      for m in monitors + [listing2])
        if crashes:
            problems.append("{} rule/action crashes".format(crashes))
        outputs = {
            "completed": volume.completed,
            "reports": len(kernel.reporter.reports),
            "monitors": [[m.name, m.check_count, m.violation_count,
                          m.inconclusive_count, m.action_dispatch_count]
                         for m in monitors + [listing2]],
        }
        return Outcome(per_io_checks + listing2.check_count, outputs,
                       problems)


# -- fleet_rollout ------------------------------------------------------------


class FleetRollout(Workload):
    name = "fleet_rollout"
    op = "host-round"
    step = "lockstep round"

    def __init__(self, seed, scale=1.0, workdir=None):
        super().__init__(seed, scale, workdir)
        self.hosts = max(2, int(8 * scale))
        self.quick = scale < 1.0
        self.sizes = {"hosts": self.hosts, "quick": self.quick,
                      "stages": "canary:1,25%,100%"}

    def setup(self):
        # run_fleet_rollout builds its own fleet, so set-up cannot be taken
        # out of the repeat; the same construction is timed here on its own.
        from repro.fleet.scenario import build_fleet_rollout
        from repro.fleet.worker import FleetRunner

        built = build_fleet_rollout(hosts=self.hosts, seed=self.seed,
                                    quick=self.quick)
        FleetRunner(built.specs, built.old_version, SECOND,
                    built.total_rounds, jobs=1).close()
        return None

    def repeat(self, _state, steps):
        from repro.fleet.rollout import RolloutObserver
        from repro.fleet.scenario import run_fleet_rollout

        class RoundClock(RolloutObserver):
            started = False

            def on_timeline(self, entry):
                # The first timeline entry is recorded once the hosts
                # exist: rounds are timed from here, not from the call.
                if not self.started:
                    self.started = True
                    steps.start()

            def on_round(self, round_index, time_ns, digests):
                steps.mark()

        return run_fleet_rollout(hosts=self.hosts, quick=self.quick, jobs=1,
                                 seed=self.seed, observer=RoundClock())

    def verify(self, _state, report):
        problems = []
        if report["status"] != "completed":
            problems.append("rollout status {!r} (rolled back at {!r})".format(
                report["status"], report["rolled_back_at_stage"]))
        return Outcome(report["hosts"] * report["rounds"], report, problems)


# -- serve_soak ---------------------------------------------------------------


def _remove_store(path):
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)


def _clocked_store(steps):
    """``ResultsStore`` that closes one step after every committed round."""
    from repro.service.store import ResultsStore

    class ClockedStore(ResultsStore):
        def commit_round(self, *args, **kwargs):
            folded = super().commit_round(*args, **kwargs)
            steps.mark()
            return folded

    return ClockedStore


class ServeSoak(Workload):
    name = "serve_soak"
    op = "committed round"
    step = "committed round"
    fresh_state = True

    def __init__(self, seed, scale=1.0, workdir=None):
        super().__init__(seed, scale, workdir)
        self.hosts = max(4, int(32 * scale ** 0.5))
        self.rounds = max(24, int(120 * scale ** 0.5))
        self.rate_ios = 10
        self.sizes = {"hosts": self.hosts, "rounds": self.rounds,
                      "rate_ios": self.rate_ios, "raw_rounds": 8,
                      "bucket_rounds": 8}
        self._stores = 0

    def setup(self):
        # A fresh store on disk: file, WAL mode and schema.  The repeat
        # reopens it, which finds the schema in place.
        from repro.service.store import ResultsStore

        self._stores += 1
        path = os.path.join(self.workdir, "soak-{}.db".format(self._stores))
        ResultsStore(path, self._retention()).close()
        return path

    def _retention(self):
        from repro.service.store import RetentionPolicy

        return RetentionPolicy(raw_rounds=8, bucket_rounds=8)

    def teardown(self, path):
        _remove_store(path)

    def repeat(self, path, steps):
        from repro.service.loop import serve_soak

        store = _clocked_store(steps)(path, self._retention())
        try:
            summary = serve_soak(store, hosts=self.hosts, rounds=self.rounds,
                                 rate_ios=self.rate_ios, jobs=1,
                                 seed=self.seed)
        finally:
            store.close()
        return summary

    def verify(self, path, summary):
        from repro.service.store import ResultsStore

        problems = []
        if summary["committed_round"] != self.rounds - 1:
            problems.append("committed through round {}, expected {}".format(
                summary["committed_round"], self.rounds - 1))
        if summary["digests_ingested_now"] != self.hosts * self.rounds:
            problems.append("{} digests ingested, expected {}".format(
                summary["digests_ingested_now"], self.hosts * self.rounds))
        with ResultsStore(path) as store:
            run_id = summary["run"]
            kept = sum(row["completed_ios"]
                       for row in store.digest_rows(run_id))
            folded = sum(row["completed_ios"]
                         for row in store.bucket_rows(run_id))
        if kept + folded != summary["totals"]["completed_ios"]:
            problems.append(
                "raw + bucket rows hold {} I/Os, the runner reported {}"
                .format(kept + folded, summary["totals"]["completed_ios"]))
        extras = {
            "service.store.rows_written": summary["digests_ingested_now"],
            "service.store.rows_folded": summary["raw_rows_deleted_now"],
            "service.store.db_bytes": os.path.getsize(path),
        }
        return Outcome(self.rounds, summary, problems, extras=extras)


# -- store_query --------------------------------------------------------------

#: Ten queries per cycle.  The mix puts the median inside ``latency_trend``
#: (ranks 5-8 of 10 by cost) and the 90th percentile inside the full-range
#: ``merged_digest`` (ranks 9-10), so neither percentile sits on the edge
#: between two query kinds.
QUERY_CYCLE = ("run_status", "latency_trend", "merged_digest", "run_status",
               "latency_trend", "list_runs", "latency_trend", "merged_digest",
               "run_status", "latency_trend")


class StoreQuery(Workload):
    name = "store_query"
    op = "query"
    step = "query"

    def __init__(self, seed, scale=1.0, workdir=None):
        super().__init__(seed, scale, workdir)
        self.hosts = max(4, int(8 * scale ** 0.5))
        self.rounds = max(24, int(120 * scale ** 0.5))
        self.cycles = max(1, int(5 * scale))
        self.sizes = {"hosts": self.hosts, "rounds": self.rounds,
                      "rate_ios": 10, "raw_rounds": 8, "bucket_rounds": 8,
                      "queries_per_repeat": self.cycles * len(QUERY_CYCLE)}
        self._stores = 0

    def setup(self):
        from repro.service.loop import serve_soak
        from repro.service.store import ResultsStore, RetentionPolicy

        self._stores += 1
        path = os.path.join(self.workdir, "query-{}.db".format(self._stores))
        store = ResultsStore(path,
                             RetentionPolicy(raw_rounds=8, bucket_rounds=8))
        summary = serve_soak(store, hosts=self.hosts, rounds=self.rounds,
                             rate_ios=10, jobs=1, seed=self.seed)
        return store, summary

    def teardown(self, state):
        state[0].close()
        _remove_store(state[0].path)

    def repeat(self, state, steps):
        from repro.service import query

        store, summary = state
        run_id = summary["run"]
        answers = {}
        for _ in range(self.cycles):
            for kind in QUERY_CYCLE:
                if kind == "merged_digest":
                    answer = query.merged_digest(store, run_id, 0,
                                                 self.rounds)
                else:
                    answer = getattr(query, kind)(store)
                steps.mark()
                answers[kind] = answer
        return answers

    def verify(self, state, answers):
        _store, summary = state
        digest, coverage = answers["merged_digest"]
        outputs = dict(answers, merged_digest=[digest.to_dict(), coverage])
        problems = []
        totals = summary["totals"]
        if answers["run_status"]["totals"] != totals:
            problems.append("run_status totals {} != summary totals {}"
                            .format(answers["run_status"]["totals"], totals))
        if digest.completed_ios != totals["completed_ios"]:
            problems.append("merged digest holds {} I/Os, summary {}".format(
                digest.completed_ios, totals["completed_ios"]))
        return Outcome(self.cycles * len(QUERY_CYCLE), outputs, problems)


# -- scenario_zoo -------------------------------------------------------------


class ScenarioZoo(Workload):
    name = "scenario_zoo"
    op = "scenario"
    step = "scenario"

    def __init__(self, seed, scale=1.0, workdir=None):
        super().__init__(seed, scale, workdir)
        self.sizes = {"registry": "all" if scale >= 1.0
                      else "every third quick scenario"}

    def setup(self):
        # The registry's expected verdicts are calibrated for its own seeds
        # (other seeds flip some of them), so the scenarios are the input as
        # registered and the workload seed only decides the order they run.
        # Set-up validates the registry and dry-builds every zoo scenario
        # (kernel, domains, guardrails compiled and armed) without running
        # it; run_scenario builds its own, so this is the only place the
        # build cost can be seen apart from the run.
        from repro.kernel import Kernel
        from repro.scenarios.domains import attach_domain
        from repro.scenarios.registry import self_check
        from repro.scenarios.runner import select_scenarios

        problems = self_check()
        if problems:
            raise ValueError("registry self-check failed: {}".format(
                "; ".join(problems)))
        if self.scale >= 1.0:
            specs = select_scenarios()
        else:
            specs = select_scenarios(quick=True)[::3]
        random.Random(self.seed).shuffle(specs)
        for spec in specs:
            if spec.kind != "zoo":
                continue
            kernel = Kernel(seed=spec.seed)
            for domain, workload, policy in zip(spec.domains, spec.workloads,
                                                spec.policies):
                attach_domain(kernel, domain, workload=workload,
                              policy=policy,
                              duration_ns=int(spec.duration_s * SECOND))
        self.sizes["scenarios"] = len(specs)
        return specs

    def repeat(self, specs, steps):
        from repro.scenarios import spec as scenario_spec

        results = []
        for spec in specs:
            results.append(scenario_spec.run_scenario(spec))
            steps.mark()
        return results

    def verify(self, specs, results):
        mismatched = [result["name"] for result in results
                      if not result["matched"]]
        problems = []
        if mismatched:
            problems.append("verdicts differ from the registry: {}".format(
                ", ".join(mismatched)))
        return Outcome(len(results), results, problems,
                       failed=len(mismatched))


WORKLOADS = {cls.name: cls for cls in (
    Fig2Guarded, PerIoGuardrails, FleetRollout, ServeSoak, StoreQuery,
    ScenarioZoo)}
