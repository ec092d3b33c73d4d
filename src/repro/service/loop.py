"""The long-lived fleet service loop.

``grctl fleet`` is batch: run, print, exit.  This module is the
continuous-operation counterpart: it drives a fleet scenario round by
round on the virtual clock and streams every round's host digests — plus
the rollout control plane's phases, gate verdicts, and timeline — into a
:class:`~repro.service.store.ResultsStore` *as they happen*.  Nothing
buffers a whole run: peak memory is the live hosts plus one round of
digests, regardless of how many rounds or simulated I/Os the soak covers.

Checkpointing is the store's per-round transaction: each committed round
advances the ``committed_round`` watermark atomically with its data, so a
killed service restarts with :func:`resume` — the simulation replays
deterministically from round zero (hosts are sharded simulator state, not
serializable mid-round), skips ingest for every round at or below the
watermark, and continues committing where the dead service stopped.  No
round is ever duplicated or lost, and a resumed run's store is
byte-identical to an uninterrupted one.
"""

from repro.fleet.rollout import RolloutObserver
from repro.fleet.scenario import (
    build_fleet_rollout,
    fleet_versions,
    make_fleet_specs,
)
from repro.fleet.worker import FleetRunner
from repro.sim.units import SECOND
from repro.service.store import StoreError
from repro.trace.tracer import TRACER


class ServiceError(Exception):
    """The service loop cannot run or resume the requested scenario."""


class ServiceInterrupted(Exception):
    """Raised internally when ``max_rounds`` stops a run mid-flight."""


class StoreObserver(RolloutObserver):
    """Streams a controller's rounds and control-plane records to a store.

    Timeline entries are numbered with a deterministic global sequence;
    on resume, entries whose sequence is already committed are skipped
    (the replayed values are identical, the store stays append-only).
    Control records that accrue *after* a round's commit (gate verdicts,
    phase boundaries, post-bake timeline entries) ride along with the next
    round's transaction, or with the run's finalize.
    """

    def __init__(self, store, run_id, skip_through=-1, max_rounds=None):
        self.store = store
        self.run_id = run_id
        self.skip_through = skip_through
        self.max_rounds = max_rounds
        self.rounds_committed = 0
        self.digests_ingested = 0
        self.rows_deleted = 0
        self.status = "running"
        self._seq = 0
        self._skip_seq_through = store.max_event_seq(run_id)
        self._events = []
        self._phases = []
        self._gates = []

    # -- RolloutObserver hooks ---------------------------------------------

    def on_timeline(self, entry):
        seq = self._seq
        self._seq += 1
        if seq > self._skip_seq_through:
            self._events.append((seq, entry))

    def on_phase(self, phase):
        self._phases.append(phase)

    def on_gate(self, stage_label, round_index, result):
        self._gates.append((stage_label, round_index, result.to_dict()))

    def on_round(self, round_index, time_ns, digests):
        if round_index <= self.skip_through:
            # Already committed by the run this one resumes; the replay
            # only exists to rebuild simulator state.
            self._drain()
            return
        folded = self.store.commit_round(
            self.run_id, round_index, time_ns, digests,
            events=self._events, phases=self._phases, gates=self._gates)
        self._drain()
        self.rounds_committed += 1
        self.digests_ingested += len(digests)
        self.rows_deleted += folded["rows_deleted"]
        if TRACER.active:
            TRACER.emit("service", "round.commit", time_ns,
                        args={"run": self.run_id, "round": round_index,
                              "digests": len(digests)})
            if folded["rows_deleted"]:
                TRACER.emit("service", "retention.fold", time_ns,
                            args={"run": self.run_id,
                                  "rows_deleted": folded["rows_deleted"]})
        if (self.max_rounds is not None
                and self.rounds_committed >= self.max_rounds):
            raise ServiceInterrupted()

    # -- finalize ----------------------------------------------------------

    def _drain(self):
        self._events = []
        self._phases = []
        self._gates = []

    def finalize(self, status, rolled_back_at=None, final_rounds=None):
        self.status = status
        self.store.finalize_run(
            self.run_id, status, rolled_back_at=rolled_back_at,
            final_rounds=final_rounds, events=self._events,
            phases=self._phases, gates=self._gates)
        self._drain()
        if TRACER.active:
            TRACER.emit("service", "run.finalized",
                        (final_rounds or 0) * SECOND,
                        args={"run": self.run_id, "status": status})


def drive_rollout(observer, built, jobs):
    """Run ``built``'s staged rollout, committing through ``observer``.

    Returns the controller's report, or ``None`` when the observer's
    ``max_rounds`` stopped the run before it finished (the run stays
    ``running``, resumable).  :class:`StoreError` propagates.
    """
    try:
        report = built.run(jobs=jobs, observer=observer)
    except ServiceInterrupted:
        return None
    observer.finalize(report["status"],
                      rolled_back_at=report["rolled_back_at_stage"],
                      final_rounds=report["rounds"])
    return report


def drive_soak(observer, specs, version, rounds, jobs):
    """Step ``specs`` on ``version`` for ``rounds`` rounds, no rollout.

    Every round's digests are committed through ``observer`` as they
    come; its ``status`` stays ``running`` when its ``max_rounds``
    stopped the run early.  :class:`StoreError` propagates.
    """
    with FleetRunner(specs, version, SECOND, rounds, jobs=jobs) as runner:
        for round_index in range(rounds):
            until_ns = (round_index + 1) * SECOND
            digests = runner.step_round(round_index, until_ns)
            try:
                observer.on_round(round_index, until_ns, digests)
            except ServiceInterrupted:
                return
    observer.finalize("completed", final_rounds=rounds)


def _summary(store, observer):
    run_id = observer.run_id
    totals = {"completed_ios": 0, "violations": 0, "inconclusive": 0,
              "checks": 0}
    for row in store.round_rows(run_id):
        for key in totals:
            totals[key] += row[key]
    run = store.run(run_id)
    return {
        "run": run_id,
        "kind": run["kind"],
        "status": observer.status,
        "hosts": run["hosts"],
        "committed_round": run["committed_round"],
        "rounds_committed_now": observer.rounds_committed,
        "digests_ingested_now": observer.digests_ingested,
        "raw_rows_deleted_now": observer.rows_deleted,
        "totals": totals,
    }


def serve_rollout(store, hosts=8, stages="canary:1,25%,100%", seed=42,
                  fault_hosts=0, quick=False, jobs=1, max_rounds=None):
    """Run the canonical staged rollout *into a store*; returns a summary.

    Identical simulation to :func:`repro.fleet.scenario.run_fleet_rollout`
    (same builder, same controller) — the store just watches, which is why
    a report regenerated from the store matches the live report
    byte-for-byte.  ``max_rounds`` commits that many rounds and stops
    without finalizing, leaving the run resumable.
    """
    built = build_fleet_rollout(hosts=hosts, stages=stages, seed=seed,
                                fault_hosts=fault_hosts, quick=quick)
    try:
        run_id = store.begin_run(
            "rollout", built.scenario, SECOND, hosts,
            total_rounds=built.total_rounds, plan=built.plan.to_dict(),
            versions={"old": built.old_version.to_dict(),
                      "new": built.new_version.to_dict()})
        observer = StoreObserver(store, run_id, max_rounds=max_rounds)
        drive_rollout(observer, built, jobs)
        return _summary(store, observer)
    except StoreError as exc:
        raise ServiceError(str(exc))


def serve_soak(store, hosts=8, seed=42, rate_ios=400, rounds=30, jobs=1,
               max_rounds=None):
    """Run a steady-state soak (no rollout) into a store.

    Every host runs the observe-only v1 guardrail for ``rounds`` lockstep
    rounds; the value is the stream of digests, not a deployment verdict.
    This is the bounded-memory scaling scenario: hundreds of hosts times
    millions of simulated I/Os, with the store's retention policy keeping
    disk bounded too.
    """
    scenario = {"hosts": hosts, "seed": seed, "rate_ios": rate_ios,
                "rounds": rounds}
    try:
        run_id = store.begin_run("soak", scenario, SECOND, hosts,
                                 total_rounds=rounds)
        return _soak(store, run_id, scenario, jobs, max_rounds,
                     skip_through=-1)
    except StoreError as exc:
        raise ServiceError(str(exc))


def _soak(store, run_id, scenario, jobs, max_rounds, skip_through):
    """The service soak of ``scenario``: every host on the v1 guardrail."""
    specs = make_fleet_specs(scenario["hosts"], scenario["seed"],
                             scenario["rate_ios"])
    observer = StoreObserver(store, run_id, skip_through=skip_through,
                             max_rounds=max_rounds)
    drive_soak(observer, specs, fleet_versions()[0], scenario["rounds"],
               jobs)
    return _summary(store, observer)


def resume(store, run_id=None, jobs=1, max_rounds=None):
    """Resume an interrupted run from its last committed round.

    The scenario is rebuilt from the run row alone and replayed
    deterministically; rounds at or below the checkpoint watermark are
    re-simulated (to rebuild host state) but not re-ingested.
    """
    try:
        if run_id is None:
            run_id = store.latest_run_id()
            if run_id is None:
                raise ServiceError("store {!r} has no runs".format(store.path))
        run = store.run(run_id)
        if run["status"] != "running":
            raise ServiceError(
                "run {} is {}; only interrupted (running) runs resume".format(
                    run_id, run["status"]))
        if TRACER.active:
            TRACER.emit("service", "checkpoint.resume",
                        (run["committed_round"] + 1) * run["round_ns"],
                        args={"run": run_id,
                              "committed_round": run["committed_round"]})
        watermark = run["committed_round"]
        if run["kind"] == "rollout":
            scenario = run["scenario"]
            built = build_fleet_rollout(
                hosts=scenario["hosts"], stages=scenario["stages"],
                seed=scenario["seed"], fault_hosts=scenario["fault_hosts"],
                # Stores written before fault kinds existed hold corrupt-fault
                # runs, the only kind there was.
                fault_kind=scenario.get("fault_kind", "corrupt"),
                quick=scenario["quick"])
            observer = StoreObserver(store, run_id, skip_through=watermark,
                                     max_rounds=max_rounds)
            drive_rollout(observer, built, jobs)
            return _summary(store, observer)
        if run["kind"] == "soak":
            return _soak(store, run_id, run["scenario"], jobs, max_rounds,
                         skip_through=watermark)
        if run["kind"].startswith("autopilot."):
            raise ServiceError(
                "run {} is an {} run; autopilot runs replay as a whole — "
                "rerun `grctl autopilot` instead of resuming".format(
                    run_id, run["kind"]))
        raise ServiceError("run {} has unknown kind {!r}".format(
            run_id, run["kind"]))
    except StoreError as exc:
        raise ServiceError(str(exc))


__all__ = [
    "ServiceError",
    "StoreObserver",
    "drive_rollout",
    "drive_soak",
    "resume",
    "serve_rollout",
    "serve_soak",
]
