"""Sharded fleet workers: N independent simulated hosts on a process pool.

Each :class:`SimulatedHost` is a full single-kernel stack — its own
:class:`~repro.sim.engine.Engine`, feature store, monitor host, replicated
storage volume, Poisson workload, and (optionally) an armed fault plan —
seeded deterministically from its :class:`HostSpec`.  Hosts share nothing,
which is what makes sharding safe: the :class:`FleetRunner` splits them
into contiguous shards across worker processes and steps the whole fleet
in lockstep *rounds*, reusing the ``repro.bench.runner`` process
machinery (daemon workers, ``Pipe`` transport with the send-before-exit
discipline, poll-with-deadline supervision).

Per round the runner broadcasts the control plane's directives (guardrail
version updates, keyed by host id), each worker steps its hosts to the
round boundary and ships back one :class:`~repro.fleet.aggregate.HostDigest`
per host.  Digests are merged sorted by host id, so the fleet-level result
is byte-identical across ``--jobs`` values — shard assignment can never
leak into the outcome.
"""

import multiprocessing
import time
import traceback

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.fleet.aggregate import HostDigest
from repro.fleet.rollout import GuardrailVersion

_POLL_S = 0.02
_WORKER_TIMEOUT_S = 300.0


class FleetError(Exception):
    """A fleet worker died or broke the step protocol."""


class HostSpec:
    """Deterministic recipe for one simulated host (picklable).

    ``drift_s`` schedules the Figure-2 device-regime drift on this host:
    at that virtual second every replica switches to the post-drift
    profile, so the shortest-queue stand-in's "predict fast" mapping goes
    wrong and ``false_submit_rate`` spikes — a *behavioural* failure, as
    opposed to the telemetry failures ``fault_flags`` inject.
    """

    __slots__ = ("host_id", "seed", "rate_ios", "fault_flags", "fault_seed",
                 "drift_s")

    def __init__(self, host_id, seed, rate_ios=400,
                 fault_flags=(), fault_seed=0, drift_s=None):
        self.host_id = int(host_id)
        self.seed = int(seed)
        self.rate_ios = int(rate_ios)
        self.fault_flags = tuple(fault_flags)
        self.fault_seed = int(fault_seed)
        self.drift_s = None if drift_s is None else float(drift_s)

    def __repr__(self):
        return "HostSpec(host{}, seed={}{}{})".format(
            self.host_id, self.seed,
            ", faulted" if self.fault_flags else "",
            ", drift@{:g}s".format(self.drift_s)
            if self.drift_s is not None else "")


class SimulatedHost:
    """One host of the fleet: kernel + workload + versioned guardrail.

    The workload is the ``grctl faults`` stand-in stack (replicated SSD
    volume served by ``storage.shortest_queue``, which predicts "fast" on
    every submit) so the Listing-2 ``false_submit_rate`` signal exists on
    every host without per-host model training.
    """

    def __init__(self, spec, initial_version, round_ns, total_rounds):
        from repro.bench.scenarios import (
            build_storage_kernel,
            shortest_queue_policy,
        )
        from repro.kernel.storage import PoissonWorkload

        self.spec = spec
        kernel, devices, volume = build_storage_kernel(seed=spec.seed)
        self.kernel = kernel
        self.volume = volume
        volume.install_policy("storage.shortest_queue",
                              shortest_queue_policy())
        self.version = initial_version.version
        kernel.guardrails.load(initial_version.text)
        # Digests carry per-round deltas of the live monitors' cumulative
        # counters.  GuardrailManager.update() replaces a monitor and zeroes
        # its counts, so apply() subtracts the retiree's counts from these
        # watermarks: what it counted since the last digest still lands in
        # the next one.
        self._reported_checks = self._reported_violations = 0
        self._reported_actions = self._reported_inconclusive = 0
        if spec.fault_flags:
            plan = FaultPlan.from_flags(spec.fault_flags,
                                        seed=spec.fault_seed)
            self.injector = FaultInjector(kernel, plan).install()
        else:
            self.injector = None
        if spec.drift_s is not None:
            from repro.kernel.storage import DeviceProfile
            from repro.kernel.storage.trace import schedule_profile_change
            schedule_profile_change(kernel, devices,
                                    DeviceProfile.post_drift(),
                                    int(spec.drift_s * 1e9))
        self._digest = HostDigest(spec.host_id, 0, 0, self.version)
        self._digest_probe = volume.complete_hook.attach(
            self._on_io_complete, name="fleet.digest")
        self.workload = PoissonWorkload(
            kernel, volume, [(total_rounds * round_ns, spec.rate_ios)]
        ).start()

    # -- digest plumbing ---------------------------------------------------

    def _on_io_complete(self, _hook, now, payload):
        # The storage.io_complete payload always carries every key.
        self._digest.observe_io(
            now, payload["latency_us"], payload["false_submit"],
            bool(payload["used_model"] and payload["predicted_fast"]))

    def close(self):
        """Release what the host holds; it must not be stepped again.

        Kernel, engine events and probes reference each other, so a
        finished host is otherwise freed only by the cyclic collector's
        next full pass — and until then it keeps every per-I/O metric
        sample it recorded, most of its memory.
        """
        self._digest_probe.detach()
        kernel = self.kernel
        kernel.engine.clear()
        kernel.metrics.clear()

    # -- control-plane surface ---------------------------------------------

    def apply(self, version):
        """Move this host to ``version`` via the no-reboot update path."""
        if version.version == self.version:
            return
        manager = self.kernel.guardrails
        if version.name in manager:
            retiring = manager.get(version.name)
            self._reported_checks -= retiring.check_count
            self._reported_violations -= retiring.violation_count
            self._reported_actions -= retiring.action_dispatch_count
            self._reported_inconclusive -= retiring.inconclusive_count
            manager.update(version.text)
        else:
            manager.load(version.text)
        self.version = version.version

    def step(self, until_ns):
        self.kernel.run(until=until_ns)

    def digest(self, round_index):
        """Seal and return the round's digest; open a fresh one."""
        digest = self._digest
        digest.round_index = round_index
        digest.time_ns = self.kernel.engine.now
        digest.version = self.version
        checks = violations = actions = inconclusive = 0
        for monitor in self.kernel.guardrails.monitors():
            checks += monitor.check_count
            violations += monitor.violation_count
            actions += monitor.action_dispatch_count
            inconclusive += monitor.inconclusive_count
        digest.checks = checks - self._reported_checks
        digest.violations = violations - self._reported_violations
        digest.actions = actions - self._reported_actions
        digest.inconclusive = inconclusive - self._reported_inconclusive
        self._reported_checks = checks
        self._reported_violations = violations
        self._reported_actions = actions
        self._reported_inconclusive = inconclusive
        self._digest = HostDigest(self.spec.host_id, round_index + 1,
                                  0, self.version)
        return digest


def _step_hosts(hosts, round_index, until_ns, directives):
    """Apply directives, advance, and digest one shard of hosts."""
    digests = []
    for host in hosts:
        for version_dict in directives.get(host.spec.host_id, ()):
            host.apply(GuardrailVersion.from_dict(version_dict))
        host.step(until_ns)
        digests.append(host.digest(round_index))
    return digests


def _fleet_worker(specs, initial_version_dict, round_ns, total_rounds, conn):
    """Child-process entry: own a shard of hosts for the whole run.

    Results travel over a pipe (send completes before any exit), matching
    the bench runner's transport discipline.
    """
    try:
        version = GuardrailVersion.from_dict(initial_version_dict)
        hosts = [SimulatedHost(spec, version, round_ns, total_rounds)
                 for spec in specs]
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            _, round_index, until_ns, directives = message
            conn.send(("digests",
                       _step_hosts(hosts, round_index, until_ns, directives)))
    except EOFError:
        pass
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


class _InlineShard:
    """jobs=1 lane: the same stepping code, no subprocess."""

    def __init__(self, specs, initial_version, round_ns, total_rounds):
        self.hosts = [SimulatedHost(spec, initial_version, round_ns,
                                    total_rounds) for spec in specs]
        self._digests = None

    def send_step(self, round_index, until_ns, directives):
        self._digests = _step_hosts(self.hosts, round_index, until_ns,
                                    directives)

    def collect(self):
        digests, self._digests = self._digests, None
        return digests

    def close(self):
        for host in self.hosts:
            host.close()
        self.hosts = []


class _ProcessShard:
    """One worker process owning a contiguous shard of hosts."""

    def __init__(self, specs, initial_version, round_ns, total_rounds):
        self.specs = specs
        self.conn, child_conn = multiprocessing.Pipe(duplex=True)
        self.process = multiprocessing.Process(
            target=_fleet_worker,
            args=(specs, initial_version.to_dict(), round_ns, total_rounds,
                  child_conn),
            daemon=True)
        self.process.start()
        child_conn.close()

    def send_step(self, round_index, until_ns, directives):
        shard_directives = {
            spec.host_id: directives[spec.host_id]
            for spec in self.specs if spec.host_id in directives
        }
        try:
            self.conn.send(("step", round_index, until_ns, shard_directives))
        except (BrokenPipeError, OSError):
            raise FleetError(
                "fleet worker for hosts {} is gone".format(
                    [s.host_id for s in self.specs]))

    def collect(self):
        deadline = time.monotonic() + _WORKER_TIMEOUT_S
        while True:
            try:
                if self.conn.poll(_POLL_S):
                    status, payload = self.conn.recv()
                    break
            except (EOFError, OSError):
                status, payload = None, None
                break
            if not self.process.is_alive() and not self.conn.poll():
                status, payload = None, None
                break
            if time.monotonic() > deadline:
                raise FleetError("fleet worker timed out after {:.0f}s"
                                 .format(_WORKER_TIMEOUT_S))
        if status == "digests":
            return payload
        if status == "error":
            raise FleetError("fleet worker crashed:\n{}".format(payload))
        raise FleetError(
            "fleet worker for hosts {} exited with code {}".format(
                [s.host_id for s in self.specs], self.process.exitcode))

    def close(self):
        try:
            self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self.conn.close()
        self.process.join(5)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join()


class FleetRunner:
    """Steps a fleet of simulated hosts in lockstep rounds.

    ``jobs=1`` runs every host inline (fast, debuggable); ``jobs>1``
    spawns worker processes, each owning a contiguous shard.  Digest
    order and content are independent of ``jobs``.
    """

    def __init__(self, specs, initial_version, round_ns, total_rounds,
                 jobs=1):
        specs = sorted(specs, key=lambda s: s.host_id)
        if not specs:
            raise ValueError("fleet needs at least one host")
        jobs = max(1, min(int(jobs), len(specs)))
        self.jobs = jobs
        self.host_ids = [s.host_id for s in specs]
        if jobs == 1:
            self._shards = [_InlineShard(specs, initial_version, round_ns,
                                         total_rounds)]
        else:
            # Contiguous split, remainder spread over the first shards.
            base, extra = divmod(len(specs), jobs)
            shards, start = [], 0
            for index in range(jobs):
                size = base + (1 if index < extra else 0)
                shards.append(_ProcessShard(
                    specs[start:start + size], initial_version, round_ns,
                    total_rounds))
                start += size
            self._shards = shards
        self._closed = False

    def step_round(self, round_index, until_ns, directives=None):
        """Advance every host to ``until_ns``; digests sorted by host id."""
        directives = directives or {}
        for shard in self._shards:
            shard.send_step(round_index, until_ns, directives)
        digests = []
        for shard in self._shards:
            digests.extend(shard.collect())
        return sorted(digests, key=lambda d: d.host_id)

    def close(self):
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            shard.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


__all__ = [
    "FleetError",
    "FleetRunner",
    "HostSpec",
    "SimulatedHost",
]
