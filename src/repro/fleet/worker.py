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


#: Storage pick policies a host spec may name.  ``round_robin`` is the
#: volume's registered default slot, so it installs nothing.
STORAGE_POLICIES = ("storage.shortest_queue", "storage.round_robin")


class HostSpec:
    """Deterministic recipe for one simulated host (picklable).

    ``drift_s`` schedules the Figure-2 device-regime drift on this host:
    at that virtual second every replica switches to the post-drift
    profile, so the shortest-queue stand-in's "predict fast" mapping goes
    wrong and ``false_submit_rate`` spikes — a *behavioural* failure, as
    opposed to the telemetry failures ``fault_flags`` inject.

    ``policy`` picks the storage replica-selection policy (one of
    :data:`STORAGE_POLICIES`); ``domains`` lists the policy domains the
    host composes (``"storage"`` always first — the digest's I/O sketches
    ride on it); ``workload`` is the workload token the extra domains run
    (see :mod:`repro.scenarios.domains`).  The defaults reproduce the
    original single-policy storage host exactly.
    """

    __slots__ = ("host_id", "seed", "rate_ios", "replicas", "fault_flags",
                 "fault_seed", "drift_s", "policy", "domains", "workload")

    def __init__(self, host_id, seed, rate_ios=400, replicas=3,
                 fault_flags=(), fault_seed=0, drift_s=None,
                 policy="storage.shortest_queue", domains=("storage",),
                 workload="quiet"):
        self.host_id = int(host_id)
        self.seed = int(seed)
        self.rate_ios = int(rate_ios)
        self.replicas = int(replicas)
        self.fault_flags = tuple(fault_flags)
        self.fault_seed = int(fault_seed)
        self.drift_s = None if drift_s is None else float(drift_s)
        self.policy = str(policy)
        self.domains = tuple(domains)
        self.workload = str(workload)
        if self.policy not in STORAGE_POLICIES:
            raise ValueError(
                "host {}: unknown storage policy {!r}; known: {}".format(
                    self.host_id, self.policy, ", ".join(STORAGE_POLICIES)))
        if not self.domains or self.domains[0] != "storage":
            raise ValueError(
                "host {}: domains must start with 'storage', got {!r}"
                .format(self.host_id, self.domains))
        if len(set(self.domains)) != len(self.domains):
            raise ValueError("host {}: duplicate domains {!r}"
                             .format(self.host_id, self.domains))

    def __repr__(self):
        return "HostSpec(host{}, seed={}{}{}{})".format(
            self.host_id, self.seed,
            ", faulted" if self.fault_flags else "",
            ", drift@{:g}s".format(self.drift_s)
            if self.drift_s is not None else "",
            ", domains={}".format("+".join(self.domains))
            if self.domains != ("storage",) else "")


_COUNTER_KEYS = ("checks", "violations", "actions", "inconclusive")


def _zero_counters():
    return {key: 0 for key in _COUNTER_KEYS}


class SimulatedHost:
    """One host of the fleet: kernel + workload + versioned guardrail(s).

    The base workload is the ``grctl faults`` stand-in stack (replicated
    SSD volume served through the spec's storage policy; shortest-queue
    predicts "fast" on every submit) so the Listing-2 ``false_submit_rate``
    signal exists on every host without per-host model training.  Hosts
    with extra ``spec.domains`` compose more policy subsystems — cache,
    tiered memory, congestion control, scheduling — on the same kernel via
    :func:`repro.scenarios.domains.attach_domain`, each bringing its own
    guardrail; their counters land in per-domain digest ``groups``.
    """

    def __init__(self, spec, initial_version, round_ns, total_rounds):
        from repro.bench.scenarios import (
            build_storage_kernel,
            shortest_queue_policy,
        )
        from repro.kernel.storage import PoissonWorkload

        self.spec = spec
        kernel, devices, volume = build_storage_kernel(
            seed=spec.seed, replicas=spec.replicas)
        self.kernel = kernel
        self.volume = volume
        if spec.policy == "storage.shortest_queue":
            volume.install_policy("storage.shortest_queue",
                                  shortest_queue_policy())
        # else storage.round_robin: the volume's default slot already
        # serves round-robin, nothing to install.
        self.version = initial_version.version
        self._guardrail_name = initial_version.name
        kernel.guardrails.load(initial_version.text)
        # Monitor -> domain, so guardrail counters can be grouped per
        # policy domain on multi-policy hosts.
        self._monitor_domains = {initial_version.name: "storage"}
        self.rigs = []
        for domain in spec.domains[1:]:
            from repro.scenarios.domains import attach_domain

            rig = attach_domain(kernel, domain, workload=spec.workload,
                                duration_ns=total_rounds * round_ns)
            self.rigs.append(rig)
            for monitor in rig.monitors:
                self._monitor_domains[monitor.name] = domain
        # Counter deltas must survive GuardrailManager.update(), which
        # replaces the monitor (and zeroes its counts): retired monitors'
        # totals accumulate here, per domain.
        self._retired = {domain: _zero_counters()
                         for domain in spec.domains}
        self._last_totals = {domain: _zero_counters()
                             for domain in spec.domains}
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
        volume.complete_hook.attach(self._on_io_complete,
                                    name="fleet.digest")
        self.workload = PoissonWorkload(
            kernel, volume, [(total_rounds * round_ns, spec.rate_ios)]
        ).start()

    # -- digest plumbing ---------------------------------------------------

    def _on_io_complete(self, _hook, now, payload):
        if payload.get("used_model") and payload.get("predicted_fast") is not None:
            predicted_fast = bool(payload["predicted_fast"])
        else:
            predicted_fast = False
        self._digest.observe_io(now, payload["latency_us"],
                                bool(payload.get("false_submit")),
                                predicted_fast)

    def _totals(self):
        """Per-domain cumulative guardrail counters, retirees included."""
        totals = {domain: dict(counters)
                  for domain, counters in self._retired.items()}
        for monitor in self.kernel.guardrails.monitors():
            domain = self._monitor_domains.get(monitor.name, "storage")
            bucket = totals.setdefault(domain, _zero_counters())
            bucket["checks"] += monitor.check_count
            bucket["violations"] += monitor.violation_count
            bucket["actions"] += monitor.action_dispatch_count
            bucket["inconclusive"] += monitor.inconclusive_count
        return totals

    # -- control-plane surface ---------------------------------------------

    def apply(self, version):
        """Move this host to ``version`` via the no-reboot update path."""
        if version.version == self.version:
            return
        manager = self.kernel.guardrails
        if version.name in manager:
            retiring = manager.get(version.name)
            domain = self._monitor_domains.get(version.name, "storage")
            retired = self._retired.setdefault(domain, _zero_counters())
            retired["checks"] += retiring.check_count
            retired["violations"] += retiring.violation_count
            retired["actions"] += retiring.action_dispatch_count
            retired["inconclusive"] += retiring.inconclusive_count
            manager.update(version.text)
        else:
            manager.load(version.text)
            self._monitor_domains.setdefault(version.name, "storage")
        self.version = version.version

    def step(self, until_ns):
        self.kernel.run(until=until_ns)

    def digest(self, round_index):
        """Seal and return the round's digest; open a fresh one."""
        digest = self._digest
        digest.round_index = round_index
        digest.time_ns = self.kernel.engine.now
        digest.version = self.version
        totals = self._totals()
        deltas = {
            domain: {key: counters[key]
                     - self._last_totals.get(domain, {}).get(key, 0)
                     for key in _COUNTER_KEYS}
            for domain, counters in totals.items()
        }
        for key in _COUNTER_KEYS:
            setattr(digest, key,
                    sum(group[key] for group in deltas.values()))
        if self.spec.domains != ("storage",):
            digest.groups = deltas
        self._last_totals = totals
        self._digest = HostDigest(self.spec.host_id, round_index + 1,
                                  0, self.version)
        return digest


def columnar_fleet_check(hosts, guardrail=None, payload=None):
    """Evaluate loaded guardrail rules across many hosts column-wise.

    The fleet-scale half of the bytecode-VM lane: for each rule of each
    loaded guardrail, the rule's feature-store loads are gathered into
    float64 columns (one row per host; ``None`` loads become the NaN
    missing-data sentinel) and the compiled bytecode runs *once* via
    :func:`repro.core.expr.eval_columns` instead of once per host.

    Verdicts use the monitor's mapping — ``None`` result → inconclusive,
    falsy → violation, else ok — and per-host charged ops are returned
    alongside, bit-equal to per-host scalar evaluation (pinned by
    ``tests/fleet/test_columnar.py``).  Rules outside the columnar lane's
    numeric contract (string constants, or a host store holding a
    non-numeric value for a gathered key) fall back to per-host scalar
    bytecode execution — same verdicts and ops, ``lane`` marked
    ``"scalar"``.  Host state is never perturbed: the sweep only reads.

    Returns ``{guardrail_name: [rule_entry, ...]}`` with one
    ``{"source", "lane", "verdicts", "ops"}`` entry per rule; hosts must
    agree on each guardrail's rule sources (uniform fleet version), else
    :class:`FleetError`.
    """
    import math

    import numpy as np

    from repro.core.expr import EvalContext, eval_columns
    from repro.core.expr.vm import OP_NAME, ColumnarError, execute

    hosts = list(hosts)
    if not hosts:
        return {}
    payload = payload or {}
    n = len(hosts)
    reference = hosts[0].kernel.guardrails
    names = [guardrail] if guardrail is not None else reference.names()

    results = {}
    for name in names:
        compiled = reference.get(name).compiled
        sources = [source for source, _, _ in compiled.rules]
        for host in hosts[1:]:
            other = host.kernel.guardrails.get(name).compiled
            if [source for source, _, _ in other.rules] != sources:
                raise FleetError(
                    "host {} disagrees on guardrail {!r} rules; columnar "
                    "sweep needs a uniform fleet version".format(
                        host.spec.host_id, name))

        entries = []
        for index, source in enumerate(sources):
            program = compiled.vm_programs[index]
            free_names = sorted({arg for op, arg in program.code
                                 if op == OP_NAME})
            loads, name_columns = {}, {}
            numeric = program.columnar_safe
            if numeric:
                for key in set(program.load_keys):
                    column = np.empty(n, dtype=np.float64)
                    for row, host in enumerate(hosts):
                        value = host.kernel.store.load(key)
                        if isinstance(value, (int, float)):
                            column[row] = float(value)
                        elif value is None:
                            column[row] = math.nan
                        else:
                            numeric = False  # out of contract: go scalar
                            break
                    if not numeric:
                        break
                    loads[key] = column
            if numeric:
                for identifier in free_names:
                    column = np.empty(n, dtype=np.float64)
                    for row, host in enumerate(hosts):
                        ctx = EvalContext(host.kernel.store,
                                          now=host.kernel.engine.now,
                                          payload=payload)
                        value = ctx.resolve(identifier)
                        if isinstance(value, (int, float)):
                            column[row] = float(value)
                        elif value is None:
                            column[row] = math.nan
                        else:
                            numeric = False
                            break
                    if not numeric:
                        break
                    name_columns[identifier] = column

            if numeric:
                try:
                    values, ops = eval_columns(program, n, loads=loads,
                                               names=name_columns)
                except ColumnarError:
                    numeric = False
            if numeric:
                verdicts = [
                    "inconclusive" if math.isnan(value)
                    else ("violation" if value == 0.0 else "ok")
                    for value in values.tolist()
                ]
                entries.append({"source": source, "lane": "columnar",
                                "verdicts": verdicts,
                                "ops": ops.tolist()})
                continue

            # Scalar fallback: same bytecode, one host at a time.
            verdicts, ops = [], []
            for host in hosts:
                ctx = EvalContext(host.kernel.store,
                                  now=host.kernel.engine.now,
                                  payload=payload)
                result = execute(program.code, ctx)
                ops.append(ctx.ops)
                if result is None:
                    verdicts.append("inconclusive")
                elif not result:
                    verdicts.append("violation")
                else:
                    verdicts.append("ok")
            entries.append({"source": source, "lane": "scalar",
                            "verdicts": verdicts, "ops": ops})
        results[name] = entries
    return results


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
        pass


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

    def collect(self, timeout_s=_WORKER_TIMEOUT_S):
        deadline = time.monotonic() + timeout_s
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
                                 .format(timeout_s))
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
    "STORAGE_POLICIES",
    "SimulatedHost",
    "columnar_fleet_check",
]
