"""Per-domain composition builders for the scenario zoo.

Each ``attach_<domain>`` function wires one policy domain — subsystem,
learned policy (or heuristic baseline), deterministic workload driver, and
a zoo guardrail — onto an *existing* kernel, so several domains can share
one feature store and virtual clock.  That composition is the point: the
paper's §6 hazards (guardrail feedback, wasted idle checks) only exist
when multiple control loops observe the same system.

Every builder returns a :class:`DomainRig` carrying the armed monitors,
the store keys its guardrail watches (the corrupt-telemetry fault
targets), and a ``counters()`` thunk of integer activity counters that
merge exactly across fleet shards (see ``fleet.aggregate.HostDigest``).

Workload tokens per domain (``quiet`` is always valid):

==========  =======================================================
domain      tokens
==========  =======================================================
storage     ``quiet`` | ``burst`` | ``drift`` (Fig-2 device drift)
cache       ``quiet`` (loop) | ``scan`` | ``burst`` (loop/scan mix)
mm          ``quiet`` (hot set) | ``random-write``
net         ``quiet`` | ``drift`` (capacity step the stubborn
            controller never follows)
sched       ``quiet`` (mixed) | ``flood`` (short-job flood starving
            one long task under SJF)
==========  =======================================================
"""

from repro.sim.units import MILLISECOND, SECOND


class DomainRig:
    """One attached domain: subsystem + policy + workload + guardrails."""

    __slots__ = ("domain", "workload", "policy", "subsystem", "monitors",
                 "watched_keys", "counters")

    def __init__(self, domain, workload, policy, subsystem, monitors,
                 watched_keys, counters):
        self.domain = domain
        self.workload = workload
        self.policy = policy
        self.subsystem = subsystem
        self.monitors = list(monitors)
        self.watched_keys = tuple(watched_keys)
        self.counters = counters  # () -> {name: int}, cumulative


# ---------------------------------------------------------------------------
# storage (LinnOS-style false-submit accounting)

STORAGE_GUARDRAIL = """
guardrail zoo-storage-false-submit {
  // The shortest-queue stand-in predicts "fast" on every submit, so its
  // false-submit rate tracks the volume's slow fraction: ~9% pre-drift
  // (quiet under 0.2), ~50% post-drift (loud).
  trigger: { TIMER(start_time, 1e9) },
  rule: { LOAD(false_submit_rate) <= 0.2 },
  action: { REPORT() }
}
"""


def attach_storage(kernel, workload="quiet", policy="learned",
                   duration_ns=8 * SECOND):
    from repro.bench.scenarios import (
        attach_replicated_volume,
        shortest_queue_policy,
    )
    from repro.kernel.storage import (
        DeviceProfile,
        PoissonWorkload,
        schedule_profile_change,
    )

    devices, volume = attach_replicated_volume(kernel)
    if policy == "learned":
        volume.install_policy("storage.shortest_queue",
                              shortest_queue_policy())
    elif policy != "baseline":
        raise ValueError("unknown storage policy {!r}".format(policy))

    if workload == "quiet":
        segments = [(duration_ns, 400)]
    elif workload == "burst":
        third = duration_ns // 3
        segments = [(third, 250), (third, 900),
                    (duration_ns - 2 * third, 250)]
    elif workload == "drift":
        segments = [(duration_ns, 500)]
        schedule_profile_change(kernel, devices, DeviceProfile.post_drift(),
                                int(duration_ns * 0.4))
    else:
        raise ValueError("unknown storage workload {!r}".format(workload))
    PoissonWorkload(kernel, volume, segments).start()

    monitor = kernel.guardrails.load(STORAGE_GUARDRAIL)

    def counters():
        return {"completed_ios": volume.completed,
                "false_submits": volume.false_submits,
                "model_submits": volume.model_submits}

    return DomainRig("storage", workload, policy, volume, [monitor],
                     ("false_submit_rate",), counters)


# ---------------------------------------------------------------------------
# cache (reuse-distance eviction vs. scans)

CACHE_GUARDRAIL = """
guardrail zoo-cache-hit-rate {
  // A looping working set inside capacity sits near 0.9; a one-shot scan
  // pins the windowed hit rate at 0.
  trigger: { TIMER(start_time, 1e9) },
  rule: { LOAD(cache.hit_rate) >= 0.2 },
  action: { REPORT() }
}
"""

_CACHE_PERIOD = 2 * MILLISECOND
_CACHE_LOOP_KEYS = 48
_CACHE_CAPACITY = 64


def attach_cache(kernel, workload="quiet", policy="learned",
                 duration_ns=8 * SECOND):
    from repro.kernel.cache import KvCache
    from repro.policies.cachepol import attach_learned_cache_policy

    cache = kernel.attach("cache", KvCache(kernel, _CACHE_CAPACITY))
    if policy == "learned":
        attach_learned_cache_policy(kernel, cache)
    elif policy != "baseline":
        raise ValueError("unknown cache policy {!r}".format(policy))

    if workload not in ("quiet", "scan", "burst"):
        raise ValueError("unknown cache workload {!r}".format(workload))
    totals = {"accesses": 0, "hits": 0}
    state = {"i": 0}

    def tick():
        i = state["i"]
        state["i"] = i + 1
        if workload == "quiet":
            key = i % _CACHE_LOOP_KEYS
        elif workload == "scan":
            key = i
        else:  # burst: alternate one-second loop and scan phases
            if (kernel.engine.now // SECOND) % 2 == 0:
                key = i % _CACHE_LOOP_KEYS
            else:
                key = 1_000_000 + i
        hit = cache.access("k{}".format(key))
        totals["accesses"] += 1
        totals["hits"] += int(bool(hit))
        kernel.engine.schedule(_CACHE_PERIOD, tick)

    kernel.engine.schedule(_CACHE_PERIOD, tick)
    monitor = kernel.guardrails.load(CACHE_GUARDRAIL)
    return DomainRig("cache", workload, policy, cache, [monitor],
                     ("cache.hit_rate",), lambda: dict(totals))


# ---------------------------------------------------------------------------
# tiered memory (promotion policy vs. random writes)

MM_GUARDRAIL = """
guardrail zoo-mm-tier-hit-rate {
  // A 32-page hot set fits the fast tier (~1.0); uniform random writes
  // over 4096 pages cannot (~capacity/4096).
  trigger: { TIMER(start_time, 1e9) },
  rule: { LOAD(mm.tier_hit_rate) >= 0.25 },
  action: { REPORT() }
}
"""

_MM_PERIOD = 2 * MILLISECOND
_MM_HOT_PAGES = 32
_MM_COLD_PAGES = 4096
_MM_FAST_CAPACITY = 64


def attach_mm(kernel, workload="quiet", policy="learned",
              duration_ns=8 * SECOND):
    from repro.kernel.mm import TieredMemory
    from repro.policies.placement import attach_learned_placement

    tiered = kernel.attach("mm", TieredMemory(kernel, _MM_FAST_CAPACITY))
    if policy == "learned":
        attach_learned_placement(kernel, tiered)
    elif policy != "baseline":
        raise ValueError("unknown mm policy {!r}".format(policy))

    if workload not in ("quiet", "random-write"):
        raise ValueError("unknown mm workload {!r}".format(workload))
    totals = {"accesses": 0, "hits": 0}
    rng = kernel.engine.rng.get("zoo.mm")
    state = {"i": 0}

    def tick():
        i = state["i"]
        state["i"] = i + 1
        if workload == "quiet":
            page, is_write = i % _MM_HOT_PAGES, False
        else:
            page, is_write = int(rng.integers(0, _MM_COLD_PAGES)), True
        tiered.access(page, is_write=is_write)
        kernel.engine.schedule(_MM_PERIOD, tick)

    def on_access(hook, now, payload):
        totals["accesses"] += 1
        totals["hits"] += int(bool(payload["hit"]))

    tiered.access_hook.attach(on_access, name="zoo.mm.counters")
    kernel.engine.schedule(_MM_PERIOD, tick)
    monitor = kernel.guardrails.load(MM_GUARDRAIL)
    return DomainRig("mm", workload, policy, tiered, [monitor],
                     ("mm.tier_hit_rate",), lambda: dict(totals))


# ---------------------------------------------------------------------------
# net (congestion control on the bottleneck link)


_NET_CAPACITY_MBPS = 100.0
_STUBBORN_RATE_MBPS = 60.0


def stubborn_cc():
    """The zoo's confidently-wrong learned controller: a fixed-rate model.

    It "predicts" the same sending rate every epoch regardless of the
    observation — fine while the prediction happens to fit the path,
    unable to follow a capacity change (the P2/P4 failure the utilization
    guardrail watches for).
    """

    def controller(observation):
        return _STUBBORN_RATE_MBPS

    return controller


NET_GUARDRAIL = """
guardrail zoo-net-utilization {
  // The stubborn 60 Mbps controller sits at 0.6 utilization on a 100 Mbps
  // path; after the capacity steps to 240 Mbps it strands the link at 0.25.
  trigger: { TIMER(start_time, 1e9) },
  rule: { LOAD(net.utilization.avg) >= 0.35 },
  action: { REPORT() }
}
"""

STUBBORN_CC_NAME = "net.stubborn_cc"


def attach_net(kernel, workload="quiet", policy="learned",
               duration_ns=8 * SECOND):
    from repro.kernel.net import BottleneckLink

    link = kernel.attach("net", BottleneckLink(
        kernel, capacity_mbps=_NET_CAPACITY_MBPS))
    if policy == "learned":
        kernel.functions.register_implementation(STUBBORN_CC_NAME,
                                                 stubborn_cc())
        kernel.functions.replace(link.CC_SLOT, STUBBORN_CC_NAME)
    elif policy != "baseline":
        raise ValueError("unknown net policy {!r}".format(policy))

    if workload == "drift":
        kernel.engine.schedule(int(duration_ns * 0.4), link.set_capacity,
                               240.0)
    elif workload != "quiet":
        raise ValueError("unknown net workload {!r}".format(workload))
    link.start()

    totals = {"epochs": 0, "loss_epochs": 0}

    def on_epoch(hook, now, payload):
        totals["epochs"] += 1
        totals["loss_epochs"] += int(payload["loss"] > 0)

    link.update_hook.attach(on_epoch, name="zoo.net.counters")
    monitor = kernel.guardrails.load(NET_GUARDRAIL)
    return DomainRig("net", workload, policy, link, [monitor],
                     ("net.utilization.avg",), lambda: dict(totals))


# ---------------------------------------------------------------------------
# sched (shortest-predicted-job-first vs. starvation)

SCHED_GUARDRAIL = """
guardrail zoo-sched-starvation {
  // The P6 liveness bound: no runnable task waits more than 200 ms.  SJF
  // starves the long task whenever a short-job flood keeps arriving.
  trigger: { TIMER(start_time, 1e9) },
  rule: { LOAD(sched.max_wait_ms) <= 200 },
  action: { REPORT() }
}
"""


def attach_sched(kernel, workload="quiet", policy="learned",
                 duration_ns=8 * SECOND):
    from repro.kernel.sched import CpuScheduler
    from repro.policies.schedpol import attach_learned_sched_policy

    scheduler = kernel.attach("sched", CpuScheduler(kernel))
    if policy == "learned":
        attach_learned_sched_policy(kernel, scheduler)
    elif policy != "baseline":
        raise ValueError("unknown sched policy {!r}".format(policy))

    if workload == "quiet":
        scheduler.spawn("interactive-0", burst_ns=2 * MILLISECOND,
                        think_ns=8 * MILLISECOND)
        scheduler.spawn("interactive-1", burst_ns=2 * MILLISECOND,
                        think_ns=8 * MILLISECOND)
        scheduler.spawn("batch", burst_ns=6 * MILLISECOND,
                        think_ns=12 * MILLISECOND)
    elif workload == "flood":
        for i in range(6):
            scheduler.spawn("short-{}".format(i), burst_ns=1 * MILLISECOND,
                            think_ns=1 * MILLISECOND)
        scheduler.spawn("elephant", burst_ns=40 * MILLISECOND,
                        think_ns=1 * MILLISECOND)
    else:
        raise ValueError("unknown sched workload {!r}".format(workload))

    monitor = kernel.guardrails.load(SCHED_GUARDRAIL)

    def counters():
        return {"dispatches": scheduler.context_switches,
                "finished": sum(1 for t in scheduler.tasks if t.finished)}

    return DomainRig("sched", workload, policy, scheduler, [monitor],
                     ("sched.max_wait_ms",), counters)


DOMAIN_BUILDERS = {
    "storage": attach_storage,
    "cache": attach_cache,
    "mm": attach_mm,
    "net": attach_net,
    "sched": attach_sched,
}

DOMAINS = tuple(sorted(DOMAIN_BUILDERS))


def attach_domain(kernel, domain, workload="quiet", policy="learned",
                  duration_ns=8 * SECOND):
    """Attach one named domain to ``kernel``; returns its :class:`DomainRig`."""
    try:
        builder = DOMAIN_BUILDERS[domain]
    except KeyError:
        raise ValueError("unknown domain {!r}; known: {}".format(
            domain, ", ".join(DOMAINS))) from None
    return builder(kernel, workload=workload, policy=policy,
                   duration_ns=duration_ns)
