"""Figure 1 (left table) — the P1–P6 property taxonomy, one scenario each.

For every property row the benchmark runs a healthy phase (the guardrail
stays quiet), injects the misbehavior the row describes, and checks that
the monitor detects it and the paired action takes effect.  Each scenario
regenerates one row of the table as text output and returns the row's
numbers as a metric dict for ``grctl bench``.
"""

import numpy as np

from repro.bench.report import format_table
from repro.bench.results import scenario
from repro.bench.scenarios import build_storage_kernel
from repro.core.properties import (
    decision_overhead,
    decision_quality,
    fairness_liveness,
    in_distribution,
    output_bounds,
    robustness,
)
from repro.kernel import Kernel
from repro.kernel.cache import KvCache, random_evict
from repro.kernel.mm import MemoryAllocator
from repro.kernel.net import BottleneckLink
from repro.kernel.sched import CpuScheduler
from repro.kernel.storage import (
    DeviceProfile,
    PoissonWorkload,
    schedule_profile_change,
)
from repro.policies.cachepol import attach_learned_cache_policy
from repro.policies.ccpol import install_learned_cc
from repro.policies.linnos import (
    FEATURE_NAMES,
    LinnosPolicy,
    collect_training_data,
    train_linnos_model,
)
from repro.policies.prealloc import LearnedPreallocPolicy, clamped_prealloc
from repro.policies.readahead import (
    FixedReadahead,
    LearnedReadahead,
    ReadaheadSimulator,
)
from repro.policies.schedpol import attach_learned_sched_policy
from repro.sim.units import MILLISECOND, SECOND


def _row_report(report, name, rows):
    if report is None:
        return
    report(name, format_table(
        ["phase", "signal", "violations", "action effect"], rows,
        title=name))


@scenario(quick=False, cost=4.0, seed=21)
def run_p1_in_distribution(report=None):
    """P1 — inputs drift out of the training distribution -> REPORT+RETRAIN."""
    # Train the model on a round-robin collection run.
    kernel, devices, volume = build_storage_kernel(seed=21)
    workload = PoissonWorkload(kernel, volume, [(10 * SECOND, 900)])
    features, labels = collect_training_data(
        kernel, volume, workload.start, 10 * SECOND)
    model = train_linnos_model(features, labels, epochs=10, seed=21)

    # Deployment feedback shifts the input distribution (the policy
    # steers traffic away from slow devices, so it mostly sees clean
    # histories), so P1 references must be calibrated from a known-good
    # *canary* window of the deployed policy — not from the training set.
    kernel, devices, volume = build_storage_kernel(seed=31)
    canary_rows = []

    def record_canary(hook, now, payload):
        for device in volume.devices:
            canary_rows.append(device.features())

    probe = volume.submit_hook.attach(record_canary, name="canary")
    policy = LinnosPolicy(kernel, model)
    volume.install_policy("storage.linnos", policy)
    PoissonWorkload(kernel, volume, [(16 * SECOND, 1200)]).start()
    kernel.run(until=4 * SECOND)
    probe.detach()

    from repro.detect.reference import ReferenceDistribution

    canary = np.array(canary_rows)
    references = [
        ReferenceDistribution.from_samples(name, canary[:, i], bins=8)
        for i, name in enumerate(FEATURE_NAMES)
    ]
    from repro.policies.base import InputDistributionTracker

    # LinnOS features are spiky and episode-correlated, so windows must
    # span several GC episodes and the threshold sits well above the
    # textbook 0.25 — §3.3's point that some thresholds "require system
    # knowledge" (or auto-tightening).
    policy.instrumentation.inputs = InputDistributionTracker(
        kernel.store, "linnos", references, publish_every=4096)
    monitor = kernel.guardrails.load(
        in_distribution("linnos", psi_threshold=0.7, oor_threshold=0.2))

    kernel.run(until=9 * SECOND)
    healthy_violations = monitor.violation_count
    healthy_psi = kernel.store.load("linnos.input_psi_max")
    schedule_profile_change(kernel, devices, DeviceProfile.post_drift(),
                            9 * SECOND)
    kernel.run(until=17 * SECOND)

    metrics = {
        "healthy_violations": healthy_violations,
        "healthy_psi_max": round(healthy_psi or 0.0, 6),
        "drifted_violations": monitor.violation_count,
        "drifted_psi_max": round(
            kernel.store.load("linnos.input_psi_max"), 6),
        "retrains_queued": kernel.retrain_queue.accepted_count,
    }
    # The first window straddles the canary/monitoring transition, so allow
    # one spurious early violation; drift must add clearly more.
    assert metrics["healthy_violations"] <= 1
    assert metrics["drifted_violations"] >= metrics["healthy_violations"] + 2
    assert metrics["retrains_queued"] >= 1
    _row_report(report, "fig1_p1_in_distribution", [
        ["healthy", "psi_max={:.3f}".format(metrics["healthy_psi_max"]),
         healthy_violations, "-"],
        ["drifted", "psi_max={:.3f}".format(metrics["drifted_psi_max"]),
         metrics["drifted_violations"],
         "{} retrain request(s) queued".format(metrics["retrains_queued"])],
    ])
    return metrics


@scenario(cost=1.5, seed=22)
def run_p2_robustness(report=None):
    """P2 — learned CC output swings under noise; AIMD does not."""
    kernel = Kernel(seed=22)
    link = kernel.attach("net", BottleneckLink(
        kernel, capacity_mbps=100.0, noise_std=0.05))
    install_learned_cc(kernel, link)
    monitor = kernel.guardrails.load(
        robustness("learned_cc", sensitivity_threshold=25.0),
        cooldown=5 * SECOND)
    link.start()
    kernel.run(until=12 * SECOND)

    # Reference: the AIMD fallback probed the same way.
    from repro.policies.base import SensitivityProbe
    from repro.kernel.net.link import aimd_controller

    aimd = aimd_controller()
    probe = SensitivityProbe(
        kernel.store, "aimd",
        lambda row: np.array([aimd({
            "rate_mbps": row[0], "delivered_mbps": row[1],
            "loss": max(row[2], 0.0),
        }) - row[0]]),
        probe_every=1)
    rng = np.random.default_rng(0)
    for _ in range(64):
        rate = rng.uniform(10, 90)
        probe.maybe_probe(np.array([rate, rate, 0.0]), 2.0)

    metrics = {
        "learned_sensitivity_mbps": round(
            kernel.store.load("learned_cc.output_sensitivity"), 6),
        "aimd_sensitivity_mbps": round(
            kernel.store.load("aimd.output_sensitivity"), 6),
        "violations": monitor.violation_count,
        "retrains_queued": kernel.retrain_queue.accepted_count,
    }
    assert (metrics["learned_sensitivity_mbps"]
            > metrics["aimd_sensitivity_mbps"] * 5)
    assert metrics["violations"] >= 1
    _row_report(report, "fig1_p2_robustness", [
        ["learned CC",
         "sensitivity={:.1f} Mbps".format(metrics["learned_sensitivity_mbps"]),
         metrics["violations"],
         "{} retrain queued".format(metrics["retrains_queued"])],
        ["AIMD fallback",
         "sensitivity={:.2f} Mbps".format(metrics["aimd_sensitivity_mbps"]),
         0, "-"],
    ])
    return metrics


@scenario(cost=0.2, seed=23)
def run_p3_output_bounds(report=None):
    """P3 — out-of-bounds grants caught at the mm.alloc hook -> REPLACE."""
    kernel = Kernel(seed=23)
    alloc = kernel.attach("mm", MemoryAllocator(kernel, total_pages=500))
    learned = LearnedPreallocPolicy(horizon=8.0)
    kernel.functions.register_implementation("mm.learned", learned)
    kernel.functions.register_implementation("mm.safe",
                                             clamped_prealloc(learned))
    kernel.functions.replace("mm.prealloc_size", "mm.learned")
    monitor = kernel.guardrails.load(output_bounds(
        "mm", "mm.alloc",
        "granted <= available && granted >= requested",
        "mm.prealloc_size", "mm.safe"))

    def burst():
        # Steep exponential ramp: the trend extrapolation overshoots.
        for size in [10, 30, 90, 270]:
            alloc.allocate(size)
            if alloc.used_pages > 250:
                alloc.free(alloc.used_pages)

    for _ in range(3):
        alloc.allocate(10)  # steady phase
    healthy = monitor.violation_count
    burst()                 # extrapolation blowup
    oob_at_trip = alloc.out_of_bounds_grants
    burst()                 # after REPLACE: clamped fallback

    metrics = {
        "healthy_violations": healthy,
        "violations": monitor.violation_count,
        "oob_grants_at_trip": oob_at_trip,
        "oob_grants_total": alloc.out_of_bounds_grants,
    }
    assert metrics["healthy_violations"] == 0
    assert metrics["violations"] >= 1
    # The fallback stayed legal: no OOB grants after the REPLACE.
    assert metrics["oob_grants_total"] == metrics["oob_grants_at_trip"]
    _row_report(report, "fig1_p3_output_bounds", [
        ["steady", "grants in bounds", healthy, "-"],
        ["burst", "{} out-of-bounds grant(s)".format(oob_at_trip),
         metrics["violations"],
         "REPLACEd with clamped fallback; no further OOB ({} total)".format(
             metrics["oob_grants_total"])],
    ])
    return metrics


@scenario(cost=1.5, seed=24)
def run_p4_decision_quality(report=None):
    """P4 — learned cache falls below the random baseline -> REPLACE."""
    kernel = Kernel(seed=24)
    cache = kernel.attach("cache", KvCache(kernel, capacity=32,
                                           window=2 * SECOND))
    cache.add_shadow("random",
                     random_evict(kernel.engine.rng.get("shadow")))
    attach_learned_cache_policy(kernel, cache)
    monitor = kernel.guardrails.load(decision_quality(
        "cache", "cache.hit_rate", "cache.random.hit_rate", margin=0.05,
        fallback_slot="cache.evict", fallback_impl="cache.random"),
        cooldown=2 * SECOND)

    rng = np.random.default_rng(0)
    hot = ["hot{}".format(i) for i in range(16)]
    serial = [0]

    def access(adversarial=False):
        if not adversarial or rng.random() < 0.5:
            cache.access(hot[int(rng.integers(len(hot)))])
        else:
            serial[0] += 1
            dead = "dead{}".format(serial[0])
            cache.access(dead)
            cache.access(dead)

    def loop():
        access(adversarial=kernel.now >= 6 * SECOND)
        if kernel.now < 14 * SECOND:
            kernel.engine.schedule(2 * MILLISECOND, loop)

    loop()
    kernel.run(until=6 * SECOND)
    healthy = (monitor.violation_count,
               kernel.store.load("cache.hit_rate"),
               kernel.store.load("cache.random.hit_rate"))
    kernel.run(until=14 * SECOND)

    metrics = {
        "healthy_violations": healthy[0],
        "healthy_hit_rate": round(healthy[1], 6),
        "healthy_random_hit_rate": round(healthy[2], 6),
        "adversarial_hit_rate": round(
            kernel.store.load("cache.hit_rate"), 6),
        "adversarial_random_hit_rate": round(
            kernel.store.load("cache.random.hit_rate"), 6),
        "violations": monitor.violation_count,
        "swap_count": kernel.functions.slot("cache.evict").swap_count,
    }
    assert metrics["healthy_violations"] == 0
    assert (metrics["healthy_hit_rate"]
            >= metrics["healthy_random_hit_rate"] - 0.05)
    assert metrics["violations"] >= 1
    assert metrics["swap_count"] >= 2  # install + guardrail replace
    _row_report(report, "fig1_p4_decision_quality", [
        ["skewed workload",
         "hit {:.2f} vs random {:.2f}".format(healthy[1], healthy[2]),
         healthy[0], "-"],
        ["dead-pair adversarial",
         "hit {:.2f} vs random {:.2f}".format(
             metrics["adversarial_hit_rate"],
             metrics["adversarial_random_hit_rate"]),
         metrics["violations"],
         "evictor REPLACEd ({} swap(s))".format(metrics["swap_count"])],
    ])
    return metrics


@scenario(cost=0.2, seed=25)
def run_p5_decision_overhead(report=None):
    """P5 — inference cost must be offset by gains (readahead example)."""
    kernel = Kernel(seed=25)
    from repro.core.overhead import InferenceMeter

    meter = InferenceMeter(kernel.store, "readahead")
    learned = ReadaheadSimulator(LearnedReadahead(), waste_us=20,
                                 decision_us=2.0)
    fixed = ReadaheadSimulator(FixedReadahead(window=8), waste_us=20)
    # Windowed rule: banked gains from the good phase must not mask a
    # regression (the cumulative ledger would take ages to go negative).
    monitor = kernel.guardrails.load(decision_overhead("readahead",
                                                       windowed=True))
    rng = np.random.default_rng(0)

    def replay_run(run_length):
        before_l, before_f = learned.total_cost_us, fixed.total_cost_us
        learned.replay([run_length])
        fixed.replay([run_length])
        gain_us = (fixed.total_cost_us - before_f) - (
            learned.total_cost_us - before_l)
        meter.record_decision(int(learned.decision_us * 1000),
                              int(gain_us * 1000))

    def phase(kind, count, step=0):
        # "long" runs: the learned window wins big over fixed(8).
        # "uniform" runs of exactly 8: the fixed heuristic is already
        # optimal, so the model's gain is ~0 and inference is pure
        # overhead — the case P5 exists for.
        run = int(max(rng.normal(64, 4), 1)) if kind == "long" else 8
        replay_run(run)
        if step < count:
            kernel.engine.schedule(5 * MILLISECOND, phase, kind, count,
                                   step + 1)

    phase("long", 400)
    kernel.run(until=3 * SECOND)
    healthy = (monitor.violation_count,
               kernel.store.load("readahead.net_benefit_window"))
    phase("uniform", 400)
    kernel.run(until=6 * SECOND)

    metrics = {
        "healthy_violations": healthy[0],
        "healthy_net_benefit_ns": round(healthy[1], 3),
        "final_net_benefit_ns": round(
            kernel.store.load("readahead.net_benefit_window"), 3),
        "violations": monitor.violation_count,
    }
    assert metrics["healthy_violations"] == 0
    assert metrics["healthy_net_benefit_ns"] > 0
    assert metrics["violations"] >= 1
    assert (metrics["final_net_benefit_ns"]
            < metrics["healthy_net_benefit_ns"])
    _row_report(report, "fig1_p5_decision_overhead", [
        ["long sequential runs",
         "windowed net benefit +{:.0f} us/decision".format(
             healthy[1] / 1000),
         healthy[0], "-"],
        ["after shift to uniform(8) runs",
         "windowed net benefit {:.1f} us/decision".format(
             metrics["final_net_benefit_ns"] / 1000),
         metrics["violations"], "REPORTed for offline analysis"],
    ])
    return metrics


@scenario(cost=0.6, seed=26)
def run_p6_fairness_liveness(report=None):
    """P6 — learned SJF starves batch work -> REPLACE restores liveness."""
    results = {}
    for guarded in (False, True):
        kernel = Kernel(seed=26)
        sched = kernel.attach("sched", CpuScheduler(kernel))
        attach_learned_sched_policy(kernel, sched)
        sched.spawn("batch", burst_ns=50 * MILLISECOND)
        for i in range(4):
            sched.spawn("short{}".format(i), burst_ns=1 * MILLISECOND)
        monitor = None
        if guarded:
            monitor = kernel.guardrails.load(
                fairness_liveness())
        kernel.run(until=5 * SECOND)
        results[guarded] = (kernel, sched, monitor)

    unguarded_stats = results[False][1].wait_stats()
    guarded_stats = results[True][1].wait_stats()
    metrics = {
        "unguarded_batch_cpu_ms": round(
            unguarded_stats["batch"]["executed_ms"], 3),
        "unguarded_batch_max_wait_ms": round(
            unguarded_stats["batch"]["max_wait_ms"], 3),
        "guarded_batch_cpu_ms": round(
            guarded_stats["batch"]["executed_ms"], 3),
        "guarded_batch_max_wait_ms": round(
            guarded_stats["batch"]["max_wait_ms"], 3),
        "violations": results[True][2].violation_count,
    }
    assert metrics["unguarded_batch_cpu_ms"] < 100
    assert metrics["guarded_batch_cpu_ms"] > 500
    assert metrics["violations"] >= 1
    rows = []
    for guarded, (kernel, sched, monitor) in results.items():
        stats = sched.wait_stats()
        rows.append([
            "guarded" if guarded else "learned SJF only",
            "batch max wait {:.0f} ms".format(stats["batch"]["max_wait_ms"]),
            monitor.violation_count if monitor else 0,
            "batch ran {:.0f} ms of CPU".format(
                stats["batch"]["executed_ms"]),
        ])
    _row_report(report, "fig1_p6_fairness_liveness", rows)
    return metrics


def scenarios():
    return [
        ("fig1_p1_in_distribution", run_p1_in_distribution),
        ("fig1_p2_robustness", run_p2_robustness),
        ("fig1_p3_output_bounds", run_p3_output_bounds),
        ("fig1_p4_decision_quality", run_p4_decision_quality),
        ("fig1_p5_decision_overhead", run_p5_decision_overhead),
        ("fig1_p6_fairness_liveness", run_p6_fairness_liveness),
    ]
