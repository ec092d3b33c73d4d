"""Reusable experiment scenarios shared by examples, tests, and benchmarks.

The Figure 2 scenario lives here so the example script, the regression
test, and the benchmark all run exactly the same experiment.
"""

import collections

from repro.kernel import Kernel
from repro.kernel.storage import (
    DeviceProfile,
    PickDecision,
    PoissonWorkload,
    ReplicatedVolume,
    SsdDevice,
    schedule_profile_change,
)
from repro.policies.linnos import (
    LinnosPolicy,
    collect_training_data,
    train_linnos_model,
)
from repro.sim.units import SECOND

LISTING2_SPEC = """
guardrail low-false-submit {
  trigger: {
    TIMER(start_time, 1e9) // Periodically check every 1s.
  },
  rule: {
    LOAD(false_submit_rate) <= 0.05
  },
  action: {
    SAVE(ml_enabled, false)
  }
}
"""


#: SSD replicas behind every simulated storage volume.
REPLICAS = 3


def attach_replicated_volume(kernel):
    """Attach a volume over :data:`REPLICAS` pre-drift SSDs to ``kernel``.

    Returns ``(devices, volume)``.
    """
    devices = [
        SsdDevice(kernel.engine, kernel.engine.rng.get("ssd{}".format(i)),
                  "ssd{}".format(i), DeviceProfile.pre_drift())
        for i in range(REPLICAS)
    ]
    return devices, kernel.attach("storage", ReplicatedVolume(kernel, devices))


def build_storage_kernel(seed=1):
    """A kernel with a replicated volume over :data:`REPLICAS` pre-drift SSDs."""
    kernel = Kernel(seed=seed)
    devices, volume = attach_replicated_volume(kernel)
    return kernel, devices, volume


#: I/O rate and epochs of the pre-drift training run.
TRAIN_RATE_IOS = 900
TRAIN_EPOCHS = 15
#: I/O rate of the Figure 2 runs.
FIG2_RATE_IOS = 1200


def train_default_linnos_model(seed=1, train_seconds=20):
    """Collect pre-drift training data and fit the LinnOS classifier."""
    kernel, _devices, volume = build_storage_kernel(seed=seed)
    workload = PoissonWorkload(kernel, volume,
                               [(train_seconds * SECOND, TRAIN_RATE_IOS)])
    features, labels = collect_training_data(
        kernel, volume, workload.start, train_seconds * SECOND
    )
    return train_linnos_model(features, labels, epochs=TRAIN_EPOCHS,
                              seed=seed)


class Fig2Result:
    """Everything the Figure 2 harness reports for one run."""

    def __init__(self, label, kernel, volume, policy):
        self.label = label
        self.kernel = kernel
        self.volume = volume
        self.policy = policy
        self.series = kernel.metrics.series("storage.io_latency_us")

    #: Points per moving-average window of the Figure 2 latency series.
    SMOOTHING_WINDOW = 200

    def moving_average(self):
        return self.series.moving_average(self.SMOOTHING_WINDOW)

    def per_second_means(self):
        return bucket_series(self.series, SECOND)

    def mean_between(self, start_s, end_s):
        window = self.series.window(start_s * SECOND, end_s * SECOND)
        if not window:
            return float("nan")
        return sum(v for _, v in window) / len(window)

    @property
    def false_submits(self):
        return self.volume.false_submits

    @property
    def ml_enabled(self):
        return bool(self.kernel.store.load("ml_enabled", default=True))


def bucket_series(series, bucket_ns):
    """Mean of a metric series per ``bucket_ns`` bucket, as (index, mean)."""
    buckets = collections.defaultdict(list)
    for t, v in series:
        buckets[t // bucket_ns].append(v)
    return [(int(b), sum(vs) / len(vs)) for b, vs in sorted(buckets.items())]


CLOSED_LOOP_SPEC = """
guardrail low-false-submit {
  // Listing 2 extended with the A3 leg of the lifecycle.  The threshold is
  // 0.2 rather than 0.05: under GC storms the stationary slow fraction is
  // ~33%, so even a good model false-submits ~10% — the 5% bound belongs to
  // the calm regime (thresholds "require system knowledge", §3.3).  The
  // broken model sits at ~0.5, so separation is clean both ways.
  trigger: { TIMER(start_time, 1e9) },
  rule: { LOAD(false_submit_rate) <= 0.2 },
  action: {
    SAVE(ml_enabled, false),   // disable immediately (A2-style mitigation)
    RETRAIN(linnos)            // and queue retraining on fresh data (A3)
  }
}
"""


#: The closed loop's seed and drift time; its simulated retraining time,
#: and how many of the newest buffered samples it trains on.
CLOSED_LOOP_SEED = 2
CLOSED_LOOP_DRIFT_AT_S = 6
RETRAIN_TIME_S = 3
RETRAIN_WINDOW = 3000


def run_closed_loop_scenario(model, duration_s=24):
    """Figure 2 extended with the full §3.2 lifecycle.

    misbehave -> detect -> disable -> retrain on the post-drift sample
    buffer -> swap the new model in and re-enable.  Returns the
    :class:`Fig2Result` plus the daemon for inspection.
    """
    from repro.core.retraining import RetrainDaemon
    from repro.policies.linnos import OnlineSampleBuffer, train_linnos_model

    kernel, devices, volume = build_storage_kernel(seed=CLOSED_LOOP_SEED)
    policy = LinnosPolicy(kernel, model)
    volume.install_policy("storage.linnos", policy)
    buffer = OnlineSampleBuffer(volume)
    kernel.guardrails.load(CLOSED_LOOP_SPEC, cooldown=2 * SECOND)

    def trainer(request):
        features, labels = buffer.dataset(last=RETRAIN_WINDOW)
        return train_linnos_model(features, labels, epochs=10,
                                  seed=CLOSED_LOOP_SEED)

    def on_complete(new_model, request):
        policy.model = new_model
        kernel.store.save("ml_enabled", True)

    daemon = RetrainDaemon(kernel, poll_interval=1 * SECOND)
    daemon.register("linnos", trainer, on_complete,
                    training_time=RETRAIN_TIME_S * SECOND)
    daemon.start()

    schedule_profile_change(kernel, devices, DeviceProfile.post_drift(),
                            CLOSED_LOOP_DRIFT_AT_S * SECOND)
    PoissonWorkload(kernel, volume,
                    [(duration_s * SECOND, FIG2_RATE_IOS)]).start()
    kernel.run(until=duration_s * SECOND)
    return Fig2Result("closed-loop", kernel, volume, policy), daemon


TRACE_DEMO_SPECS = """
// The `grctl trace` quick scenario: one TIMER guardrail with a SAVE+RETRAIN
// remedy and one FUNCTION guardrail on the allocation hook, so a short run
// exercises every tracepoint category.
guardrail queue-bound {
  trigger: { TIMER(start_time, 100ms) },
  rule: { LOAD(queue_depth.avg) <= 8 },
  action: { SAVE(throttle, true), RETRAIN(demo) }
}
guardrail alloc-bound {
  trigger: { FUNCTION(mm.alloc) },
  rule: { granted <= available },
  action: { REPORT() }
}
"""


TRACE_DEMO_SEED = 7


def run_trace_demo_scenario(duration_s=4):
    """A small self-contained run that lights up every trace category.

    A synthetic queue-depth ramp violates the TIMER guardrail mid-run
    (SAVE + RETRAIN, drained by a registered no-op trainer) while a
    periodic allocator fires ``mm.alloc`` with occasional over-grants for
    the FUNCTION guardrail.  Returns the kernel for inspection.
    """
    from repro.core.retraining import RetrainDaemon

    kernel = Kernel(seed=TRACE_DEMO_SEED, retrain_min_interval=SECOND)
    alloc_hook = kernel.hooks.declare("mm.alloc")
    kernel.store.derive_moving_average("queue_depth", window=16)
    kernel.guardrails.load_all(TRACE_DEMO_SPECS)

    daemon = RetrainDaemon(kernel, poll_interval=SECOND // 2)
    daemon.register("demo", lambda request: None,
                    training_time=SECOND // 2)
    daemon.start()

    step_ns = 10 * SECOND // 1000  # 10 ms
    ramp_at = duration_s * SECOND // 2

    def tick(i):
        now = kernel.engine.now
        depth = 2 + (i % 4) if now < ramp_at else 10 + (i % 6)
        kernel.store.save("queue_depth", depth)
        if i % 5 == 0:
            granted = 120 if i % 40 == 0 and now >= ramp_at else 40
            alloc_hook.fire(granted=granted, available=100)
        kernel.engine.schedule(step_ns, tick, i + 1)

    kernel.engine.schedule(0, tick, 0)
    kernel.run(until=duration_s * SECOND)
    return kernel


def run_figure2_scenario(model, mode, seed=2, drift_at_s=6, duration_s=18,
                         fault_plan=None, supervise=False,
                         breaker_config=None):
    """One Figure 2 run.

    ``mode``: ``'baseline'`` (round-robin only), ``'linnos'`` (model, no
    guardrail), or ``'guarded'`` (model + the Listing 2 guardrail).
    Mid-run, every device shifts to the post-drift profile.

    ``fault_plan`` optionally arms a :class:`~repro.faults.plan.FaultPlan`
    against the run (the injector is attached to the result as
    ``result.injector``); ``supervise=True`` wraps the pick slot in a
    :class:`~repro.faults.supervisor.PolicySupervisor` (attached as
    ``result.policy_supervisor``) so injected crashes are contained and the
    breaker REPLACEs the policy with round-robin.  The injector installs
    *before* the supervisor: faults fire inside the supervised call.  With
    neither argument the run is byte-identical to the pre-faults scenario.
    """
    if mode not in ("baseline", "linnos", "guarded"):
        raise ValueError("unknown mode {!r}".format(mode))
    kernel, devices, volume = build_storage_kernel(seed=seed)
    policy = None
    if mode != "baseline":
        policy = LinnosPolicy(kernel, model)
        volume.install_policy("storage.linnos", policy)
    if mode == "guarded":
        kernel.guardrails.load(LISTING2_SPEC)
    injector = supervisor = None
    if fault_plan is not None:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(kernel, fault_plan).install()
    if supervise:
        from repro.faults.supervisor import PolicySupervisor, make_pick_validator

        supervisor = PolicySupervisor(
            kernel, volume.PICK_SLOT, volume.FALLBACK_NAME,
            config=breaker_config,
            validator=make_pick_validator(len(devices)))
    schedule_profile_change(kernel, devices, DeviceProfile.post_drift(),
                            drift_at_s * SECOND)
    PoissonWorkload(kernel, volume,
                    [(duration_s * SECOND, FIG2_RATE_IOS)]).start()
    kernel.run(until=duration_s * SECOND)
    result = Fig2Result(mode, kernel, volume, policy)
    result.injector = injector
    result.policy_supervisor = supervisor
    return result


FAULTS_DEMO_SPEC = """
// The `grctl faults` quick scenario: a TIMER guardrail over the trailing
// time-average latency.  Corrupt/stale store reads hit its LOAD; its REPORT
// remedy gives action dispatches for the trace to show.
guardrail latency-bound {
  trigger: { TIMER(start_time, 1s) },
  rule: { LOAD(io_latency_us.tavg) <= 2000 },
  action: { REPORT() }
}
"""


class FaultsDemoResult:
    """Everything the chaos demo reports for one run."""

    def __init__(self, kernel, volume, monitor, injector, supervisor):
        self.kernel = kernel
        self.volume = volume
        self.monitor = monitor
        self.injector = injector
        self.policy_supervisor = supervisor

    @property
    def completed(self):
        return self.volume.completed


#: Simulated inference cost of the stand-in policy's pick.
STANDIN_INFERENCE_NS = 2_000


def shortest_queue_policy():
    """The demo's stand-in learned policy: pick the shallowest queue.

    Flagged ``used_model=True`` so fallback engagement is visible in the
    volume's model-submit accounting, with a small nonzero ``inference_ns``
    so ``stall`` faults have a latency to inflate.
    """
    def pick(volume):
        index = min(range(len(volume.devices)),
                    key=lambda i: volume.devices[i].queue_depth)
        return PickDecision(index, used_model=True, predicted_fast=True,
                            inference_ns=STANDIN_INFERENCE_NS)

    return pick


FAULTS_DEMO_SEED = 11
FAULTS_DEMO_RATE_IOS = 800
#: The chaos demo's slow-call ceiling on one pick (1 ms).
SLOW_CALL_NS = 1_000_000


def run_faults_demo_scenario(duration_s=12, fault_plan=None,
                             breaker_config=None):
    """A small self-contained chaos run for ``grctl faults`` and the bench.

    A synthetic storage kernel serves a Poisson read workload through a
    shortest-queue stand-in policy (installed as ``storage.shortest_queue``)
    watched by one TIMER guardrail over ``io_latency_us.tavg``.  The pick
    slot is wrapped in a :class:`PolicySupervisor` (validator + 1 ms
    slow-call ceiling), so any ``fault_plan`` aimed at the slot or the store
    exercises the full containment path: inject -> contain -> trip ->
    REPLACE with round-robin -> re-arm.  Without a plan the run is a clean
    deterministic baseline.
    """
    from repro.faults.supervisor import PolicySupervisor, make_pick_validator

    kernel, devices, volume = build_storage_kernel(seed=FAULTS_DEMO_SEED)
    kernel.store.derive_time_average("io_latency_us", window=2 * SECOND)
    volume.install_policy("storage.shortest_queue", shortest_queue_policy())
    monitor = kernel.guardrails.load(FAULTS_DEMO_SPEC, cooldown=2 * SECOND)

    injector = None
    if fault_plan is not None:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(kernel, fault_plan).install()
    supervisor = PolicySupervisor(
        kernel, volume.PICK_SLOT, volume.FALLBACK_NAME,
        config=breaker_config,
        validator=make_pick_validator(len(devices)),
        slow_call_ns=SLOW_CALL_NS)

    PoissonWorkload(kernel, volume,
                    [(duration_s * SECOND, FAULTS_DEMO_RATE_IOS)]).start()
    kernel.run(until=duration_s * SECOND)
    return FaultsDemoResult(kernel, volume, monitor, injector, supervisor)
