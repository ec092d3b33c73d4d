"""The monitor host: what compiled guardrails run against.

A :class:`MonitorHost` bundles the engine, hook registry, feature store,
function table, retrain queue, task controller, and violation reporter.  The
simulated kernel (:class:`repro.kernel.base.Kernel`) builds one of these;
unit tests can build a bare host without any kernel subsystems.
"""

import collections

from repro.core.featurestore import FeatureStore
from repro.core.functions import FunctionTable
from repro.faults.supervisor import MonitorSupervisor
from repro.sim.engine import Engine
from repro.sim.hooks import HookRegistry
from repro.trace.tracer import TRACER


class ViolationReporter:
    """Collects A1 REPORT records and one-line action notes.

    Bounded: keeps at most ``capacity`` full reports (oldest dropped) so a
    flapping guardrail cannot exhaust memory — the in-kernel analogue would
    be a fixed ring buffer.  Backed by ``deque(maxlen=capacity)`` so
    at-capacity eviction is O(1); a plain list's ``pop(0)`` shifts all
    10k entries on every report once the buffer fills, which is a real cost
    on the hot report path.
    """

    def __init__(self, capacity=10_000):
        self.reports = collections.deque(maxlen=capacity)
        self.notes = collections.deque(maxlen=capacity)
        self.dropped = 0

    def report(self, guardrail, rule, time, payload, store_snapshot, extras):
        record = {
            "guardrail": guardrail,
            "rule": rule,
            "time": time,
            "payload": payload,
            "store": store_snapshot,
            "extras": extras,
        }
        if len(self.reports) == self.reports.maxlen:
            self.dropped += 1
        self.reports.append(record)

    def note(self, kind, guardrail, time, detail=""):
        if len(self.notes) == self.notes.maxlen:
            self.dropped += 1
        self.notes.append({
            "kind": kind,
            "guardrail": guardrail,
            "time": time,
            "detail": detail,
        })

    def notes_for(self, kind=None, guardrail=None):
        out = self.notes
        if kind is not None:
            out = [n for n in out if n["kind"] == kind]
        if guardrail is not None:
            out = [n for n in out if n["guardrail"] == guardrail]
        return out


class RetrainQueue:
    """Asynchronous retraining requests with per-model rate limiting (§3.2)."""

    def __init__(self, min_interval=0):
        self.min_interval = min_interval
        self.pending = []
        self.accepted_count = 0
        self.rejected_count = 0
        self._last_accepted = {}
        self._trainers = {}

    def register_trainer(self, model, trainer):
        """``trainer(request)`` runs when the request is drained."""
        self._trainers[model] = trainer

    def request(self, model, now, data_ref=None, requested_by=None):
        """Enqueue a retrain; returns False when rate-limited."""
        last = self._last_accepted.get(model)
        if last is not None and now - last < self.min_interval:
            self.rejected_count += 1
            if TRACER.active:
                TRACER.emit("retrain", "request", now, guardrail=requested_by,
                            args={"model": model, "accepted": False})
            return False
        if TRACER.active:
            TRACER.emit("retrain", "request", now, guardrail=requested_by,
                        args={"model": model, "accepted": True})
        self._last_accepted[model] = now
        self.accepted_count += 1
        self.pending.append({
            "model": model,
            "time": now,
            "data_ref": data_ref,
            "requested_by": requested_by,
        })
        return True

    def drain(self):
        """Run every pending request through its trainer (offline step)."""
        completed = []
        pending, self.pending = self.pending, []
        for request in pending:
            trainer = self._trainers.get(request["model"])
            if trainer is not None:
                trainer(request)
            completed.append(request)
        return completed


class NullTaskController:
    """Default A4 target when no scheduler is attached: records requests."""

    def __init__(self):
        self.requests = []

    def deprioritize(self, targets, priorities):
        self.requests.append((list(targets), list(priorities)))


class MonitorHost:
    """Everything a guardrail monitor needs from the surrounding system."""

    def __init__(self, engine=None, retrain_queue=None, reporter=None):
        self.engine = engine if engine is not None else Engine()
        self.hooks = HookRegistry(self.engine)
        self.store = FeatureStore(clock=lambda: self.engine.now)
        self.functions = FunctionTable()
        self.retrain_queue = retrain_queue if retrain_queue is not None else RetrainQueue()
        self.task_controller = NullTaskController()
        self.reporter = reporter if reporter is not None else ViolationReporter()
        # Crash-only containment: monitors report crashing rules/actions
        # here; the supervisor trips per-guardrail circuit breakers.
        self.supervisor = MonitorSupervisor(self)
