"""The retraining lifecycle: closing the loop after A3 (§3.2).

The paper envisions retraining as an asynchronous, offline process: the
guardrail queues a request (A3), something trains a new model on fresh
data, and the system eventually switches back from the fallback.  The
:class:`RetrainDaemon` is that something:

1. it polls the host's retrain queue every ``poll_interval``;
2. for each accepted request it runs the registered trainer *off the
   critical path* — the simulated training time elapses on the virtual
   clock before the result lands;
3. on completion it invokes the model's re-enable hook (restore the
   function slot, flip the kill switch back on, or both).

Together with Listing 2 this closes the full loop the paper sketches:
misbehave -> detect -> disable -> retrain -> re-enable.
"""

from repro.trace.tracer import TRACER


class RetrainDaemon:
    """Drains the retrain queue on the virtual clock.

    ``register`` wires one model name to a ``trainer(request) -> result``
    callable plus an ``on_complete(result, request)`` re-enable hook and a
    simulated ``training_time`` (ns).  Multiple requests for the same model
    queued back-to-back collapse: only one training run is in flight per
    model, matching an offline training pipeline.
    """

    def __init__(self, host, poll_interval=1_000_000_000):
        self.host = host
        self.poll_interval = poll_interval
        self._models = {}
        self._in_flight = set()
        self.completed_count = 0
        self.collapsed_count = 0
        self._running = False

    def register(self, model, trainer, on_complete=None,
                 training_time=1_000_000_000):
        """Wire ``model`` to its trainer and re-enable hook."""
        if model in self._models:
            raise ValueError("model {!r} already registered".format(model))
        self._models[model] = {
            "trainer": trainer,
            "on_complete": on_complete,
            "training_time": training_time,
        }

    def start(self):
        if self._running:
            raise RuntimeError("daemon is already running")
        self._running = True
        self.host.engine.schedule(self.poll_interval, self._poll)
        return self

    def stop(self):
        self._running = False

    def _poll(self):
        if not self._running:
            return
        pending = self.host.retrain_queue.pending
        keep = []
        for request in pending:
            model = request["model"]
            if model not in self._models:
                keep.append(request)  # no trainer registered; leave queued
            elif model in self._in_flight:
                self.collapsed_count += 1  # one run in flight is enough
            else:
                self._begin(model, request)
        self.host.retrain_queue.pending = keep
        self.host.engine.schedule(self.poll_interval, self._poll)

    def _begin(self, model, request):
        self._in_flight.add(model)
        entry = self._models[model]
        now = self.host.engine.now
        requested_by = request.get("requested_by")
        self.host.reporter.note(
            "RETRAIN_START", requested_by or "daemon",
            now, detail="model={}".format(model))
        # The training-job span stretches over virtual time, so it is opened
        # here and closed in _finish; carry it on the request.
        if TRACER.active:
            request["_trace_span"] = TRACER.begin(
                "retrain", model, now, guardrail=requested_by,
                args={"queued_at": request.get("time")})
        self.host.engine.schedule(
            entry["training_time"], self._finish, model, request)

    def _finish(self, model, request):
        entry = self._models[model]
        result = entry["trainer"](request)
        self._in_flight.discard(model)
        self.completed_count += 1
        now = self.host.engine.now
        self.host.reporter.note(
            "RETRAIN_DONE", request.get("requested_by") or "daemon",
            now, detail="model={}".format(model))
        if TRACER.active:
            TRACER.end(request.pop("_trace_span", None), now)
        if entry["on_complete"] is not None:
            entry["on_complete"](result, request)
