"""Which calls belong to which layer, and the per-layer metrics they give.

Layers are module names of ``src/repro``.  :func:`install` wraps the
public callables listed in :data:`CLASS_SPANS` and :data:`FUNCTION_SPANS`
at class/module level, wraps ``Engine.schedule_at`` so every DES event
callback becomes a span of the layer owning ``callback.__module__``, and
wraps the rule programs of every instantiated guardrail.
:func:`per_layer_metrics` turns one recorder into the metric names listed
in ``BENCHMARK.json``.
"""

import importlib

from benchmarks.perf.spans import Patches

#: (layer, module, class, methods) — wrapped on the class itself.
CLASS_SPANS = [
    ("sim.engine", "repro.sim.engine", "Engine", ("run", "reschedule")),
    ("sim.hooks", "repro.sim.hooks", "HookPoint", ("fire",)),
    ("kernel.storage", "repro.kernel.storage.volume", "ReplicatedVolume",
     ("submit",)),
    ("kernel.storage", "repro.kernel.storage.ssd", "SsdDevice", ("enqueue",)),
    ("policies.linnos", "repro.policies.linnos", "LinnosPolicy",
     ("__call__",)),
    ("policies.linnos", "repro.policies.linnos", "LinnosModel",
     ("slow_probabilities",)),
    ("core.featurestore", "repro.core.featurestore", "FeatureStore",
     ("save", "load", "save_batch")),
    ("core.triggers", "repro.core.triggers", "TimerTrigger", ("arm",)),
    ("core.triggers", "repro.core.triggers", "FunctionTrigger",
     ("arm", "_on_call")),
    ("core.triggers", "repro.core.dependency", "DependencyTrigger",
     ("arm", "_on_change")),
    ("core.monitor", "repro.core.monitor", "GuardrailMonitor", ("check",)),
    ("core.actions", "repro.core.actions", "ReportAction", ("execute",)),
    ("core.actions", "repro.core.actions", "ReplaceAction", ("execute",)),
    ("core.actions", "repro.core.actions", "RetrainAction", ("execute",)),
    ("core.actions", "repro.core.actions", "DeprioritizeAction",
     ("execute",)),
    ("core.actions", "repro.core.actions", "SaveAction", ("execute",)),
    ("core.compiler", "repro.core.registry", "GuardrailManager",
     ("load", "update")),
    ("core.compiler", "repro.core.compiler", "GuardrailCompiler",
     ("compile",)),
    ("fleet.worker", "repro.fleet.worker", "FleetRunner",
     ("__init__", "step_round")),
    ("fleet.worker", "repro.fleet.worker", "SimulatedHost",
     ("apply", "step", "digest")),
    ("fleet.aggregate", "repro.fleet.aggregate", "HostDigest",
     ("observe_io", "merge_round", "to_row", "from_row", "to_dict")),
    ("fleet.aggregate", "repro.fleet.aggregate", "FleetDigest",
     ("merge_host", "merge", "to_dict")),
    ("fleet.rollout", "repro.fleet.rollout", "RolloutController", ("run",)),
    ("fleet.rollout", "repro.fleet.rollout", "GateConfig", ("evaluate",)),
    ("detect.streaming", "repro.detect.streaming", "SummaryDigest",
     ("merge", "to_json", "from_json")),
    ("detect.streaming", "repro.detect.streaming", "RateCounter",
     ("merge", "to_json", "from_json")),
    ("detect.streaming", "repro.detect.histogram", "Histogram",
     ("merge", "to_json", "from_json")),
    ("detect.streaming", "repro.detect.quantiles", "P2Quantile",
     ("merge", "to_json", "from_json")),
    ("service.store", "repro.service.store", "ResultsStore",
     ("__init__", "begin_run", "commit_round", "_apply_retention",
      "finalize_run", "run", "max_event_seq")),
]

#: ``ResultsStore`` readers: spans that also count the rows they return.
STORE_READERS = ("round_rows", "digest_rows", "bucket_rows", "event_rows",
                 "phase_rows", "gate_rows", "raw_round_indexes")

#: (layer, module, functions) — patched wherever they were imported.
FUNCTION_SPANS = [
    ("core.compiler", "repro.core.spec", ("parse_guardrail",
                                         "parse_guardrails")),
    ("core.compiler", "repro.core.verifier", ("verify",)),
    ("fleet.rollout", "repro.fleet.scenario", ("build_fleet_rollout",)),
    ("service.query", "repro.service.query",
     ("run_status", "latency_trend", "merged_digest", "list_runs")),
    ("scenarios", "repro.scenarios.spec", ("run_scenario",)),
    ("scenarios", "repro.scenarios.domains", ("attach_domain",)),
]

#: Event callbacks: longest matching module prefix names the layer.
EVENT_LAYERS = [
    ("repro.kernel.storage", "kernel.storage"),
    ("repro.policies.linnos", "policies.linnos"),
    ("repro.core.triggers", "core.triggers"),
    ("repro.core.dependency", "core.triggers"),
    ("repro.fleet.worker", "fleet.worker"),
    ("repro.scenarios", "scenarios"),
    ("repro.kernel.cache", "kernel.domains"),
    ("repro.kernel.mm", "kernel.domains"),
    ("repro.kernel.sched", "kernel.domains"),
    ("repro.kernel.net", "kernel.domains"),
    ("repro.policies", "kernel.domains"),
]

LAYERS = (
    "sim.engine", "sim.hooks", "kernel.storage", "policies.linnos",
    "core.featurestore", "core.triggers", "core.monitor", "core.expr",
    "core.actions", "core.compiler", "fleet.worker", "fleet.aggregate",
    "fleet.rollout", "detect.streaming", "service.store", "service.query",
    "scenarios", "kernel.domains", "other",
)

#: The guardrail hot path: hook -> trigger -> check -> rule -> store -> action.
GUARDRAIL_PATH = ("sim.hooks", "core.triggers", "core.monitor", "core.expr",
                  "core.featurestore", "core.actions")


def _event_layer(module_name):
    best = "other"
    best_len = -1
    for prefix, layer in EVENT_LAYERS:
        if (module_name == prefix or module_name.startswith(prefix + ".")) \
                and len(prefix) > best_len:
            best, best_len = layer, len(prefix)
    return best


def _trace_events(recorder, patches):
    """Every scheduled callback runs as a span of its module's layer.

    ``schedule_at`` stores ``dispatch`` as the event's callback and the real
    callback as its first argument, so ``reschedule`` (which re-arms a fired
    event object) keeps the attribution.  Callbacks that are already spans
    (class-level wrappers) are called straight through.
    """
    from repro.sim.engine import Engine

    spans = {}  # underlying function -> traced caller, or None

    def dispatch(callback, *args):
        function = getattr(callback, "__func__", callback)
        try:
            traced = spans[function]
        except KeyError:
            if hasattr(function, "perf_span"):
                traced = None
            else:
                name = "event:" + getattr(function, "__qualname__",
                                          repr(function))
                layer = _event_layer(getattr(function, "__module__", "") or "")
                traced = recorder.wrap(
                    name, layer, lambda call, *a: call(*a))
            spans[function] = traced
        if traced is None:
            return callback(*args)
        return traced(callback, *args)

    def make(original):
        def schedule_at(self, time, callback, *args):
            return original(self, time, dispatch, callback, *args)

        return recorder.wrap("Engine.schedule_at", "sim.engine", schedule_at)

    patches.wrap_method(Engine, "schedule_at", make)


def _trace_rules(recorder, patches):
    """Rule programs of every monitor built while tracing become spans.

    Programs are closures or VM objects held in ``monitor._rules``; there is
    no class to wrap, so the monitor's own list is rewritten right after
    ``CompiledGuardrail.instantiate`` builds it.  The compiled guardrail
    (which callers may cache across runs) is left untouched.
    """
    from repro.core.compiler import CompiledGuardrail

    tallies = recorder.tallies

    def traced_program(program):
        def evaluate(ctx):
            result = program(ctx)
            tallies["ops_charged"] = tallies.get("ops_charged", 0) + ctx.ops
            if result is None:
                tallies["inconclusive"] = tallies.get("inconclusive", 0) + 1
            elif not result:
                tallies["violations"] = tallies.get("violations", 0) + 1
            return result

        return recorder.wrap("rule.program", "core.expr", evaluate)

    def make(original):
        def instantiate(self, host):
            monitor = original(self, host)
            rules = getattr(monitor, "_rules", None)
            if rules is not None:
                monitor._rules = [(source, traced_program(program), cost)
                                  for source, program, cost in rules]
            return monitor

        return recorder.wrap("CompiledGuardrail.instantiate", "core.compiler",
                             instantiate)

    patches.wrap_method(CompiledGuardrail, "instantiate", make)


#: Derived-key estimators; an update made from inside the feature store
#: is one derived-key refresh.  Counted, not timed: the time belongs to
#: ``FeatureStore.save``.
ESTIMATOR_UPDATES = [
    ("repro.detect.streaming", "WindowedMean", "observe"),
    ("repro.detect.streaming", "RateCounter", "observe"),
    ("repro.detect.streaming", "MovingAverage", "update"),
    ("repro.detect.streaming", "Ewma", "update"),
]


def _count_derived_updates(recorder):
    stack, tallies = recorder.stack, recorder.tallies

    def make(original):
        def counted(*args, **kwargs):
            if stack[-1][1] == "core.featurestore":
                tallies["derived_updates"] = tallies.get(
                    "derived_updates", 0) + 1
            return original(*args, **kwargs)

        return counted

    return make


def install(recorder):
    """Wrap every layer boundary; returns the :class:`Patches` to restore.

    A listed callable that no longer exists is skipped and named in
    ``patches.missing`` (its time then shows as its caller's self time), so
    a refactor of ``src/`` degrades the breakdown instead of breaking it.
    """
    patches = Patches()
    patches.missing = []

    def attempt(label, patch, *args):
        try:
            patch(*args)
        except (ImportError, AttributeError, KeyError):
            patches.missing.append(label)

    def wrap_class(module_name, class_name, method, make):
        cls = getattr(importlib.import_module(module_name), class_name)
        patches.wrap_method(cls, method, make)

    def wrap_function(module_name, function, make):
        patches.wrap_function(importlib.import_module(module_name), function,
                              make)

    try:
        for layer, module_name, class_name, methods in CLASS_SPANS:
            for method in methods:
                name = "{}.{}".format(class_name, method)
                attempt(name, wrap_class, module_name, class_name, method,
                        lambda fn, name=name, layer=layer:
                        recorder.wrap(name, layer, fn))
        for method in STORE_READERS:
            name = "ResultsStore." + method
            attempt(name, wrap_class, "repro.service.store", "ResultsStore",
                    method,
                    lambda fn, name=name:
                    recorder.wrap(name, "service.store", fn, tally=len))
        for layer, module_name, functions in FUNCTION_SPANS:
            for function in functions:
                attempt(function, wrap_function, module_name, function,
                        lambda fn, name=function, layer=layer:
                        recorder.wrap(name, layer, fn))
        for module_name, class_name, method in ESTIMATOR_UPDATES:
            attempt("{}.{}".format(class_name, method), wrap_class,
                    module_name, class_name, method,
                    _count_derived_updates(recorder))
        attempt("Engine.schedule_at", _trace_events, recorder, patches)
        attempt("CompiledGuardrail.instantiate", _trace_rules, recorder,
                patches)
    except BaseException:
        patches.restore()
        raise
    return patches


# -- metrics ------------------------------------------------------------------

#: Extra per-layer metrics: name -> (unit, how to read it from a recorder).
#: ``calls:X`` is the call count of span X, ``total:X`` its inclusive
#: seconds, ``tally:X`` a counter fed by a custom wrapper, ``extra`` a value
#: the workload reads from the program's own public results.
EXTRAS = [
    ("sim.engine.events", "count", "events"),
    ("sim.hooks.fires", "count", "calls:HookPoint.fire"),
    ("kernel.storage.ios", "count", "calls:ReplicatedVolume.submit"),
    ("kernel.storage.ingest_saves", "count", "ingest_saves"),
    ("policies.linnos.picks", "count", "calls:LinnosPolicy.__call__"),
    ("policies.linnos.model_submits", "count",
     "calls:LinnosModel.slow_probabilities"),
    ("core.featurestore.saves", "count", "calls:FeatureStore.save"),
    ("core.featurestore.loads", "count", "calls:FeatureStore.load"),
    ("core.featurestore.derived_updates", "count", "tally:derived_updates"),
    ("core.triggers.timer_fires", "count", "calls:event:TimerTrigger._tick"),
    ("core.triggers.function_fires", "count",
     "calls:FunctionTrigger._on_call"),
    ("core.monitor.checks", "count", "calls:GuardrailMonitor.check"),
    ("core.monitor.violations", "count", "tally:violations"),
    ("core.monitor.inconclusive", "count", "tally:inconclusive"),
    ("core.expr.rule_evals", "count", "calls:rule.program"),
    ("core.expr.ops_charged", "count", "tally:ops_charged"),
    ("core.actions.dispatches", "count", "dispatches"),
    ("core.compiler.guardrails_loaded", "count", "guardrails_loaded"),
    ("core.compiler.compile_s", "s", "compile_s"),
    ("fleet.worker.host_steps", "count", "calls:SimulatedHost.step"),
    ("fleet.worker.digest_s", "s", "total:SimulatedHost.digest"),
    ("fleet.aggregate.observe_ios", "count", "calls:HostDigest.observe_io"),
    ("fleet.aggregate.host_merges", "count", "calls:FleetDigest.merge_host"),
    ("fleet.rollout.gate_evals", "count", "calls:GateConfig.evaluate"),
    ("detect.streaming.merges", "count", "sketch_merges"),
    ("service.store.commits", "count", "calls:ResultsStore.commit_round"),
    ("service.store.commit_s", "s", "total:ResultsStore.commit_round"),
    ("service.store.commit_frac", "frac", "commit_frac"),
    ("service.store.retention_s", "s", "total:ResultsStore._apply_retention"),
    ("service.store.rows_written", "count", "extra"),
    ("service.store.rows_folded", "count", "extra"),
    ("service.store.read_rows", "count", "read_rows"),
    ("service.store.db_bytes", "bytes", "extra"),
    ("service.query.queries", "count", "queries"),
    ("scenarios.build_s", "s", "total:attach_domain"),
    ("scenarios.run_s", "s", "scenario_run_s"),
]

BENCH_METRICS = [
    ("bench.glue_frac", "frac"),
    ("bench.trace_overhead_x", "x"),
    ("bench.calib_ms", "ms"),
]


def per_layer_spec():
    """``[(name, unit)]`` of every per-layer metric, in report order."""
    spec = []
    for layer in LAYERS:
        spec.append((layer + ".calls", "count"))
        spec.append((layer + ".self_s", "s"))
        spec.append((layer + ".self_frac", "frac"))
    spec.extend((name, unit) for name, unit, _ in EXTRAS)
    spec.extend(BENCH_METRICS)
    return spec


_SKETCHES = ("SummaryDigest", "RateCounter", "Histogram", "P2Quantile")
_QUERIES = ("run_status", "latency_trend", "merged_digest", "list_runs")


def per_layer_metrics(recorder, wall_s, extras=None):
    """Per-layer metric values of one traced region of ``wall_s`` seconds.

    ``extras`` carries the values the workload read from public results.
    ``bench.trace_overhead_x`` and ``bench.calib_ms`` belong to the harness
    and are filled in by it.
    """
    extras = extras or {}
    layers = recorder.by_layer()
    unknown = set(layers) - set(LAYERS)
    if unknown:
        raise ValueError("spans in undeclared layers: {}".format(
            ", ".join(sorted(unknown))))
    names = recorder.by_name()
    from_storage = recorder.by_name(parent_layer="kernel.storage")

    def calls(*span_names):
        return sum(names.get(name, (0, 0.0))[0] for name in span_names)

    def total(*span_names):
        return sum(names.get(name, (0, 0.0))[1] for name in span_names)

    attach = total("attach_domain")
    derived = {
        "events": sum(count for name, (count, _) in names.items()
                      if name.startswith("event:")),
        "ingest_saves": from_storage.get("FeatureStore.save", (0, 0.0))[0],
        "dispatches": sum(count for name, (count, _) in names.items()
                          if name.endswith("Action.execute")),
        "guardrails_loaded": calls("GuardrailManager.load",
                                   "GuardrailManager.update"),
        # load_all parses the whole file before it loads each guardrail.
        "compile_s": total("GuardrailManager.load", "GuardrailManager.update",
                           "parse_guardrails"),
        # Inclusive: the retention fold's sketch work is timed under
        # fleet.aggregate and detect.streaming, not as the store's self time.
        "commit_frac": total("ResultsStore.commit_round") / wall_s,
        "sketch_merges": calls(*(s + ".merge" for s in _SKETCHES)),
        "read_rows": sum(recorder.tallies.get("ResultsStore." + reader, 0)
                         for reader in STORE_READERS),
        # latency_trend calls merged_digest itself; count what was asked.
        "queries": sum(count for (name, _layer, parent), (count, _t, _s)
                       in recorder.edges.items()
                       if name in _QUERIES and parent != "service.query"),
        "scenario_run_s": max(total("run_scenario") - attach, 0.0),
    }

    metrics = {}
    for layer in LAYERS:
        count, self_s = layers.get(layer, (0, 0.0))
        metrics[layer + ".calls"] = count
        metrics[layer + ".self_s"] = self_s
        metrics[layer + ".self_frac"] = self_s / wall_s
    for name, _unit, source in EXTRAS:
        kind, _, arg = source.partition(":")
        if kind == "calls":
            metrics[name] = calls(arg)
        elif kind == "total":
            metrics[name] = total(arg)
        elif kind == "tally":
            metrics[name] = recorder.tallies.get(arg, 0)
        elif kind == "extra":
            metrics[name] = extras.get(name, 0)
        else:
            metrics[name] = derived[kind]
    metrics["bench.glue_frac"] = max(wall_s - recorder.covered_s(), 0.0) / wall_s
    return metrics
