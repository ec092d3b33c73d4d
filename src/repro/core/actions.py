"""Runtime corrective actions A1–A4 (plus the SAVE idiom of Listing 2).

Each action implements ``execute(ctx)`` where ``ctx`` is an
:class:`ActionContext` carrying the violation details and the monitor host.
Actions are small and typed on purpose (§4.2): a closed action vocabulary is
what makes compilation, overhead bounding, and crash-free reasoning
tractable.
"""

from repro.core.errors import ActionError


class ActionContext:
    """What an action may see when it runs."""

    __slots__ = ("host", "guardrail", "rule_source", "now", "payload")

    def __init__(self, host, guardrail, rule_source, now, payload):
        self.host = host
        self.guardrail = guardrail
        self.rule_source = rule_source
        self.now = now
        self.payload = payload


class Action:
    """Base corrective action; subclasses implement ``execute(ctx)``."""

    kind = "action"

    def trace_detail(self):
        """Short static description attached to this action's trace events."""
        return ""

    def __repr__(self):
        return "{}()".format(type(self).__name__)


class ReportAction(Action):
    """A1 — log system context for offline analysis.

    ``extra_programs`` are compiled expressions whose values are attached to
    the report (e.g. the inputs that triggered the violation).
    """

    kind = "REPORT"

    def __init__(self, extra_programs=(), extra_sources=()):
        self.extra_programs = list(extra_programs)
        self.extra_sources = list(extra_sources)

    def execute(self, ctx):
        from repro.core.expr import EvalContext

        extras = {}
        for source, program in zip(self.extra_sources, self.extra_programs):
            eval_ctx = EvalContext(ctx.host.store, ctx.now, ctx.payload)
            extras[source] = program(eval_ctx)
        ctx.host.reporter.report(
            guardrail=ctx.guardrail,
            rule=ctx.rule_source,
            time=ctx.now,
            payload=dict(ctx.payload),
            store_snapshot=ctx.host.store.snapshot(),
            extras=extras,
        )


class ReplaceAction(Action):
    """A2 — swap a misbehaving policy slot for a known-safe fallback."""

    kind = "REPLACE"

    def __init__(self, old_function, new_function):
        self.old_function = old_function
        self.new_function = new_function

    def trace_detail(self):
        return "{} -> {}".format(self.old_function, self.new_function)

    def execute(self, ctx):
        ctx.host.functions.replace(self.old_function, self.new_function)
        ctx.host.reporter.note(
            "REPLACE", ctx.guardrail, ctx.now,
            detail="{} -> {}".format(self.old_function, self.new_function),
        )


class RetrainAction(Action):
    """A3 — queue asynchronous retraining on newer data.

    Retraining is envisioned offline (§3.2), so the action only enqueues a
    request.  The queue rate-limits per model to protect against adversarial
    workloads that intentionally trigger frequent retraining.
    """

    kind = "RETRAIN"

    def __init__(self, model, input_program=None, input_source=None):
        self.model = model
        self.input_program = input_program
        self.input_source = input_source

    def trace_detail(self):
        return "model={}".format(self.model)

    def execute(self, ctx):
        data_ref = None
        if self.input_program is not None:
            from repro.core.expr import EvalContext

            eval_ctx = EvalContext(ctx.host.store, ctx.now, ctx.payload)
            data_ref = self.input_program(eval_ctx)
        accepted = ctx.host.retrain_queue.request(
            self.model, ctx.now, data_ref=data_ref, requested_by=ctx.guardrail
        )
        ctx.host.reporter.note(
            "RETRAIN", ctx.guardrail, ctx.now,
            detail="model={} accepted={}".format(self.model, accepted),
        )


class DeprioritizeAction(Action):
    """A4 — change the workload: deprioritize (or kill) tasks.

    ``priorities`` pair with ``targets``; a priority of 0 or below means
    "kill/evict", mirroring the OOM-killer analogy in the paper.
    """

    kind = "DEPRIORITIZE"

    def __init__(self, targets, priorities):
        if len(targets) != len(priorities):
            raise ActionError(
                "DEPRIORITIZE: {} targets but {} priorities".format(
                    len(targets), len(priorities)
                )
            )
        self.targets = list(targets)
        self.priorities = list(priorities)

    def trace_detail(self):
        return ", ".join(
            "{}={}".format(t, p) for t, p in zip(self.targets, self.priorities)
        )

    def execute(self, ctx):
        ctx.host.task_controller.deprioritize(self.targets, self.priorities)
        ctx.host.reporter.note(
            "DEPRIORITIZE", ctx.guardrail, ctx.now,
            detail=", ".join(
                "{}={}".format(t, p) for t, p in zip(self.targets, self.priorities)
            ),
        )


class SaveAction(Action):
    """Write a value to the feature store when the rule is violated.

    This is how Listing 2 disables the LinnOS model: the submit path reads
    ``ml_enabled`` from the store on every I/O.
    """

    kind = "SAVE"

    def __init__(self, key, program, source):
        self.key = key
        self.program = program
        self.source = source

    def trace_detail(self):
        return "{} = {}".format(self.key, self.source)

    def execute(self, ctx):
        from repro.core.expr import EvalContext

        eval_ctx = EvalContext(ctx.host.store, ctx.now, ctx.payload)
        value = self.program(eval_ctx)
        ctx.host.store.save(self.key, value)
        ctx.host.reporter.note(
            "SAVE", ctx.guardrail, ctx.now,
            detail="{} = {!r}".format(self.key, value),
        )
