"""Compile guardrail specs into loadable monitors (§3.3).

``GuardrailCompiler`` is the pipeline front door::

    compiler = GuardrailCompiler()
    compiled = compiler.compile(spec_text_or_ast)
    monitor = compiled.instantiate(host)   # or manager.load(compiled)

Compilation parses (when given text), compiles each rule expression into a
bounded program, resolves trigger parameters, lowers action specs to runtime
actions, and runs the static verifier.  The result is host-independent and
can be instantiated against any :class:`~repro.core.host.MonitorHost`.
"""

from repro.core.actions import (
    DeprioritizeAction,
    ReplaceAction,
    ReportAction,
    RetrainAction,
    SaveAction,
)
from repro.core.errors import CompileError
from repro.core.expr import EvalContext, compile_expression, static_cost
from repro.core.monitor import GuardrailMonitor
from repro.core.spec import ast as A
from repro.core.spec import parse_guardrail
from repro.core.verifier import VerifierConfig, verify


def _lower_aggregates(expr, registry):
    """Replace Aggregate nodes with LOADs of their derived keys.

    ``registry`` maps derived name -> (function, key, arg, name) and
    accumulates across rules so shared aggregates register once.
    """
    if isinstance(expr, A.Aggregate):
        name = expr.derived_name()
        registry[name] = (expr.function, expr.key, expr.arg, name)
        return A.Load(name)
    if isinstance(expr, A.UnaryOp):
        return A.UnaryOp(expr.op, _lower_aggregates(expr.operand, registry))
    if isinstance(expr, A.BinaryOp):
        return A.BinaryOp(expr.op,
                          _lower_aggregates(expr.left, registry),
                          _lower_aggregates(expr.right, registry))
    if isinstance(expr, A.Call):
        return A.Call(expr.function,
                      [_lower_aggregates(arg, registry) for arg in expr.args])
    return expr


class _NoStore:
    """Stand-in store for compile-time constant evaluation: LOAD is illegal."""

    def load(self, key, default=None):
        raise CompileError(
            "LOAD({}) cannot appear in a trigger parameter — trigger "
            "parameters must be compile-time constants".format(key)
        )


class CompiledGuardrail:
    """A verified, host-independent guardrail ready to instantiate."""

    def __init__(self, spec, rules, trigger_params, actions, verification,
                 cooldown=0, aggregates=()):
        self.spec = spec
        self.name = spec.name
        self.rules = rules                  # [(source, program, cost)]
        self.trigger_params = trigger_params  # [('timer', start, interval, stop) | ('function', name)]
        self.actions = actions
        self.verification = verification
        self.cooldown = cooldown
        # [(function, source_key, arg, derived_name)] — derived keys the
        # monitor must ensure exist in the host's feature store.
        self.aggregates = list(aggregates)

    def register_aggregates(self, store):
        """Idempotently create the derived keys this guardrail's rules use.

        Names encode function and parameters, so an existing key with the
        same name is the same estimator (possibly registered by another
        guardrail) and is reused.
        """
        for function, key, arg, name in self.aggregates:
            if name in store:
                continue
            if function == "AVG":
                store.derive_time_average(key, int(arg), name=name)
            elif function == "RATE":
                store.derive_rate(key, int(arg), name=name)
            elif function == "EWMA":
                store.derive_ewma(key, float(arg), name=name)
            else:  # P50 / P95 / P99
                store.derive_quantile(key, int(function[1:]) / 100.0,
                                      name=name)

    def instantiate(self, host):
        """Bind to a host, producing an unarmed :class:`GuardrailMonitor`."""
        self.register_aggregates(host.store)
        return GuardrailMonitor(self, host)


class GuardrailCompiler:
    """Spec (text or AST) -> :class:`CompiledGuardrail`."""

    def __init__(self, verifier_config=None, env=None):
        self.verifier_config = (
            verifier_config if verifier_config is not None else VerifierConfig()
        )
        # Compile-time constant bindings available in trigger parameters and
        # rules, e.g. {'memory_limit': 1 << 30}.
        self.env = dict(env or {})

    def compile(self, spec, cooldown=0):
        """Compile and verify one guardrail.

        ``cooldown`` (ns) suppresses re-firing actions for a violation of the
        same rule within the window — real deployments want this so a single
        bad second doesn't dispatch a thousand identical REPLACEs.
        """
        if isinstance(spec, str):
            spec = parse_guardrail(spec)
        if not isinstance(spec, A.GuardrailSpec):
            raise CompileError("expected DSL text or a GuardrailSpec, got {!r}".format(spec))

        rules = []
        aggregates = {}
        for rule in spec.rules:
            lowered = _lower_aggregates(rule.expression, aggregates)
            # Report the author's syntax (AVG(...)), evaluate the lowering.
            rules.append((rule.to_source(), compile_expression(lowered),
                          static_cost(lowered)))

        trigger_params = []
        timer_intervals = []
        has_function_trigger = False
        for trigger in spec.triggers:
            if isinstance(trigger, A.TimerTriggerSpec):
                start = self._constant(trigger.start, allow_start_time=True)
                interval = self._constant(trigger.interval)
                stop = (
                    self._constant(trigger.stop) if trigger.stop is not None else None
                )
                if interval is None or interval <= 0:
                    raise CompileError(
                        "guardrail {!r}: TIMER interval must be a positive "
                        "constant".format(spec.name)
                    )
                trigger_params.append(("timer", start, int(interval),
                                       None if stop is None else int(stop)))
                timer_intervals.append(int(interval))
            else:
                trigger_params.append(("function", trigger.function_name))
                has_function_trigger = True

        actions = [self._lower_action(a, aggregates) for a in spec.actions]

        verification = verify(
            spec,
            rule_costs=[cost for _, _, cost in rules],
            timer_intervals=timer_intervals,
            has_function_trigger=has_function_trigger,
            config=self.verifier_config,
        )
        return CompiledGuardrail(spec, rules, trigger_params, actions,
                                 verification, cooldown=cooldown,
                                 aggregates=list(aggregates.values()))

    def _constant(self, expr, allow_start_time=False):
        """Evaluate a compile-time constant trigger parameter."""
        if allow_start_time and isinstance(expr, A.Name) and expr.identifier == "start_time":
            return None  # symbolic "when the monitor is loaded"
        program = compile_expression(expr)
        ctx = EvalContext(_NoStore(), now=0, env=self.env)
        value = program(ctx)
        if value is None:
            raise CompileError(
                "trigger parameter {!r} is not a compile-time constant "
                "(unbound name?)".format(expr.to_source())
            )
        return value

    def _lower_action(self, action, aggregates):
        if isinstance(action, A.ReportSpec):
            programs = [
                compile_expression(_lower_aggregates(arg, aggregates))
                for arg in action.args
            ]
            sources = [arg.to_source() for arg in action.args]
            return ReportAction(programs, sources)
        if isinstance(action, A.ReplaceSpec):
            return ReplaceAction(action.old_function, action.new_function)
        if isinstance(action, A.RetrainSpec):
            program = source = None
            if action.input_expr is not None:
                program = compile_expression(
                    _lower_aggregates(action.input_expr, aggregates))
                source = action.input_expr.to_source()
            return RetrainAction(action.model, program, source)
        if isinstance(action, A.DeprioritizeSpec):
            priorities = []
            for priority in action.priorities:
                value = self._constant(priority)
                priorities.append(value)
            return DeprioritizeAction(action.targets, priorities)
        if isinstance(action, A.SaveSpec):
            program = compile_expression(
                _lower_aggregates(action.expression, aggregates))
            return SaveAction(action.key, program, action.expression.to_source())
        raise CompileError("cannot lower action {!r}".format(action))
