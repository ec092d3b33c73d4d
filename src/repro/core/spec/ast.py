"""AST node types for the guardrail DSL.

Nodes are plain, immutable-by-convention data holders.  Every node can
render itself back to DSL syntax (``to_source``) so specs round-trip, which
the tests use to check grammar coverage.
"""


class Node:
    """Base AST node; every subclass renders itself with ``to_source()``."""

    def __repr__(self):
        return "{}({})".format(type(self).__name__, self.to_source())

    def __eq__(self, other):
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self):
        return hash((type(self).__name__, self.to_source()))


# -- expressions -----------------------------------------------------------


class NumberLiteral(Node):
    def __init__(self, value):
        self.value = value

    def to_source(self):
        return repr(self.value)


class BoolLiteral(Node):
    def __init__(self, value):
        self.value = bool(value)

    def to_source(self):
        return "true" if self.value else "false"


class StringLiteral(Node):
    def __init__(self, value):
        self.value = value

    def to_source(self):
        return '"{}"'.format(self.value.replace("\\", "\\\\").replace('"', '\\"'))


class Name(Node):
    """A free identifier, resolved against the compile environment."""

    def __init__(self, identifier):
        self.identifier = identifier

    def to_source(self):
        return self.identifier


class Load(Node):
    """``LOAD(key)`` — read from the global feature store."""

    def __init__(self, key):
        self.key = key

    def to_source(self):
        return "LOAD({})".format(self.key)


class Aggregate(Node):
    """A declarative streaming aggregate over a feature-store key.

    ``AVG(key, window)`` — time-windowed mean of saves ("the average
    page-fault latency over every 10 seconds");
    ``RATE(key, window)`` — fraction of truthy saves within the window;
    ``EWMA(key, alpha)`` — exponentially weighted moving average;
    ``P50/P95/P99(key)`` — streaming quantiles (whole-run, P² estimator).

    The compiler lowers an aggregate to a LOAD of a canonically-named
    derived key and arranges for that key to be registered when the monitor
    is loaded — the guardrail author never touches the store API.
    """

    WINDOWED = {"AVG", "RATE"}
    ALPHA = {"EWMA"}
    PLAIN = {"P50", "P95", "P99"}
    FUNCTIONS = WINDOWED | ALPHA | PLAIN

    def __init__(self, function, key, arg=None):
        if function not in self.FUNCTIONS:
            raise ValueError("unknown aggregate {!r}".format(function))
        self.function = function
        self.key = key
        self.arg = arg  # window ns (AVG/RATE), alpha (EWMA), None (P*)

    def derived_name(self):
        """The canonical feature-store key this aggregate lowers to.

        The name encodes the function and parameters, so two guardrails
        using the same aggregate share one estimator.
        """
        if self.function in self.WINDOWED:
            return "{}.{}{}".format(self.key, self.function.lower(),
                                    int(self.arg))
        if self.function in self.ALPHA:
            return "{}.ewma{}".format(
                self.key, str(float(self.arg)).replace(".", "_"))
        return "{}.{}".format(self.key, self.function.lower())

    def to_source(self):
        if self.arg is None:
            return "{}({})".format(self.function, self.key)
        return "{}({}, {!r})".format(self.function, self.key, self.arg)


class Call(Node):
    """Builtin call such as ``abs(x)`` / ``min(a, b)`` / ``max(a, b)``."""

    def __init__(self, function, args):
        self.function = function
        self.args = list(args)

    def to_source(self):
        return "{}({})".format(
            self.function, ", ".join(a.to_source() for a in self.args)
        )


class UnaryOp(Node):
    def __init__(self, op, operand):
        self.op = op  # '-' or '!'
        self.operand = operand

    def to_source(self):
        # '!' must be parenthesized as a whole: printed bare, `!(x) + 1`
        # would reparse as `!((x) + 1)` because logical-not binds looser
        # than arithmetic.
        if self.op == "!":
            return "(!({}))".format(self.operand.to_source())
        return "{}({})".format(self.op, self.operand.to_source())


class BinaryOp(Node):
    def __init__(self, op, left, right):
        self.op = op  # + - * / < <= > >= == != && ||
        self.left = left
        self.right = right

    def to_source(self):
        return "({} {} {})".format(
            self.left.to_source(), self.op, self.right.to_source()
        )


# -- triggers ----------------------------------------------------------------


class TimerTriggerSpec(Node):
    """``TIMER(start, interval[, stop])``; times in nanoseconds.

    ``start`` may be the symbolic name ``start_time`` (= when the monitor is
    loaded); ``stop`` defaults to "never".
    """

    def __init__(self, start, interval, stop=None):
        self.start = start
        self.interval = interval
        self.stop = stop

    def to_source(self):
        parts = [self.start.to_source(), self.interval.to_source()]
        if self.stop is not None:
            parts.append(self.stop.to_source())
        return "TIMER({})".format(", ".join(parts))


class FunctionTriggerSpec(Node):
    """``FUNCTION(hook_name)`` — check on every call of a kernel function."""

    def __init__(self, function_name):
        self.function_name = function_name

    def to_source(self):
        return "FUNCTION({})".format(self.function_name)


# -- rules -------------------------------------------------------------------


class RuleSpec(Node):
    """A boolean expression that must hold whenever the trigger fires."""

    def __init__(self, expression):
        self.expression = expression

    def to_source(self):
        return self.expression.to_source()


# -- actions -----------------------------------------------------------------


class ActionSpec(Node):
    kind = "action"


class ReportSpec(ActionSpec):
    """``REPORT(args...)`` — A1: log violation context for offline analysis."""

    kind = "REPORT"

    def __init__(self, args=()):
        self.args = list(args)

    def to_source(self):
        return "REPORT({})".format(", ".join(a.to_source() for a in self.args))


class ReplaceSpec(ActionSpec):
    """``REPLACE(old, new)`` — A2: swap the policy for a known-safe fallback."""

    kind = "REPLACE"

    def __init__(self, old_function, new_function):
        self.old_function = old_function
        self.new_function = new_function

    def to_source(self):
        return "REPLACE({}, {})".format(self.old_function, self.new_function)


class RetrainSpec(ActionSpec):
    """``RETRAIN(model[, input])`` — A3: queue asynchronous retraining."""

    kind = "RETRAIN"

    def __init__(self, model, input_expr=None):
        self.model = model
        self.input_expr = input_expr

    def to_source(self):
        if self.input_expr is None:
            return "RETRAIN({})".format(self.model)
        return "RETRAIN({}, {})".format(self.model, self.input_expr.to_source())


class DeprioritizeSpec(ActionSpec):
    """``DEPRIORITIZE({targets}, {priorities})`` — A4: adjust the workload."""

    kind = "DEPRIORITIZE"

    def __init__(self, targets, priorities):
        self.targets = list(targets)
        self.priorities = list(priorities)

    def to_source(self):
        return "DEPRIORITIZE({{{}}}, {{{}}})".format(
            ", ".join(self.targets),
            ", ".join(p.to_source() for p in self.priorities),
        )


class SaveSpec(ActionSpec):
    """``SAVE(key, expr)`` — write to the feature store (Listing 2 idiom)."""

    kind = "SAVE"

    def __init__(self, key, expression):
        self.key = key
        self.expression = expression

    def to_source(self):
        return "SAVE({}, {})".format(self.key, self.expression.to_source())


# -- top level ----------------------------------------------------------------


class GuardrailSpec(Node):
    """A parsed ``guardrail name { trigger ... rule ... action ... }`` block."""

    def __init__(self, name, triggers, rules, actions):
        self.name = name
        self.triggers = list(triggers)
        self.rules = list(rules)
        self.actions = list(actions)

    def to_source(self):
        lines = ["guardrail {} {{".format(self.name)]
        lines.append("  trigger: {")
        lines.append(
            ",\n".join("    " + t.to_source() for t in self.triggers)
        )
        lines.append("  },")
        lines.append("  rule: {")
        lines.append(",\n".join("    " + r.to_source() for r in self.rules))
        lines.append("  },")
        lines.append("  action: {")
        lines.append(",\n".join("    " + a.to_source() for a in self.actions))
        lines.append("  }")
        lines.append("}")
        return "\n".join(lines)
