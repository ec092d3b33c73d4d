"""Compile DSL expressions into bounded monitor programs.

An expression compiles to a Python callable ``program(ctx) -> value`` over an
:class:`EvalContext`.  Two properties matter for the in-kernel story:

- **Bounded cost.**  ``static_cost`` computes the exact number of primitive
  operations an expression performs (the tree is loop-free by construction),
  which the verifier checks against the instruction budget, and the runtime
  charges against the monitor's overhead account via ``ctx.charge``.
- **Missing-data semantics.**  ``LOAD`` of an absent key (or a NaN aggregate)
  yields ``None``; any arithmetic or comparison touching ``None`` yields
  ``None``.  A rule evaluating to ``None`` is "not enough data", which never
  counts as a violation.  Logical operators short-circuit around ``None``
  when the other side already decides the result (``false && ? == false``).
"""

import math

from repro.core.errors import CompileError
from repro.core.spec import ast as A


class EvalContext:
    """Everything an executing rule may see.

    ``payload`` holds FUNCTION-trigger call-site arguments, ``env`` holds
    compile-time bindings (e.g. ``start_time``), ``store`` is the global
    feature store.  ``ops`` accumulates the primitive-operation count for
    overhead accounting.
    """

    __slots__ = ("store", "now", "payload", "env", "ops")

    def __init__(self, store, now=0, payload=None, env=None):
        self.store = store
        self.now = now
        self.payload = payload or {}
        self.env = env or {}
        self.ops = 0

    def charge(self, amount=1):
        self.ops += amount

    def resolve(self, identifier):
        """Free-name lookup: trigger payload, then environment, then None."""
        if identifier in self.payload:
            return self.payload[identifier]
        if identifier in self.env:
            return self.env[identifier]
        if identifier == "now":
            return self.now
        return None


def _none_guard(value):
    if value is None:
        return None
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


_LITERALS = (A.NumberLiteral, A.BoolLiteral, A.StringLiteral)


def _is_constant(expr):
    """True when ``expr`` has no runtime inputs (no LOAD, Name, Aggregate)."""
    if isinstance(expr, _LITERALS):
        return True
    if isinstance(expr, A.UnaryOp):
        return _is_constant(expr.operand)
    if isinstance(expr, A.BinaryOp):
        return _is_constant(expr.left) and _is_constant(expr.right)
    if isinstance(expr, A.Call):
        return all(_is_constant(arg) for arg in expr.args)
    return False


def _fold_constant_value(expr):
    """Evaluate a constant subexpression once, at compile time.

    Returns ``(value, ops)`` where ``ops`` is exactly what the unfolded
    tree would have charged at runtime, so folding never changes overhead
    accounting.
    """
    program = _compile_node(expr)
    probe = EvalContext(None)
    value = program(probe)
    return value, probe.ops


def _fold_constant(expr):
    value, ops = _fold_constant_value(expr)

    def folded(ctx, _value=value, _ops=ops):
        ctx.ops += _ops  # charge() inlined: this closure is the whole rule
        return _value

    return folded


def compile_expression(expr):
    """Compile an AST expression into ``program(ctx) -> value``."""
    if _is_constant(expr) and not isinstance(expr, _LITERALS):
        return _fold_constant(expr)
    return _compile_node(expr)


def _compile_node(expr):
    if isinstance(expr, A.NumberLiteral):
        value = expr.value

        def program(ctx, _value=value):
            ctx.charge()
            return _value

        return program

    if isinstance(expr, A.BoolLiteral):
        value = expr.value

        def program(ctx, _value=value):
            ctx.charge()
            return _value

        return program

    if isinstance(expr, A.StringLiteral):
        value = expr.value

        def program(ctx, _value=value):
            ctx.charge()
            return _value

        return program

    if isinstance(expr, A.Name):
        identifier = expr.identifier

        def program(ctx, _id=identifier):
            ctx.charge()
            return _none_guard(ctx.resolve(_id))

        return program

    if isinstance(expr, A.Load):
        key = expr.key

        def program(ctx, _key=key):
            ctx.charge(2)  # a store lookup is pricier than an ALU op
            return _none_guard(ctx.store.load(_key))

        return program

    if isinstance(expr, A.Call):
        return _compile_call(expr)

    if isinstance(expr, A.UnaryOp):
        operand = compile_expression(expr.operand)
        if expr.op == "-":

            def program(ctx, _operand=operand):
                value = _operand(ctx)
                ctx.charge()
                if value is None or not isinstance(value, (int, float)):
                    # Crash-free semantics (§4.2): negating a type-confused
                    # operand reads as missing data, never as a TypeError.
                    return None
                return -value

            return program
        if expr.op == "!":

            def program(ctx, _operand=operand):
                value = _operand(ctx)
                ctx.charge()
                return None if value is None else (not value)

            return program
        raise CompileError("unknown unary operator {!r}".format(expr.op))

    if isinstance(expr, A.BinaryOp):
        return _compile_binary(expr)

    if isinstance(expr, A.Aggregate):
        raise CompileError(
            "aggregate {} must be lowered by the guardrail compiler before "
            "expression compilation".format(expr.to_source())
        )

    raise CompileError("cannot compile expression node {!r}".format(expr))


_ARITHMETIC = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


_COMPARISONS = ("<", "<=", ">", ">=", "==", "!=")


def _try_fuse_comparison(expr):
    """Fuse ``LOAD(k) <cmp> const`` (either order) into one closure.

    This is the dominant guardrail rule shape — a threshold on a raw or
    derived key (``LOAD(io_latency_us) < 500``, ``LOAD(x.rate) > 0.05``) —
    and the fused form replaces three chained programs with one.  Charge
    accounting is kept exactly equivalent to the generic path, including
    the ops charged before a (possibly fault-injected) ``store.load`` that
    raises mid-rule.
    """
    if isinstance(expr.left, A.Load) and _is_constant(expr.right):
        load, const_expr, flipped = expr.left, expr.right, False
    elif isinstance(expr.right, A.Load) and _is_constant(expr.left):
        load, const_expr, flipped = expr.right, expr.left, True
    else:
        return None

    const, const_ops = _fold_constant_value(const_expr)
    # Generic-path charge split around the store load: LOAD charges 2
    # before touching the store; the constant's ops and the comparison's
    # own op land after (or before, when the constant is the left operand).
    pre = 2 if not flipped else const_ops + 2
    post = const_ops + 1 if not flipped else 1
    ordered_cmp = expr.op not in ("==", "!=")
    # Ordering comparisons yield None (missing data) for non-numeric
    # operands; a non-numeric constant can never produce a result.
    const_dead = ordered_cmp and not isinstance(const, (int, float))
    fn = _ARITHMETIC[expr.op]

    def program(ctx, _key=load.key, _const=const, _fn=fn, _pre=pre, _post=post,
                _flipped=flipped, _ordered=ordered_cmp, _dead=const_dead):
        # charge() is inlined (ctx.ops +=) — two method calls saved on the
        # hottest closure in the runtime; the split around the load is
        # unchanged so fault-injected loads observe identical partial ops.
        ctx.ops += _pre
        value = ctx.store.load(_key)
        ctx.ops += _post
        if value is None or _const is None or _dead:
            return None
        if isinstance(value, float) and value != value:
            return None  # NaN load reads as missing data
        if _ordered and not isinstance(value, (int, float)):
            return None
        return _fn(_const, value) if _flipped else _fn(value, _const)

    return program


def _compile_binary(expr):
    if expr.op in _COMPARISONS:
        fused = _try_fuse_comparison(expr)
        if fused is not None:
            return fused
    left = compile_expression(expr.left)
    right = compile_expression(expr.right)
    op = expr.op

    if op == "&&":

        def program(ctx, _left=left, _right=right):
            a = _left(ctx)
            ctx.charge()
            if a is False:
                return False
            b = _right(ctx)
            if b is False:
                return False
            if a is None or b is None:
                return None
            return bool(a) and bool(b)

        return program

    if op == "||":

        def program(ctx, _left=left, _right=right):
            a = _left(ctx)
            ctx.charge()
            if a is not None and bool(a):
                return True
            b = _right(ctx)
            if b is not None and bool(b):
                return True
            if a is None or b is None:
                return None
            return False

        return program

    if op == "/":

        def program(ctx, _left=left, _right=right):
            a = _left(ctx)
            b = _right(ctx)
            ctx.charge()
            if a is None or b is None:
                return None
            # Crash-free semantics (§4.2): a type-confused operand reads as
            # missing data — "str" / 2 must not escape as a TypeError.
            if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
                return None
            if b == 0:
                return None  # division by zero is "no data", not a crash
            return a / b

        return program

    if op in ("==", "!="):
        fn = _ARITHMETIC[op]

        def program(ctx, _left=left, _right=right, _fn=fn):
            a = _left(ctx)
            b = _right(ctx)
            ctx.charge()
            if a is None or b is None:
                return None
            return _fn(a, b)

        return program

    if op in _ARITHMETIC:
        fn = _ARITHMETIC[op]

        def program(ctx, _left=left, _right=right, _fn=fn):
            a = _left(ctx)
            b = _right(ctx)
            ctx.charge()
            if a is None or b is None:
                return None
            # Crash-free semantics (§4.2): a type-confused operand (e.g. a
            # string saved under a numeric key) reads as missing data, never
            # as an in-kernel exception.
            if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
                return None
            return _fn(a, b)

        return program

    raise CompileError("unknown binary operator {!r}".format(op))


def _compile_call(expr):
    args = [compile_expression(a) for a in expr.args]
    name = expr.function

    if name == "abs":
        _require_arity(expr, 1)

        def program(ctx, _arg=args[0]):
            value = _arg(ctx)
            ctx.charge()
            if value is None or not isinstance(value, (int, float)):
                return None  # §4.2: abs of a type-confused operand
            return abs(value)

        return program

    if name in ("min", "max"):
        if len(args) < 2:
            raise CompileError("{}() needs at least 2 arguments".format(name))
        reducer = min if name == "min" else max

        def program(ctx, _args=args, _reduce=reducer):
            values = [a(ctx) for a in _args]
            ctx.charge(len(values))
            if any(not isinstance(v, (int, float)) for v in values):
                # Covers None and §4.2 type confusion: min(5, "str") must
                # not escape as an unorderable-types TypeError.
                return None
            return _reduce(values)

        return program

    if name == "clamp":
        _require_arity(expr, 3)

        def program(ctx, _args=args):
            value, lo, hi = (a(ctx) for a in _args)
            ctx.charge(2)
            if (not isinstance(value, (int, float))
                    or not isinstance(lo, (int, float))
                    or not isinstance(hi, (int, float))):
                return None  # covers None and §4.2 type confusion
            return max(lo, min(hi, value))

        return program

    raise CompileError("unknown builtin {!r}".format(name))


def _require_arity(expr, n):
    if len(expr.args) != n:
        raise CompileError(
            "{}() takes {} argument(s), got {}".format(expr.function, n, len(expr.args))
        )


def static_cost(expr):
    """Exact primitive-operation count of evaluating ``expr`` once.

    The expression tree has no loops or recursion, so the worst-case cost is
    just a weighted node count — this is what makes guardrail rules
    verifiable, in the same sense the eBPF verifier bounds program cost.
    Short-circuiting only makes the real cost lower.
    """
    if isinstance(expr, (A.NumberLiteral, A.BoolLiteral, A.StringLiteral, A.Name)):
        return 1
    if isinstance(expr, (A.Load, A.Aggregate)):
        # An aggregate lowers to a LOAD of a derived key; the streaming
        # estimator's update cost is charged to the *saver*, not the rule.
        return 2
    if isinstance(expr, A.UnaryOp):
        return 1 + static_cost(expr.operand)
    if isinstance(expr, A.BinaryOp):
        return 1 + static_cost(expr.left) + static_cost(expr.right)
    if isinstance(expr, A.Call):
        overhead = 2 if expr.function == "clamp" else max(len(expr.args), 1)
        return overhead + sum(static_cost(a) for a in expr.args)
    raise CompileError("cannot cost expression node {!r}".format(expr))
