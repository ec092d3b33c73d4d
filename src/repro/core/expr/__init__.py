"""Rule-expression compilation and evaluation.

:func:`compile_expression` compiles a rule into a tree of closures — the
one way a rule is evaluated — and :func:`static_cost` bounds what that
closure can charge.
"""

from repro.core.expr.compile import EvalContext, compile_expression, static_cost

__all__ = [
    "EvalContext",
    "compile_expression",
    "static_cost",
]
