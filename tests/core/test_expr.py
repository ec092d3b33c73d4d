"""Expression compilation: evaluation, missing-data semantics, cost."""

import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler import GuardrailCompiler
from repro.core.errors import CompileError, VerifierError
from repro.core.expr import EvalContext, compile_expression, static_cost
from repro.core.featurestore import FeatureStore
from repro.core.spec import ast as A
from repro.core.spec.lexer import tokenize
from repro.core.spec.parser import _Parser
from repro.core.verifier import VerifierConfig


def parse_expr(text):
    return _Parser(tokenize(text)).parse_expression()


def evaluate(text, store=None, payload=None, env=None, now=0):
    store = store if store is not None else FeatureStore()
    program = compile_expression(parse_expr(text))
    ctx = EvalContext(store, now=now, payload=payload, env=env)
    return program(ctx), ctx


@pytest.mark.parametrize("text,expected", [
    ("1 + 2", 3),
    ("2 * 3 + 4", 10),
    ("2 + 3 * 4", 14),
    ("10 / 4", 2.5),
    ("-(3)", -3),
    ("1 <= 2", True),
    ("2 < 2", False),
    ("3 >= 3", True),
    ("1 == 1", True),
    ("1 != 1", False),
    ("true && false", False),
    ("true || false", True),
    ("!(true)", False),
    ("abs(0 - 5)", 5),
    ("min(3, 1, 2)", 1),
    ("max(3, 1, 2)", 3),
    ("clamp(15, 0, 10)", 10),
    ("clamp(0 - 5, 0, 10)", 0),
    ("clamp(5, 0, 10)", 5),
])
def test_constant_expressions(text, expected):
    value, _ = evaluate(text)
    assert value == expected


def test_load_reads_store():
    store = FeatureStore()
    store.save("x", 7)
    value, _ = evaluate("LOAD(x) + 1", store)
    assert value == 8


def test_load_missing_key_is_none():
    value, _ = evaluate("LOAD(missing)")
    assert value is None


def test_none_propagates_through_arithmetic():
    value, _ = evaluate("LOAD(missing) + 1")
    assert value is None


def test_none_propagates_through_comparison():
    value, _ = evaluate("LOAD(missing) <= 5")
    assert value is None


def test_nan_treated_as_missing():
    store = FeatureStore()
    store.save("x", float("nan"))
    value, _ = evaluate("LOAD(x) <= 5", store)
    assert value is None


def test_short_circuit_and_with_false():
    value, _ = evaluate("false && LOAD(missing)")
    assert value is False


def test_and_with_none_and_true_is_none():
    value, _ = evaluate("true && LOAD(missing)")
    assert value is None


def test_short_circuit_or_with_true():
    value, _ = evaluate("true || LOAD(missing)")
    assert value is True


def test_or_with_none_and_false_is_none():
    value, _ = evaluate("false || LOAD(missing)")
    assert value is None


def test_division_by_zero_is_none_not_crash():
    value, _ = evaluate("1 / 0")
    assert value is None


def test_payload_name_resolution():
    value, _ = evaluate("granted <= available",
                        payload={"granted": 5, "available": 10})
    assert value is True


def test_env_name_resolution():
    value, _ = evaluate("x + 1", env={"x": 41})
    assert value == 42


def test_payload_shadows_env():
    value, _ = evaluate("x", payload={"x": 1}, env={"x": 2})
    assert value == 1


def test_now_builtin_name():
    value, _ = evaluate("now", now=123)
    assert value == 123


def test_unknown_name_is_none():
    value, _ = evaluate("mystery")
    assert value is None


def test_ops_charged_to_context():
    _, ctx = evaluate("LOAD(a) + 1", FeatureStore())
    assert ctx.ops == static_cost(parse_expr("LOAD(a) + 1"))


def test_short_circuit_costs_less_than_static():
    expr = parse_expr("false && (LOAD(a) + LOAD(b) <= 3)")
    program = compile_expression(expr)
    ctx = EvalContext(FeatureStore())
    program(ctx)
    assert ctx.ops < static_cost(expr)


def test_static_cost_is_positive_and_additive():
    small = static_cost(parse_expr("1"))
    bigger = static_cost(parse_expr("1 + 2"))
    assert 0 < small < bigger


def test_load_costs_more_than_literal():
    assert static_cost(parse_expr("LOAD(a)")) > static_cost(parse_expr("1"))


def test_string_literal_evaluates():
    value, _ = evaluate('"hello"')
    assert value == "hello"


def test_abs_arity_error():
    with pytest.raises(CompileError, match="abs"):
        compile_expression(A.Call("abs", [A.NumberLiteral(1), A.NumberLiteral(2)]))


def test_min_needs_two_args():
    with pytest.raises(CompileError):
        compile_expression(A.Call("min", [A.NumberLiteral(1)]))


def test_unknown_builtin_rejected():
    with pytest.raises(CompileError, match="unknown builtin"):
        compile_expression(A.Call("frobnicate", []))


def test_min_with_none_arg_is_none():
    value, _ = evaluate("min(LOAD(missing), 3)")
    assert value is None


def test_not_of_none_is_none():
    value, _ = evaluate("!(LOAD(missing))")
    assert value is None


class TestConstantFolding:
    """Pure subexpressions fold at compile time, bit-identical in ops."""

    FOLDABLE = [
        "2 * 3 + 4",
        "abs(0 - 5)",
        "clamp(15, 0, 10)",
        "!(true) || false",
        "min(3, 1, 2) + max(1, 2)",
        "10 / 4 - 1",
    ]

    def test_folded_programs_are_marked(self):
        from repro.core.expr.compile import _fold_constant  # noqa: F401

        program = compile_expression(parse_expr("1 + 2"))
        assert "folded" in program.__qualname__

    def test_bare_literals_are_not_wrapped(self):
        program = compile_expression(parse_expr("5"))
        assert "folded" not in program.__qualname__

    @pytest.mark.parametrize("text", FOLDABLE)
    def test_folding_preserves_value_and_ops(self, text):
        from repro.core.expr.compile import _compile_node

        expr = parse_expr(text)
        folded = compile_expression(expr)
        generic = _compile_node(expr)
        ctx_folded, ctx_generic = EvalContext(None), EvalContext(None)
        assert folded(ctx_folded) == generic(ctx_generic)
        assert ctx_folded.ops == ctx_generic.ops

    def test_expressions_with_runtime_inputs_do_not_fold(self):
        for text in ("LOAD(x) + 1", "now * 2", "1 + LOAD(x.rate)"):
            program = compile_expression(parse_expr(text))
            assert "folded" not in program.__qualname__


class TestFusedComparisons:
    """LOAD-vs-constant thresholds fuse into one closure, semantics intact."""

    SHAPES = [
        "LOAD(x) < 500",
        "LOAD(x) <= 500",
        "500 > LOAD(x)",
        "LOAD(x) >= 2",
        "LOAD(x) == 3",
        "3 != LOAD(x)",
        "LOAD(x) < 1 + 2",
        "10 / 4 >= LOAD(x)",
    ]
    VALUES = ["missing", 3, 3.0, 499, 501, float("nan"), "oops", True]

    def _unfused(self, expr, monkeypatch):
        from repro.core.expr import compile as C

        monkeypatch.setattr(C, "_try_fuse_comparison", lambda e: None)
        return C._compile_node(expr)

    def test_fusion_engages_for_threshold_shapes(self):
        for text in self.SHAPES:
            program = compile_expression(parse_expr(text))
            assert "fuse" in program.__qualname__, text

    def test_fusion_skips_non_constant_sides(self):
        for text in ("LOAD(x) < LOAD(y)", "LOAD(x) < now", "x < 5"):
            program = compile_expression(parse_expr(text))
            assert "fuse" not in program.__qualname__, text

    @pytest.mark.parametrize("text", SHAPES)
    @pytest.mark.parametrize("value", VALUES)
    def test_fused_matches_generic_value_and_ops(self, text, value, monkeypatch):
        expr = parse_expr(text)
        fused = compile_expression(expr)
        generic = self._unfused(expr, monkeypatch)
        results = []
        for program in (fused, generic):
            store = FeatureStore()
            if value != "missing":
                store.save("x", value)
            ctx = EvalContext(store)
            results.append((program(ctx), ctx.ops))
        assert results[0] == results[1], text

    @pytest.mark.parametrize("text", SHAPES)
    def test_fused_charge_split_matches_generic_on_load_fault(
            self, text, monkeypatch):
        # Fault injection wraps store.load per instance; a load that raises
        # mid-rule must leave the overhead account exactly where the generic
        # three-program chain would have left it.
        class ExplodingStore:
            def load(self, key):
                raise RuntimeError("injected")

        expr = parse_expr(text)
        fused = compile_expression(expr)
        generic = self._unfused(expr, monkeypatch)
        charged = []
        for program in (fused, generic):
            ctx = EvalContext(ExplodingStore())
            with pytest.raises(RuntimeError):
                program(ctx)
            charged.append(ctx.ops)
        assert charged[0] == charged[1], text

    def test_string_equality_still_works_fused(self):
        store = FeatureStore()
        store.save("x", "open")
        value, _ = evaluate('LOAD(x) == "open"', store)
        assert value is True
        value, _ = evaluate('LOAD(x) != "closed"', store)
        assert value is True

    def test_ordered_compare_with_string_constant_is_missing_data(self):
        store = FeatureStore()
        store.save("x", 5)
        value, _ = evaluate('LOAD(x) < "high"', store)
        assert value is None


# -- static_cost == runtime charged ops, node kind by node kind --------------
#
# Inputs are chosen so no short-circuit fires: the static bound is then
# exact.  Labels name the node kind (CONST(folded) is a folded constant,
# FUSED the single-closure ``LOAD(k) <cmp> const`` threshold).


def make_store(**values):
    store = FeatureStore()
    for key, value in values.items():
        store._values[key] = value  # bypass save(): inject raw hazards
        store._valid_keys.add(key)
    return store


OPCODE_CASES = [
    ("CONST(folded)", "1 + 2 * 3", {}),
    ("NAME", "n0 + 1", {}),
    ("LOAD", "LOAD(k) + 0", {"k": 7}),
    ("NEG", "-(LOAD(k))", {"k": 7}),
    ("NOT", "!(LOAD(k))", {"k": 0}),
    ("ARITH(+)", "LOAD(k) + LOAD(j)", {"k": 7, "j": 3}),
    ("ARITH(cmp)", "LOAD(k) <= LOAD(j)", {"k": 7, "j": 3}),
    ("EQ", "LOAD(k) == LOAD(j)", {"k": 7, "j": 3}),
    ("DIV", "LOAD(k) / LOAD(j)", {"k": 7, "j": 2}),
    ("AND", "LOAD(k) > 0 && LOAD(j) > 0", {"k": 7, "j": 3}),
    ("OR", "LOAD(k) > 9 || LOAD(j) > 9", {"k": 7, "j": 3}),
    ("ABS", "abs(LOAD(k))", {"k": -7}),
    ("MINMAX", "min(LOAD(k), LOAD(j), 5)", {"k": 7, "j": 3}),
    ("CLAMP", "clamp(LOAD(k), 0, 10)", {"k": 7}),
    ("FUSED", "LOAD(k) <= 1", {"k": 7}),
    ("FUSED(flipped)", "1 <= LOAD(k)", {"k": 7}),
]


@pytest.mark.parametrize("label,text,values",
                         OPCODE_CASES, ids=[c[0] for c in OPCODE_CASES])
def test_static_cost_equals_runtime_ops(label, text, values):
    _, ctx = evaluate(text, make_store(**values), payload={"n0": 4})
    assert ctx.ops == static_cost(parse_expr(text)), label


@pytest.mark.parametrize("text,values,expected_ops", [
    # && short-circuits on literal False: the right arm never runs.
    ("false && LOAD(k) > 0", {"k": 7}, 2),
    ("LOAD(k) > 9 && LOAD(j) > 0", {"k": 7, "j": 3}, 5),
    # || short-circuits on a truthy left arm.
    ("true || LOAD(k) > 0", {"k": 7}, 2),
    ("LOAD(k) > 0 || LOAD(j) > 0", {"k": 7, "j": 3}, 5),
])
def test_short_circuit_ops_below_static_bound(text, values, expected_ops):
    _, ctx = evaluate(text, make_store(**values))
    assert ctx.ops == expected_ops
    assert ctx.ops < static_cost(parse_expr(text))


def test_numeric_zero_does_not_short_circuit_and():
    # && short-circuits only on a literal bool False; a numeric 0 left arm
    # still evaluates (and charges) the right arm.
    _, ctx = evaluate("LOAD(k) && LOAD(j) > 0", make_store(k=0, j=3))
    assert ctx.ops == 7  # 2 (load) + 1 (&&) + 4 (right arm): nothing skipped


def test_rule_respects_verifier_budget():
    compiler = GuardrailCompiler(
        verifier_config=VerifierConfig(max_rule_cost=2))
    with pytest.raises(VerifierError, match="budget"):
        compiler.compile(
            "guardrail g { trigger: { TIMER(start_time, 1s) }, "
            "rule: { LOAD(a) <= 1 }, action: { REPORT() } }")


# -- golden None/NaN matrix --------------------------------------------------

NAN = float("nan")

MATRIX = [
    ("LOAD(m) + 1", {}, None),
    ("LOAD(m) + 1", {"m": NAN}, None),
    ("LOAD(m) <= 1", {}, None),
    ("LOAD(m) <= 1", {"m": NAN}, None),
    ("1 <= LOAD(m)", {"m": NAN}, None),
    ("-(LOAD(m))", {}, None),
    ("!(LOAD(m))", {}, None),
    ("LOAD(m) == LOAD(m)", {}, None),
    ("LOAD(m) / 2", {}, None),
    ("2 / LOAD(z)", {"z": 0}, None),   # divide-by-zero reads as no-data
    ("abs(LOAD(m))", {}, None),
    ("min(LOAD(m), 1)", {}, None),
    ("max(1, LOAD(m))", {"m": NAN}, None),
    ("clamp(LOAD(m), 0, 10)", {}, None),
    # Logical operators: False/True dominate missing data; otherwise
    # missing data poisons the result.
    ("LOAD(m) && true", {}, None),
    ("true && LOAD(m)", {}, None),
    ("LOAD(m) && false", {}, False),
    ("false && LOAD(m)", {}, False),
    ("LOAD(m) || true", {}, True),
    ("true || LOAD(m)", {}, True),
    ("LOAD(m) || false", {}, None),
    ("false || LOAD(m)", {}, None),
    # Type confusion reads as missing data (§4.2), not as a TypeError.
    ("LOAD(s) + 1", {"s": "oops"}, None),
    ("LOAD(s) <= 1", {"s": "oops"}, None),
    ("-(LOAD(s))", {"s": "oops"}, None),
    ("abs(LOAD(s))", {"s": "oops"}, None),
    ("min(LOAD(s), 1)", {"s": "oops"}, None),
    ("clamp(5, LOAD(s), 10)", {"s": "oops"}, None),
    ("LOAD(s) / 2", {"s": "oops"}, None),
]


@pytest.mark.parametrize("text,values,expected", MATRIX,
                         ids=["{}#{}".format(i, c[0])
                              for i, c in enumerate(MATRIX)])
def test_golden_none_nan_matrix(text, values, expected):
    value, _ = evaluate(text, make_store(**values))
    assert value is expected


# -- §4.2 type-confusion pins ------------------------------------------------
#
# Each of these raised (crashed the rule) before the §4.2 sweep made type
# confusion read as missing data.  Every operand is still evaluated, so
# the rule charges its full static cost.


def assert_missing(expr, store_values):
    ctx = EvalContext(make_store(**store_values), now=17)
    assert compile_expression(expr)(ctx) is None
    assert ctx.ops == static_cost(expr)


def test_negate_string_reads_as_missing_data():
    # Was: TypeError("bad operand type for unary -: 'str'").
    assert_missing(A.UnaryOp("-", A.Load("k0")), {"k0": "garbage"})


def test_divide_string_reads_as_missing_data():
    # Was: TypeError on str / int before the b == 0 probe.
    assert_missing(
        A.BinaryOp("/", A.Load("k0"), A.NumberLiteral(2)), {"k0": "garbage"})
    # And the divisor side, which the zero probe itself crashed on.
    assert_missing(
        A.BinaryOp("/", A.NumberLiteral(2), A.Load("k0")), {"k0": "garbage"})


def test_abs_string_reads_as_missing_data():
    # Was: TypeError("bad operand type for abs(): 'str'").
    assert_missing(A.Call("abs", [A.Load("k0")]), {"k0": "garbage"})


def test_minmax_mixed_types_read_as_missing_data():
    # Was: TypeError("'<' not supported between instances of ...").
    assert_missing(
        A.Call("min", [A.Load("k0"), A.NumberLiteral(3)]), {"k0": "garbage"})
    assert_missing(
        A.Call("max", [A.NumberLiteral(3), A.Load("k0")]), {"k0": [1, 2]})


def test_clamp_mixed_types_read_as_missing_data():
    # Was: TypeError comparing str bounds with numeric values.
    assert_missing(
        A.Call("clamp", [A.Load("k0"), A.NumberLiteral(0),
                         A.NumberLiteral(10)]), {"k0": "garbage"})
    assert_missing(
        A.Call("clamp", [A.NumberLiteral(5), A.Load("k0"),
                         A.NumberLiteral(10)]), {"k0": "garbage"})


# -- property: crash-free, bounded, scalar-valued ----------------------------
#
# Random expressions over stores and payloads holding every §4.2 hazard
# class: missing (absent key), NaN, type confusion (strings, lists), bools
# and plain numbers.

# CI runs the sweep at a bounded example count (RULE_FUZZ_EXAMPLES=60);
# the default is the deep local budget.
EXAMPLES = int(os.environ.get("RULE_FUZZ_EXAMPLES", "400"))

KEYS = ("k0", "k1", "k2", "k3")
NAMES = ("n0", "n1")

scalars = st.one_of(
    st.integers(min_value=-100, max_value=100),
    st.sampled_from([0, 1, -1, 0.0, 0.5, -2.5, 100.0]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
              allow_infinity=False),
)

leaves = st.one_of(
    scalars.map(A.NumberLiteral),
    st.booleans().map(A.BoolLiteral),
    st.sampled_from(["alpha", "beta"]).map(A.StringLiteral),
    st.sampled_from(KEYS).map(A.Load),
    st.sampled_from(NAMES).map(A.Name),
)

BINOPS = ("+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!=", "&&", "||")


def composites(children):
    return st.one_of(
        st.tuples(st.sampled_from(BINOPS), children, children).map(
            lambda t: A.BinaryOp(t[0], t[1], t[2])),
        st.tuples(st.sampled_from(["-", "!"]), children).map(
            lambda t: A.UnaryOp(t[0], t[1])),
        children.map(lambda c: A.Call("abs", [c])),
        st.tuples(st.sampled_from(["min", "max"]),
                  st.lists(children, min_size=2, max_size=4)).map(
            lambda t: A.Call(t[0], t[1])),
        st.tuples(children, children, children).map(
            lambda t: A.Call("clamp", [t[0], t[1], t[2]])),
    )


expressions = st.recursive(leaves, composites, max_leaves=12)

hazards = st.one_of(
    st.none(),  # key absent from the store
    scalars,
    st.just(math.nan),
    st.booleans(),
    st.sampled_from(["garbage", ""]),
    st.just([1, 2]),
)

stores = st.fixed_dictionaries({key: hazards for key in KEYS})
payloads = st.fixed_dictionaries({name: hazards for name in NAMES})

RESULT_TYPES = (type(None), bool, int, float, str)


def assert_rule_result(expr, value):
    if isinstance(expr, (A.Load, A.Name)) and value == [1, 2]:
        return  # a bare leaf hands the stored value through untouched
    assert isinstance(value, RESULT_TYPES), \
        "{} returned {!r}".format(expr.to_source(), value)


class FaultyStore:
    """A store whose ``load`` raises after ``budget`` successful calls."""

    class Boom(RuntimeError):
        pass

    def __init__(self, values, budget):
        self._values = values
        self._budget = budget

    def load(self, key, default=None):
        if self._budget <= 0:
            raise self.Boom(key)
        self._budget -= 1
        return self._values.get(key, default)


@settings(max_examples=EXAMPLES, deadline=None)
@given(expr=expressions, store_values=stores, payload=payloads)
def test_rule_is_crash_free_and_bounded(expr, store_values, payload):
    store = make_store(**{k: v for k, v in store_values.items()
                          if v is not None})
    ctx = EvalContext(store, now=17, payload=payload)
    assert_rule_result(expr, compile_expression(expr)(ctx))
    assert ctx.ops <= static_cost(expr), expr.to_source()


@settings(max_examples=EXAMPLES // 2, deadline=None)
@given(expr=expressions, store_values=stores, payload=payloads,
       budget=st.integers(min_value=0, max_value=6))
def test_load_fault_partial_charge_is_bounded(expr, store_values, payload,
                                              budget):
    values = {k: v for k, v in store_values.items() if v is not None}
    ctx = EvalContext(FaultyStore(values, budget), now=17, payload=payload)
    program = compile_expression(expr)
    try:
        assert_rule_result(expr, program(ctx))
    except FaultyStore.Boom:
        pass  # the injected fault is the only exception that may escape
    assert ctx.ops <= static_cost(expr), expr.to_source()
