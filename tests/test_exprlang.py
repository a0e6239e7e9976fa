import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beambvp.exprlang import (
    BinOp,
    Call,
    ExprEvalError,
    ExprSyntaxError,
    Neg,
    Num,
    Power,
    Var,
    parse,
)


def test_parses_saturating_selfcoupling():
    fn = parse("u*(1-exp(-u))")
    assert fn.var == "u"
    assert isinstance(fn.ast, BinOp) and fn.ast.op == "*"
    assert fn.ast.left == Var("u")


def test_parses_quadratic_weight():
    fn = parse("t^2")
    assert fn.var == "t"
    assert fn.ast == Power(Var("t"), 2)


def test_parses_bounded_saturation():
    fn = parse("1-exp(-u)")
    assert fn.ast == BinOp("-", Num(1.0), Call("exp", Neg(Var("u"))))


def test_incomplete_expression_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("u +")
    assert exc.value.offset == 3


def test_no_implicit_multiplication():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("2u")
    assert exc.value.offset == 1


def test_unknown_identifier():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("x+1")
    assert "x" in str(exc.value)


def test_declared_variable_enforced():
    with pytest.raises(ExprSyntaxError):
        parse("u+1", var="t")


def test_mixed_variables_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("u+t")


def test_exponent_must_be_integer_literal():
    with pytest.raises(ExprSyntaxError):
        parse("u^2.5")
    with pytest.raises(ExprSyntaxError):
        parse("u^-2")
    with pytest.raises(ExprSyntaxError):
        parse("u^(2)")


def test_empty_expression():
    with pytest.raises(ExprSyntaxError):
        parse("   ")


def test_precedence_mul_over_add():
    assert parse("2+3*4")(0.0) == 14.0


def test_unary_minus_binds_looser_than_power():
    assert parse("-u^2")(2.0) == -4.0


def test_power_right_associative():
    assert parse("u^2^3")(2.0) == 2.0**8


def test_huge_exponent_rejected_at_parse_time():
    with pytest.raises(ExprSyntaxError):
        parse("u^9^9^9")
    with pytest.raises(ExprSyntaxError):
        parse("u^9999999")


def test_eval_examples():
    assert parse("u*(1-exp(-u))")(0.0) == 0.0
    assert parse("t^2")(0.5) == 0.25
    assert abs(parse("1-exp(-u)")(math.log(3.0)) - 2.0 / 3.0) < 1e-15


def test_division_by_zero():
    fn = parse("1/(u-1)")
    with pytest.raises(ExprEvalError):
        fn(1.0)


def test_overflow_reported():
    fn = parse("exp(exp(u))")
    with pytest.raises(ExprEvalError):
        fn(100.0)


def test_constant_expression_has_no_variable():
    fn = parse("3*2")
    assert fn.var is None
    assert fn(123.0) == 6.0


def test_eval_is_pure():
    fn = parse("u*(1-exp(-u))/(1+u^2)")
    first = struct.pack("<d", fn(0.731))
    for _ in range(5):
        assert struct.pack("<d", fn(0.731)) == first


ROUND_TRIP_SOURCES = [
    "u*(1-exp(-u))",
    "t^2",
    "1-exp(-u)",
    "-u^2+3*u-1/(u+2)",
    "exp(-(u^2))/(1+u)",
    "2+3*4",
    "((u))",
]


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_pretty_round_trip(src):
    fn = parse(src)
    again = parse(fn.pretty())
    assert again.ast == fn.ast


@st.composite
def expressions(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        leaf = draw(st.sampled_from(["u", "1", "2", "0.5", "3.25"]))
        return leaf
    kind = draw(st.sampled_from(["+", "-", "*", "/", "^", "neg", "exp"]))
    left = draw(expressions(depth=depth - 1))
    if kind == "neg":
        return f"-({left})"
    if kind == "exp":
        return f"exp({left})"
    if kind == "^":
        return f"({left})^{draw(st.integers(min_value=0, max_value=4))}"
    right = draw(expressions(depth=depth - 1))
    return f"({left}){kind}({right})"


@given(expressions())
def test_pretty_round_trip_generated(src):
    fn = parse(src)
    assert parse(fn.pretty()).ast == fn.ast


# --- the array walk against the scalar evaluator it replaced -----------------


class RefError(ArithmeticError):
    def __init__(self, message, offset):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


def reference_eval(node, x):
    """The scalar, math-based evaluator the array walk replaced, kept as
    the reference (raising RefError where it raised ExprEvalError)."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -reference_eval(node.operand, x)
    if isinstance(node, BinOp):
        left = reference_eval(node.left, x)
        right = reference_eval(node.right, x)
        if node.op == "+":
            value = left + right
        elif node.op == "-":
            value = left - right
        elif node.op == "*":
            value = left * right
        else:
            if right == 0.0:
                raise RefError("division by zero", node.pos)
            value = left / right
        return _require_finite(value, node.pos)
    if isinstance(node, Power):
        base = reference_eval(node.base, x)
        try:
            value = base**node.exponent
        except OverflowError:
            raise RefError("overflow in power", node.pos) from None
        return _require_finite(value, node.pos)
    if isinstance(node, Call):
        arg = reference_eval(node.arg, x)
        try:
            return math.exp(arg)
        except OverflowError:
            raise RefError("overflow in exp", node.pos) from None
    raise TypeError(f"unknown node {node!r}")


def _require_finite(value, pos):
    if not math.isfinite(value):
        raise RefError("overflow", pos)
    return value


# Tolerance, fixed before the test was first run.  On x86-64 with AVX-512
# (numpy 2.4), numpy's exp and power were within 1 ulp of libm's per call
# (1 M exp samples, 1.4 M power samples); ULPS_PER_CALL = 2 leaves room for
# a numpy build whose own error is up to 1.5 ulp.  + - * / are correctly
# rounded in both evaluators, so they add nothing while their inputs agree,
# and otherwise add the input error they propagate plus one ulp of rounding.
ULPS_PER_CALL = 2
BIG = sys.float_info.max
LOG_BIG = math.log(BIG)
LOG_SLACK = 8 * math.ulp(LOG_BIG)  # rounding of the log-space overflow tests


class Marginal(Exception):
    """A failure check that the accumulated exp/power difference could flip."""


def _log_magnitude(node, inputs):
    """Smallest log |result| the array walk can reach at an overflowing node,
    with every input moved toward zero by its error bound."""
    try:
        if isinstance(node, Call):
            return inputs[0][0] - inputs[0][1]
        mags = [max(abs(v) - e, 0.0) for v, e in inputs]
        if isinstance(node, Power):
            return node.exponent * math.log(mags[0])
        if node.op == "*":
            return math.log(mags[0]) + math.log(mags[1])
        if node.op == "/":
            return math.log(mags[0]) - math.log(abs(inputs[1][0]) + inputs[1][1])
        # + and - overflow only when both terms push the same way
        return math.log(mags[0] / 2 + mags[1] / 2) + math.log(2.0)
    except ValueError:  # log(0): the reachable result is tiny
        return -math.inf


def _propagated(node, inputs, value):
    """Bound on the change of this node's exact result when each input moves
    by at most its error bound (mean-value bounds for exp and power)."""
    (a, ea), *rest = inputs
    try:
        if isinstance(node, Neg):
            return ea
        if isinstance(node, Call):
            return math.exp(a + ea) * ea
        if isinstance(node, Power):
            n = node.exponent
            return n * (abs(a) + ea) ** (n - 1) * ea if n and ea else 0.0
        ((b, eb),) = rest
        if node.op in "+-":
            return ea + eb
        if node.op == "*":
            bound = abs(a) * eb + abs(b) * ea + ea * eb
        else:
            bound = (ea + abs(value) * eb) / (abs(b) - eb)
        return math.inf if math.isnan(bound) else bound  # 0 * inf
    except OverflowError:
        return math.inf


def error_bound(node, x):
    """(reference value, bound on |array walk - reference|) at ``node``.

    Raises RefError where the reference fails and the array walk must fail
    the same way, Marginal where a failure check (divisor exactly zero,
    result finite) lies within the error bound of flipping.
    """
    if isinstance(node, (Num, Var)):
        return reference_eval(node, x), 0.0
    fields = {Neg: ("operand",), Call: ("arg",), Power: ("base",)}.get(type(node), ("left", "right"))
    inputs = [error_bound(getattr(node, name), x) for name in fields]
    own = isinstance(node, (Call, Power))
    if isinstance(node, BinOp) and node.op == "/" and 0.0 < inputs[1][1] >= abs(inputs[1][0]):
        raise Marginal  # the divisor may be exactly zero in one evaluator only
    try:
        value = reference_eval(node, x)
    except RefError as exc:
        inexact = own or any(e > 0.0 for _, e in inputs)
        if str(exc).startswith("overflow") and inexact:
            if _log_magnitude(node, inputs) <= LOG_BIG + LOG_SLACK:
                raise Marginal from None
        raise
    err = _propagated(node, inputs, value)
    if err > 0.0 and not isinstance(node, Neg):
        err += math.ulp(value)  # both round, from different exact results
    if own:
        err += ULPS_PER_CALL * math.ulp(value)
    if err > 0.0 and abs(value) + err >= BIG:
        raise Marginal  # the array walk may overflow where the reference did not
    return value, err


SPECIAL_POINTS = [
    # zeros of divisors built from the leaves 1, 2, 0.5, 3.25
    0.0, -0.0, 0.5, 1.0, 2.0, 3.25, 0.25, 1.5, 4.0, -0.5, -1.0, -2.0, -3.25,
    # divisors that are tiny but not zero
    5e-324, -5e-324, 1e-310, 1e-300,
    # overflow of exp, of products of exps and of integer powers
    354.0, 355.0, 709.0, 710.0, 800.0, -710.0, 1e5, 1e77, 1e78, 1e103, 1e154,
    1e155, 1e200, 1e308, -1e308,
]
abscissae = st.lists(
    st.one_of(
        st.sampled_from(SPECIAL_POINTS),
        st.floats(-1e3, 1e3),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=12,
)


def assert_value(got, expected, err, exact):
    if exact:
        assert struct.pack("<d", got) == struct.pack("<d", expected)
    else:
        assert abs(got - expected) <= err


@settings(max_examples=400, deadline=None)
@given(expressions(), abscissae)
@example("1/u", SPECIAL_POINTS)
@example("(u^3)/((u-1)^2)", SPECIAL_POINTS)
@example("exp(u)*exp(u)-u", SPECIAL_POINTS)
@example("u*(1-exp(-u))", SPECIAL_POINTS)
def test_array_walk_matches_scalar_reference(src, points):
    fn = parse(src)
    exact = "exp" not in src and "^" not in src
    kept, outcomes = [], []
    for x in points:
        try:
            value, err = error_bound(fn.ast, x)
            outcomes.append((value, err))
        except Marginal:
            assert not exact, "without exp or ^ nothing may be excluded"
            continue
        except RefError as exc:
            outcomes.append(exc)
        kept.append(x)
    for x, outcome in zip(kept, outcomes):
        if isinstance(outcome, RefError):
            with pytest.raises(ExprEvalError) as info:
                fn(x)
            assert (str(info.value), info.value.offset) == (str(outcome), outcome.offset)
        else:
            got = fn(x)
            assert type(got) is float
            assert_value(got, *outcome, exact)
    if not kept:
        return

    xs = np.array(kept).reshape(1, -1)
    failing = [i for i, o in enumerate(outcomes) if isinstance(o, RefError)]
    if failing:
        with pytest.raises(ExprEvalError) as info:
            fn(xs)
        exc, first = info.value, outcomes[failing[0]]
        assert (str(exc), exc.offset) == (str(first), first.offset)
        assert exc.index == failing[0] and exc.x == kept[failing[0]]
        assert exc.values.shape == xs.shape
        assert np.flatnonzero(np.isnan(exc.values)).tolist() == failing
        got = exc.values.ravel()
    else:
        got = fn(xs)
        assert got.shape == xs.shape
        got = got.ravel()
    for i, outcome in enumerate(outcomes):
        if not isinstance(outcome, RefError):
            assert_value(float(got[i]), *outcome, exact)


def test_array_error_carries_first_failure():
    fn = parse("1/(u-1)+exp(u)")
    with pytest.raises(ExprEvalError) as info:
        fn(np.array([0.0, 800.0, 1.0, 2.0]))
    exc = info.value
    assert (exc.offset, exc.index, exc.x) == (8, 1, 800.0)
    assert str(exc) == "overflow in exp at offset 8"
    assert np.isnan(exc.values[1:3]).all()
    assert exc.values[[0, 3]].tolist() == [fn(0.0), fn(2.0)]


def test_constant_expression_keeps_array_shape():
    out = parse("3*2")(np.zeros((2, 3)))
    assert out.shape == (2, 3) and (out == 6.0).all()
