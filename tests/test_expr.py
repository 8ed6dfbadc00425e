"""Expression trees: parsing the prefix-array form, pointwise evaluation and
the natural interval extension."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setdecomp.errors import DomainError, ParseError
from setdecomp.expr import (BinOp, Neg, Num, Pow, Var, evaluate, evaluate_interval,
                            free_vars, parse_expr)
from setdecomp.intervals import Interval

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@st.composite
def intervals(draw):
    a, b = draw(finite), draw(finite)
    return Interval(min(a, b), max(a, b))


@pytest.mark.parametrize("node, message", [
    ("x", r"^bad expression node: 'x'$"),
    ([], r"^bad expression node: \[\]$"),
    (["num"], r"^bad num node"),
    (["num", True], r"^bad num node: \['num', True\]$"),
    (10 ** 400, r"^non-finite literal: 1000"),
    (["num", float("inf")], r"^non-finite literal: \['num', inf\]$"),
    (["var", 1], r"^bad var node: \['var', 1\]$"),
    (["var"], r"^bad var node"),
    (["+", 1], r"^operator '\+' needs two operands"),
    (["/", 1, 2, 3], r"^operator '/' needs two operands"),
    (["neg"], r"^neg needs one operand: \['neg'\]$"),
    (["neg", 1, 2], r"^neg needs one operand"),
    (["pow", ["var", "a"]], r"^pow needs an integer exponent"),
    (["pow", ["var", "a"], True], r"^pow needs an integer exponent"),
    (["sqrt", 4], r"^unknown expression head: 'sqrt'$"),
], ids=["string", "empty-list", "num-without-value", "num-bool", "beyond-float-range",
        "num-infinite", "var-not-a-string", "var-without-name",
        "binop-one-operand", "binop-three-operands", "neg-no-operand", "neg-two-operands",
        "pow-no-exponent", "pow-bool-exponent", "unknown-head"])
def test_malformed_node_is_a_parse_error(node, message):
    with pytest.raises(ParseError, match=message):
        parse_expr(node)


def test_neg_parses_and_evaluates():
    e = parse_expr(["neg", ["+", ["var", "a"], 1]])
    assert e == Neg(BinOp("+", Var("a"), Num(1.0)))
    assert free_vars(e) == {"a"}
    assert evaluate(e, {"a": 2.0}) == -3.0
    assert evaluate_interval(e, {"a": Interval(-1.0, 2.0)}) == Interval(-3.0, 0.0)


@pytest.mark.parametrize("n, box, image", [
    (0, (-2.0, 3.0), (1.0, 1.0)),
    (3, (-2.0, 3.0), (-8.0, 27.0)),
    (2, (-2.0, 3.0), (0.0, 9.0)),
    (2, (-3.0, -2.0), (4.0, 9.0)),
    (-1, (2.0, 4.0), (0.25, 0.5)),
    (-2, (-4.0, -2.0), (0.0625, 0.25)),
], ids=["zero", "odd", "even-across-zero", "even-negative", "negative", "negative-even"])
def test_interval_power(n, box, image):
    assert evaluate_interval(Pow(Var("a"), n), {"a": Interval(*box)}) == Interval(*image)


@pytest.mark.parametrize("e", [
    BinOp("/", Num(1.0), Var("a")),
    Pow(Var("a"), -1),
], ids=["divide", "negative-power"])
def test_divisor_interval_holding_zero_is_a_domain_error(e):
    with pytest.raises(DomainError, match=r"interval division by \(-1\.0, 2\.0\) which contains zero"):
        evaluate_interval(e, {"a": Interval(-1.0, 2.0)})


_A, _B = Var("a"), Var("b")


@pytest.mark.parametrize("e", [
    BinOp("+", _A, _B), BinOp("-", _A, _B), BinOp("*", _A, _B), BinOp("*", _A, _A),
    Neg(_A), *(Pow(_A, n) for n in range(5)),
    BinOp("-", Pow(BinOp("+", _A, Num(0.5)), 3), Neg(BinOp("*", _A, _B))),
], ids=["add", "sub", "mul", "square-by-mul", "neg", "pow0", "pow1", "pow2", "pow3", "pow4",
        "compound"])
@settings(max_examples=200, deadline=None)
@given(a=intervals(), b=intervals())
def test_image_contains_the_corners_and_the_midpoint(e, a, b):
    # division and negative powers are left out: their extension is not yet
    # sound under rounding
    image = evaluate_interval(e, {"a": a, "b": b})
    for x, y in itertools.product((a.lo, a.mid, a.hi), (b.lo, b.mid, b.hi)):
        value = evaluate(e, {"a": x, "b": y})
        assert image.lo <= value <= image.hi, (x, y, value, image)
