"""Small arithmetic expression trees for sub-function dynamics.

Expressions support constants, variable references, +, -, *, /, unary
negation and integer powers.  Two evaluators are provided (the simulator
compiles the trees itself, see ``simulation.build_ode``):

* ``evaluate``  -- pointwise (floats or numpy arrays),
* ``evaluate_interval`` -- the natural interval extension, used by the
  trade-off containment constraints.

The JSON wire format is prefix-notation arrays, e.g.
``["*", ["num", 0.5], ["var", "rho"]]``; bare numbers are accepted as a
shorthand for ``["num", x]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import DomainError, ParseError
from .intervals import Interval

__all__ = ["Expr", "Num", "Var", "BinOp", "Neg", "Pow",
           "parse_expr", "evaluate", "evaluate_interval", "free_vars"]


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


Expr = Union[Num, Var, BinOp, Neg, Pow]

_BINOPS = {"+", "-", "*", "/"}


def parse_expr(node) -> Expr:
    """Parse the prefix-array JSON form into an expression tree."""
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return _literal(node, node)
    if not isinstance(node, list) or not node:
        raise ParseError(f"bad expression node: {node!r}")
    head = node[0]
    if head == "num":
        if len(node) != 2 or not isinstance(node[1], (int, float)) or isinstance(node[1], bool):
            raise ParseError(f"bad num node: {node!r}")
        return _literal(node[1], node)
    if head == "var":
        if len(node) != 2 or not isinstance(node[1], str):
            raise ParseError(f"bad var node: {node!r}")
        return Var(node[1])
    if head in _BINOPS:
        if len(node) != 3:
            raise ParseError(f"operator '{head}' needs two operands: {node!r}")
        return BinOp(head, parse_expr(node[1]), parse_expr(node[2]))
    if head == "neg":
        if len(node) != 2:
            raise ParseError(f"neg needs one operand: {node!r}")
        return Neg(parse_expr(node[1]))
    if head == "pow":
        if len(node) != 3 or not isinstance(node[2], int) or isinstance(node[2], bool):
            raise ParseError(f"pow needs an integer exponent: {node!r}")
        return Pow(parse_expr(node[1]), node[2])
    raise ParseError(f"unknown expression head: {head!r}")


def _literal(value, node) -> Num:
    """``value`` as a literal, which must be finite: Python's ``json``
    reads Infinity and NaN, and an integer may be beyond float range."""
    try:
        x = float(value)
    except OverflowError:       # an integer beyond float range
        x = math.inf
    if not math.isfinite(x):
        raise ParseError(f"non-finite literal: {node!r}")
    return Num(x)


def free_vars(e: Expr) -> frozenset[str]:
    if isinstance(e, Num):
        return frozenset()
    if isinstance(e, Var):
        return frozenset({e.name})
    if isinstance(e, BinOp):
        return free_vars(e.left) | free_vars(e.right)
    if isinstance(e, Neg):
        return free_vars(e.arg)
    if isinstance(e, Pow):
        return free_vars(e.base)
    raise TypeError(f"not an expression: {e!r}")


def evaluate(e: Expr, env) -> float:
    """Evaluate with ``env`` mapping variable name -> float (or ndarray)."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, BinOp):
        a, b = evaluate(e.left, env), evaluate(e.right, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        return a / b
    if isinstance(e, Neg):
        return -evaluate(e.arg, env)
    if isinstance(e, Pow):
        return evaluate(e.base, env) ** e.exponent
    raise TypeError(f"not an expression: {e!r}")


# --- natural interval extension ---------------------------------------------

def _iadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _isub(a, b):
    return (a[0] - b[1], a[1] - b[0])


def _imul(a, b):
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(ps), max(ps))


def _idiv(a, b):
    if b[0] <= 0.0 <= b[1]:
        raise DomainError(f"interval division by {b} which contains zero")
    return _imul(a, (1.0 / b[1], 1.0 / b[0]))


def _ipow(a, n: int):
    if n == 0:
        return (1.0, 1.0)
    if n < 0:
        return _idiv((1.0, 1.0), _ipow(a, -n))
    lo, hi = a[0] ** n, a[1] ** n
    if n % 2 == 1:
        return (lo, hi)
    if a[0] <= 0.0 <= a[1]:
        return (0.0, max(lo, hi))
    return (min(lo, hi), max(lo, hi))


def evaluate_interval(e: Expr, env) -> Interval:
    """Natural interval extension; ``env`` maps name -> Interval.

    Containment-safe: for every pointwise assignment within the input
    intervals, the pointwise result lies inside the returned interval.
    """

    def go(e) -> tuple[float, float]:
        if isinstance(e, Num):
            return (e.value, e.value)
        if isinstance(e, Var):
            iv = env[e.name]
            return (iv.lo, iv.hi)
        if isinstance(e, BinOp):
            a, b = go(e.left), go(e.right)
            if e.op == "+":
                return _iadd(a, b)
            if e.op == "-":
                return _isub(a, b)
            if e.op == "*":
                return _imul(a, b)
            return _idiv(a, b)
        if isinstance(e, Neg):
            a = go(e.arg)
            return (-a[1], -a[0])
        if isinstance(e, Pow):
            return _ipow(go(e.base), e.exponent)
        raise TypeError(f"not an expression: {e!r}")

    lo, hi = go(e)
    return Interval(lo, hi)
