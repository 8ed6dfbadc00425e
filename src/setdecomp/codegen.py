"""The compiled right-hand side of an architecture's ODE.

``compile_rhs`` turns the expression trees of an architecture into one
Python function closed over one design point: the right-hand side, which
the RK stages call for the derivatives and a grid point also to write every
output into a buffer row.  It partially evaluates at the design point (the
parameter-only outputs and subtrees once, a repeated subtree once per call)
and keeps every operation, operand order and operand type, so every value
is bit-identical to ``expr.evaluate`` on the same trees.
"""

from __future__ import annotations

import numpy as np

from . import expr as ex
from .architecture import Architecture

__all__ = ["compile_rhs"]

#: what the generated source reads besides the parameters: the ufuncs an
#: in-place output store calls with ``out=``, and float64 for literals
_NAMESPACE = {"_add": np.add, "_subtract": np.subtract, "_multiply": np.multiply,
              "_divide": np.divide, "_negative": np.negative, "_float64": np.float64}
_UFUNCS = {"+": "_add", "-": "_subtract", "*": "_multiply", "/": "_divide"}


def compile_rhs(arch: Architecture, params: dict, output_names, inplace: bool):
    """``(rhs, initial states)`` of the architecture at ``params``
    (constants and design point).  ``rhs(row, *states)`` returns the
    derivatives; given a buffer row, not None, it also writes the outputs,
    in ``output_names`` order, into ``row``: computed into it with ``out=``
    where ``inplace`` (the values are arrays of a bundle), stored by a plain
    copy otherwise.  The parameter-only values follow the march's
    non-finite rule: inf or NaN, never an exception or a numpy warning."""

    def make(params, literal=repr):
        ns = dict(_NAMESPACE)
        exec(_source(arch, params.keys(), output_names, inplace, literal), ns)  # noqa: S102
        return ns["_make"](params)

    with np.errstate(all="ignore"):
        try:
            return make(params)
        except ArithmeticError:
            # Python floats raise where float64 gives inf or NaN: evaluate
            # the parameters and literals in float64, as the states are
            return make({n: np.float64(v) if np.ndim(v) == 0 else v for n, v in params.items()},
                        literal=lambda v: f"_float64({v!r})")


def _source(arch: Architecture, params, output_names, inplace: bool, literal) -> str:
    """Python source of ``_make(params) -> (rhs, initial states)``.

    ``_make`` partially evaluates the right-hand side: it binds the
    parameters, computes every output the parameters alone determine and
    every maximal parameter-only subtree once, and closes ``rhs`` over them.
    Inside ``rhs``, a subtree that occurs more than once is bound to one
    temporary.  Every operation keeps its operands, their order and their
    types (Python floats stay floats, arrays stay arrays), so every value is
    bit-identical to evaluating the expressions as written.

    ``rhs(row, *states)`` returns the derivatives and, given a buffer row
    (at a grid point; the RK stages pass None), writes each output into its
    entry.  With ``inplace`` (a bundle, whose values are arrays) an output
    computed by an operator is computed straight into its row with the
    ufunc's ``out=``.  Any other output is stored by a plain copy, and so is
    every output of a single design point: its values are numpy scalars,
    and ``out=`` would turn them into arrays, whose ``**`` rounds
    differently from a scalar's.
    """
    states = [st for sf in arch.subfunctions for st in sf.states]
    names = sorted({*params, *(st.name for st in states), *(out for _, out, _ in arch.assignments)})
    rn = {n: f"_v{i}" for i, n in enumerate(names)}.__getitem__
    slot = {name: f"_o[{j}]" for j, name in enumerate(output_names)}.__getitem__

    # Equal subtrees get one key, found once per node in linear time: a
    # variable's name, a literal as written (so 0.0 and -0.0 differ) or a
    # compound subtree's number, which also counts its occurrences.  A
    # subtree is numbered after every output it reads is assigned, so
    # whether the parameters alone determine it is settled by then.
    static = set(params)                # names the parameters alone determine
    numbers: dict[tuple, int] = {}
    memo: dict[int, int] = {}           # id(node) -> its number
    param_only: list[bool] = []         # per number
    count: list[int] = []               # per number

    def key(e):
        if isinstance(e, ex.Var):
            return e.name
        if isinstance(e, ex.Num):
            return (repr(e.value),)
        return number(e)

    def settled(k) -> bool:
        return param_only[k] if isinstance(k, int) else isinstance(k, tuple) or k in static

    def number(e) -> int:
        n = memo.get(id(e))
        if n is None:
            if isinstance(e, ex.BinOp):
                a, b = key(e.left), key(e.right)
                sig, only = (e.op, a, b), settled(a) and settled(b)
            elif isinstance(e, ex.Neg):
                a = key(e.arg)
                sig, only = ("neg", a), settled(a)
            else:
                a = key(e.base)
                sig, only = ("pow", a, e.exponent), settled(a)
            n = memo[id(e)] = numbers.setdefault(sig, len(numbers))
            if n == len(count):
                param_only.append(only)
                count.append(0)
        count[n] += 1
        return n

    fixed, moving = [], []      # outputs the parameters alone determine, and the rest
    for _, name, e in arch.assignments:
        if settled(key(e)):
            static.add(name)
            fixed.append((name, e))
        else:
            moving.append((name, e))
    for st in states:
        key(st.derivative)

    def render(e, sub) -> str:
        """``e`` as a Python expression, its operands rendered by ``sub``."""
        if isinstance(e, ex.Num):
            return f"({literal(e.value)})"  # (-2.0) ** 2, not -(2.0 ** 2)
        if isinstance(e, ex.Var):
            return rn(e.name)
        if isinstance(e, ex.BinOp):
            return f"({sub(e.left)} {e.op} {sub(e.right)})"
        if isinstance(e, ex.Neg):
            return f"(-{sub(e.arg)})"
        return f"({sub(e.base)} ** {e.exponent})"

    def plain(e) -> str:
        return render(e, plain)

    hoisted: list[str] = []     # lines of _make
    body: list[str] = []        # lines of rhs
    refs: dict[int, str] = {}   # what a compound subtree reads as in rhs

    def ref(e) -> str:
        if isinstance(e, (ex.Num, ex.Var)):
            return render(e, ref)
        n = memo[id(e)]
        if n not in refs:
            if param_only[n]:
                refs[n] = f"_h{len(hoisted)}"
                hoisted.append(f"{refs[n]} = {plain(e)}")
            elif count[n] > 1:      # bound before its first use
                refs[n] = f"_t{n}"
                body.append(f"{refs[n]} = {render(e, ref)}")
            else:
                refs[n] = render(e, ref)
        return refs[n]

    copied = [n for n in (*(st.name for st in states), *(n for n, _ in fixed)) if n in output_names]
    for name, e in moving:
        if inplace and isinstance(e, (ex.BinOp, ex.Neg)) and count[memo[id(e)]] == 1:
            ufunc = _UFUNCS[e.op] if isinstance(e, ex.BinOp) else "_negative"
            args = ", ".join(ref(c) for c in _children(e))
            body.append(f"{rn(name)} = {ufunc}({args}, out=None if _o is None else {slot(name)})")
        else:
            body.append(f"{rn(name)} = {ref(e)}")
            copied.append(name)
    derivs = [ref(st.derivative) for st in states]
    if not inplace:                 # one statement stores a point's whole row
        copied = [f"_o[:] = ({', '.join(rn(n) for n in output_names)},)"] if output_names else []
    else:
        copied = [f"{slot(n)} = {rn(n)}" for n in copied]
    if copied:
        body.append("if _o is not None:")
        body.extend(f"    {line}" for line in copied)
    body.append(f"return ({', '.join(derivs)}{',' if len(derivs) == 1 else ''})")

    initial = [plain(st.initial) for st in states]
    return "\n".join([
        "def _make(_P):",
        *(f"    {rn(n)} = _P[{n!r}]" for n in sorted(params)),
        *(f"    {rn(n)} = {plain(e)}" for n, e in fixed),
        *(f"    {line}" for line in hoisted),
        f"    def _rhs({', '.join(['_o', *(rn(st.name) for st in states)])}):",
        *(f"        {line}" for line in body),
        f"    return _rhs, ({', '.join(initial)}{',' if len(initial) == 1 else ''})",
    ])


def _children(e) -> tuple:
    if isinstance(e, ex.BinOp):
        return (e.left, e.right)
    if isinstance(e, ex.Neg):
        return (e.arg,)
    return (e.base,)

