"""The compiled right-hand side of an architecture's ODE.

``compile_rhs`` turns the expression trees of an architecture into one
Python function closed over one design point: the right-hand side, which
the RK stages call for the derivatives and a grid point also to write every
output into a buffer row.  It partially evaluates at the design point (the
parameter-only outputs and subtrees once, a repeated subtree once per call)
and keeps every operation, operand order and operand type, so every value
is bit-identical to ``expr.evaluate`` on the same trees.

For a bundle (every value an array of lanes) the function allocates
nothing per call but the results of ``**``.  Every other operation runs as
its ufunc with ``out=``: a derivative into its row of the stage matrix the
caller passes, an output at a grid point into its buffer row, and anything
else into a slot of one scratch array of shape ``(slots, *lanes)``,
allocated once per compiled system.  Slots are assigned at compile time by
liveness over the generated statements: a slot is free again only once
the statement that reads it last has run, so no operand is overwritten
while a sibling operand is computed.  A call's memory is slots × lanes
floats, however many operations it runs: on the benchmark's 200-link
chain (10 000 lanes, ~400 operations) 20 slots, 1.6 MB.

A bundle's ufunc calls take every scalar operand (a parameter, a
parameter-only output or subtree, a literal) as a 0-d float64 array, bound
once per compiled system under a name of its own: numpy parses a 0-d array
operand faster than a Python or numpy scalar (0.81 against 1.24 µs for an
81-lane call), and computes the same float64 operation on it.  The
partial evaluation before that stays in Python floats, whose ``**``
rounds differently from an array's, and every value rhs returns or stores
keeps its type.
"""

from __future__ import annotations

import numpy as np

from . import expr as ex
from .architecture import Architecture

__all__ = ["compile_rhs"]


def _operand(v):
    """A bundle's ufunc operand: an array as it is, a scalar as a 0-d
    float64 array."""
    return v if np.ndim(v) else np.array(v, dtype=np.float64)


#: what the generated source reads besides the parameters: the ufuncs a
#: bundle's statements call with ``out`` (positional, which numpy parses
#: faster than the keyword), float64 for literals, the converter of their
#: scalar operands and the allocator of the scratch and stage arrays
_NAMESPACE = {"_add": np.add, "_subtract": np.subtract, "_multiply": np.multiply,
              "_divide": np.divide, "_negative": np.negative, "_float64": np.float64,
              "_operand": _operand, "_empty": np.empty}
_UFUNCS = {"+": "_add", "-": "_subtract", "*": "_multiply", "/": "_divide"}


def compile_rhs(arch: Architecture, params: dict, output_names, inplace: bool):
    """``(rhs, initial states)`` of the architecture at ``params``
    (constants and design point).

    ``rhs(row, *states, d=None)`` returns the derivatives; given a buffer
    row, not None, it also writes the outputs, in ``output_names`` order,
    into ``row``.  With ``inplace`` (a bundle: the design values are arrays
    of lanes) and a ``(states, *lanes)`` matrix ``d``, it writes the
    derivatives into ``d`` and returns it.  Otherwise it ignores ``d`` and
    every value keeps its type: numpy scalars stay scalars, whose ``**``
    rounds differently from an array's.  The parameter-only values follow
    the march's non-finite rule: inf or NaN, never an exception or a numpy
    warning."""
    shape = np.broadcast_shapes(*(np.shape(v) for v in params.values())) if inplace else ()

    def make(params, literal=repr):
        ns = dict(_NAMESPACE)
        exec(_source(arch, params.keys(), output_names, inplace, literal), ns)  # noqa: S102
        return ns["_make"](params, shape)

    with np.errstate(all="ignore"):
        try:
            return make(params)
        except ArithmeticError:
            # Python floats raise where float64 gives inf or NaN: evaluate
            # the parameters and literals in float64, as the states are
            return make({n: np.float64(v) if np.ndim(v) == 0 else v for n, v in params.items()},
                        literal=lambda v: f"_float64({v!r})")


def _source(arch: Architecture, params, output_names, inplace: bool, literal) -> str:
    """Python source of ``_make(params, lanes) -> (rhs, initial states)``.

    ``_make`` partially evaluates the right-hand side: it binds the
    parameters, computes every output the parameters alone determine and
    every maximal parameter-only subtree once, and closes ``rhs`` over them.
    Inside ``rhs`` every other subtree is computed once, after its
    operands; a subtree that occurs more than once is bound to one
    temporary.  Every operation keeps its operands, their order and their
    types (Python floats stay floats, arrays stay arrays), so every value is
    bit-identical to evaluating the expressions as written.

    With ``inplace`` every operator node but ``**`` is a statement of its
    own, computed with ``out=`` into the derivative row it is, else at a
    grid point into the buffer row of the output it is, else into a
    scratch slot (see the module docstring); an operand that rhs does not
    compute is read from its ``_operand`` copy, bound in ``_make`` after
    the partial evaluation.  Without ``inplace``, a subtree read once is
    spelt inside the expression that reads it.
    """
    states = [st for sf in arch.subfunctions for st in sf.states]
    names = sorted({*params, *(st.name for st in states), *(out for _, out, _ in arch.assignments)})
    rn = {n: f"_v{i}" for i, n in enumerate(names)}.__getitem__

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

    def plain(e) -> str:
        if isinstance(e, ex.Num):
            return f"({literal(e.value)})"  # (-2.0) ** 2, not -(2.0 ** 2)
        if isinstance(e, ex.Var):
            return rn(e.name)
        return _spell(e, [plain(c) for c in _children(e)])

    # A token stands for a value inside rhs: source text (a literal, a
    # parameter, a state, a hoisted subtree) or the number of a subtree
    # that rhs computes.
    hoisted: list[str] = []                 # lines of _make
    hoisted_ref: dict[int, str] = {}
    nodes: dict[int, tuple] = {}            # number -> (node, operand tokens), operands first
    value = {n: rn(n) for n in names}       # name -> token

    def ref(e):
        if isinstance(e, ex.Num):
            return plain(e)
        if isinstance(e, ex.Var):
            return value[e.name]
        n = memo[id(e)]
        if param_only[n]:
            if n not in hoisted_ref:
                hoisted_ref[n] = f"_h{len(hoisted)}"
                hoisted.append(f"{hoisted_ref[n]} = {plain(e)}")
            return hoisted_ref[n]
        if n not in nodes:
            nodes[n] = (e, tuple(map(ref, _children(e))))
        return n

    for name, e in moving:
        value[name] = ref(e)
    derivs = [ref(st.derivative) for st in states]
    outs = [value[n] for n in output_names]

    def pow_(n) -> bool:
        return isinstance(nodes[n][0], ex.Pow)

    roots: dict[int, int] = {}      # number -> the first output it is
    for j, t in enumerate(outs):
        if isinstance(t, int):
            roots.setdefault(t, j)
    into: dict[int, int] = {}       # number -> the derivative row it is computed into
    if inplace:
        for i, t in enumerate(derivs):
            if isinstance(t, int) and not pow_(t):
                into.setdefault(t, i)

    def inline(n) -> bool:
        """Whether ``n`` is spelt inside the one expression that reads it."""
        return count[n] == 1 and n not in roots and (not inplace or pow_(n))

    def text(t) -> str:
        if isinstance(t, str):
            return t
        if not inline(t):
            return f"_t{t}"
        e, args = nodes[t]
        return _spell(e, list(map(text, args)))

    def reads(t) -> set[int]:
        if isinstance(t, str):
            return set()
        if not inline(t):
            return {t}
        return set().union(*(reads(a) for a in nodes[t][1]))

    # the statements of rhs: the computed subtrees, then a bundle's stores
    # into the buffer row and the derivative matrix of what is not computed
    # there in place
    computed = [(n, nodes[n][1]) for n in nodes if not inline(n)]
    to_o = [(j, t) for j, t in enumerate(outs)
            if inplace and (roots.get(t) != j or t in into or pow_(t))]
    to_d = [(i, t) for i, t in enumerate(derivs) if inplace and into.get(t) != i]
    slots = _slots(computed + [(None, (t,)) for _, t in to_o + to_d],
                   {n for n, _ in computed if not pow_(n) and n not in into},
                   reads) if inplace else {}

    def target(n) -> str:
        if n in into:
            return f"_D[{into[n]}]"
        if n in roots:
            return f"(_s{slots[n]} if _o is None else _o[{roots[n]}])"
        return f"_s{slots[n]}"

    state_tokens = {rn(st.name) for st in states}
    operands: dict[str, str] = {}   # source text rhs does not compute -> its _operand copy

    def operand(t) -> str:
        if isinstance(t, str) and t not in state_tokens:
            return operands.setdefault(t, f"_k{len(operands)}")
        return text(t)

    body: list[str] = []        # lines of rhs
    if inplace:                 # the caller's derivative matrix, or a fresh one
        body.append(f"_D = _empty(({len(states)}, *_shape)) if _d is None else _d")
    for n, args in computed:
        e = nodes[n][0]
        if inplace and not pow_(n):
            ufunc = _UFUNCS[e.op] if isinstance(e, ex.BinOp) else "_negative"
            body.append(f"_t{n} = {ufunc}({', '.join([*map(operand, args), target(n)])})")
        else:
            body.append(f"_t{n} = {_spell(e, list(map(text, args)))}")
    if inplace:
        stores = [f"_o[{j}] = {text(t)}" for j, t in to_o]
    else:                       # one statement stores a point's whole row
        stores = [f"_o[:] = ({', '.join(map(text, outs))},)"] if outs else []
    if stores:
        body.append("if _o is not None:")
        body.extend(f"    {line}" for line in stores)
    values = f"({', '.join(map(text, derivs))}{',' if len(derivs) == 1 else ''})"
    if inplace:                 # without a matrix, the derivatives keep their types
        body += ["if _d is None:", f"    return {values}",
                 *(f"_d[{i}] = {text(t)}" for i, t in to_d), "return _d"]
    else:
        body.append(f"return {values}")

    n_slots = max(slots.values(), default=-1) + 1
    scratch = [f"_S = _empty(({n_slots}, *_shape))",
               f"({''.join(f'_s{k}, ' for k in range(n_slots))}) = _S"] if n_slots else []
    signature = ["_o", *(rn(st.name) for st in states), "_d=None"]
    initial = [plain(st.initial) for st in states]
    return "\n".join([
        "def _make(_P, _shape):",
        *(f"    {rn(n)} = _P[{n!r}]" for n in sorted(params)),
        *(f"    {rn(n)} = {plain(e)}" for n, e in fixed),
        *(f"    {line}" for line in hoisted),
        *(f"    {k} = _operand({t})" for t, k in operands.items()),
        *(f"    {line}" for line in scratch),
        f"    def _rhs({', '.join(signature)}):",
        *(f"        {line}" for line in body),
        f"    return _rhs, ({', '.join(initial)}{',' if len(initial) == 1 else ''})",
    ])


def _slots(statements, slotted: set[int], reads) -> dict[int, int]:
    """A scratch slot for every number in ``slotted``, by liveness over
    ``statements`` (``(what it writes, tokens it reads)``, in order).

    A slot is taken when its statement runs and given back once the last
    statement that reads it has run, never sooner: a statement's own
    result never shares a slot with one of its operands, however they are
    nested.  The most recently freed slot is taken first, being the one
    most likely still in cache."""
    read_at = [set().union(*map(reads, args)) for _, args in statements]
    last = {n: k for k, ns in enumerate(read_at) for n in ns}
    slot: dict[int, int] = {}
    free: list[int] = []
    for k, ((n, _), ns) in enumerate(zip(statements, read_at)):
        if n in slotted:
            if not free:                        # a new slot
                free.append(max(slot.values(), default=-1) + 1)
            slot[n] = free.pop()
        free.extend(slot[m] for m in sorted(ns) if last[m] == k and m in slot)
        if n in slotted and n not in last:      # never read: free at once
            free.append(slot[n])
    return slot


def _spell(e, args) -> str:
    """``e`` as a Python expression over its operands' source ``args``."""
    if isinstance(e, ex.BinOp):
        return f"({args[0]} {e.op} {args[1]})"
    if isinstance(e, ex.Neg):
        return f"(-{args[0]})"
    return f"({args[0]} ** {e.exponent})"


def _children(e) -> tuple:
    if isinstance(e, ex.BinOp):
        return (e.left, e.right)
    if isinstance(e, ex.Neg):
        return (e.arg,)
    return (e.base,)
