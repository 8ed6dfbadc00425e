"""The compiled right-hand side of an architecture's ODE.

``compile_rhs`` turns the expression trees of an architecture into one
Python function closed over one design point: the right-hand side, which
the RK stages call for the derivatives and a grid point also to hand over
every output.  A grid point has two modes, chosen at compile time.  The row
mode writes every output into a buffer row.  The fold mode, for a bundle
whose grid row is larger than the cache, writes no row: it passes each
output to a callable right after the statement that computes it, while it
is still in cache, and the caller folds it into its extrema; a stage call
passes to a no-op, so no output costs a branch.  The compiler
partially evaluates at the design point (the parameter-only outputs and
subtrees once, a repeated subtree once per call) and keeps every
operation, operand order and operand type, so every value is bit-identical
to ``expr.evaluate`` on the same trees.

For a bundle (every value an array of lanes) the function allocates
nothing per call but the results of ``**``.  Every other operation runs as
its ufunc with ``out=``: a derivative into its row of the stage matrix the
caller passes, an output at a row-mode grid point into its buffer row, and
anything else, a folded output included, into a slot of one scratch
array of shape ``(slots, *lanes)``, allocated once per compiled system.
Slots are assigned at compile time by liveness over the generated
statements: a slot is free again only once the statement that reads it
last has run, so no operand is overwritten while a sibling operand is
computed.  Each derivative is computed right after the last output it
reads (one that reads none first), so that no output stays live to the
end of the call for a derivative to read it.  A call's memory is slots ×
lanes floats, however many operations and states it has: on the
benchmark's 200-link chain (10 000 lanes, ~400 operations, 20 states) 2
slots, 160 KB, in either mode.

A stage call may get the states as the rows of the very matrix it writes
the derivatives into, as the march hands them over: the operation that
writes a derivative row, or the statement that stores it there, runs only
after the last read of that row's state, and every other statement keeps
its place.  Where the derivatives can be so ordered, as on cruise and the
chain, that costs no ufunc call.  Where they cannot, as for ``y' = z``,
``z' = y``, a derivative goes through a scratch slot and is copied into
its row.

The generated source depends on the architecture, the parameters' names,
the outputs and the mode, but not on the parameters' values.  It is
generated once per architecture, which holds it in ``rhs_sources``, and
compiled once per source: the envelopes of one architecture at different
design points share the code and bind their own values.

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

import functools

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
#: faster than the keyword; ``_positive`` copies a state into a slot),
#: float64 for literals, the converter of their scalar operands, the
#: allocator of the scratch and stage arrays, and the fold of a stage call
_NAMESPACE = {"_add": np.add, "_subtract": np.subtract, "_multiply": np.multiply,
              "_divide": np.divide, "_negative": np.negative, "_float64": np.float64,
              "_positive": np.positive, "_operand": _operand, "_empty": np.empty,
              "_skip": lambda j, value: None}
_UFUNCS = {"+": "_add", "-": "_subtract", "*": "_multiply", "/": "_divide"}


def compile_rhs(arch: Architecture, params: dict, output_names, inplace: bool,
                fold: bool = False):
    """``(rhs, initial states)`` of the architecture at ``params``
    (constants and design point).

    ``rhs(grid, *states, d=None)`` returns the derivatives; at a grid
    point, ``grid`` not None, it also hands over every output, in
    ``output_names`` order for its index.  In the row mode ``grid`` is a
    buffer row and rhs writes output ``j`` into ``grid[j]``.  In the fold
    mode, ``fold`` (a bundle only), ``grid`` is a callable and rhs calls
    ``grid(j, value)`` for every output and writes no row: right after the
    statement that computes the output, so that ``value`` is still in
    cache, and first of all for the outputs it does not compute (a state,
    or a parameter-only value as its 0-d or lane array); a stage call,
    ``grid`` None, folds nothing.  ``value`` is scratch that the call
    itself overwrites later.  With ``inplace`` (a bundle: the design values
    are arrays of lanes) and a ``(states, *lanes)`` matrix ``d``, it writes
    the derivatives into ``d`` and returns it; at a stage call the states
    may be the rows of ``d`` itself.  Otherwise it ignores ``d`` and every
    value keeps its type: numpy scalars stay scalars, whose ``**`` rounds
    differently from an array's.  The parameter-only values follow the march's non-finite
    rule: inf or NaN, never an exception or a numpy warning."""
    shape = np.broadcast_shapes(*(np.shape(v) for v in params.values())) if inplace else ()

    def make(params, float64=False):
        key = (tuple(sorted(params)), tuple(output_names), inplace, fold, float64)
        source = arch.rhs_sources.get(key)
        if source is None:
            source = arch.rhs_sources[key] = _source(arch, params, output_names, inplace,
                                                     fold, float64)
        ns = dict(_NAMESPACE)
        exec(_code(source), ns)  # noqa: S102
        return ns["_make"](params, shape)

    with np.errstate(all="ignore"):
        try:
            return make(params)
        except ArithmeticError:
            # Python floats raise where float64 gives inf or NaN: evaluate
            # the parameters and literals in float64, as the states are
            return make({n: np.float64(v) if np.ndim(v) == 0 else v for n, v in params.items()},
                        float64=True)


#: how many compiled sources ``_code`` keeps
CODE_CACHE_SIZE = 32


@functools.lru_cache(maxsize=CODE_CACHE_SIZE)
def _code(source: str):
    """The compiled ``source`` of a right-hand side, once per source text
    (which no parameter value enters)."""
    return compile(source, "<rhs>", "exec")


def _source(arch: Architecture, params, output_names, inplace: bool, fold: bool,
            float64: bool) -> str:
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
    grid point of the row mode into the buffer row of the output it is,
    else into a scratch slot (see the module docstring); an operand that
    rhs does not compute is read from its ``_operand`` copy, bound in
    ``_make`` after the partial evaluation; a statement that writes a
    derivative row runs after the last read of that row's state.  With
    ``fold`` every output is folded by the statement right after the one
    that computes it.  Without ``inplace``, a subtree read once is spelt
    inside the expression that reads it.  With ``float64`` every literal is
    a float64 scalar, as the parameters are where Python floats raise.
    """
    states = [st for sf in arch.subfunctions for st in sf.states]
    names = sorted({*params, *(st.name for st in states), *(out for _, out, _ in arch.assignments)})
    rn = {n: f"_v{i}" for i, n in enumerate(names)}.__getitem__
    literal = (lambda v: f"_float64({v!r})") if float64 else repr

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

    # each derivative right after the last output it reads (one that reads
    # none first), so no output stays live for a derivative at the end
    position = {name: k for k, (name, _) in enumerate(moving)}
    after: dict[int, list[int]] = {}
    for i, st in enumerate(states):
        last = max((position[v] for v in ex.free_vars(st.derivative) if v in position), default=-1)
        after.setdefault(last, []).append(i)
    derivs: list = [None] * len(states)

    def derive(k):
        for i in after.get(k, ()):
            derivs[i] = ref(states[i].derivative)

    derive(-1)
    for k, (name, e) in enumerate(moving):
        value[name] = ref(e)
        derive(k)
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

    derived = {t for t in derivs if isinstance(t, int)}

    def inline(n) -> bool:
        """Whether ``n`` is spelt inside the one expression that reads it:
        a bundle's derivative never is, so a store into ``_D`` only copies."""
        return (count[n] == 1 and n not in roots
                and (not inplace or pow_(n) and n not in derived))

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

    row_of = {rn(st.name): i for i, st in enumerate(states)}   # state token -> its row

    def rows(t) -> set[int]:
        """The state rows that reading ``t`` reads."""
        if isinstance(t, str):
            return {row_of[t]} if t in row_of else set()
        return set().union(*map(rows, nodes[t][1])) if inline(t) else set()

    # The statements of rhs as events: (n, None) computes the subtree n,
    # (None, i) stores src[i] into the derivative row i of a bundle that is
    # not computed there in place.
    src = dict(enumerate(derivs))

    def alias_safe(events) -> list:
        """``events`` in their order, except that an event that writes a
        derivative row waits until every other event that reads that row's
        state has run (a stage call may get the states as the rows of
        ``_D``), and an event that reads a waiting subtree waits for it; a
        waiting event runs as soon as it can, before the next in order.
        Where the waits close a cycle (``y' = z``, ``z' = y``), the first
        waiting event not made here is split.  It computes its value into
        a scratch slot instead (a state's by a copy), which it can do at
        once: every event before it has run, or is a store made here, which
        nothing reads.  A new store, waiting in its place, copies the slot
        into the row."""
        known: dict[tuple, tuple[set[int], set[int]]] = {}

        def event_reads(e) -> tuple[set[int], set[int]]:
            """The subtrees and the state rows event ``e`` reads."""
            if e not in known:
                tokens = (src[e[1]],) if e[0] is None else nodes[e[0]][1]
                known[e] = set().union(*map(reads, tokens)), set().union(*map(rows, tokens))
            return known[e]

        readers = [set() for _ in states]       # per row: the events still to run that read it
        for e in events:
            for r in event_reads(e)[1]:
                readers[r].add(e)
        done: set[int] = set()
        order, waiting, made = [], [], set()

        def ready(e) -> bool:
            needs, _ = event_reads(e)
            row = into.get(e[0]) if e[1] is None else e[1]
            return needs <= done and (row is None or readers[row] <= {e})

        def run(e):
            """Run ``e``, then every waiting event that can run, in order."""
            while e is not None:
                order.append(e)
                done.add(e[0])
                for r in event_reads(e)[1]:
                    readers[r].discard(e)
                k = next((k for k, w in enumerate(waiting) if ready(w)), None)
                e = None if k is None else waiting.pop(k)

        for e in events:
            if ready(e):
                run(e)
            else:
                waiting.append(e)
        while waiting:
            k = next(k for k, e in enumerate(waiting) if e not in made)
            n, i = e = waiting.pop(k)
            for r in event_reads(e)[1]:
                readers[r].discard(e)
            if n is None:                       # a state copied into a slot
                nodes[len(count)] = (None, (src[i],))
                count.append(0)
                n = src[i] = len(count) - 1
                del known[e]                    # the store now copies the slot
            else:
                i = into.pop(n)
            made.add((None, i))
            waiting.insert(k, (None, i))
            run((n, None))
        return order

    events = [(n, None) for n in nodes if not inline(n)]
    if inplace:
        # the stores that read a state go first, so that one reading none
        # is never the first waiting event of a cycle
        stored = sorted((i for i, t in enumerate(derivs) if into.get(t) != i),
                        key=lambda i: not rows(derivs[i]))
        events = alias_safe(events + [(None, i) for i in stored])

    folds: dict = {}            # token -> the outputs it is, folded as it is computed
    for j, t in enumerate(outs if fold else ()):
        folds.setdefault(t, []).append(j)

    # each computed subtree is followed by its folds; a bundle's row mode
    # stores into the buffer row what is not computed there, and a call
    # without a matrix returns the derivatives
    to_o = [(j, t) for j, t in enumerate(outs)
            if inplace and not fold and (roots.get(t) != j or t in into or pow_(t))]
    statements = []
    for n, i in events:
        statements.append((None, (src[i],)) if n is None else (n, nodes[n][1]))
        if n in folds:
            statements.append((None, (n,)))
    slots = _slots(statements + [(None, (t,)) for _, t in to_o] + [(None, tuple(derivs))],
                   {n for n, i in events if n is not None and not pow_(n) and n not in into},
                   reads) if inplace else {}

    def target(n) -> str:
        if n in into:
            return f"_D[{into[n]}]"
        if n in roots and not fold:
            return f"(_s{slots[n]} if _o is None else _o[{roots[n]}])"
        return f"_s{slots[n]}"

    operands: dict[str, str] = {}   # source text rhs does not compute -> its _operand copy

    def operand(t) -> str:
        if isinstance(t, str) and t not in row_of:
            return operands.setdefault(t, f"_k{len(operands)}")
        return text(t)

    body: list[str] = []        # lines of rhs
    if inplace:                 # the caller's derivative matrix, or a fresh one
        body.append(f"_D = _empty(({len(states)}, *_shape)) if _d is None else _d")
    if fold:                    # a stage call folds nothing
        body += ["if _o is None:", "    _o = _skip"]
    body += [f"_o({j}, {operand(t)})" for t, js in folds.items() if isinstance(t, str)
             for j in js]       # the outputs rhs does not compute
    for n, i in events:
        if n is None:
            body.append(f"_D[{i}] = {text(src[i])}")
            continue
        e, args = nodes[n]
        if inplace and not pow_(n):
            ufunc = ("_positive" if e is None else _UFUNCS[e.op] if isinstance(e, ex.BinOp)
                     else "_negative")
            body.append(f"_t{n} = {ufunc}({', '.join([*map(operand, args), target(n)])})")
        else:
            body.append(f"_t{n} = {_spell(e, list(map(text, args)))}")
        body += [f"_o({j}, _t{n})" for j in folds.get(n, ())]
    if inplace:
        stores = [f"_o[{j}] = {text(t)}" for j, t in to_o]
    else:                       # one statement stores a point's whole row
        stores = [f"_o[:] = ({', '.join(map(text, outs))},)"] if outs else []
    if stores:
        body.append("if _o is not None:")
        body.extend(f"    {line}" for line in stores)
    values = f"({', '.join(map(text, derivs))}{',' if len(derivs) == 1 else ''})"
    if inplace:                 # without a matrix, the derivatives keep their types
        body += ["if _d is None:", f"    return {values}", "return _d"]
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
