"""Functional architectures: connected sub-functions, coverage, classification.

An architecture is a set of sub-functions wired implicitly by variable name
(one producer per variable, fan-out allowed) together with the top-level
requirement it is meant to implement.  Each output of a sub-function is an
expression or a state of the same name (an integrator); its other states
are hidden.  The wiring is checked once, at construction: one role and one
producer per variable, one definition per output, states and constants
that shadow nothing.  ``classify`` sorts every variable into the ten
exclusive groups that define the design space (independent
variables/parameters) and the performance space (dependent variables).  Wiring and classification work on
names alone; the units of one variable's port ranges are checked where
those ranges are merged (``narrowing.initial_spaces``).
``Architecture.assignments`` is the one dependency order of the expression
outputs, derived once per architecture; the ODE compiler and feasibility
restoration both walk it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property

from . import expr as ex
from .errors import AlgebraicCycle, CoverageViolation, ProducerConflict, ValidationError
from .intervals import RangeMap
from .requirements import FunctionalRequirement, _map_from_dict, fr_from_dict, read_json

__all__ = [
    "State", "SubFunction",
    "Architecture", "Classification",
    "aggregate_names", "validate_coverage", "classify",
    "load_architecture", "architecture_from_dict",
]


@dataclass(frozen=True)
class State:
    """d(name)/dt = derivative, name(0) = initial.  A state named like an
    output port of its own sub-function is that output (an integrator); any
    other state is hidden (such as the integral term of a PI controller)."""

    name: str
    derivative: ex.Expr
    initial: ex.Expr


@dataclass(frozen=True)
class SubFunction:
    id: str
    exprs: tuple[tuple[str, ex.Expr], ...] = ()  # (output name, expression)
    states: tuple[State, ...] = ()
    inputs: RangeMap = field(default_factory=RangeMap)
    outputs: RangeMap = field(default_factory=RangeMap)
    controllables: RangeMap = field(default_factory=RangeMap)
    uncontrollables: RangeMap = field(default_factory=RangeMap)

    def port_names(self) -> frozenset[str]:
        return (self.inputs.names() | self.outputs.names()
                | self.controllables.names() | self.uncontrollables.names())


#: a sub-function's port roles, as attribute names
_ROLES = ("inputs", "outputs", "controllables", "uncontrollables")


@dataclass(frozen=True)
class Architecture:
    top: FunctionalRequirement
    subfunctions: tuple[SubFunction, ...]
    constants: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        ids = [sf.id for sf in self.subfunctions]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate sub-function ids")
        declared_in = self._check_roles()
        const_names = {k for k, _ in self.constants}
        for name in sorted(const_names & declared_in.keys()):  # the port would overwrite it
            raise ValidationError(f"constant '{name}' collides with a port of {declared_in[name]}")
        design = declared_in.keys() - self.producer_of().keys()
        taken = {k: "a constant" for k in const_names}  # names no state may take
        for sf in self.subfunctions:
            outputs = sf.outputs.names()
            defined = [out for out, _ in sf.exprs] + [s.name for s in sf.states if s.name in outputs]
            for out in sorted(set(defined) - outputs):
                raise ValidationError(f"{sf.id}: expression for '{out}' which is not an output port")
            for out in sorted(outputs):
                if (n := defined.count(out)) != 1:
                    raise ValidationError(f"{sf.id}: output '{out}' has {n or 'no'} "
                                          "expressions or states, not one")
            known = sf.port_names() | const_names | {st.name for st in sf.states}
            refs = [("expression", ex.free_vars(e)) for _, e in sf.exprs] + [
                (f"state '{st.name}'", ex.free_vars(st.derivative) | ex.free_vars(st.initial))
                for st in sf.states]
            for what, names in refs:
                for name in sorted(names - known):
                    raise ValidationError(f"{sf.id}: {what} references undeclared '{name}'")
            for st in sf.states:  # an argument of the compiled right-hand side
                clash = taken.get(st.name) or (st.name in declared_in and st.name not in outputs
                                               and f"a port of {declared_in[st.name]}")
                if clash:
                    raise ValidationError(f"{sf.id}: state '{st.name}' collides with {clash}")
                taken[st.name] = f"a state of {sf.id}"
                for name in sorted(ex.free_vars(st.initial) - const_names - design):
                    raise ValidationError(f"{sf.id}: initial value of state '{st.name}' reads "
                                          f"'{name}', neither a constant nor a design variable")

    def _check_roles(self) -> dict[str, str]:
        """Check that each variable has one role and one producer, except a
        link: an output read as another sub-function's input.  Returns where
        each variable is first declared."""
        seen: dict[str, list[tuple[str, object, str]]] = {}  # variable -> (role, holder, label)
        for holder, label in [(sf, sf.id) for sf in self.subfunctions] + [(self.top, "top")]:
            for role in _ROLES:
                for v in getattr(holder, role).names():
                    for role0, holder0, label0 in seen.setdefault(v, []):
                        if role == role0 == "outputs" and holder is not self.top:
                            raise ProducerConflict(v, (label0, label))
                        link = (holder0 is not holder and {role0, role} == {"inputs", "outputs"}
                                and not (holder is self.top and role == "inputs"))
                        if role0 != role and not link:
                            raise ValidationError(f"variable '{v}' is {role0[:-1]} in {label0} "
                                                  f"and {role[:-1]} in {label}")
                    seen[v].append((role, holder, label))
        return {v: decls[0][2] for v, decls in seen.items()}

    @cached_property
    def assignments(self) -> tuple[tuple[SubFunction, str, ex.Expr], ...]:
        """Every expression output as (sub-function, output, expression), in
        an order where each expression comes after the outputs it reads:
        declaration order wherever the dependencies allow.  Derived once per
        architecture; a cycle raises :class:`AlgebraicCycle` naming every
        output it leaves unordered."""
        entries = [(sf, out, e) for sf in self.subfunctions for out, e in sf.exprs]
        index = {out: k for k, (_, out, _) in enumerate(entries)}
        waiting = [0] * len(entries)           # unordered outputs each one reads
        readers: list[list[int]] = [[] for _ in entries]
        for k, (_, _, e) in enumerate(entries):
            for name in ex.free_vars(e):
                if name in index:
                    waiting[k] += 1
                    readers[index[name]].append(k)
        ready = [k for k, n in enumerate(waiting) if n == 0]
        order: list[int] = []
        while ready:
            k = heapq.heappop(ready)          # the earliest declared ready output
            order.append(k)
            for r in readers[k]:
                waiting[r] -= 1
                if waiting[r] == 0:
                    heapq.heappush(ready, r)
        if len(order) < len(entries):
            raise AlgebraicCycle(sorted(out for (_, out, _), n in zip(entries, waiting) if n))
        return tuple(entries[k] for k in order)

    @cached_property
    def rhs_sources(self) -> dict:
        """The right-hand-side sources ``codegen`` generates for this
        architecture, by parameter names, outputs, mode and literal form,
        each generated once per architecture as ``assignments`` is derived
        once.  The parameters' values enter no source, so the envelopes of
        all design points share them."""
        return {}

    def producer_of(self) -> dict[str, str]:
        """Map variable name -> producing sub-function id (one per variable,
        checked at construction)."""
        return {v: sf.id for sf in self.subfunctions for v in sf.outputs.names()}

    def consumers_of(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for sf in self.subfunctions:
            for v, _ in sf.inputs.items():
                out.setdefault(v, []).append(sf.id)
        return out


@dataclass(frozen=True)
class Classification:
    """The ten exclusive variable groups: six design-space groups
    (x, x_tilde, c, c_tilde, u, u_tilde) and four performance-space groups
    (y1: internal-only outputs, y2: internal links, y3: top outputs fed back
    into sub-functions, y4: terminal top outputs)."""

    x: frozenset[str]
    x_tilde: frozenset[str]
    c: frozenset[str]
    c_tilde: frozenset[str]
    u: frozenset[str]
    u_tilde: frozenset[str]
    y1: frozenset[str]
    y2: frozenset[str]
    y3: frozenset[str]
    y4: frozenset[str]

    def groups(self) -> dict[str, frozenset[str]]:
        return {"x": self.x, "x_tilde": self.x_tilde, "c": self.c,
                "c_tilde": self.c_tilde, "u": self.u, "u_tilde": self.u_tilde,
                "y1": self.y1, "y2": self.y2, "y3": self.y3, "y4": self.y4}


def aggregate_names(arch: Architecture) -> tuple[frozenset[str], frozenset[str],
                                                 frozenset[str], frozenset[str]]:
    """Union the per-sub-function port name sets into
    ({x'}, {y'}, {c'}, {u'})."""
    return tuple(frozenset().union(*(getattr(sf, role).names() for sf in arch.subfunctions))
                 for role in _ROLES)


def validate_coverage(arch: Architecture) -> None:
    """Every top-level variable must be defined somewhere in the architecture;
    raises CoverageViolation listing all missing names."""
    xs, ys, cs, us = aggregate_names(arch)
    missing: list[str] = []
    for top_set, arch_set, label in ((arch.top.inputs.names(), xs, "input"),
                                     (arch.top.controllables.names(), cs, "controllable"),
                                     (arch.top.uncontrollables.names(), us, "uncontrollable"),
                                     (arch.top.outputs.names(), ys, "output")):
        missing.extend(f"{v} ({label})" for v in sorted(top_set - arch_set))
    if missing:
        raise CoverageViolation(missing, "top-level variables absent from the architecture")


def classify(arch: Architecture) -> Classification:
    """Split all variables of the architecture and its top requirement into
    the ten exclusive groups.  Requires coverage to hold; construction has
    already given every variable one role and one producer, which keeps the
    groups exclusive."""
    validate_coverage(arch)

    xs, ys, cs, us = aggregate_names(arch)
    top_x = arch.top.inputs.names()
    top_y = arch.top.outputs.names()
    top_c = arch.top.controllables.names()
    top_u = arch.top.uncontrollables.names()

    cls = Classification(x=top_x, x_tilde=xs - ys - top_x,
                         c=top_c, c_tilde=cs - top_c,
                         u=top_u, u_tilde=us - top_u,
                         y1=ys - top_y - xs, y2=(ys & xs) - top_y,
                         y3=top_y & xs, y4=top_y - xs)

    all_names = [v for g in cls.groups().values() for v in g]
    universe = xs | ys | cs | us | top_x | top_y | top_c | top_u
    assert set(all_names) == universe, "classification does not cover all variables"
    return cls


# --- JSON loading -------------------------------------------------------------

def _subfunction_from_dict(d: dict) -> SubFunction:
    """An ``"algebraic"`` document lists expressions and states; an
    ``"integrator"`` one is a single state exposed as its output."""
    sf_id = _name(d["id"], "sub-function id")
    kind_tag = d.get("kind")
    if kind_tag == "integrator":
        state, derivative, initial = (_name(d[key], f"{sf_id}: {key}") for key in
                                      ("state", "derivative_input", "initial_input"))
        if state not in d.get("outputs", {}):
            raise ValidationError(f"{sf_id}: integrator state '{state}' is not an output")
        exprs = ()
        states = (State(state, ex.Var(derivative), ex.Var(initial)),)
    elif kind_tag == "algebraic":
        exprs = tuple(sorted(((out, ex.parse_expr(e)) for out, e in d["exprs"].items())))
        states = tuple(State(_name(s["name"], f"{sf_id}: state name"),
                             ex.parse_expr(s["derivative"]), ex.parse_expr(s.get("initial", 0.0)))
                       for s in d.get("states", []))
    else:
        raise ValidationError(f"sub-function '{sf_id}': unknown kind {kind_tag!r}")
    return SubFunction(
        id=sf_id, exprs=exprs, states=states,
        inputs=_map_from_dict(d.get("inputs", {})),
        outputs=_map_from_dict(d.get("outputs", {})),
        controllables=_map_from_dict(d.get("controllables", {})),
        uncontrollables=_map_from_dict(d.get("uncontrollables", {})),
    )


def _name(value, what: str) -> str:
    """``value``, the name of a sub-function, port or state, which must be
    a string: any other JSON value would fail later, unhashable or as a
    variable no expression can read."""
    if not isinstance(value, str):
        raise ValidationError(f"{what} is not a string: {value!r}")
    return value


def _finite(value, what: str) -> float:
    """``value``, a constant or a trade-off weight, which must be a finite
    number: Python's ``json`` reads NaN and Infinity, an integer may be
    beyond float range, ``true`` is an ``int``, and ``float`` would read a
    string.  ``what`` names the value in the error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} is not a number: {value!r}")
    try:
        x = float(value)
    except OverflowError:       # an integer beyond float range
        x = math.inf
    if not math.isfinite(x):
        raise ValidationError(f"{what} is not finite")
    return x


def architecture_from_dict(d: dict) -> Architecture:
    try:
        top = fr_from_dict(d["top"])
        subs = tuple(_subfunction_from_dict(s) for s in d["subfunctions"])
        constants = tuple(sorted((k, _finite(v, f"constant '{k}'"))
                                 for k, v in d.get("constants", {}).items()))
    except (KeyError, TypeError, AttributeError) as e:
        raise ValidationError(f"bad architecture document: {e}") from e
    return Architecture(top=top, subfunctions=subs, constants=constants)


def load_architecture(path) -> tuple[Architecture, dict]:
    """Load an architecture file; returns (architecture, raw document) so the
    caller can pick up auxiliary sections such as trade-off weights."""
    doc = read_json(path)
    return architecture_from_dict(doc), doc
