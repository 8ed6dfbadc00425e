"""Functional architectures: connected sub-functions, coverage, classification.

An architecture is a set of sub-functions wired implicitly by variable
name (one producer per variable, fan-out allowed) together with the
top-level requirement it is meant to implement.  ``classify`` sorts every
variable into the ten exclusive groups that define the design space
(independent variables/parameters) and the performance space (dependent
variables).  Wiring and classification work on names alone; the units of
one variable's port ranges are checked where those ranges are merged
(``narrowing.initial_spaces``).  ``Architecture.assignments`` is the one
dependency order of the algebraic outputs, derived once per architecture;
the ODE compiler and feasibility restoration both walk it.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from functools import cached_property

from . import expr as ex
from .errors import (AlgebraicCycle, CoverageViolation, ParseError,
                     ProducerConflict, ValidationError)
from .intervals import RangeMap
from .requirements import FunctionalRequirement, _map_from_dict, fr_from_dict

__all__ = [
    "InternalState", "Algebraic", "Integrator", "SubFunction",
    "Architecture", "Classification",
    "aggregate_names", "validate_coverage", "classify",
    "load_architecture", "architecture_from_dict",
]


@dataclass(frozen=True)
class InternalState:
    """A hidden integrator state inside a sub-function (used to model the
    integral term of a PI controller without exposing it as a port)."""

    name: str
    derivative: ex.Expr
    initial: ex.Expr


@dataclass(frozen=True)
class Algebraic:
    """Static sub-function: each output is an expression over ports,
    constants and (optionally) hidden internal states."""

    exprs: tuple[tuple[str, ex.Expr], ...]  # (output name, expression)
    states: tuple[InternalState, ...] = ()


@dataclass(frozen=True)
class Integrator:
    """Pure integrator: output = state, d(state)/dt = derivative input,
    state(0) = initial input."""

    state: str
    derivative_input: str
    initial_input: str


@dataclass(frozen=True)
class SubFunction:
    id: str
    kind: Algebraic | Integrator
    inputs: RangeMap = field(default_factory=RangeMap)
    outputs: RangeMap = field(default_factory=RangeMap)
    controllables: RangeMap = field(default_factory=RangeMap)
    uncontrollables: RangeMap = field(default_factory=RangeMap)

    def port_names(self) -> frozenset[str]:
        return (self.inputs.names() | self.outputs.names()
                | self.controllables.names() | self.uncontrollables.names())


@dataclass(frozen=True)
class Architecture:
    top: FunctionalRequirement
    subfunctions: tuple[SubFunction, ...]
    constants: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        ids = [sf.id for sf in self.subfunctions]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate sub-function ids")
        # referenced names must be ports, constants, or declared internal state
        const_names = {k for k, _ in self.constants}
        for sf in self.subfunctions:
            ports = sf.port_names()
            if isinstance(sf.kind, Algebraic):
                assigned = {out for out, _ in sf.kind.exprs}
                for out in sorted(assigned ^ sf.outputs.names()):
                    raise ValidationError(
                        f"{sf.id}: expression for '{out}' which is not an output port"
                        if out in assigned else f"{sf.id}: output '{out}' has no expression")
                known = ports | const_names | {s.name for s in sf.kind.states}
                refs = [("expression", ex.free_vars(e)) for _, e in sf.kind.exprs] + [
                    (f"state '{st.name}'", ex.free_vars(st.derivative) | ex.free_vars(st.initial))
                    for st in sf.kind.states]
                for what, names in refs:
                    for name in sorted(names - known):
                        raise ValidationError(f"{sf.id}: {what} references undeclared '{name}'")
            else:
                k = sf.kind
                if k.state not in sf.outputs:
                    raise ValidationError(f"{sf.id}: integrator state '{k.state}' is not an output")
                for name in (k.derivative_input, k.initial_input):
                    if name not in ports:
                        raise ValidationError(f"{sf.id}: integrator references undeclared '{name}'")

    @cached_property
    def assignments(self) -> tuple[tuple[SubFunction, str, ex.Expr], ...]:
        """Every algebraic output as (sub-function, output, expression), in
        an order where each expression comes after the outputs it reads:
        declaration order wherever the dependencies allow.  Derived once per
        architecture; a cycle raises :class:`AlgebraicCycle` naming every
        output it leaves unordered."""
        self.producer_of()  # raises ProducerConflict if violated
        entries = [(sf, out, e) for sf in self.subfunctions
                   if isinstance(sf.kind, Algebraic) for out, e in sf.kind.exprs]
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

    def producer_of(self) -> dict[str, str]:
        """Map variable name -> producing sub-function id; raises on conflicts."""
        out: dict[str, str] = {}
        for sf in self.subfunctions:
            for v, _ in sf.outputs.items():
                if v in out:
                    raise ProducerConflict(v, (out[v], sf.id))
                out[v] = sf.id
        return out

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
                 for role in ("inputs", "outputs", "controllables", "uncontrollables"))


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
    the ten exclusive groups.  Requires coverage to hold and a single
    producer per variable."""
    validate_coverage(arch)
    arch.producer_of()  # raises ProducerConflict if violated

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

    # exclusive + exhaustive, asserted by construction
    all_names = [v for g in cls.groups().values() for v in g]
    assert len(all_names) == len(set(all_names)), "classification groups overlap"
    universe = xs | ys | cs | us | top_x | top_y | top_c | top_u
    assert set(all_names) == universe, "classification does not cover all variables"
    return cls


# --- JSON loading -------------------------------------------------------------

def _subfunction_from_dict(d: dict) -> SubFunction:
    kind_tag = d.get("kind")
    if kind_tag == "integrator":
        kind = Integrator(state=d["state"], derivative_input=d["derivative_input"],
                          initial_input=d["initial_input"])
    elif kind_tag == "algebraic":
        exprs = tuple(sorted(((out, ex.parse_expr(e)) for out, e in d["exprs"].items())))
        states = tuple(InternalState(s["name"], ex.parse_expr(s["derivative"]),
                                     ex.parse_expr(s.get("initial", 0.0)))
                       for s in d.get("states", []))
        kind = Algebraic(exprs=exprs, states=states)
    else:
        raise ValidationError(f"sub-function '{d.get('id', '?')}': unknown kind {kind_tag!r}")
    return SubFunction(
        id=d["id"], kind=kind,
        inputs=_map_from_dict(d.get("inputs", {})),
        outputs=_map_from_dict(d.get("outputs", {})),
        controllables=_map_from_dict(d.get("controllables", {})),
        uncontrollables=_map_from_dict(d.get("uncontrollables", {})),
    )


def architecture_from_dict(d: dict) -> Architecture:
    try:
        top = fr_from_dict(d["top"])
        subs = tuple(_subfunction_from_dict(s) for s in d["subfunctions"])
        constants = tuple(sorted((k, float(v)) for k, v in d.get("constants", {}).items()))
    except (KeyError, TypeError, AttributeError) as e:
        raise ValidationError(f"bad architecture document: {e}") from e
    return Architecture(top=top, subfunctions=subs, constants=constants)


def load_architecture(path) -> tuple[Architecture, dict]:
    """Load an architecture file; returns (architecture, raw document) so the
    caller can pick up auxiliary sections such as trade-off weights."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from e
    return architecture_from_dict(doc), doc
