"""Functional architectures: connected sub-functions, coverage, classification.

An architecture is a set of sub-functions wired implicitly by variable
identity (one producer per variable, fan-out allowed) together with the
top-level requirement it is meant to implement.  ``classify`` sorts every
variable into the ten exclusive groups that define the design space
(independent variables/parameters) and the performance space (dependent
variables).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

from . import expr as ex
from .errors import (CoverageViolation, ParseError, ProducerConflict,
                     ValidationError)
from .intervals import (RangeMap, VarId, names_intersect, names_subset,
                        names_union)
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

    def port_names(self) -> frozenset[VarId]:
        out = self.inputs.names() | self.outputs.names()
        out |= self.controllables.names() | self.uncontrollables.names()
        return frozenset(out)


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
            ports = {v.name for v in sf.port_names()}
            if isinstance(sf.kind, Algebraic):
                states = {s.name for s in sf.kind.states}
                for out, e in sf.kind.exprs:
                    if out not in {v.name for v in sf.outputs.names()}:
                        raise ValidationError(
                            f"{sf.id}: expression for '{out}' which is not an output port")
                    for name in sorted(ex.free_vars(e)):
                        if name not in ports and name not in const_names and name not in states:
                            raise ValidationError(
                                f"{sf.id}: expression references undeclared '{name}'")
                for st in sf.kind.states:
                    for name in sorted(ex.free_vars(st.derivative) | ex.free_vars(st.initial)):
                        if name not in ports and name not in const_names and name not in states:
                            raise ValidationError(
                                f"{sf.id}: state '{st.name}' references undeclared '{name}'")
            else:
                k = sf.kind
                if k.state not in {v.name for v in sf.outputs.names()}:
                    raise ValidationError(f"{sf.id}: integrator state '{k.state}' is not an output")
                for name in (k.derivative_input, k.initial_input):
                    if name not in ports:
                        raise ValidationError(f"{sf.id}: integrator references undeclared '{name}'")

    def constants_map(self) -> dict[str, float]:
        return dict(self.constants)

    def producer_of(self) -> dict[str, str]:
        """Map variable name -> producing sub-function id; raises on conflicts."""
        out: dict[str, str] = {}
        for sf in self.subfunctions:
            for v, _ in sf.outputs.items():
                if v.name in out:
                    raise ProducerConflict(v.name, (out[v.name], sf.id))
                out[v.name] = sf.id
        return out

    def consumers_of(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for sf in self.subfunctions:
            for v, _ in sf.inputs.items():
                out.setdefault(v.name, []).append(sf.id)
        return out


@dataclass(frozen=True)
class Classification:
    """The ten exclusive variable groups: six design-space groups
    (x, x_tilde, c, c_tilde, u, u_tilde) and four performance-space groups
    (y1: internal-only outputs, y2: internal links, y3: top outputs fed back
    into sub-functions, y4: terminal top outputs)."""

    x: frozenset[VarId]
    x_tilde: frozenset[VarId]
    c: frozenset[VarId]
    c_tilde: frozenset[VarId]
    u: frozenset[VarId]
    u_tilde: frozenset[VarId]
    y1: frozenset[VarId]
    y2: frozenset[VarId]
    y3: frozenset[VarId]
    y4: frozenset[VarId]

    def groups(self) -> dict[str, frozenset[VarId]]:
        return {"x": self.x, "x_tilde": self.x_tilde, "c": self.c,
                "c_tilde": self.c_tilde, "u": self.u, "u_tilde": self.u_tilde,
                "y1": self.y1, "y2": self.y2, "y3": self.y3, "y4": self.y4}


def aggregate_names(arch: Architecture) -> tuple[frozenset[VarId], frozenset[VarId],
                                                 frozenset[VarId], frozenset[VarId]]:
    """Union the per-sub-function port identifier sets into
    ({x'}, {y'}, {c'}, {u'})."""
    subs = arch.subfunctions
    return (names_union(*(sf.inputs.names() for sf in subs)),
            names_union(*(sf.outputs.names() for sf in subs)),
            names_union(*(sf.controllables.names() for sf in subs)),
            names_union(*(sf.uncontrollables.names() for sf in subs)))


def validate_coverage(arch: Architecture) -> None:
    """Every top-level variable must be defined somewhere in the architecture;
    raises CoverageViolation listing all missing names."""
    xs, ys, cs, us = aggregate_names(arch)
    missing: list[str] = []
    for top_set, arch_set, label in ((arch.top.inputs.names(), xs, "input"),
                                     (arch.top.controllables.names(), cs, "controllable"),
                                     (arch.top.uncontrollables.names(), us, "uncontrollable"),
                                     (arch.top.outputs.names(), ys, "output")):
        if not names_subset(top_set, arch_set):
            missing.extend(f"{v.name} ({label})" for v in sorted(top_set, key=lambda v: v.name)
                           if v.name not in {a.name for a in arch_set})
    if missing:
        raise CoverageViolation(missing, "top-level variables absent from the architecture")


def _minus(a: Iterable[VarId], *others: Iterable[VarId]) -> frozenset[VarId]:
    drop = {v.name for o in others for v in o}
    return frozenset(v for v in a if v.name not in drop)


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

    c_tilde = _minus(cs, top_c)
    u_tilde = _minus(us, top_u)
    y1 = _minus(ys, top_y, xs)
    y2 = _minus(names_intersect(ys, xs), top_y)
    y3 = names_intersect(top_y, xs)
    y4 = _minus(top_y, xs)
    x_tilde = _minus(xs, ys, top_x)

    cls = Classification(x=frozenset(top_x), x_tilde=x_tilde,
                         c=frozenset(top_c), c_tilde=c_tilde,
                         u=frozenset(top_u), u_tilde=u_tilde,
                         y1=y1, y2=y2, y3=y3, y4=y4)

    # exclusive + exhaustive, asserted by construction
    all_names = [v.name for g in cls.groups().values() for v in g]
    assert len(all_names) == len(set(all_names)), "classification groups overlap"
    universe = {v.name for s in (xs, ys, cs, us, top_x, top_y, top_c, top_u) for v in s}
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
