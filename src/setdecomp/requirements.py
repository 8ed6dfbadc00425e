"""Functional-requirement contracts, refinement and composability.

A ``FunctionalRequirement`` is a constrained mapping from admissible input,
uncontrollable-parameter and controllable-parameter ranges to guaranteed
output ranges.  ``check_refines`` and ``check_composable`` implement the two
relations that make independently developed sub-requirements safe to compose.
``links`` derives, once, every producer->consumer pair of a set of parts
with its composability verdict; ``compose`` takes its precondition from
those links and builds the composite contract the laws talk about.  A
caller that already holds the links assembles the composite directly.
Contracts key their ranges by variable name; the unit is on the range, and
both relations raise :class:`UnitMismatch` where a variable's two ranges
differ in unit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

from .errors import NotComposable, UnitMismatch, ValidationError
from .intervals import Interval, RangeMap, rangemap_merge

__all__ = [
    "TimedOutputSpec", "FunctionalRequirement",
    "RefinementResult", "ComposabilityResult",
    "check_refines", "check_composable", "links", "compose",
    "fr_to_dict", "fr_from_dict", "load_fr", "save_fr",
]


@dataclass(frozen=True)
class TimedOutputSpec:
    """Extra time-windowed bounds on one output variable: the variable must
    stay inside ``interval`` for every t in [t_start, t_end]."""

    variable: str
    windows: tuple[tuple[float, float, Interval], ...]

    def __post_init__(self):
        for t0, t1, iv in self.windows:
            if t0 > t1:
                raise ValidationError(f"window [{t0},{t1}] for {self.variable} is reversed")


@dataclass(frozen=True)
class FunctionalRequirement:
    """The contract (inputs, uncontrollables, controllables) -> outputs.

    The four key sets must be pairwise disjoint, and a time window of an
    output must carry that output's unit (else :class:`UnitMismatch`).
    """

    name: str
    inputs: RangeMap = field(default_factory=RangeMap)
    outputs: RangeMap = field(default_factory=RangeMap)
    controllables: RangeMap = field(default_factory=RangeMap)
    uncontrollables: RangeMap = field(default_factory=RangeMap)
    timed_outputs: tuple[TimedOutputSpec, ...] = ()

    def __post_init__(self):
        maps = {
            "inputs": self.inputs, "outputs": self.outputs,
            "controllables": self.controllables, "uncontrollables": self.uncontrollables,
        }
        seen: dict[str, str] = {}
        for role, m in maps.items():
            for v in m:
                if v in seen:
                    raise ValidationError(
                        f"{self.name}: variable '{v}' appears in both "
                        f"{seen[v]} and {role}")
                seen[v] = role
        for ts in self.timed_outputs:
            if ts.variable in self.outputs:
                unit = self.outputs[ts.variable].unit
                for _, _, iv in ts.windows:
                    if iv.unit != unit:
                        raise UnitMismatch(ts.variable, unit, iv.unit)


@dataclass(frozen=True)
class RefinementResult:
    ok: bool
    witness_var: str | None = None
    clause: str | None = None
    refining: Interval | None = None
    refined: Interval | None = None

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class ComposabilityResult:
    ok: bool
    shared: frozenset[str] = frozenset()
    witness_var: str | None = None
    producer_range: Interval | None = None
    consumer_range: Interval | None = None

    def __bool__(self):
        return self.ok


#: the roles ``check_refines`` compares, in order, each with what the refiner
#: must do to the refined range: widen it (input-like) or tighten it
#: (output-like); the last two apply only under ``strict``
_REFINED_ROLES = (("inputs", "widened"), ("outputs", "tightened"),
                  ("uncontrollables", "widened"), ("controllables", "tightened"))


def check_refines(fr_new: FunctionalRequirement, fr_old: FunctionalRequirement,
                  *, strict: bool = True) -> RefinementResult:
    """Does ``fr_new`` refine ``fr_old``?

    The core relation: the refiner defines every input/output of the refined
    contract, accepts at least its input ranges, and guarantees output ranges
    at least as tight.  With ``strict=True`` the same direction rules are
    additionally applied to uncontrollables (input-like: the refiner must
    tolerate at least as much) and controllables (output-like: the refiner
    must promise a subset); this extension is flagged in reports and can be
    switched off.  A variable whose two ranges differ in unit raises
    :class:`UnitMismatch` (refining unit first).
    """
    for role, must in _REFINED_ROLES if strict else _REFINED_ROLES[:2]:
        kind, new = role[:-1], getattr(fr_new, role)
        for v, iv_old in getattr(fr_old, role).items():
            if v not in new:
                return RefinementResult(False, v, f"{kind}-missing", None, iv_old)
            iv_new = new[v]
            if iv_new.unit != iv_old.unit:
                raise UnitMismatch(v, iv_new.unit, iv_old.unit)
            outer, inner = (iv_new, iv_old) if must == "widened" else (iv_old, iv_new)
            if not outer.contains_interval(inner):
                return RefinementResult(False, v, f"{kind}-not-{must}", iv_new, iv_old)
    return RefinementResult(True)


def check_composable(fr_j: FunctionalRequirement, fr_k: FunctionalRequirement) -> ComposabilityResult:
    """Can ``fr_j`` feed ``fr_k``?  True iff they share at least one
    output->input variable and, for each shared variable, the producer's
    range fits inside the consumer's.  A shared variable whose two ranges
    differ in unit raises :class:`UnitMismatch` (producer unit first)."""
    shared = fr_j.outputs.names() & fr_k.inputs.names()
    if not shared:
        return ComposabilityResult(False, frozenset())
    for v in sorted(shared):
        prod, cons = fr_j.outputs[v], fr_k.inputs[v]
        if prod.unit != cons.unit:
            raise UnitMismatch(v, prod.unit, cons.unit)
        if not cons.contains_interval(prod):
            return ComposabilityResult(False, shared, v, prod, cons)
    return ComposabilityResult(True, shared)


def links(frs: Iterable[FunctionalRequirement]
          ) -> list[tuple[FunctionalRequirement, FunctionalRequirement, ComposabilityResult]]:
    """Every producer->consumer pair of ``frs``: each pair of parts where the
    first produces a variable the second consumes, listed once, in
    (producer position, consumer position) order, with its
    :func:`check_composable` result.

    Raises :class:`NotComposable` when two parts produce one variable.
    """
    frs = tuple(frs)
    producer: dict[str, int] = {}
    for j, fr in enumerate(frs):
        for v, _ in fr.outputs.items():
            if v in producer:
                raise NotComposable(frs[producer[v]].name, fr.name, v,
                                    "two producers for one variable")
            producer[v] = j
    # a contract never holds one variable as both input and output, so a
    # part is never its own producer
    pairs = sorted({(producer[v], k) for k, fr in enumerate(frs)
                    for v in fr.inputs if v in producer})
    return [(frs[j], frs[k], check_composable(frs[j], frs[k])) for j, k in pairs]


def compose(frs: list[FunctionalRequirement] | tuple[FunctionalRequirement, ...],
            name: str = "composite") -> FunctionalRequirement:
    """Build the composite contract of a set of requirements whose
    producer->consumer links all compose (see :func:`_assemble`).

    Preconditions: a single producer per variable, and every consumed
    range contains the range its producer promises; the first violation in
    :func:`links` order raises :class:`NotComposable`.
    """
    frs = tuple(frs)
    if not frs:
        raise ValidationError("compose() needs at least one requirement")
    for fr_j, fr_k, res in links(frs):
        if not res:
            raise NotComposable(fr_j.name, fr_k.name, res.witness_var,
                                f"{res.producer_range!r} not within {res.consumer_range!r}")
    return _assemble(frs, name)


def _assemble(frs: tuple[FunctionalRequirement, ...], name: str) -> FunctionalRequirement:
    """The composite contract of parts whose :func:`links` are already known
    to compose.  Internal shared variables (produced by one part, consumed
    by another) are hidden from the interface.  Exposed input ranges come
    from the consumer side, exposed output ranges from the producer side."""
    produced = {v for fr in frs for v in fr.outputs}
    exposed_inputs = rangemap_merge(*(fr.inputs.without(produced) for fr in frs),
                                    context="composite inputs")
    exposed_outputs = RangeMap(item for fr in frs for item in fr.outputs.items())
    controllables = rangemap_merge(*(fr.controllables for fr in frs),
                                   context="composite controllables")
    uncontrollables = rangemap_merge(*(fr.uncontrollables for fr in frs),
                                     context="composite uncontrollables")

    return FunctionalRequirement(
        name=name, inputs=exposed_inputs, outputs=exposed_outputs,
        controllables=controllables, uncontrollables=uncontrollables)


# --- JSON (de)serialization -------------------------------------------------

def _map_to_dict(m: RangeMap) -> dict:
    return {v: {"lo": iv.lo, "hi": iv.hi, "unit": iv.unit} for v, iv in m.items()}


def _map_from_dict(d: dict) -> RangeMap:
    return RangeMap((name, Interval(spec["lo"], spec["hi"], spec.get("unit", "")))
                    for name, spec in d.items())


def fr_to_dict(fr: FunctionalRequirement) -> dict:
    d = {
        "name": fr.name,
        "inputs": _map_to_dict(fr.inputs),
        "outputs": _map_to_dict(fr.outputs),
        "controllables": _map_to_dict(fr.controllables),
        "uncontrollables": _map_to_dict(fr.uncontrollables),
    }
    if fr.timed_outputs:
        d["timed_outputs"] = [
            {"variable": ts.variable,
             "windows": [{"t_start": t0, "t_end": t1,
                          "lo": iv.lo, "hi": iv.hi, "unit": iv.unit}
                         for t0, t1, iv in ts.windows]}
            for ts in fr.timed_outputs
        ]
    return d


def fr_from_dict(d: dict) -> FunctionalRequirement:
    """Parse a contract document; a missing key or a value of the wrong type
    raises :class:`ValidationError`."""
    try:
        outputs = _map_from_dict(d.get("outputs", {}))
        timed = []
        for ts in d.get("timed_outputs", []):
            unit = outputs[ts["variable"]].unit
            windows = tuple(
                (w["t_start"], w["t_end"], Interval(w["lo"], w["hi"], w.get("unit", unit)))
                for w in ts["windows"])
            timed.append(TimedOutputSpec(ts["variable"], windows))
        return FunctionalRequirement(
            name=d["name"],
            inputs=_map_from_dict(d.get("inputs", {})),
            outputs=outputs,
            controllables=_map_from_dict(d.get("controllables", {})),
            uncontrollables=_map_from_dict(d.get("uncontrollables", {})),
            timed_outputs=tuple(timed),
        )
    except (KeyError, TypeError, AttributeError) as e:
        raise ValidationError(f"bad requirement document: {e!r}") from e


def load_fr(path) -> FunctionalRequirement:
    with open(path, "r", encoding="utf-8") as fh:
        return fr_from_dict(json.load(fh))


def save_fr(fr: FunctionalRequirement, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fr_to_dict(fr), fh, indent=2, sort_keys=True)
        fh.write("\n")
