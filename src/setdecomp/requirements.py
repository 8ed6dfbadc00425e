"""Functional-requirement contracts, refinement and composability.

A ``FunctionalRequirement`` is a constrained mapping from admissible input,
uncontrollable-parameter and controllable-parameter ranges to guaranteed
output ranges.  ``check_refines`` and ``check_composable`` implement the two
relations that make independently developed sub-requirements safe to compose.
``links`` derives, once, every producer->consumer pair of a set of parts
with its composability verdict; ``compose`` takes its precondition from
those links and builds the composite contract the laws talk about.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

from .errors import NotComposable, ValidationError
from .intervals import Interval, RangeMap, VarId, names_intersect, rangemap_merge

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

    variable: VarId
    windows: tuple[tuple[float, float, Interval], ...]

    def __post_init__(self):
        for t0, t1, iv in self.windows:
            if t0 > t1:
                raise ValueError(f"window [{t0},{t1}] for {self.variable.name} is reversed")


@dataclass(frozen=True)
class FunctionalRequirement:
    """The contract (inputs, uncontrollables, controllables) -> outputs.

    The four key sets must be pairwise disjoint.
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
                if v.name in seen:
                    raise ValueError(
                        f"{self.name}: variable '{v.name}' appears in both "
                        f"{seen[v.name]} and {role}")
                seen[v.name] = role


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
    shared: frozenset[VarId] = frozenset()
    witness_var: str | None = None
    producer_range: Interval | None = None
    consumer_range: Interval | None = None

    def __bool__(self):
        return self.ok


def check_refines(fr_new: FunctionalRequirement, fr_old: FunctionalRequirement,
                  *, strict: bool = True) -> RefinementResult:
    """Does ``fr_new`` refine ``fr_old``?

    The core relation: the refiner defines every input/output of the refined
    contract, accepts at least its input ranges, and guarantees output ranges
    at least as tight.  With ``strict=True`` the same direction rules are
    additionally applied to uncontrollables (input-like: the refiner must
    tolerate at least as much) and controllables (output-like: the refiner
    must promise a subset); this extension is flagged in reports and can be
    switched off.
    """
    for v, iv_old in fr_old.inputs.items():
        if v not in fr_new.inputs:
            return RefinementResult(False, v.name, "input-missing", None, iv_old)
        iv_new = fr_new.inputs[v]
        if not iv_new.contains_interval(iv_old):
            return RefinementResult(False, v.name, "input-not-widened", iv_new, iv_old)
    for v, iv_old in fr_old.outputs.items():
        if v not in fr_new.outputs:
            return RefinementResult(False, v.name, "output-missing", None, iv_old)
        iv_new = fr_new.outputs[v]
        if not iv_old.contains_interval(iv_new):
            return RefinementResult(False, v.name, "output-not-tightened", iv_new, iv_old)
    if strict:
        for v, iv_old in fr_old.uncontrollables.items():
            if v not in fr_new.uncontrollables:
                return RefinementResult(False, v.name, "uncontrollable-missing", None, iv_old)
            iv_new = fr_new.uncontrollables[v]
            if not iv_new.contains_interval(iv_old):
                return RefinementResult(False, v.name, "uncontrollable-not-widened",
                                        iv_new, iv_old)
        for v, iv_old in fr_old.controllables.items():
            if v not in fr_new.controllables:
                return RefinementResult(False, v.name, "controllable-missing", None, iv_old)
            iv_new = fr_new.controllables[v]
            if not iv_old.contains_interval(iv_new):
                return RefinementResult(False, v.name, "controllable-not-tightened",
                                        iv_new, iv_old)
    return RefinementResult(True)


def check_composable(fr_j: FunctionalRequirement, fr_k: FunctionalRequirement) -> ComposabilityResult:
    """Can ``fr_j`` feed ``fr_k``?  True iff they share at least one
    output->input variable and, for each shared variable, the producer's
    range fits inside the consumer's."""
    shared = names_intersect(fr_j.outputs.names(), fr_k.inputs.names())
    if not shared:
        return ComposabilityResult(False, frozenset())
    for v in sorted(shared, key=lambda v: v.name):
        prod, cons = fr_j.outputs[v], fr_k.inputs[v]
        if not cons.contains_interval(prod):
            return ComposabilityResult(False, shared, v.name, prod, cons)
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
            if v.name in producer:
                raise NotComposable(frs[producer[v.name]].name, fr.name, v.name,
                                    "two producers for one variable")
            producer[v.name] = j
    # a contract never holds one variable as both input and output, so a
    # part is never its own producer
    pairs = sorted({(producer[v.name], k) for k, fr in enumerate(frs)
                    for v in fr.inputs if v.name in producer})
    return [(frs[j], frs[k], check_composable(frs[j], frs[k])) for j, k in pairs]


def compose(frs: list[FunctionalRequirement] | tuple[FunctionalRequirement, ...],
            name: str = "composite") -> FunctionalRequirement:
    """Build the composite contract of a set of requirements whose
    producer->consumer links all compose.

    Internal shared variables (produced by one part, consumed by another)
    are hidden from the interface.  Exposed input ranges come from the
    consumer side, exposed output ranges from the producer side.

    Preconditions: a single producer per variable, and every consumed
    range contains the range its producer promises; the first violation in
    :func:`links` order raises :class:`NotComposable`.
    """
    frs = tuple(frs)
    if not frs:
        raise ValueError("compose() needs at least one requirement")

    for fr_j, fr_k, res in links(frs):
        if not res:
            raise NotComposable(fr_j.name, fr_k.name, res.witness_var,
                                f"{res.producer_range!r} not within {res.consumer_range!r}")

    produced = {v.name for fr in frs for v in fr.outputs}
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
    return {v.name: {"lo": iv.lo, "hi": iv.hi, "unit": v.unit} for v, iv in m.items()}


def _map_from_dict(d: dict) -> RangeMap:
    entries = []
    for name, spec in d.items():
        unit = spec.get("unit", "")
        entries.append((VarId(name, unit), Interval(spec["lo"], spec["hi"], unit)))
    return RangeMap(entries)


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
            {"variable": ts.variable.name,
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
            var = outputs.var(ts["variable"])
            windows = tuple(
                (w["t_start"], w["t_end"], Interval(w["lo"], w["hi"], w.get("unit", var.unit)))
                for w in ts["windows"])
            timed.append(TimedOutputSpec(var, windows))
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
