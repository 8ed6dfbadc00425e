"""Closed intervals, named variables, and the set/range algebra.

Everything downstream (requirement contracts, architecture analysis,
narrowing) is built on three value types: ``VarId`` (a named, unit-tagged
variable), ``Interval`` (a closed numeric range) and ``RangeMap`` (a finite
map from variables to intervals).  All of them are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import EmptyRange, NotFound, UnitMismatch

__all__ = [
    "VarId", "Interval", "RangeMap",
    "interval_intersect", "names_union", "names_intersect", "names_subset",
    "rangemap_merge",
]


@dataclass(frozen=True)
class VarId:
    """A variable identifier.  Identity (equality, hashing) is by name only;
    the unit tag travels along and is checked for consistency on merges."""

    name: str
    unit: str = ""

    def __post_init__(self):
        if not self.name:
            raise ValueError("variable name must be non-empty")

    def __eq__(self, other):
        if isinstance(other, VarId):
            return self.name == other.name
        return NotImplemented

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"VarId({self.name!r}, {self.unit!r})" if self.unit else f"VarId({self.name!r})"


def _check_units(a: VarId, b: VarId) -> VarId:
    if a.unit != b.unit:
        raise UnitMismatch(a.name, a.unit, b.unit)
    return a


@dataclass(frozen=True)
class Interval:
    """A closed, non-empty interval [lo, hi]; lo > hi is rejected at
    construction."""

    lo: float
    hi: float
    unit: str = ""

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval bounds must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"invalid interval: lo={self.lo} > hi={self.hi}")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def __contains__(self, v: float) -> bool:
        return self.lo <= v <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        """True when ``other`` is a subset of self."""
        return self.lo <= other.lo and other.hi <= self.hi

    def __repr__(self):
        u = f" {self.unit}" if self.unit else ""
        return f"[{self.lo:g},{self.hi:g}]{u}"


def interval_intersect(a: Interval, b: Interval) -> Interval | None:
    """Intersection of two same-unit intervals; None when disjoint."""
    if a.unit != b.unit:
        raise UnitMismatch("<interval>", a.unit, b.unit)
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if lo > hi:
        return None
    return Interval(lo, hi, a.unit)


class RangeMap:
    """An immutable finite map VarId -> Interval: one range per variable.
    Keys are unique by variable name; the interval's unit always matches
    its variable's unit."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[VarId, Interval] | Iterable[tuple[VarId, Interval]] = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        d: dict[VarId, Interval] = {}
        for var, iv in items:
            if var in d:
                raise ValueError(f"duplicate variable '{var.name}' in RangeMap")
            if iv.unit != var.unit:
                raise UnitMismatch(var.name, var.unit, iv.unit)
            d[var] = iv
        object.__setattr__(self, "_entries", d)

    def __setattr__(self, *_):
        raise AttributeError("RangeMap is immutable")

    @staticmethod
    def of(**ranges: tuple) -> "RangeMap":
        """Convenience constructor: ``RangeMap.of(v=(0, 40, "m/s"))``."""
        entries = []
        for name, spec in ranges.items():
            lo, hi, *rest = spec
            unit = rest[0] if rest else ""
            entries.append((VarId(name, unit), Interval(lo, hi, unit)))
        return RangeMap(entries)

    def names(self) -> frozenset[VarId]:
        return frozenset(self._entries)

    def var(self, name: str) -> VarId:
        for v in self._entries:
            if v.name == name:
                return v
        raise NotFound(name)

    def __iter__(self) -> Iterator[VarId]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, var) -> bool:
        key = var if isinstance(var, VarId) else VarId(str(var))
        return key in self._entries

    def __getitem__(self, var) -> Interval:
        key = var if isinstance(var, VarId) else VarId(str(var))
        try:
            return self._entries[key]
        except KeyError:
            raise NotFound(key.name) from None

    def items(self) -> list[tuple[VarId, Interval]]:
        return sorted(self._entries.items(), key=lambda kv: kv[0].name)

    def __eq__(self, other):
        if isinstance(other, RangeMap):
            return self.items() == other.items()
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.items()))

    def __repr__(self):
        body = ", ".join(f"{v.name}:{iv!r}" for v, iv in self.items())
        return f"RangeMap({{{body}}})"

    def with_entry(self, var: VarId, iv: Interval) -> "RangeMap":
        d = dict(self._entries)
        d.pop(var, None)
        d[var] = iv
        return RangeMap(d)

    def without(self, names: Iterable[str]) -> "RangeMap":
        drop = set(names)
        return RangeMap({v: iv for v, iv in self._entries.items() if v.name not in drop})


def names_union(*sets: Iterable[VarId]) -> frozenset[VarId]:
    """Identifier-level union of any number of sets, in one pass; a shared
    name with conflicting units is an error."""
    by_name: dict[str, VarId] = {}
    for s in sets:
        for v in s:
            seen = by_name.setdefault(v.name, v)
            if seen is not v:
                _check_units(seen, v)
    return frozenset(by_name.values())


def names_intersect(a: Iterable[VarId], b: Iterable[VarId]) -> frozenset[VarId]:
    """Identifier-level intersection."""
    bn = {v.name for v in b}
    return frozenset(v for v in a if v.name in bn)


def names_subset(a: Iterable[VarId], b: Iterable[VarId]) -> bool:
    """True when every identifier of ``a`` occurs in ``b``."""
    bn = {v.name for v in b}
    return all(v.name in bn for v in a)


def rangemap_merge(*maps: RangeMap, context: str = "") -> RangeMap:
    """Merge any number of range maps in one pass; shared variables get the
    intersection of their intervals.  An empty intersection raises
    EmptyRange (it signals a conflict between the source ranges, never a
    legal state)."""
    out: dict[str, tuple[VarId, Interval]] = {}
    for m in maps:
        for v, iv in m.items():
            stored = out.get(v.name)
            if stored is None:
                out[v.name] = (v, iv)
                continue
            var, prior = stored
            _check_units(var, v)
            merged = interval_intersect(prior, iv)
            if merged is None:
                clash = f"{prior!r} vs {iv!r}"
                raise EmptyRange(v.name, f"{context}: {clash}" if context else clash)
            out[v.name] = (var, merged)
    return RangeMap(out.values())

