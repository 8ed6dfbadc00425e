"""Closed intervals, named variables, and the set/range algebra.

Everything downstream (requirement contracts, architecture analysis,
narrowing) is built on two immutable value types: ``Interval`` (a closed
numeric range with a unit) and ``RangeMap`` (a finite map from variable
names to intervals).  A variable is its name; its unit travels on its
interval, and two ranges of one variable meet only in the same unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import EmptyRange, NotFound, UnitMismatch, ValidationError

__all__ = ["Interval", "RangeMap", "interval_intersect", "rangemap_merge"]


@dataclass(frozen=True)
class Interval:
    """A closed, non-empty interval [lo, hi]; NaN bounds and lo > hi are
    rejected at construction with :class:`ValidationError`."""

    lo: float
    hi: float
    unit: str = ""

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValidationError("interval bounds must not be NaN")
        if self.lo > self.hi:
            raise ValidationError(f"invalid interval: lo={self.lo} > hi={self.hi}")

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
    """An immutable finite map variable name -> Interval: one range per
    variable.  The unit lives on the interval.  An empty or repeated name
    is rejected at construction with :class:`ValidationError`."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, Interval] | Iterable[tuple[str, Interval]] = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        d: dict[str, Interval] = {}
        for name, iv in items:
            if not name:
                raise ValidationError("variable name must be non-empty")
            if name in d:
                raise ValidationError(f"duplicate variable '{name}' in RangeMap")
            d[name] = iv
        object.__setattr__(self, "_entries", d)

    def __setattr__(self, *_):
        raise AttributeError("RangeMap is immutable")

    @staticmethod
    def of(**ranges: tuple) -> "RangeMap":
        """Convenience constructor: ``RangeMap.of(v=(0, 40, "m/s"))``."""
        return RangeMap((name, Interval(*spec)) for name, spec in ranges.items())

    def names(self) -> frozenset[str]:
        return frozenset(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name) -> bool:
        return name in self._entries

    def __getitem__(self, name: str) -> Interval:
        try:
            return self._entries[name]
        except KeyError:
            raise NotFound(name) from None

    def items(self) -> list[tuple[str, Interval]]:
        return sorted(self._entries.items())

    def __eq__(self, other):
        if isinstance(other, RangeMap):
            return self.items() == other.items()
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.items()))

    def __repr__(self):
        body = ", ".join(f"{v}:{iv!r}" for v, iv in self.items())
        return f"RangeMap({{{body}}})"

    def with_entry(self, name: str, iv: Interval) -> "RangeMap":
        d = dict(self._entries)
        d.pop(name, None)
        d[name] = iv
        return RangeMap(d)

    def without(self, names: Iterable[str]) -> "RangeMap":
        drop = set(names)
        return RangeMap({v: iv for v, iv in self._entries.items() if v not in drop})


def rangemap_merge(*maps: RangeMap, context: str = "") -> RangeMap:
    """Merge any number of range maps in one pass; shared variables get the
    intersection of their intervals.  Two ranges of one variable in
    different units raise UnitMismatch; an empty intersection raises
    EmptyRange (it signals a conflict between the source ranges, never a
    legal state)."""
    out: dict[str, Interval] = {}
    for m in maps:
        for v, iv in m.items():
            prior = out.get(v)
            if prior is None:
                out[v] = iv
                continue
            if prior.unit != iv.unit:
                raise UnitMismatch(v, prior.unit, iv.unit)
            merged = interval_intersect(prior, iv)
            if merged is None:
                clash = f"{prior!r} vs {iv!r}"
                raise EmptyRange(v, f"{context}: {clash}" if context else clash)
            out[v] = merged
    return RangeMap(out)
