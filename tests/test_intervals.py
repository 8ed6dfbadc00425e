import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setdecomp.errors import EmptyRange, NotFound, UnitMismatch, ValidationError
from setdecomp.intervals import Interval, RangeMap, interval_intersect, rangemap_merge

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def intervals(draw, unit=""):
    a = draw(finite)
    b = draw(finite)
    return Interval(min(a, b), max(a, b), unit)


@st.composite
def rangemaps(draw, unit=""):
    names = draw(st.lists(st.sampled_from("abcdefgh"), unique=True, max_size=6))
    return RangeMap([(n, draw(intervals(unit))) for n in names])


units = st.sampled_from(["", "m"])


@st.composite
def mixed_unit_rangemaps(draw):
    """Few names, two units: shared names often disagree on their unit."""
    entries = []
    for n in draw(st.lists(st.sampled_from("abcd"), unique=True, max_size=4)):
        unit = draw(units)
        entries.append((n, draw(intervals(unit))))
    return RangeMap(entries)


def _outcome(call):
    """A range map as (name, unit, interval) rows, or the type and message
    of the set-algebra error raised instead."""
    try:
        out = call()
    except (EmptyRange, UnitMismatch) as e:
        return type(e), str(e)
    return [(v, iv.unit, iv) for v, iv in out.items()]


class TestInterval:
    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValidationError):
            Interval(3.0, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            Interval(float("nan"), 1.0)

    def test_degenerate_is_fine(self):
        iv = Interval(2.0, 2.0)
        assert iv.width == 0.0 and 2.0 in iv

    @given(intervals(), intervals())
    def test_intersect_commutes(self, a, b):
        assert interval_intersect(a, b) == interval_intersect(b, a)

    @given(intervals())
    def test_intersect_idempotent(self, a):
        assert interval_intersect(a, a) == a

    @given(intervals(), intervals())
    def test_intersect_is_subset_of_both(self, a, b):
        c = interval_intersect(a, b)
        assert c is None or (a.contains_interval(c) and b.contains_interval(c))

    def test_disjoint_gives_empty(self):
        assert interval_intersect(Interval(0, 1), Interval(2, 3)) is None

    def test_unit_mismatch(self):
        with pytest.raises(UnitMismatch):
            interval_intersect(Interval(0, 1, "m"), Interval(0, 1, "s"))


class TestRangeMap:
    def test_of_constructor(self):
        m = RangeMap.of(v=(0, 40, "m/s"), u=(-0.5, 2))
        assert m["v"] == Interval(0, 40, "m/s")
        assert m["u"] == Interval(-0.5, 2)

    def test_lookup_missing_raises_notfound(self):
        with pytest.raises(NotFound):
            RangeMap()["v"]

    def test_immutable(self):
        m = RangeMap.of(v=(0, 1))
        with pytest.raises(AttributeError):
            m._entries = {}

    def test_items_sorted_by_name(self):
        m = RangeMap.of(z=(0, 1), a=(0, 1), k=(0, 1))
        assert [v for v, _ in m.items()] == ["a", "k", "z"]

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            RangeMap([("", Interval(0, 1))])

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValidationError, match="duplicate variable 'v'"):
            RangeMap([("v", Interval(0, 1)), ("v", Interval(0, 2))])


class TestMerge:
    @given(rangemaps(), rangemaps())
    def test_merge_commutes(self, a, b):
        try:
            left = rangemap_merge(a, b)
        except EmptyRange:
            with pytest.raises(EmptyRange):
                rangemap_merge(b, a)
            return
        assert left == rangemap_merge(b, a)

    @settings(deadline=None)
    @given(rangemaps(), rangemaps(), rangemaps())
    def test_merge_associates(self, a, b, c):
        try:
            left = rangemap_merge(rangemap_merge(a, b), c)
        except EmptyRange:
            return  # either grouping must fail; checked by commutativity case
        assert left == rangemap_merge(a, rangemap_merge(b, c))

    @given(rangemaps())
    def test_merge_idempotent(self, a):
        assert rangemap_merge(a, a) == a

    @settings(deadline=None)
    @given(st.lists(mixed_unit_rangemaps(), min_size=1, max_size=5))
    def test_nary_merge_equals_folded_pairs(self, maps):
        assert (_outcome(lambda: rangemap_merge(*maps))
                == _outcome(lambda: functools.reduce(rangemap_merge, maps)))

    def test_merge_intersects_shared_names(self):
        a = RangeMap.of(v=(0, 10), w=(1, 2))
        b = RangeMap.of(v=(5, 20))
        merged = rangemap_merge(a, b)
        assert merged["v"] == Interval(5, 10)
        assert merged["w"] == Interval(1, 2)

    def test_merge_unit_mismatch_names_the_variable(self):
        with pytest.raises(UnitMismatch) as e:
            rangemap_merge(RangeMap.of(v=(0, 1, "m")), RangeMap.of(w=(0, 1)),
                           RangeMap.of(v=(0, 1, "s")))
        assert (e.value.name, e.value.units) == ("v", ("m", "s"))

    def test_merge_empty_intersection_raises(self):
        a = RangeMap.of(v=(0, 1))
        b = RangeMap.of(v=(2, 3))
        with pytest.raises(EmptyRange) as e:
            rangemap_merge(a, b, context="unit test")
        assert "v" in str(e.value)


class TestRestrict:
    @given(rangemaps())
    def test_restrict_returns_the_entry(self, m):
        for v, iv in m.items():
            assert m[v] == iv

    @given(rangemaps(), rangemaps())
    def test_restrict_merge_coherence(self, a, b):
        # looking a variable up in a merge equals intersecting the lookups
        try:
            merged = rangemap_merge(a, b)
        except EmptyRange:
            return
        for v in a.names() & b.names():
            assert merged[v] == interval_intersect(a[v], b[v])

    def test_restrict_missing(self):
        with pytest.raises(NotFound):
            RangeMap.of(v=(0, 1))["ghost"]
