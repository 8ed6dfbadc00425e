import dataclasses
import importlib.resources
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setdecomp import codegen
from setdecomp import expr as ex
from setdecomp import simulation

from setdecomp.architecture import (Architecture, State, SubFunction, aggregate_names,
                                    load_architecture)
from setdecomp.errors import AlgebraicCycle, NonFinite, ValidationError
from setdecomp.expr import BinOp, Neg, Num, Pow, Var
from setdecomp.intervals import Interval, RangeMap
from setdecomp.narrowing import initial_spaces
from setdecomp.requirements import FunctionalRequirement
from setdecomp.simulation import (SamplingPlan, build_ode, design_samples,
                                  envelope_over_box, integrate)

CRUISE = str(importlib.resources.files("setdecomp") / "data" / "cruise.json")


def _decay_arch():
    """dy/dt = -y, y(0) = y0; closed form y(t) = y0 * exp(-t)."""
    top = FunctionalRequirement("decay", inputs=RangeMap.of(y0=(0.5, 2)),
                                outputs=RangeMap.of(y=(0, 2)))
    integ = SubFunction(id="int", states=(State("y", Var("dy"), Var("y0")),),
                        inputs=RangeMap.of(y0=(0.5, 2), dy=(-2, 0)),
                        outputs=RangeMap.of(y=(0, 2)))
    neg = SubFunction(id="neg", exprs=(("dy", BinOp("*", Num(-1.0), Var("y"))),),
                      inputs=RangeMap.of(y=(0, 2)), outputs=RangeMap.of(dy=(-2, 0)))
    return Architecture(top=top, subfunctions=(integ, neg))


def _constant_arch(rate=0.5):
    top = FunctionalRequirement("ramp", inputs=RangeMap.of(y0=(0, 1)),
                                outputs=RangeMap.of(y=(0, 100)))
    integ = SubFunction(id="int", states=(State("y", Var("dy"), Var("y0")),),
                        inputs=RangeMap.of(y0=(0, 1), dy=(0, 1)),
                        outputs=RangeMap.of(y=(0, 100)))
    const = SubFunction(id="c", exprs=(("dy", Num(rate)),),
                        outputs=RangeMap.of(dy=(0, 1)))
    return Architecture(top=top, subfunctions=(integ, const))


def _square_arch():
    """dy/dt = y^2, which from y(0) = 1 blows up at t = 1."""
    top = FunctionalRequirement("blow", inputs=RangeMap.of(y0=(1, 1)),
                                outputs=RangeMap.of(y=(0, 1e30)))
    integ = SubFunction(id="int", states=(State("y", Var("dy"), Var("y0")),),
                        inputs=RangeMap.of(y0=(1, 1), dy=(0, 1e30)),
                        outputs=RangeMap.of(y=(0, 1e30)))
    sq = SubFunction(id="sq", exprs=(("dy", BinOp("*", Var("y"), Var("y"))),),
                     inputs=RangeMap.of(y=(0, 1e30)), outputs=RangeMap.of(dy=(0, 1e30)))
    return Architecture(top=top, subfunctions=(integ, sq))


class TestIntegrate:
    def test_exponential_decay_matches_closed_form(self):
        sys = build_ode(_decay_arch(), {"y0": 1.0})
        traj = integrate(sys, horizon=1.0, step=0.001)
        assert traj.values["y"][-1] == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_constant_derivative_is_exact(self):
        sys = build_ode(_constant_arch(0.5), {"y0": 0.25})
        traj = integrate(sys, horizon=10.0, step=0.1)
        # RK4 integrates a constant exactly (up to accumulation roundoff)
        assert traj.values["y"][-1] == pytest.approx(0.25 + 0.5 * 10.0, abs=1e-12)
        assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(10.0)

    def test_vector_point_broadcasts(self):
        sys = build_ode(_decay_arch(), {"y0": np.array([1.0, 2.0])})
        traj = integrate(sys, horizon=1.0, step=0.01)
        y_end = traj.values["y"][-1]
        assert y_end == pytest.approx([math.exp(-1), 2 * math.exp(-1)], rel=1e-6)

    def test_zero_net_force_keeps_speed_constant(self):
        # cruise plant with all forces disconnected: v must not drift
        top = FunctionalRequirement("coast", inputs=RangeMap.of(v_0=(10, 30)),
                                    outputs=RangeMap.of(v=(0, 50)))
        integ = SubFunction(id="f1", states=(State("v", Var("vdot"), Var("v_0")),),
                            inputs=RangeMap.of(v_0=(10, 30), vdot=(-1, 1)),
                            outputs=RangeMap.of(v=(0, 50)))
        zero = SubFunction(id="f2", exprs=(("vdot", Num(0.0)),),
                           outputs=RangeMap.of(vdot=(-1, 1)))
        arch = Architecture(top=top, subfunctions=(integ, zero))
        traj = integrate(build_ode(arch, {"v_0": 17.5}), horizon=50.0, step=0.05)
        assert np.all(traj.values["v"] == 17.5)

    def test_cruise_nominal_against_fine_step_reference(self):
        arch, _ = load_architecture(CRUISE)
        point = {"v_0": 26.5, "v_r": 35.0, "m": 1045.0, "omega_m": 415.0}
        sys = build_ode(arch, point)
        coarse = integrate(sys, horizon=10.0, step=0.01)
        fine = integrate(sys, horizon=10.0, step=1e-4)
        assert coarse.values["v"][-1] == pytest.approx(fine.values["v"][-1], rel=1e-8)
        assert coarse.values["u"][-1] == pytest.approx(fine.values["u"][-1], rel=1e-6)

    def test_nonfinite_detected_with_time(self):
        # dy/dt = y^2 from y(0)=1 blows up at t=1; dy overflows before y
        with pytest.raises(NonFinite) as e:
            integrate(build_ode(_square_arch(), {"y0": 1.0}), horizon=2.0, step=0.001)
        assert 0.9 < e.value.t < 1.2
        assert e.value.var == "dy"

    def test_diverging_bundle_warns_nothing(self):
        with warnings.catch_warnings(), pytest.raises(NonFinite):
            warnings.simplefilter("error")
            integrate(build_ode(_square_arch(), {"y0": np.array([1.0, 0.5])}),
                      horizon=2.0, step=0.001)

    @pytest.mark.parametrize("step, horizon", [(0.0, 1.0), (-0.1, 1.0), (0.1, -1.0),
                                               (math.inf, 1.0), (0.1, math.inf),
                                               (math.nan, 1.0), (0.1, math.nan)])
    def test_bad_step_or_horizon_is_validation_error(self, step, horizon):
        with pytest.raises(ValidationError):
            integrate(build_ode(_decay_arch(), {"y0": 1.0}), horizon=horizon, step=step)

    def test_algebraic_cycle_detected(self):
        a = SubFunction(id="a", exprs=(("p", Var("q")),),
                        inputs=RangeMap.of(q=(0, 1)), outputs=RangeMap.of(p=(0, 1)))
        b = SubFunction(id="b", exprs=(("q", Var("p")),),
                        inputs=RangeMap.of(p=(0, 1)), outputs=RangeMap.of(q=(0, 1)))
        arch = Architecture(top=FunctionalRequirement("t"), subfunctions=(a, b))
        with pytest.raises(AlgebraicCycle):
            build_ode(arch, {})

    def test_internal_state_integrates(self):
        # hidden state e with de/dt = 1, output w = e: a ramp
        top = FunctionalRequirement("t", inputs=RangeMap.of(k=(0, 1)),
                                    outputs=RangeMap.of(w=(0, 100)))
        f = SubFunction(id="f",
                        exprs=(("w", Var("e")),),
                        states=(State("e", Num(1.0), Num(0.0)),),
                        inputs=RangeMap.of(k=(0, 1)), outputs=RangeMap.of(w=(0, 100)))
        arch = Architecture(top=top, subfunctions=(f,))
        traj = integrate(build_ode(arch, {"k": 0.0}), horizon=5.0, step=0.1)
        assert traj.values["w"][-1] == pytest.approx(5.0, abs=1e-12)


class TestSampling:
    def test_corners_and_grid(self):
        box = RangeMap.of(a=(0, 1), b=(10, 20))
        plan = SamplingPlan(grid=3)
        pts = design_samples(box, plan)
        # 4 corners + 9 grid points, 4 shared; columns a and b, the corners
        # first in product order
        assert len(pts) == 9 and pts.shape == (9, 2) and pts.dtype == np.float64
        assert pts[:4].tolist() == [[0, 10], [0, 20], [1, 10], [1, 20]]
        assert any(a == 0.5 and b == 15 for a, b in pts.tolist())

    def test_degenerate_axis(self):
        pts = design_samples(RangeMap.of(a=(2, 2), b=(0, 1)), SamplingPlan(grid=3))
        assert (pts[:, 0] == 2).all()

    def test_cap_falls_back_to_low_discrepancy(self):
        box = RangeMap.of(**{f"x{i}": (0.0, 1.0) for i in range(8)})
        pts = design_samples(box, SamplingPlan(grid=3, cap=100))
        assert pts.shape == (100, 8)
        assert ((0.0 <= pts) & (pts <= 1.0)).all()
        # deterministic
        assert pts.tobytes() == design_samples(box, SamplingPlan(grid=3, cap=100)).tobytes()

    def test_many_axes_go_straight_to_the_cap(self):
        # 2^30 corners and 3^30 grid points are counted, never built
        box = RangeMap.of(**{f"x{i:02d}": (0.0, 1.0) for i in range(30)})
        pts = design_samples(box, SamplingPlan(grid=3, cap=50))
        assert len(pts) == 50

    def test_count_below_cap_keeps_the_lattice(self):
        # 16 corners + 81 grid points share the 16 corners: 81 unique
        box = RangeMap.of(**{f"x{i}": (0.0, 1.0) for i in range(4)})
        assert len(design_samples(box, SamplingPlan(grid=3, cap=81))) == 81
        assert len(design_samples(box, SamplingPlan(grid=3, cap=80))) == 80

    @pytest.mark.parametrize("axes", [1, 2, 11])
    def test_halton_points_equal_the_scalar_recurrence_bit_for_bit(self, axes):
        items = RangeMap.of(**{f"x{k:02d}": (-1.5 + k, 2.0 + 3 * k) for k in range(axes)}).items()

        def radical_inverse(i: int, base: int) -> float:
            f, r = 1.0, 0.0
            while i > 0:
                f /= base
                r += f * (i % base)
                i //= base
            return r

        want = [tuple(iv.lo + radical_inverse(i, base) * (iv.hi - iv.lo)
                      for base, (_, iv) in zip(simulation._primes(axes), items))
                for i in range(1, 10_001)]
        got = simulation._halton_samples(items, 10_000)
        assert got.shape == (10_000, axes)
        assert got.tobytes() == np.array(want).tobytes()

    def test_low_discrepancy_axes_use_distinct_bases(self):
        box = RangeMap.of(**{f"x{i:02d}": (0.0, 1.0) for i in range(13)})
        pts = design_samples(box, SamplingPlan(grid=3, cap=20))
        assert pts[:, 0].tolist() != pts[:, 12].tolist()       # x00 and x12


class TestEnvelope:
    def test_envelope_covers_closed_form_extremes(self):
        env = envelope_over_box(_decay_arch(), RangeMap.of(y0=(0.5, 2.0)),
                                SamplingPlan(grid=3, step=0.01, horizon=2.0))
        lo, hi = env.bounds["y"]
        assert hi == pytest.approx(2.0, rel=1e-9)          # initial upper corner
        assert lo == pytest.approx(0.5 * math.exp(-2.0), rel=1e-4)

    def test_one_sample_envelope_is_the_trajectory_extrema(self):
        arch, _ = load_architecture(CRUISE)
        fds = initial_spaces(arch).fds
        box = RangeMap((v, Interval(iv.mid, iv.mid, iv.unit)) for v, iv in fds.items())
        plan = SamplingPlan(step=0.01, horizon=10.0)
        env = envelope_over_box(arch, box, plan)
        traj = integrate(build_ode(arch, {v: iv.mid for v, iv in fds.items()}),
                         horizon=plan.horizon, step=plan.step)
        assert env.n_samples == 1
        assert env.bounds == {name: (float(np.min(vals)), float(np.max(vals)))
                              for name, vals in traj.values.items()}

    def test_sampling_plan_is_validated(self):
        for bad in ({"step": 0.0}, {"step": -0.01}, {"horizon": 0.0}, {"grid": -1},
                    {"step": math.inf}, {"horizon": math.inf}, {"step": math.nan},
                    {"horizon": math.nan}):
            with pytest.raises(ValidationError):
                SamplingPlan(**bad)

    @pytest.mark.parametrize("box, plan", [
        ([], SamplingPlan()),
        (RangeMap.of(y0=(0.5, 2.0)), SamplingPlan(cap=0)),
    ], ids=["no-box", "no-sample"])
    def test_empty_design_box_is_a_validation_error(self, box, plan):
        with pytest.raises(ValidationError, match="empty design box"):
            envelope_over_box(_decay_arch(), box, plan)

    def test_boxes_of_one_bundle_name_the_same_variables(self):
        boxes = [RangeMap.of(y0=(0.5, 2.0)), RangeMap.of(y0=(0.5, 2.0), k=(0.0, 1.0))]
        with pytest.raises(ValidationError, match="same variables"):
            envelope_over_box(_decay_arch(), boxes, SamplingPlan(step=0.01, horizon=1.0))

    def test_zero_step_is_rejected(self):
        with pytest.raises(ValidationError):
            envelope_over_box(_decay_arch(), RangeMap.of(y0=(0.5, 2.0)), SamplingPlan(step=0))

    def test_window_extrema(self):
        env = envelope_over_box(_constant_arch(1.0), RangeMap.of(y0=(0.0, 1.0)),
                                SamplingPlan(grid=2, step=0.01, horizon=10.0),
                                windows={"y": [(5.0, 10.0)]})
        lo, hi = env.windows["y"][(5.0, 10.0)]
        assert lo == pytest.approx(5.0, abs=1e-9)   # y0=0 at t=5
        assert hi == pytest.approx(11.0, abs=1e-9)  # y0=1 at t=10

    def test_boxes_bundled_match_boxes_alone(self, monkeypatch):
        # sets of 3 and 1 samples share a bundle; the fourth box shares
        # y0 = 0.5 and 1.25 with the first, and the last two differ only in
        # the sign of a zero, which e = y0 * 1.0 keeps; with grid rows, then
        # with no row fitting CHUNK_BYTES, so that the kernel folds
        boxes = [RangeMap.of(y0=(0.5, 2.0)), RangeMap.of(y0=(1.5, 1.5)),
                 RangeMap.of(y0=(0.75, 1.0)), RangeMap.of(y0=(0.5, 1.25)),
                 RangeMap.of(y0=(0.0, 0.0)), RangeMap.of(y0=(-0.0, -0.0))]
        plan = SamplingPlan(grid=3, step=0.01, horizon=1.0)
        windows = {"y": [(0.25, 0.5)]}
        arch = _decay_arch()
        echo = SubFunction(id="echo", exprs=(("e", BinOp("*", Var("y0"), Num(1.0))),),
                           inputs=RangeMap.of(y0=(0.5, 2)), outputs=RangeMap.of(e=(0.5, 2)))
        arch = dataclasses.replace(arch, subfunctions=(*arch.subfunctions, echo))
        lanes = _lanes(monkeypatch)
        bits = []
        for chunk_bytes in (simulation.CHUNK_BYTES, 0):
            monkeypatch.setattr(simulation, "CHUNK_BYTES", chunk_bytes)
            del lanes[:]
            bundled = envelope_over_box(arch, boxes, plan, windows)
            alone = [envelope_over_box(arch, b, plan, windows) for b in boxes]
            assert list(map(_env_bits, bundled)) == list(map(_env_bits, alone))
            bits.append(list(map(_env_bits, bundled)))
            assert [e.n_samples for e in bundled] == [3, 1, 3, 3, 1, 1]
            # 0.5, 2, 1.25, 1.5, 0.75, 1, 0.875, 0 and -0 of 12 samples
            assert lanes[0] == 9
            assert ([repr(env.bounds["e"]) for env in bundled[4:]]
                    == ["(0.0, 0.0)", "(-0.0, -0.0)"])
        assert bits[0] == bits[1]

    def test_diverging_box_returns_its_error(self):
        # dy/dt = y^2 from y0 = 2 blows up near t = 0.5; y0 = 0 stays at 0
        top = FunctionalRequirement("blow", inputs=RangeMap.of(y0=(0, 2)),
                                    outputs=RangeMap.of(y=(-1e9, 1e9)))
        integ = SubFunction(id="int", states=(State("y", Var("dy"), Var("y0")),),
                            inputs=RangeMap.of(y0=(0, 2), dy=(-1e9, 1e9)),
                            outputs=RangeMap.of(y=(-1e9, 1e9)))
        sq = SubFunction(id="sq", exprs=(("dy", BinOp("*", Var("y"), Var("y"))),),
                         inputs=RangeMap.of(y=(-1e9, 1e9)), outputs=RangeMap.of(dy=(-1e9, 1e9)))
        arch = Architecture(top=top, subfunctions=(integ, sq))
        plan = SamplingPlan(grid=1, step=0.01, horizon=5.0)
        bad, good = RangeMap.of(y0=(0.5, 2.0)), RangeMap.of(y0=(0.0, 0.0))
        results = envelope_over_box(arch, [bad, good], plan)
        with pytest.raises(NonFinite) as alone:
            envelope_over_box(arch, bad, plan)
        assert isinstance(results[0], NonFinite)
        assert str(results[0]) == str(alone.value)
        assert results[1] == envelope_over_box(arch, good, plan)
        assert results[1].bounds["y"] == (0.0, 0.0)

    def test_diverging_boxes_sharing_samples_name_their_own_sample(self, monkeypatch):
        # [0.5, 1.25] shares its samples 0.5 and 1.25 with [0.5, 2], whose
        # first to blow up is y0 = 2 (t = 0.5), while its own is 1.25 (t = 0.8);
        # with grid rows, then with the kernel folding
        plan = SamplingPlan(grid=1, step=0.01, horizon=5.0)
        boxes = [RangeMap.of(y0=(0.5, 2.0)), RangeMap.of(y0=(0.0, 0.0)),
                 RangeMap.of(y0=(0.5, 1.25))]
        seen = []
        for chunk_bytes in (simulation.CHUNK_BYTES, 0):
            monkeypatch.setattr(simulation, "CHUNK_BYTES", chunk_bytes)
            results = envelope_over_box(_blowup_arch(), boxes, plan)
            for box, got in zip(boxes[::2], results[::2]):
                with pytest.raises(NonFinite) as alone:
                    envelope_over_box(_blowup_arch(), box, plan)
                assert isinstance(got, NonFinite) and str(got) == str(alone.value)
            assert "'y0': 1.25" in str(results[2]) and "'y0': 2.0" in str(results[0])
            assert results[1] == envelope_over_box(_blowup_arch(), boxes[1], plan)
            seen.append([*map(str, results[::2]), _env_bits(results[1])])
        assert seen[0] == seen[1]

    @pytest.mark.parametrize("box, plan", [
        (RangeMap.of(y0=(0.0, 2.0)), SamplingPlan(grid=3, step=0.01, horizon=1.0)),
        (RangeMap.of(y0=(1.0, 2.0)), SamplingPlan(grid=0, step=0.01, horizon=1.0)),
        (RangeMap.of(y0=(0.0, 2.0)), SamplingPlan(grid=3, step=0.01, horizon=1.0, cap=2)),
    ], ids=["grid", "corner", "halton"])
    def test_nonfinite_names_its_sample_with_plain_floats(self, box, plan):
        # dy/dt = 1 / (y0 - 1) divides by zero at t = 0 for y0 = 1.0: a grid
        # point (from np.linspace), a corner, and the first Halton point
        top = FunctionalRequirement("pole", inputs=RangeMap.of(y0=(0, 2)),
                                    outputs=RangeMap.of(y=(-1e9, 1e9)))
        integ = SubFunction(id="int", states=(State("y", Var("dy"), Var("y0")),),
                            inputs=RangeMap.of(y0=(0, 2), dy=(-1e9, 1e9)),
                            outputs=RangeMap.of(y=(-1e9, 1e9)))
        pole = SubFunction(id="pole", exprs=(("dy", BinOp("/", Num(1.0),
                                                          BinOp("-", Var("y0"), Num(1.0)))),),
                           inputs=RangeMap.of(y0=(0, 2)), outputs=RangeMap.of(dy=(-1e9, 1e9)))
        arch = Architecture(top=top, subfunctions=(integ, pole))
        with pytest.raises(NonFinite) as err:
            envelope_over_box(arch, box, plan)
        assert str(err.value) == "non-finite value for 'dy (sample {'y0': 1.0})' at t=0"


@st.composite
def _sample_sets(draw):
    """Sample matrices of one width (0 to 3 columns) over a pool of five
    values holding 0.0 and -0.0, so rows repeat within and across sets."""
    d = draw(st.integers(0, 3))
    row = st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.5, 2.0]), min_size=d, max_size=d)
    sets = draw(st.lists(st.lists(row, min_size=1, max_size=6), min_size=1, max_size=4))
    return [np.array(s, dtype=np.float64).reshape(len(s), d) for s in sets]


class TestLanes:
    @staticmethod
    def _reference(sample_sets):
        """One lane per distinct row, keyed by its bytes, in first-seen
        order, and the lane of every row, set after set."""
        lane_of: dict[bytes, int] = {}
        index = [lane_of.setdefault(row.tobytes(), len(lane_of))
                 for rows in sample_sets for row in rows]
        return list(lane_of), index

    @settings(max_examples=200, deadline=None)
    @given(_sample_sets())
    @example([np.array([[0.0, 1.0], [-0.0, 1.0], [2.0, 2.0]]),
              np.array([[2.0, 2.0], [-0.0, 1.0], [0.0, -0.0]])])
    @example([np.empty((2, 0)), np.empty((1, 0))])
    def test_lanes_equal_a_dict_keyed_reference(self, sample_sets):
        columns, index = simulation._lanes(sample_sets)
        rows, want = self._reference(sample_sets)
        assert index.tolist() == want
        assert columns.shape == (sample_sets[0].shape[1], len(rows))
        assert [lane.tobytes() for lane in columns.T] == rows
        assert all(c.flags.c_contiguous for c in columns)


def _counting(sys_, calls: list):
    """``sys_`` that appends to ``calls`` at every grid-point evaluation."""
    def rhs(grid, *state):
        if grid is not None:
            calls.append(None)
        return sys_.rhs(grid, *state)
    return dataclasses.replace(sys_, rhs=rhs)


def _counted(monkeypatch, module) -> list:
    """Count the grid-point evaluations of every system ``module`` builds."""
    calls: list = []
    monkeypatch.setattr(module, "build_ode",
                        lambda arch, point, **kw: _counting(build_ode(arch, point, **kw), calls))
    return calls


def _lanes(monkeypatch) -> list[int]:
    """The number of lanes of every bundle ``simulation`` builds."""
    lanes: list[int] = []

    def spy(arch, point, **kw):
        sys_ = build_ode(arch, point, **kw)
        lanes.append(math.prod(sys_.shape))
        return sys_
    monkeypatch.setattr(simulation, "build_ode", spy)
    return lanes


def _env_bits(env) -> str:
    """An envelope's bounds and window extrema, every float spelt exactly
    (0.0 and -0.0 apart)."""
    return repr((env.bounds, env.windows, env.n_samples))


def _chunk_rows(monkeypatch, rows: int, outputs: int, lanes: int) -> None:
    """Set the buffer cap so that a chunk holds ``rows`` grid times; with 0
    not even one grid row fits, and a bundle's kernel folds."""
    monkeypatch.setattr(simulation, "CHUNK_BYTES", rows * 8 * outputs * lanes)


def _blowup_arch():
    """dy/dt = y^2 over y0 in [0, 2]: y0 > 0 blows up at t = 1/y0; y0 = 0
    stays at 0."""
    top = FunctionalRequirement("blow", inputs=RangeMap.of(y0=(0, 2)),
                                outputs=RangeMap.of(y=(-1e9, 1e9)))
    integ = SubFunction(id="int", states=(State("y", Var("dy"), Var("y0")),),
                        inputs=RangeMap.of(y0=(0, 2), dy=(-1e9, 1e9)),
                        outputs=RangeMap.of(y=(-1e9, 1e9)))
    sq = SubFunction(id="sq", exprs=(("dy", BinOp("*", Var("y"), Var("y"))),),
                     inputs=RangeMap.of(y=(-1e9, 1e9)), outputs=RangeMap.of(dy=(-1e9, 1e9)))
    return Architecture(top=top, subfunctions=(integ, sq))


def _signed_zero_arch():
    """y' = -1 from y0 = 0.5 and z = 0.0 * y, which is +0.0 while y >= 0 and
    -0.0 once y < 0."""
    top = FunctionalRequirement("zero", inputs=RangeMap.of(y0=(0.5, 0.5)),
                                outputs=RangeMap.of(z=(-1, 1)))
    integ = SubFunction(id="int", states=(State("y", Var("dy"), Var("y0")),),
                        inputs=RangeMap.of(y0=(0.5, 0.5), dy=(-1, 1)),
                        outputs=RangeMap.of(y=(-1, 1)))
    rate = SubFunction(id="rate", exprs=(("dy", Num(-1.0)),), outputs=RangeMap.of(dy=(-1, 1)))
    out = SubFunction(id="out", exprs=(("z", BinOp("*", Num(0.0), Var("y"))),),
                      inputs=RangeMap.of(y=(-1, 1)), outputs=RangeMap.of(z=(-1, 1)))
    return Architecture(top=top, subfunctions=(integ, rate, out))


class TestChunks:
    """The reducers see the grid times K buffer rows at a time, or, with 0
    rows, the kernel folds the outputs of one grid time; no K may change a
    result."""

    # 21 grid times; with K = 7 the first window spans the chunk boundary
    # after t = 0.3 and the second lies inside the second chunk; folding,
    # every window spans chunks of one grid time
    PLAN = SamplingPlan(grid=3, step=0.05, horizon=1.0)
    WINDOWS = {"y": [(0.25, 0.5), (0.4, 0.6), (0.33, 0.33), (0.0, 0.0), (1.0, 1.0)]}
    BOXES = [RangeMap.of(y0=(0.5, 2.0)), RangeMap.of(y0=(1.5, 1.5))]

    @pytest.mark.parametrize("rows", [0, 1, 2, 3, 7])
    def test_envelopes_do_not_depend_on_the_chunk_length(self, rows, monkeypatch):
        default = envelope_over_box(_decay_arch(), self.BOXES, self.PLAN, self.WINDOWS)
        _chunk_rows(monkeypatch, rows, outputs=2, lanes=2 * 3)
        assert envelope_over_box(_decay_arch(), self.BOXES, self.PLAN, self.WINDOWS) == default

    @pytest.mark.parametrize("rows", [0, 1, 2, 3, 7])
    def test_bundled_error_inside_a_chunk(self, rows, monkeypatch):
        plan = SamplingPlan(grid=1, step=0.01, horizon=5.0)
        boxes = [RangeMap.of(y0=(0.5, 2.0)), RangeMap.of(y0=(0.0, 0.0))]
        default = envelope_over_box(_blowup_arch(), boxes, plan)
        assert isinstance(default[0], NonFinite)
        _chunk_rows(monkeypatch, rows, outputs=2, lanes=2 * 3)
        got = envelope_over_box(_blowup_arch(), boxes, plan)
        assert str(got[0]) == str(default[0]) and got[1] == default[1]

    @pytest.mark.parametrize("rows", [0, 1, 2, 3, 7])
    def test_march_stops_in_the_chunk_of_the_last_error(self, rows, monkeypatch):
        plan = SamplingPlan(grid=1, step=0.01, horizon=5.0)
        box = RangeMap.of(y0=(1.0, 2.0))
        with pytest.raises(NonFinite) as default:
            envelope_over_box(_blowup_arch(), box, plan)
        _chunk_rows(monkeypatch, rows, outputs=2, lanes=3)
        calls = _counted(monkeypatch, simulation)
        with pytest.raises(NonFinite) as chunked:
            envelope_over_box(_blowup_arch(), box, plan)
        assert str(chunked.value) == str(default.value)
        first_bad = round(chunked.value.t / plan.step)
        # folding, a chunk is one grid time, evaluated once more into a
        # full row for the error to name its sample
        assert first_bad < len(calls) <= first_bad + (rows or 2)

    @pytest.mark.parametrize("rows", [None, 0, 1, 2, 3, 7])
    def test_equal_extrema_keep_the_earliest_sign_of_zero(self, rows, monkeypatch):
        if rows is not None:
            _chunk_rows(monkeypatch, rows, outputs=3, lanes=1)
        env = envelope_over_box(_signed_zero_arch(), RangeMap.of(y0=(0.5, 0.5)),
                                SamplingPlan(grid=1, step=0.01, horizon=1.0),
                                windows={"z": [(0.2, 0.8)]})
        values = [*env.bounds["z"], *env.windows["z"][(0.2, 0.8)]]
        assert values == [0.0] * 4
        assert [math.copysign(1.0, v) for v in values] == [1.0] * 4
        assert env.bounds["y"][0] < 0.0     # so z did reach -0.0

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_integrate_stops_in_the_chunk_of_its_error(self, rows, monkeypatch):
        with pytest.raises(NonFinite) as whole:
            integrate(build_ode(_square_arch(), {"y0": 1.0}), horizon=100.0, step=0.01)
        _chunk_rows(monkeypatch, rows, outputs=2, lanes=1)
        calls: list = []
        with pytest.raises(NonFinite) as chunked:
            integrate(_counting(build_ode(_square_arch(), {"y0": 1.0}), calls),
                      horizon=100.0, step=0.01)
        assert (chunked.value.var, chunked.value.t) == (whole.value.var, whole.value.t)
        first_bad = round(chunked.value.t / 0.01)
        assert first_bad < len(calls) <= first_bad + rows

    def test_trajectory_does_not_depend_on_the_chunk_length(self, monkeypatch):
        arch, _ = load_architecture(CRUISE)
        point = {v: iv.mid for v, iv in initial_spaces(arch).fds.items()}
        whole = integrate(build_ode(arch, point), horizon=2.0, step=0.01)
        _chunk_rows(monkeypatch, 7, outputs=8, lanes=1)
        chunked = integrate(build_ode(arch, point), horizon=2.0, step=0.01)
        assert np.array_equal(chunked.times, whole.times)
        for name, values in whole.values.items():
            assert chunked.values[name].tobytes() == values.tobytes(), name


# --- the compiled right-hand side against the expression evaluator ---------

_VALUES = [0.0, -0.0, 1.0, -2.5, 0.5, 3.0, 1e-300, 1e300]


def _trees(leaf):
    return st.recursive(leaf, lambda sub: st.one_of(
        st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
        st.builds(Neg, sub),
        st.builds(Pow, sub, st.sampled_from([-2, -1, 0, 1, 2, 3]))), max_leaves=6)


def _leaves(names):
    return st.one_of(st.sampled_from(_VALUES).map(Num), st.sampled_from(names).map(Var))


def _map_leaves(e, leaf):
    """``e`` with every literal and variable ``x`` replaced by ``leaf(x)``."""
    if isinstance(e, BinOp):
        return BinOp(e.op, _map_leaves(e.left, leaf), _map_leaves(e.right, leaf))
    if isinstance(e, Neg):
        return Neg(_map_leaves(e.arg, leaf))
    if isinstance(e, Pow):
        return Pow(_map_leaves(e.base, leaf), e.exponent)
    return leaf(e)


# "@0" and "@1" stand for a shared parameter-only subtree and one over y
_SHARED = st.tuples(_trees(_leaves(["a", "b", "c"])), _trees(_leaves(["y", "a", "c"])))
_EXPRS = st.tuples(*(_trees(_leaves(["@0", "@1", *names])) for names in
                     (["y", "a", "b", "c"], ["y", "w", "a", "b", "c"],
                      ["y", "w", "q", "a", "b", "c"])))


@st.composite
def _systems(draw):
    """Expressions for outputs w and q and for the derivative of the state y
    that share a parameter-only subtree and a subtree over y."""
    shared = dict(zip(("@0", "@1"), draw(_SHARED)))
    return tuple(_map_leaves(e, lambda x: shared.get(getattr(x, "name", None), x))
                 for e in draw(_EXPRS))


@st.composite
def _bundle_systems(draw):
    """Outputs w and q and the derivatives of states y and z.  q reads w for
    the last time as the left operand of an operation whose right operand
    reads a state, so a bundle computes it into a scratch slot while w is
    still to be read; z's derivative is an output, a state, a literal, y's
    derivative again or a tree of its own."""
    w = draw(_trees(_leaves(["y", "z", "a", "b", "c"])))
    right = BinOp(draw(st.sampled_from("+-*/")), draw(st.sampled_from([Var("y"), Var("z")])),
                  draw(_trees(_leaves(["y", "z", "a", "c"]))))
    q = BinOp(draw(st.sampled_from("+-*/")), Var("w"), right)
    dy = draw(_trees(_leaves(["y", "z", "q", "a", "b", "c"])))
    dz = draw(st.one_of(st.sampled_from([Var("q"), Var("y"), Num(2.0), dy]),
                        _trees(_leaves(["y", "z", "q", "b"]))))
    return w, q, dy, dz


@st.composite
def _early_derivative_systems(draw):
    """Outputs w and q and the derivatives of states y and z, where z's
    derivative reads no output, so it is computed before every output, and
    is or holds a subtree over a state that w reads after it; y's
    derivative reads q, so it is computed last."""
    op = st.sampled_from("+-*/")
    shared = BinOp(draw(op), draw(st.sampled_from([Var("y"), Var("z")])),
                   draw(_trees(_leaves(["y", "z", "a", "c"]))))
    tree = _trees(_leaves(["y", "z", "a", "b", "c"]))
    dz = draw(st.one_of(st.just(shared), st.builds(BinOp, op, st.just(shared), tree),
                        st.builds(BinOp, op, tree, st.just(shared))))
    w = BinOp(draw(op), draw(tree), shared)
    q = BinOp(draw(op), Var("w"), draw(tree))
    dy = BinOp(draw(op), Var("q"), draw(_trees(_leaves(["y", "z", "w", "a", "b"]))))
    return w, q, dy, dz


def _two_state_arch(w, q, dy, dz, c: float) -> Architecture:
    wide = (-1e308, 1e308)
    f = SubFunction(id="f", exprs=(("w", w), ("q", q)),
                    states=(State("y", dy, Var("a")), State("z", dz, Var("b"))),
                    inputs=RangeMap.of(a=wide, b=wide),
                    outputs=RangeMap.of(y=wide, z=wide, w=wide, q=wide))
    top = FunctionalRequirement("t", inputs=RangeMap.of(a=wide, b=wide),
                                outputs=RangeMap.of(y=wide))
    return Architecture(top=top, subfunctions=(f,), constants=(("c", c),))


def _evaluated(exprs, env: dict, float64: bool = False) -> dict:
    """``env`` with every ``(name, expression)`` of ``exprs`` evaluated in
    order; with ``float64`` the scalars and literals are numpy float64, as
    the compiler takes them where Python floats raise."""
    env = dict(env)
    if float64:
        env = {k: np.float64(v) if np.ndim(v) == 0 else v for k, v in env.items()}
        exprs = [(n, _map_leaves(e, lambda x: Num(np.float64(x.value))
                                 if isinstance(x, Num) else x)) for n, e in exprs]
    for name, e in exprs:
        env[name] = ex.evaluate(e, env)
    return env


def _same_bits(got, want) -> bool:
    """Equal values and signs, with NaN in the same places."""
    got, want = np.broadcast_arrays(np.asarray(got, dtype=float), np.asarray(want, dtype=float))
    nan = np.isnan(want)
    return (np.array_equal(np.isnan(got), nan)
            and np.array_equal(got.view(np.uint64)[~nan], want.view(np.uint64)[~nan]))


def _lagged_chain(links: int = 60, tau: float = 0.5) -> Architecture:
    """The benchmark's chain in small: links s_k = 0.5 * s_{k-1} + 1 from
    s_0 = a, every tenth a lag s_k = z_k with z_k' = (0.5 * s_{k-1} + 1 -
    z_k) / tau, so the only states are the lags, each reading the link
    before it."""
    wide = (-1e308, 1e308)
    subs = []
    for k in range(1, links + 1):
        link = BinOp("+", BinOp("*", Num(0.5), Var(f"s{k - 1}")), Num(1.0))
        if k % 10:
            exprs, states = ((f"s{k}", link),), ()
        else:
            z = f"z{k}"
            exprs = ((f"s{k}", Var(z)),)
            states = (State(z, BinOp("/", BinOp("-", link, Var(z)), Var("tau")), Num(0.0)),)
        subs.append(SubFunction(id=f"L{k}", exprs=exprs, states=states,
                                inputs=RangeMap.of(**{f"s{k - 1}": wide}),
                                outputs=RangeMap.of(**{f"s{k}": wide})))
    subs.append(SubFunction(id="L0", exprs=(("s0", Var("a")),), inputs=RangeMap.of(a=wide),
                            outputs=RangeMap.of(s0=wide)))
    top = FunctionalRequirement("t", inputs=RangeMap.of(a=wide),
                                outputs=RangeMap.of(**{f"s{links}": wide}))
    return Architecture(top=top, subfunctions=tuple(subs), constants=(("tau", tau),))


def _scratch_slots(sys_) -> int:
    """How many scratch slots a bundle's compiled right-hand side reads."""
    return sum(bool(re.fullmatch(r"_s\d+", v)) for v in sys_.rhs.__code__.co_freevars)


class TestCompiledRightHandSide:
    @pytest.mark.parametrize("fold", [False, True])
    def test_scratch_slots_do_not_grow_with_the_states(self, fold):
        # each lag's derivative is computed right after the link it reads;
        # computed after every output, each would hold that link's slot to
        # the end of the call: one slot per state
        sys_ = build_ode(_lagged_chain(), {"a": np.linspace(0.0, 1.0, 3)}, fold=fold)
        assert len(sys_.initial_state) == 6
        assert _scratch_slots(sys_) <= 3

    @staticmethod
    def _stage(arch, point) -> np.ndarray:
        states = np.linspace(-1.0, 2.0, 6 * 3).reshape(6, 3)
        return build_ode(arch, point).rhs(None, *states, np.empty_like(states))

    def test_one_architecture_compiles_once(self):
        arch = _lagged_chain()
        points = [{"a": np.linspace(0.0, 1.0, 3)}, {"a": np.array([-2.0, 0.5, 7.0])}]
        codegen._code.cache_clear()
        cached = [self._stage(arch, point) for point in points]
        info = codegen._code.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        for point, got in zip(points, cached):
            codegen._code.cache_clear()
            assert got.tobytes() == self._stage(arch, point).tobytes()

    def test_one_architecture_generates_its_source_once(self, monkeypatch):
        # the envelopes of one architecture at different design points (a
        # check and the published envelope, a narrowing's probe rounds)
        # share one source, and keep their bytes when it is generated anew
        arch = _lagged_chain()
        boxes = [RangeMap.of(a=(0.0, 1.0)), RangeMap.of(a=(-2.0, 7.0))]
        plan = SamplingPlan(grid=3, step=0.05, horizon=1.0)
        generated = []
        source = codegen._source
        monkeypatch.setattr(codegen, "_source", lambda *a: generated.append(a) or source(*a))
        codegen._code.cache_clear()
        warm = [_env_bits(envelope_over_box(arch, box, plan)) for box in boxes]
        assert len(generated) == 1
        for box, bits in zip(boxes, warm):
            arch.rhs_sources.clear()
            codegen._code.cache_clear()
            assert _env_bits(envelope_over_box(arch, box, plan)) == bits
        assert len(generated) == 3

    def test_architectures_differing_in_a_constant_share_the_code(self):
        point = {"a": np.linspace(0.0, 1.0, 3)}
        codegen._code.cache_clear()
        slow, fast = (self._stage(_lagged_chain(tau=tau), point) for tau in (0.5, 0.25))
        assert codegen._code.cache_info().misses == 1
        # each keeps its own tau: every derivative (x - z) / tau doubles
        assert fast.tobytes() == (2.0 * slow).tobytes()

    def test_literals_that_compare_equal_are_not_shared(self):
        # 0.0 == -0.0, but y * 0.0 and y * -0.0 differ in sign: neither the
        # parameter-only subtrees nor the repeated ones may merge them
        wide = (-1e308, 1e308)
        f = SubFunction(id="f", exprs=(("w", BinOp("*", Var("y"), Num(0.0))),
                                       ("q", BinOp("*", Var("y"), Num(-0.0))),
                                       ("p", BinOp("+", BinOp("*", Var("a"), Num(0.0)),
                                                   BinOp("*", Var("a"), Num(-0.0))))),
                        states=(State("y", BinOp("*", Var("y"), Num(-0.0)), Var("a")),),
                        inputs=RangeMap.of(a=wide), outputs=RangeMap.of(y=wide, w=wide, q=wide,
                                                                        p=wide))
        arch = Architecture(top=FunctionalRequirement("t", inputs=RangeMap.of(a=wide)),
                            subfunctions=(f,))
        for a in (1.0, np.array([1.0, 2.0])):
            sys_ = build_ode(arch, {"a": a})
            row = np.full((4, *np.shape(a)), np.nan)
            (dy,) = sys_.rhs(row, np.asarray(a, dtype=float))
            signs = {name: np.copysign(1.0, row[j]) for j, name in enumerate(sys_.output_names)}
            assert np.all(signs["w"] == 1.0) and np.all(signs["q"] == -1.0)
            assert np.all(signs["p"] == 1.0)        # 0.0 + -0.0
            assert np.all(np.copysign(1.0, dy) == -1.0)

    @settings(max_examples=300, deadline=None)
    @given(system=_systems(), values=st.lists(st.sampled_from(_VALUES), min_size=12, max_size=12),
           lanes=st.sampled_from([0, 3]), y_type=st.sampled_from(["0-d", "scalar"]))
    def test_compiled_values_equal_the_evaluator_bit_for_bit(self, system, values, lanes, y_type):
        w, q, dy = system
        wide = (-1e308, 1e308)
        f = SubFunction(id="f", exprs=(("w", w), ("q", q)), states=(State("y", dy, Var("a")),),
                        inputs=RangeMap.of(a=wide, b=wide),
                        outputs=RangeMap.of(y=wide, w=wide, q=wide))
        top = FunctionalRequirement("t", inputs=RangeMap.of(a=wide, b=wide),
                                    outputs=RangeMap.of(y=wide))
        arch = Architecture(top=top, subfunctions=(f,), constants=(("c", values[0]),))
        if lanes:       # a bundle: every value an array
            a, b, y = (np.array(values[k:k + lanes]) for k in (1, 4, 7))
        else:           # one point: y is 0-d at t = 0 and a numpy scalar after
            a, b = values[1], values[2]
            y = np.asarray(values[3]) if y_type == "0-d" else np.float64(values[3])

        def reference(params, leaf=lambda x: x):
            env = dict(params, y=y)
            env["w"] = ex.evaluate(_map_leaves(w, leaf), env)
            env["q"] = ex.evaluate(_map_leaves(q, leaf), env)
            return ex.evaluate(_map_leaves(dy, leaf), env), env

        params = {"a": a, "b": b, "c": values[0]}
        with np.errstate(all="ignore"):
            sys_ = build_ode(arch, {"a": a, "b": b})
            try:
                want, env = reference(params)
            except ArithmeticError:     # where Python floats raise, float64 is used
                want, env = reference({k: np.float64(v) if np.ndim(v) == 0 else v
                                       for k, v in params.items()},
                                      leaf=lambda x: Num(np.float64(x.value))
                                      if isinstance(x, Num) else x)
            row = np.full((3, *np.shape(a)), np.nan)
            (stage,), (grid,) = sys_.rhs(None, y), sys_.rhs(row, y)
        assert sys_.output_names == ("q", "w", "y")
        for got in (stage, grid):
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert _same_bits(got, want)
        for j, name in enumerate(sys_.output_names):
            assert _same_bits(row[j], env[name]), name

    def _check_bundle(self, arch, env: dict):
        """The stage and grid calls of ``arch``'s bundle at ``env`` (a, b,
        y, z over lanes; the constant c) against the evaluator, bit for bit,
        twice over, so that no call depends on what the last left behind.
        The stage call gets the states as the rows of the matrix it writes
        the derivatives into, as the march hands them over."""
        f = arch.subfunctions[0]
        exprs = [*f.exprs, *(("d" + st.name, st.derivative) for st in f.states)]
        with np.errstate(all="ignore"):
            sys_ = build_ode(arch, {"a": env["a"], "b": env["b"]})
            try:
                want = _evaluated(exprs, env)
            except ArithmeticError:     # where Python floats raise, float64 is used
                want = _evaluated(exprs, env, float64=True)
            states = np.array([env["y"], env["z"]])
            for _ in range(2):
                stage = states.copy()
                assert sys_.rhs(None, *stage, stage) is stage
                grid, row = np.full_like(states, np.nan), np.full((4, states.shape[1]), np.nan)
                assert sys_.rhs(row, *states, grid) is grid
                for got in (stage, grid):
                    assert _same_bits(got[0], want["dy"]) and _same_bits(got[1], want["dz"])
                for j, name in enumerate(sys_.output_names):
                    assert _same_bits(row[j], want[name]), name

    @settings(max_examples=300, deadline=None)
    @given(system=_bundle_systems(),
           values=st.lists(st.sampled_from(_VALUES), min_size=13, max_size=13))
    def test_bundle_stage_call_equals_the_evaluator_bit_for_bit(self, system, values):
        env = {"c": values[0], **{k: np.array(values[i:i + 3])
                                  for k, i in zip("abyz", (1, 4, 7, 10))}}
        self._check_bundle(_two_state_arch(*system, c=values[0]), env)

    @settings(max_examples=50, deadline=None)
    @given(system=_early_derivative_systems(),
           values=st.lists(st.sampled_from(_VALUES), min_size=13, max_size=13))
    def test_derivative_computed_before_an_output_it_shares_a_subtree_with(self, system,
                                                                           values):
        arch = _two_state_arch(*system, c=values[0])
        lanes = {k: np.array(values[i:i + 3]) for k, i in zip("abyz", (1, 4, 7, 10))}
        self._check_bundle(arch, {"c": values[0], **lanes})
        # one design point, whose states are numpy scalars
        f = arch.subfunctions[0]
        exprs = [*f.exprs, *(("d" + st.name, st.derivative) for st in f.states)]
        env = {"c": values[0], "a": values[1], "b": values[4], "y": np.float64(values[7]),
               "z": np.float64(values[10])}
        with np.errstate(all="ignore"):
            sys_ = build_ode(arch, {"a": env["a"], "b": env["b"]})
            try:
                want = _evaluated(exprs, env)
            except ArithmeticError:     # where Python floats raise, float64 is used
                want = _evaluated(exprs, env, float64=True)
            row = np.full(4, np.nan)
            got = sys_.rhs(row, env["y"], env["z"])
        for value, name in zip(got, ("dy", "dz")):
            assert type(value) is type(want[name]) and _same_bits(value, want[name]), name
        for j, name in enumerate(sys_.output_names):
            assert _same_bits(row[j], want[name]), name

    @pytest.mark.parametrize("dy, dz", [
        (Var("z"), Var("y")),
        (BinOp("*", Var("z"), Var("c")), BinOp("-", Var("y"), Var("z"))),
        (Var("q"), BinOp("/", Var("y"), Var("w"))),
        (BinOp("-", Var("z"), Var("a")), Pow(Var("y"), 2)),
    ], ids=["states-swap", "each-reads-the-other", "output-reads-both-states", "power"])
    def test_derivatives_that_read_each_others_state(self, dy, dz):
        # a stage writes each derivative row after the last read of its
        # state, in a cycle through a scratch slot
        w = BinOp("+", Var("y"), Var("a"))
        q = BinOp("*", Var("w"), Var("z"))
        lanes = np.array(_VALUES + [-3.0, 7.25])
        env = {"c": 2.0, "a": lanes[::-1].copy(), "b": np.roll(lanes, 3), "y": lanes,
               "z": np.roll(lanes, 5)}
        self._check_bundle(_two_state_arch(w, q, dy, dz, c=2.0), env)

    def test_states_that_swap_take_one_slot(self):
        wide = (-1e308, 1e308)
        f = SubFunction(id="f", states=(State("y", Var("z"), Var("a")),
                                        State("z", Var("y"), Var("b"))),
                        inputs=RangeMap.of(a=wide, b=wide), outputs=RangeMap.of(y=wide, z=wide))
        arch = Architecture(top=FunctionalRequirement("t", inputs=RangeMap.of(a=wide, b=wide)),
                            subfunctions=(f,))
        sys_ = build_ode(arch, {"a": np.array([1.0, -0.0]), "b": np.array([2.0, np.nan])})
        states = np.array([[1.0, -0.0], [2.0, np.nan]])
        stage = states.copy()
        assert sys_.rhs(None, *stage, stage) is stage
        assert _same_bits(stage, states[::-1])
        assert _scratch_slots(sys_) == 1

    @pytest.mark.parametrize("fold", [False, True])
    def test_ordered_derivatives_are_computed_in_place(self, fold):
        # where the derivatives can be ordered after the reads of their
        # states, as on cruise and the chain, no derivative is copied
        cruise, _ = load_architecture(CRUISE)
        for arch in (_lagged_chain(), cruise):
            xs, ys, cs, us = aggregate_names(arch)
            params = [*dict(arch.constants), *((xs | cs | us) - ys)]
            source = codegen._source(arch, params, tuple(sorted(ys)), True, fold, False)
            assert "_positive" not in source
            assert not re.search(r"^ *_D\[\d+\] = ", source, re.MULTILINE)

    @pytest.mark.parametrize("exponent", [2, 3, -2])
    def test_bundle_powers_equal_the_evaluator_bit_for_bit(self, exponent):
        # a power as an output, inside an operation, as a derivative and
        # shared by an output and a derivative
        y, z, a, b = Var("y"), Var("z"), Var("a"), Var("b")
        w = Pow(y, exponent)
        q = BinOp("*", Pow(BinOp("-", z, a), exponent), Var("w"))
        dy = Pow(BinOp("+", Var("q"), b), exponent)
        dz = BinOp("-", Pow(y, exponent), Var("q"))
        lanes = np.array(_VALUES + [-3.0, 7.25, 1e-160, 1e160])
        env = {"c": 1.0, "a": lanes[::-1].copy(), "b": np.roll(lanes, 3), "y": lanes,
               "z": np.roll(lanes, 5)}
        self._check_bundle(_two_state_arch(w, q, dy, dz, c=1.0), env)

    @pytest.mark.parametrize("c", [2, 2 ** 60 + 1])
    def test_bundle_integer_operands_equal_the_evaluator_bit_for_bit(self, c):
        # an integer constant and literal as ufunc operands, alone and in
        # parameter-only subtrees that Python evaluates in integers first:
        # c - (c - 1) is 1 there, but 0 in float64 at c = 2**60 + 1
        y, z, cv = Var("y"), Var("z"), Var("c")
        w = BinOp("*", cv, y)
        q = BinOp("/", BinOp("-", Num(2), Var("w")),
                  BinOp("+", z, BinOp("*", Pow(cv, 2), Num(2))))
        dy = BinOp("-", BinOp("*", Neg(cv), z),
                   BinOp("*", BinOp("+", cv, Num(2)), BinOp("-", cv, BinOp("-", cv, Num(1)))))
        dz = BinOp("+", BinOp("*", Var("q"), Num(2)), BinOp("-", cv, y))
        lanes = np.array(_VALUES + [-3.0, 7.25, 2.0 ** 60, -(2.0 ** 61)])
        env = {"c": c, "a": lanes[::-1].copy(), "b": np.roll(lanes, 3), "y": lanes,
               "z": np.roll(lanes, 5)}
        self._check_bundle(_two_state_arch(w, q, dy, dz, c=c), env)


def _marched(arch, point: dict, horizon: float, step: float, fold: bool = False) -> np.ndarray:
    """The (times, outputs, *lanes) grid rows of the march of ``arch`` at
    ``point``, to the horizon whatever turns non-finite: written into a
    buffer row, or with ``fold`` handed over output by output."""
    sys_ = build_ode(arch, point, fold=fold)
    row = np.full((len(sys_.output_names), *sys_.shape), np.nan)
    rows: list = []
    simulation._march(sys_, horizon, step, [row.__setitem__ if fold else row],
                      lambda times, state: rows.append(row.copy()))
    return np.array(rows)


def _reference_march(arch, point: dict, horizon: float, step: float) -> np.ndarray:
    """Classical RK4 with a fresh array for every stage value, in the
    scalar form's operations and order: what ``_marched`` must equal."""
    sys_ = build_ode(arch, point)
    S = np.empty((len(sys_.initial_state), *sys_.shape))
    for s, v in zip(S, sys_.initial_state):
        s[...] = np.asarray(v, dtype=float) + 0.0
    h, rows = step, []
    with np.errstate(all="ignore"):
        for i in range(int(round(horizon / step)) + 1):
            rows.append(np.empty((len(sys_.output_names), *sys_.shape)))
            k1 = sys_.rhs(rows[-1], *S, np.empty_like(S))
            k2 = sys_.rhs(None, *(S + 0.5 * h * k1), np.empty_like(S))
            k3 = sys_.rhs(None, *(S + 0.5 * h * k2), np.empty_like(S))
            k4 = sys_.rhs(None, *(S + h * k3), np.empty_like(S))
            S = S + h / 6.0 * (((k1 + 2.0 * k2) + 2.0 * k3) + k4)
    return np.array(rows)


# y' = z, z' = y through outputs; and y' = y^2, z' = z * y^2, which diverge
_SWAP = (Var("y"), BinOp("*", Var("w"), Var("z")), Var("z"), Var("w"))
_DIVERGING = (BinOp("*", Var("y"), Var("y")), BinOp("*", Var("z"), Var("w")), Var("w"), Var("q"))


class TestKernel:
    """A bundle's march keeps three matrices and hands the right-hand side
    the stage matrix as both its states and its derivatives; every lane
    must march as if alone, and as the textbook RK4 with fresh arrays."""

    @staticmethod
    def _check(arch, point: dict, horizon: float, step: float):
        bundle = _marched(arch, point, horizon, step)
        assert _same_bits(bundle, _reference_march(arch, point, horizon, step))
        assert _same_bits(_marched(arch, point, horizon, step, fold=True), bundle)
        for lane in range(bundle.shape[-1]):
            alone = _marched(arch, {k: v[lane:lane + 1] for k, v in point.items()}, horizon, step)
            assert _same_bits(alone[..., 0], bundle[..., lane]), lane

    @settings(max_examples=100, deadline=None)
    @given(system=st.one_of(_bundle_systems(), st.just(_SWAP), st.just(_DIVERGING)),
           values=st.lists(st.sampled_from(_VALUES + [1.5, -0.75]), min_size=7, max_size=7))
    def test_lanes_march_as_if_alone(self, system, values):
        point = {"a": np.array(values[1:4]), "b": np.array(values[4:7])}
        self._check(_two_state_arch(*system, c=values[0]), point, 1.0, 0.25)

    def test_lagged_chain_lanes_march_as_if_alone(self):
        self._check(_lagged_chain(), {"a": np.array([-1.0, 0.0, 0.5, 3.0])}, 0.5, 0.05)

    def test_diverging_lanes_march_as_if_alone(self):
        # y' = y^2 from y(0) = a blows up at t = 1/a: one lane within the
        # horizon, one after it, one never
        self._check(_two_state_arch(*_DIVERGING, c=1.0),
                    {"a": np.array([4.0, 0.5, -1.0]), "b": np.array([1.0, 2.0, 3.0])}, 1.0, 0.01)


def _links_arch(links: int = 30) -> Architecture:
    """A state y with y' = s_n - y, fed through links s_k = 0.5 * s_{k-1} +
    1.0 from s_1 = y + a, and a lag z' = (s_10 - z) / tau: no power, so a
    bundle's stage call allocates no lane array at all."""
    wide = (-1e308, 1e308)
    exprs = [("s1", BinOp("+", Var("y"), Var("a")))]
    exprs += [(f"s{k}", BinOp("+", BinOp("*", Num(0.5), Var(f"s{k - 1}")), Num(1.0)))
              for k in range(2, links + 1)]
    f = SubFunction(id="f", exprs=tuple(exprs),
                    states=(State("y", BinOp("-", Var(f"s{links}"), Var("y")), Num(0.0)),
                            State("z", BinOp("/", BinOp("-", Var("s10"), Var("z")), Var("tau")),
                                  Num(0.0))),
                    inputs=RangeMap.of(a=wide),
                    outputs=RangeMap.of(y=wide, z=wide, **{n: wide for n, _ in exprs}))
    top = FunctionalRequirement("t", inputs=RangeMap.of(a=wide), outputs=RangeMap.of(y=wide))
    return Architecture(top=top, subfunctions=(f,), constants=(("tau", 0.5),))


class TestAllocation:
    """A bundle's march allocates its matrices once; tracemalloc sees numpy's
    data buffers."""

    LANES = 2000

    @staticmethod
    def _peak(run) -> int:
        """Traced peak of ``run()`` above what was allocated before it."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_stage_and_grid_calls_allocate_no_lane_array(self):
        states = np.ones((2, self.LANES))
        d = np.empty_like(states)
        row = np.empty((32, self.LANES))
        for fold, grid in ((False, row), (True, row.__setitem__)):
            sys_ = build_ode(_links_arch(), {"a": np.linspace(0.0, 1.0, self.LANES)}, fold=fold)
            sys_.rhs(grid, *states, d)

            def calls():
                sys_.rhs(None, *states, d)
                sys_.rhs(grid, *states, d)
            assert self._peak(calls) < 8 * self.LANES, fold

    def test_march_peak_is_its_matrices_at_any_number_of_steps(self):
        # 32 outputs × 2000 lanes make a 512 KB grid row, above CHUNK_BYTES:
        # the kernel folds every output and allocates no grid buffer
        sys_ = build_ode(_links_arch(), {"a": np.linspace(0.0, 1.0, self.LANES)}, fold=True)
        assert simulation._rows_per_chunk(len(sys_.output_names), self.LANES) == 0
        lane = 8 * self.LANES
        # the states, the RK4 accumulator and one stage matrix, which is
        # both a stage's input and its derivative; the scratch slots are
        # allocated with the system, before the march
        matrices = 3 * len(sys_.initial_state) * lane
        grid = [lambda j, v: (np.minimum.reduce(v), np.maximum.reduce(v))]
        simulation._march(sys_, 0.02, 0.01, grid, lambda times, state: False)
        for steps in (5, 50):
            peak = self._peak(lambda: simulation._march(sys_, steps * 0.01, 0.01, grid,
                                                        lambda times, state: False))
            assert matrices <= peak < matrices + lane, steps

    def test_samples_and_lanes_peak_near_their_matrix(self):
        # chain's published plan: 11 axes above the cap, 10 000 Halton
        # points, one 0.88 MB matrix; one dict per sample took 7.6 MB.  The
        # peak holds the samples, their lanes and a few index arrays of one
        # integer per sample, but no copy of the rows (np.unique made three)
        box = RangeMap.of(**{f"x{i:02d}": (0.0, 1.0 + i) for i in range(11)})
        plan = SamplingPlan()
        matrix = 8 * 11 * plan.cap
        got = []
        peak = self._peak(lambda: got.append(simulation._lanes([design_samples(box, plan)])))
        assert got[0][0].shape == (11, plan.cap)
        assert peak < 3 * matrix
