import importlib.resources
import math
import warnings

import numpy as np
import pytest

from setdecomp.architecture import Architecture, State, SubFunction, load_architecture
from setdecomp.errors import AlgebraicCycle, NonFinite
from setdecomp.expr import BinOp, Num, Var
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
        # 4 corners + 9 grid points, 4 shared
        assert len(pts) == 9
        assert {(p["a"], p["b"]) for p in pts} >= {(0, 10), (0, 20), (1, 10), (1, 20)}
        assert any(p["a"] == 0.5 and p["b"] == 15 for p in pts)

    def test_degenerate_axis(self):
        pts = design_samples(RangeMap.of(a=(2, 2), b=(0, 1)), SamplingPlan(grid=3))
        assert all(p["a"] == 2 for p in pts)

    def test_cap_falls_back_to_low_discrepancy(self):
        box = RangeMap.of(**{f"x{i}": (0.0, 1.0) for i in range(8)})
        pts = design_samples(box, SamplingPlan(grid=3, cap=100))
        assert len(pts) == 100
        for p in pts:
            assert all(0.0 <= v <= 1.0 for v in p.values())
        # deterministic
        assert pts == design_samples(box, SamplingPlan(grid=3, cap=100))

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

    def test_low_discrepancy_axes_use_distinct_bases(self):
        box = RangeMap.of(**{f"x{i:02d}": (0.0, 1.0) for i in range(13)})
        pts = design_samples(box, SamplingPlan(grid=3, cap=20))
        assert [p["x00"] for p in pts] != [p["x12"] for p in pts]


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

    def test_zero_step_is_rejected(self):
        with pytest.raises(ValueError):
            envelope_over_box(_decay_arch(), RangeMap.of(y0=(0.5, 2.0)), SamplingPlan(step=0))

    def test_window_extrema(self):
        env = envelope_over_box(_constant_arch(1.0), RangeMap.of(y0=(0.0, 1.0)),
                                SamplingPlan(grid=2, step=0.01, horizon=10.0),
                                windows={"y": [(5.0, 10.0)]})
        lo, hi = env.windows["y"][(5.0, 10.0)]
        assert lo == pytest.approx(5.0, abs=1e-9)   # y0=0 at t=5
        assert hi == pytest.approx(11.0, abs=1e-9)  # y0=1 at t=10

    def test_boxes_bundled_match_boxes_alone(self):
        # sets of 3 and 1 samples share a bundle filled to 3 per box
        boxes = [RangeMap.of(y0=(0.5, 2.0)), RangeMap.of(y0=(1.5, 1.5)),
                 RangeMap.of(y0=(0.75, 1.0))]
        plan = SamplingPlan(grid=3, step=0.01, horizon=1.0)
        windows = {"y": [(0.25, 0.5)]}
        bundled = envelope_over_box(_decay_arch(), boxes, plan, windows)
        alone = [envelope_over_box(_decay_arch(), b, plan, windows) for b in boxes]
        assert bundled == alone
        assert [e.n_samples for e in bundled] == [3, 1, 3]

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
