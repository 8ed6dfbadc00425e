import importlib.resources

import pytest

from setdecomp.architecture import (Algebraic, Architecture, SubFunction,
                                    load_architecture)
from setdecomp.errors import CoverageViolation, Infeasible
from setdecomp.expr import BinOp, Num, Var
from setdecomp.intervals import Interval, RangeMap, VarId
from setdecomp.narrowing import (aggregate_ranges, compute_group_ranges,
                                 initial_spaces, narrow, top_windows)
from setdecomp.simulation import SamplingPlan, envelope_over_box

CRUISE = str(importlib.resources.files("setdecomp") / "data" / "cruise.json")

FAST_PLAN = SamplingPlan(grid=2, padding=0.02, step=0.05, horizon=20.0)


@pytest.fixture(scope="module")
def cruise():
    arch, _ = load_architecture(CRUISE)
    return arch


def _passthrough_arch(c_range=(0.0, 10.0), top_out=(0.0, 5.0)):
    """y = c + 0*x: output directly tracks the controllable."""
    from setdecomp.requirements import FunctionalRequirement
    top = FunctionalRequirement("top", inputs=RangeMap.of(x=(0, 1)),
                                outputs=RangeMap.of(y=top_out))
    f = SubFunction(
        id="f",
        kind=Algebraic(exprs=(("y", BinOp("+", Var("c"),
                                          BinOp("*", Num(0.0), Var("x")))),)),
        inputs=RangeMap.of(x=(-1, 2)), outputs=RangeMap.of(y=(-100, 100)),
        controllables=RangeMap.of(c=c_range))
    return Architecture(top=top, subfunctions=(f,))


def _probe_arch(extra):
    """_passthrough_arch plus one more output of c, ``extra``."""
    base = _passthrough_arch(c_range=(0.0, 10.0), top_out=(0.0, 5.0))
    (f,) = base.subfunctions
    g = SubFunction(id="g", kind=Algebraic(exprs=(("z", extra),)),
                    outputs=RangeMap.of(z=(-100, 100)),
                    controllables=RangeMap.of(c=(0.0, 10.0)))
    return Architecture(top=base.top, subfunctions=(f, g))


def _sequential_fds(arch, spaces, plan):
    """Reference narrowing: the bisection of ``narrow``, one probe per
    envelope."""
    check_plan = plan.reduced()
    windows = top_windows(arch)

    def feasible(box):
        env = envelope_over_box(arch, box, check_plan,
                                windows={k: [(t0, t1) for t0, t1, _ in ws]
                                         for k, ws in windows.items()})
        return (all(iv.lo <= env.bounds[v.name][0] and env.bounds[v.name][1] <= iv.hi
                    for v, iv in spaces.fps.items())
                and all(iv.lo <= env.windows[k][(t0, t1)][0]
                        and env.windows[k][(t0, t1)][1] <= iv.hi
                        for k, ws in windows.items() for t0, t1, iv in ws))

    work = spaces.fds
    if feasible(work):
        return work
    (c,) = [v for v, _ in work.items() if v.name == "c"]
    work = work.with_entry(c, Interval(work[c].mid, work[c].mid))
    for side in ("lo", "hi"):
        ok, target = getattr(work[c], side), getattr(spaces.fds[c], side)
        for _ in range(12):
            trial = 0.5 * (ok + target)
            cand = (Interval(trial, work[c].hi) if side == "lo"
                    else Interval(work[c].lo, trial))
            if feasible(work.with_entry(c, cand)):
                ok, work = trial, work.with_entry(c, cand)
            else:
                target = trial
    return work


class TestInitialSpaces:
    def test_cruise_fds1_exact(self, cruise):
        fds = initial_spaces(cruise).fds
        assert fds["v_0"] == Interval(23.0, 30.0, "m/s")
        assert fds["v_r"] == Interval(34.0, 36.0, "m/s")
        assert fds["m"] == Interval(990.0, 1100.0, "kg")
        assert fds["omega_m"] == Interval(350.0, 480.0, "rad/s")
        assert len(fds) == 4

    def test_cruise_fps1_exact(self, cruise):
        fps = initial_spaces(cruise).fps
        assert fps["vdot"] == Interval(-1.5, 3.0, "m/s^2")
        assert fps["Fr"] == Interval(70.0, 120.0, "N")
        assert fps["F"] == Interval(-250.0, 3500.0, "N")
        assert fps["Fa"] == Interval(0.0, 1000.0, "N")
        assert fps["T"] == Interval(0.0, 250.0, "Nm")
        assert fps["u"] == Interval(-0.5, 2.0, "")
        assert fps["omega"] == Interval(0.0, 450.0, "rad/s")
        assert fps["v"] == Interval(20.0, 40.0, "m/s")
        assert len(fps) == 8

    def test_aggregation_intersects_shared_ports(self, cruise):
        roles = aggregate_ranges(cruise)
        # m appears in f2 and f3 with identical printed ranges
        assert roles["uncontrollables"]["m"] == Interval(990, 1100, "kg")
        # v is consumed by f5 [0,60], f6 [0,55] and f8 [0,60]
        assert roles["inputs"]["v"] == Interval(0, 55, "m/s")

    def test_group_ranges_pin_top_inputs(self, cruise):
        groups = compute_group_ranges(cruise)
        assert groups["x"]["v_0"] == Interval(23.0, 30.0, "m/s")
        assert groups["y3"]["v"] == Interval(20.0, 40.0, "m/s")

    def test_top_range_wider_than_architecture_is_a_coverage_violation(self):
        arch = _passthrough_arch()
        wide = arch.top.inputs.with_entry(VarId("x"), Interval(-5, 5))
        from setdecomp.requirements import FunctionalRequirement
        bad = Architecture(
            top=FunctionalRequirement("top", inputs=wide, outputs=arch.top.outputs),
            subfunctions=arch.subfunctions)
        with pytest.raises(CoverageViolation, match="x"):
            initial_spaces(bad)


class TestNarrow:
    def test_controllable_shrinks_until_feasible(self):
        arch = _passthrough_arch(c_range=(0.0, 10.0), top_out=(0.0, 5.0))
        spaces = initial_spaces(arch)
        assert spaces.fps["y"] == Interval(0, 5)
        res = narrow(arch, spaces, SamplingPlan(grid=2, padding=0.0,
                                                step=0.5, horizon=1.0))
        c2 = res.narrowed.fds["c"]
        assert c2.lo == pytest.approx(0.0, abs=0.01)
        assert c2.hi == pytest.approx(5.0, abs=1e-9)
        assert spaces.fds["c"].contains_interval(c2)

    def test_feasible_box_is_left_alone(self):
        arch = _passthrough_arch(c_range=(1.0, 4.0), top_out=(0.0, 5.0))
        spaces = initial_spaces(arch)
        res = narrow(arch, spaces, SamplingPlan(grid=2, padding=0.0,
                                                step=0.5, horizon=1.0))
        assert res.narrowed.fds == spaces.fds
        assert any(e.get("step") == "full-box-feasible" for e in res.log)

    def test_infeasible_midpoint_raises(self):
        arch = _passthrough_arch(c_range=(20.0, 30.0), top_out=(0.0, 5.0))
        spaces = initial_spaces(arch)
        with pytest.raises(Infeasible):
            narrow(arch, spaces, SamplingPlan(grid=2, padding=0.0,
                                              step=0.5, horizon=1.0))

    def test_padding_escape_is_clipped_and_logged(self):
        arch = _passthrough_arch(c_range=(0.0, 5.0), top_out=(0.0, 5.0))
        spaces = initial_spaces(arch)
        res = narrow(arch, spaces, SamplingPlan(grid=2, padding=0.1,
                                                step=0.5, horizon=1.0))
        assert res.escapes, "padded envelope must poke out of an exactly-tight space"
        assert spaces.fps["y"].contains_interval(res.narrowed.fps["y"])
        # raw envelope kept alongside the clipped space
        lo, hi = res.envelope.bounds["y"]
        assert lo < 0.0 < 5.0 < hi

    @pytest.mark.parametrize("extra", [
        # c = 8.75 is probed only if the first hi trial, 7.5, passes; it
        # fails, so only a speculative probe divides by zero
        BinOp("/", Num(1.0), BinOp("-", Var("c"), Num(8.75))),
        # a spike of z at c = 3.75, the centre of the first lo probe
        # [2.5, 5], fails that probe while the wider [1.25, 5] passes
        BinOp("/", Num(0.05),
              BinOp("+", BinOp("*", BinOp("-", Var("c"), Num(3.75)),
                               BinOp("-", Var("c"), Num(3.75))), Num(1e-4))),
    ], ids=["unvisited-probe-diverges", "non-monotone"])
    def test_bundled_probes_give_the_sequential_result(self, extra):
        arch = _probe_arch(extra)
        spaces = initial_spaces(arch)
        plan = SamplingPlan(grid=2, padding=0.0, step=0.5, horizon=1.0)
        res = narrow(arch, spaces, plan)
        assert res.narrowed.fds == _sequential_fds(arch, spaces, plan)
        assert res.narrowed.fds["c"].hi == 5.0

    def test_cruise_narrowed_spaces_nest(self, cruise):
        spaces = initial_spaces(cruise)
        res = narrow(cruise, spaces, FAST_PLAN)
        for v, iv in res.narrowed.fds.items():
            assert spaces.fds[v].contains_interval(iv)
        for v, iv in res.narrowed.fps.items():
            assert spaces.fps[v].contains_interval(iv), v.name

    def test_provenance_log_is_json_friendly(self, cruise):
        import json
        res = narrow(cruise, initial_spaces(cruise), FAST_PLAN)
        json.dumps(list(res.log))  # must not raise
        # corners of the four design axes plus the centre
        assert res.log[0]["samples_per_check"] == 17
