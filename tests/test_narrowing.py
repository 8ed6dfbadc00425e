import importlib.resources
import json
import math
import random

import pytest

from setdecomp import narrowing, simulation
from setdecomp.architecture import (Architecture, State, SubFunction, architecture_from_dict,
                                    load_architecture)
from setdecomp.errors import (CoverageViolation, Infeasible, NonFinite, PostconditionFailure,
                              ValidationError)
from setdecomp.expr import BinOp, Num, Pow, Var, parse_expr
from setdecomp.intervals import Interval, RangeMap
from setdecomp.narrowing import initial_spaces, narrow, top_windows
from setdecomp.requirements import FunctionalRequirement, TimedOutputSpec
from setdecomp.simulation import SamplingPlan, build_ode, envelope_over_box

CRUISE = str(importlib.resources.files("setdecomp") / "data" / "cruise.json")

FAST_PLAN = SamplingPlan(grid=2, step=0.05, horizon=20.0)


@pytest.fixture(scope="module")
def cruise():
    arch, _ = load_architecture(CRUISE)
    return arch


def _passthrough_arch(c_range=(0.0, 10.0), top_out=(0.0, 5.0), timed_outputs=()):
    """y = c + 0*x: output directly tracks the controllable."""
    top = FunctionalRequirement("top", inputs=RangeMap.of(x=(0, 1)),
                                outputs=RangeMap.of(y=top_out),
                                timed_outputs=timed_outputs)
    f = SubFunction(
        id="f",
        exprs=(("y", BinOp("+", Var("c"), BinOp("*", Num(0.0), Var("x")))),),
        inputs=RangeMap.of(x=(-1, 2)), outputs=RangeMap.of(y=(-100, 100)),
        controllables=RangeMap.of(c=c_range))
    return Architecture(top=top, subfunctions=(f,))


@pytest.fixture(scope="module")
def cruise_narrow():
    """cruise with the windowed speed bound lowered to 36.55 m/s, so that
    narrowing bisects omega_m."""
    with open(CRUISE, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["top"]["timed_outputs"][0]["windows"][0]["hi"] = 36.55
    return architecture_from_dict(doc)


def _probe_arch(extra, top_out=(0.0, 5.0)):
    """_passthrough_arch plus one more output of c and x, ``extra``."""
    base = _passthrough_arch(c_range=(0.0, 10.0), top_out=top_out)
    (f,) = base.subfunctions
    g = SubFunction(id="g", exprs=(("z", extra),), inputs=RangeMap.of(x=(-1, 2)),
                    outputs=RangeMap.of(z=(-100, 100)),
                    controllables=RangeMap.of(c=(0.0, 10.0)))
    return Architecture(top=base.top, subfunctions=(f, g))


def _marches(monkeypatch) -> list[list[int]]:
    """[boxes, lanes] of every envelope narrowing simulates."""
    marches: list[list[int]] = []

    def envelope(arch, box, plan, windows=None):
        marches.append([1 if isinstance(box, RangeMap) else len(box)])
        return envelope_over_box(arch, box, plan, windows)

    def ode(arch, point, **kw):
        sys_ = build_ode(arch, point, **kw)
        marches[-1].append(math.prod(sys_.shape))
        return sys_
    monkeypatch.setattr(narrowing, "envelope_over_box", envelope)
    monkeypatch.setattr(simulation, "build_ode", ode)
    return marches


def _sequential_fds(arch, spaces, plan):
    """Reference narrowing: the bisection of ``narrow``, one probe per
    envelope."""
    check_plan = plan.reduced()
    windows = top_windows(arch)

    def feasible(box):
        env = envelope_over_box(arch, box, check_plan,
                                windows={k: [(t0, t1) for t0, t1, _ in ws]
                                         for k, ws in windows.items()})
        return (all(iv.lo <= env.bounds[v][0] and env.bounds[v][1] <= iv.hi
                    for v, iv in spaces.fps.items())
                and all(iv.lo <= env.windows[k][(t0, t1)][0]
                        and env.windows[k][(t0, t1)][1] <= iv.hi
                        for k, ws in windows.items() for t0, t1, iv in ws))

    work = spaces.fds
    if feasible(work):
        return work
    c = "c"
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


def _chain_arch(n=200, seed=1):
    """A chain s_k = 0.5*s_{k-1} + 1 [+ c_k] of ``n`` links: every tenth
    link a first-order lag, ten links with a controllable offset, and
    seeded port ranges that differ between producer and consumer."""
    rng = random.Random(seed)

    def port(name):
        lo, hi = -10.0 + rng.uniform(0, 2), 20.0 - rng.uniform(0, 2)
        return RangeMap.of(**{name: (lo, hi)})

    subs = []
    for k in range(1, n + 1):
        step = ["+", ["*", 0.5, ["var", f"s{k - 1}"]], 1.0]
        controllables, states = RangeMap(), ()
        if k % 10 == 0:
            states = (State(f"z{k}", parse_expr(["-", step, ["var", f"z{k}"]]), Num(0.0)),)
            step = ["var", f"z{k}"]
        elif k % (n // 10) == 5:
            lo = rng.uniform(0.0, 0.2)
            controllables = RangeMap.of(**{f"c{k}": (lo, lo + rng.uniform(0.2, 0.5))})
            step = ["+", step, ["var", f"c{k}"]]
        subs.append(SubFunction(
            id=f"L{k:03d}", exprs=((f"s{k}", parse_expr(step)),), states=states,
            inputs=port(f"s{k - 1}"), outputs=port(f"s{k}"), controllables=controllables))
    top = FunctionalRequirement(f"chain-{n}", inputs=RangeMap.of(s0=(0.0, 1.0)),
                                outputs=RangeMap.of(**{f"s{n}": (-5.0, 15.0)}))
    return Architecture(top=top, subfunctions=tuple(subs))


def _oracle_spaces(arch):
    """Plain intersect -> pin -> split-by-producer, as (lo, hi) by name."""
    ranges: dict[str, tuple[float, float]] = {}

    def tighten(name, iv):
        lo, hi = ranges.get(name, (-float("inf"), float("inf")))
        ranges[name] = (max(lo, iv.lo), min(hi, iv.hi))

    for sf in arch.subfunctions:
        for role in (sf.inputs, sf.outputs, sf.controllables, sf.uncontrollables):
            for v, iv in role.items():
                tighten(v, iv)
    for role in (arch.top.inputs, arch.top.uncontrollables):
        for v, iv in role.items():
            ranges[v] = (iv.lo, iv.hi)
    for v, iv in arch.top.outputs.items():
        tighten(v, iv)
    produced = {v for sf in arch.subfunctions for v in sf.outputs}
    return ({k: r for k, r in ranges.items() if k not in produced},
            {k: r for k, r in ranges.items() if k in produced})


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
        spaces = initial_spaces(cruise)
        # m is an uncontrollable of both f2 and f3
        assert spaces.fds["m"] == Interval(990, 1100, "kg")
        # Fr: f3 produces [70, 120], f2 consumes [60, 130]
        assert spaces.fps["Fr"] == Interval(70, 120, "N")

    def test_initial_spaces_pin_top_inputs(self, cruise):
        spaces = initial_spaces(cruise)
        # f1 accepts v_0 in [0, 40]; the top input pins it
        assert spaces.fds["v_0"] == Interval(23.0, 30.0, "m/s")
        # v is produced and fed back: a top output, tightened, in the FPS
        assert spaces.fps["v"] == Interval(20.0, 40.0, "m/s")

    @pytest.mark.parametrize("build", [
        lambda: load_architecture(CRUISE)[0],
        _chain_arch,
    ], ids=["cruise", "chain-200"])
    def test_spaces_equal_plain_intersect_pin_split(self, build):
        arch = build()
        spaces = initial_spaces(arch)
        fds, fps = _oracle_spaces(arch)
        assert {v: (iv.lo, iv.hi) for v, iv in spaces.fds.items()} == fds
        assert {v: (iv.lo, iv.hi) for v, iv in spaces.fps.items()} == fps

    def test_top_range_wider_than_architecture_is_a_coverage_violation(self):
        arch = _passthrough_arch()
        wide = arch.top.inputs.with_entry("x", Interval(-5, 5))
        bad = Architecture(
            top=FunctionalRequirement("top", inputs=wide, outputs=arch.top.outputs),
            subfunctions=arch.subfunctions)
        with pytest.raises(CoverageViolation, match="x"):
            initial_spaces(bad)


    def test_top_input_no_sub_function_consumes_is_a_coverage_violation(self):
        # coverage is validated before any top range is pinned on
        arch = _passthrough_arch()
        extra = arch.top.inputs.with_entry("q", Interval(0, 1))
        bad = Architecture(
            top=FunctionalRequirement("top", inputs=extra, outputs=arch.top.outputs),
            subfunctions=arch.subfunctions)
        with pytest.raises(CoverageViolation, match=r"coverage violation: q \(input\)"):
            initial_spaces(bad)


class TestNarrow:
    def test_controllable_shrinks_until_feasible(self):
        arch = _passthrough_arch(c_range=(0.0, 10.0), top_out=(0.0, 5.0))
        spaces = initial_spaces(arch)
        assert spaces.fps["y"] == Interval(0, 5)
        res = narrow(arch, spaces, SamplingPlan(grid=2, step=0.5, horizon=1.0))
        c2 = res.narrowed.fds["c"]
        assert c2.lo == pytest.approx(0.0, abs=0.01)
        assert c2.hi == pytest.approx(5.0, abs=1e-9)
        assert spaces.fds["c"].contains_interval(c2)

    def test_feasible_box_is_left_alone(self):
        arch = _passthrough_arch(c_range=(1.0, 4.0), top_out=(0.0, 5.0))
        spaces = initial_spaces(arch)
        res = narrow(arch, spaces, SamplingPlan(grid=2, step=0.5, horizon=1.0))
        assert res.narrowed.fds == spaces.fds
        assert any(e.get("step") == "full-box-feasible" for e in res.log)

    def test_infeasible_midpoint_raises(self):
        arch = _passthrough_arch(c_range=(20.0, 30.0), top_out=(0.0, 5.0))
        spaces = initial_spaces(arch)
        with pytest.raises(Infeasible, match=r"midpoints: y hi: simulated 25\.0 > allowed 5\.0$"):
            narrow(arch, spaces, SamplingPlan(grid=2, step=0.5, horizon=1.0))

    def test_low_side_escape_grows_the_lower_bound_from_the_midpoint(self):
        # y = c over c in [-4, 4] leaves [0, 5] below: every lo probe fails,
        # every hi probe passes
        arch = _passthrough_arch(c_range=(-4.0, 4.0), top_out=(0.0, 5.0))
        res = narrow(arch, initial_spaces(arch), SamplingPlan(grid=2, step=0.5, horizon=1.0))
        assert res.narrowed.fds["c"].lo == 0.0
        assert res.narrowed.fds["c"].hi == pytest.approx(4.0, abs=0.01)
        assert res.narrowed.fps["y"].lo == 0.0

    def test_low_side_escape_of_the_midpoint_box_is_named(self):
        arch = _passthrough_arch(c_range=(-30.0, -20.0), top_out=(0.0, 5.0))
        with pytest.raises(Infeasible, match=r"midpoints: y lo: simulated -25\.0 < allowed 0\.0$"):
            narrow(arch, initial_spaces(arch), SamplingPlan(grid=2, step=0.5, horizon=1.0))

    def test_attained_space_is_the_raw_envelope(self):
        # y = c over c in [1, 4] reaches the window bound 4 exactly
        window = TimedOutputSpec("y", ((0.0, 1.0, Interval(0.0, 4.0)),))
        arch = _passthrough_arch(c_range=(1.0, 4.0), top_out=(0.0, 4.0),
                                 timed_outputs=(window,))
        spaces = initial_spaces(arch)
        plan = SamplingPlan(grid=2, step=0.5, horizon=1.0)
        res = narrow(arch, spaces, plan)
        env = envelope_over_box(arch, res.narrowed.fds, plan)
        assert {v: (iv.lo, iv.hi) for v, iv in res.narrowed.fps.items()} == env.bounds
        assert res.narrowed.fps["y"] == Interval(1.0, 4.0)
        assert res.log[-1] == {"step": "performance-envelope", "samples": 4}

    def test_published_envelope_escape_fails_where_the_probes_pass(self):
        # the probes sample the corners and centre of a, b in [-1, 1], where
        # y' = a*a*(1 - b*b) is 0; the published grid also holds (+-1, 0),
        # where y reaches 1 at t = 1
        top = FunctionalRequirement("top", inputs=RangeMap.of(a=(-1, 1), b=(-1, 1)),
                                    outputs=RangeMap.of(y=(-1, 0.5)))
        rate = BinOp("*", BinOp("*", Var("a"), Var("a")),
                     BinOp("-", Num(1.0), BinOp("*", Var("b"), Var("b"))))
        f = SubFunction(id="f", states=(State("y", rate, Num(0.0)),),
                        inputs=RangeMap.of(a=(-1, 1), b=(-1, 1)),
                        outputs=RangeMap.of(y=(-10, 10)))
        arch = Architecture(top=top, subfunctions=(f,))
        with pytest.raises(PostconditionFailure, match=r"'envelope'.*y hi: simulated "
                           r"1\.0\d* > allowed 0\.5") as exc:
            narrow(arch, initial_spaces(arch), SamplingPlan(grid=3, step=0.25, horizon=1.0))
        assert exc.value.law == "envelope"

    def test_window_the_plan_never_reaches_is_rejected(self):
        window = TimedOutputSpec("y", ((2.0, 3.0, Interval(0.0, 4.0)),))
        arch = _passthrough_arch(timed_outputs=(window,))
        with pytest.raises(ValidationError, match=r"window \[2, 3\] of 'y'.*horizon 1, step 0\.5"):
            narrow(arch, initial_spaces(arch), SamplingPlan(grid=2, step=0.5, horizon=1.0))

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
        plan = SamplingPlan(grid=2, step=0.5, horizon=1.0)
        res = narrow(arch, spaces, plan)
        assert res.narrowed.fds == _sequential_fds(arch, spaces, plan)
        assert res.narrowed.fds["c"].hi == 5.0

    def test_full_box_nonfinite_is_raised(self):
        # z = 1 / (c - 10) is infinite at the full box's corner c = 10
        arch = _probe_arch(BinOp("/", Num(1.0), BinOp("-", Var("c"), Num(10.0))))
        spaces = initial_spaces(arch)
        plan = SamplingPlan(grid=2, step=0.5, horizon=1.0)
        with pytest.raises(NonFinite) as alone:
            envelope_over_box(arch, spaces.fds, plan.reduced())
        with pytest.raises(NonFinite) as got:
            narrow(arch, spaces, plan)
        assert str(got.value) == str(alone.value)

    def test_midpoint_nonfinite_is_ignored_when_the_full_box_fits(self):
        # z = 1 / ((c - 5)^2 + (x - 0.5)^2 - 0.25) is infinite at (x, c) =
        # (0, 5) and (1, 5): samples of the all-midpoint box, not of the full one
        x, c = Var("x"), Var("c")
        spike = BinOp("/", Num(1.0), BinOp("-", BinOp("+", Pow(BinOp("-", c, Num(5.0)), 2),
                                                      Pow(BinOp("-", x, Num(0.5)), 2)),
                                           Num(0.25)))
        arch = _probe_arch(spike, top_out=(0.0, 10.0))
        spaces = initial_spaces(arch)
        plan = SamplingPlan(grid=2, step=0.5, horizon=1.0)
        with pytest.raises(NonFinite):
            envelope_over_box(arch, spaces.fds.with_entry("c", Interval(5.0, 5.0)),
                              plan.reduced())
        res = narrow(arch, spaces, plan)
        assert res.narrowed.fds == spaces.fds
        assert res.log[1] == {"step": "full-box-feasible", "narrowed": False}

    def test_midpoint_nonfinite_is_raised_when_the_full_box_escapes(self):
        # the spike of the test above, with y = c over c in [0, 10] leaving
        # [0, 5]: the all-midpoint box is read, and its samples (0, 5) and
        # (1, 5) divide by zero
        x, c = Var("x"), Var("c")
        spike = BinOp("/", Num(1.0), BinOp("-", BinOp("+", Pow(BinOp("-", c, Num(5.0)), 2),
                                                      Pow(BinOp("-", x, Num(0.5)), 2)),
                                           Num(0.25)))
        arch = _probe_arch(spike)
        spaces = initial_spaces(arch)
        plan = SamplingPlan(grid=2, step=0.5, horizon=1.0)
        with pytest.raises(NonFinite) as alone:
            envelope_over_box(arch, spaces.fds.with_entry("c", Interval(5.0, 5.0)),
                              plan.reduced())
        with pytest.raises(NonFinite) as got:
            narrow(arch, spaces, plan)
        assert str(got.value) == str(alone.value)

    def test_probe_nonfinite_the_walk_reaches_is_raised(self):
        # z = 1 / (c - 7.5): the first hi trial, the box [0, 7.5], divides
        # by zero at its corner c = 7.5, and the walk starts there
        arch = _probe_arch(BinOp("/", Num(1.0), BinOp("-", Var("c"), Num(7.5))))
        spaces = initial_spaces(arch)
        plan = SamplingPlan(grid=2, step=0.5, horizon=1.0)
        with pytest.raises(NonFinite) as alone:
            envelope_over_box(arch, spaces.fds.with_entry("c", Interval(0.0, 7.5)),
                              plan.reduced())
        with pytest.raises(NonFinite) as got:
            narrow(arch, spaces, plan)
        assert "'z" in str(got.value)
        assert str(got.value) == str(alone.value)

    def test_box_without_design_variables(self):
        # y' = -y from y = 1: the full and all-midpoint boxes are both the
        # one empty sample, marched once without lanes
        top = FunctionalRequirement("t", outputs=RangeMap.of(y=(-2, 2)))
        f = SubFunction(id="f", states=(State("y", BinOp("*", Num(-1.0), Var("y")), Num(1.0)),),
                        outputs=RangeMap.of(y=(-2, 2)))
        arch = Architecture(top=top, subfunctions=(f,))
        res = narrow(arch, initial_spaces(arch), SamplingPlan(step=0.5, horizon=2.0))
        assert [entry["step"] for entry in res.log] == [
            "narrow-start", "full-box-feasible", "performance-envelope"]
        assert res.narrowed.fps["y"].hi == 1.0

    def test_cruise_judges_both_first_boxes_in_one_march(self, cruise, monkeypatch):
        marches = _marches(monkeypatch)
        narrow(cruise, initial_spaces(cruise), FAST_PLAN)
        # 17 samples of the full box and 9 of the all-midpoint box, one shared
        assert marches == [[2, 25], [1, 16]]

    def test_cruise_narrow_marches_each_shared_sample_once(self, cruise_narrow, monkeypatch):
        marches = _marches(monkeypatch)
        res = narrow(cruise_narrow, initial_spaces(cruise_narrow), SamplingPlan(step=0.05))
        # the first check, two bounds of omega_m in three rounds of 15
        # probes each, and the published envelope
        assert [boxes for boxes, _ in marches] == [2, 15, 15, 15, 15, 15, 15, 1]
        # a round's 15 x 17 = 255 samples share the 8 corners at the bound
        # held fixed: 120 corners at the trial bounds, 8 shared, 15 centres
        assert [lanes for _, lanes in marches] == [25, *[143] * 6, 81]
        assert res.log[0]["samples_per_check"] == 17

    def test_cruise_narrowed_spaces_nest(self, cruise):
        spaces = initial_spaces(cruise)
        res = narrow(cruise, spaces, FAST_PLAN)
        for v, iv in res.narrowed.fds.items():
            assert spaces.fds[v].contains_interval(iv)
        for v, iv in res.narrowed.fps.items():
            assert spaces.fps[v].contains_interval(iv), v

    def test_provenance_log_is_json_friendly(self, cruise):
        import json
        res = narrow(cruise, initial_spaces(cruise), FAST_PLAN)
        json.dumps(list(res.log))  # must not raise
        # corners of the four design axes plus the centre
        assert res.log[0]["samples_per_check"] == 17
