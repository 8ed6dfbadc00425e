import importlib.resources
import random

import numpy as np
import pytest

from setdecomp.architecture import Architecture, SubFunction, load_architecture
from setdecomp.errors import Infeasible, InfeasibleBrackets, ValidationError
from setdecomp.expr import BinOp, Num, Var, evaluate_interval
from setdecomp.intervals import Interval, RangeMap
from setdecomp.narrowing import initial_spaces, narrow
from setdecomp.requirements import FunctionalRequirement, check_refines
from setdecomp.simulation import SamplingPlan
from setdecomp.tradeoff import (BarrierProblem, Bracket, PreferenceWeights,
                                assemble_subrequirements, barrier_gradient,
                                barrier_value, build_brackets,
                                restore_feasibility, run_tradeoff,
                                solve_tradeoff)

CRUISE = str(importlib.resources.files("setdecomp") / "data" / "cruise.json")


def _chain_arch():
    """f produces y (consumed by g), g produces z (top output)."""
    top = FunctionalRequirement("top", inputs=RangeMap.of(x=(0, 1)),
                                outputs=RangeMap.of(z=(-50, 50)))
    f = SubFunction(id="f", exprs=(("y", Var("x")),),
                    inputs=RangeMap.of(x=(-1, 2)), outputs=RangeMap.of(y=(-20, 20)))
    g = SubFunction(id="g", exprs=(("z", BinOp("*", Num(2.0), Var("y"))),),
                    inputs=RangeMap.of(y=(-20, 20)), outputs=RangeMap.of(z=(-50, 50)))
    return Architecture(top=top, subfunctions=(f, g))


def _loop_arch():
    """f: a = x, b = c and g: c = 2*a feed each other, but their expressions
    form no cycle; h: d = b is the top output."""
    top = FunctionalRequirement("top", inputs=RangeMap.of(x=(0, 1)),
                                outputs=RangeMap.of(d=(-100, 100)))
    f = SubFunction(id="f", exprs=(("a", Var("x")), ("b", Var("c"))),
                    inputs=RangeMap.of(x=(-1, 2), c=(-100, 100)),
                    outputs=RangeMap.of(a=(-80, 80), b=(-100, 100)))
    g = SubFunction(id="g", exprs=(("c", BinOp("*", Num(2.0), Var("a"))),),
                    inputs=RangeMap.of(a=(-80, 80)), outputs=RangeMap.of(c=(-100, 100)))
    h = SubFunction(id="h", exprs=(("d", Var("b")),),
                    inputs=RangeMap.of(b=(-100, 100)), outputs=RangeMap.of(d=(-100, 100)))
    return Architecture(top=top, subfunctions=(f, g, h))


class TestBrackets:
    def test_build_from_nested_boxes(self):
        fps1 = RangeMap.of(y=(0.0, 10.0))
        fps2 = RangeMap.of(y=(4.0, 6.0))
        b = build_brackets(fps1, fps2)["y"]
        assert (b.l1, b.l2, b.u2, b.u1) == (0.0, 4.0, 6.0, 10.0)

    def test_unordered_bracket_rejected(self):
        with pytest.raises(InfeasibleBrackets):
            Bracket("y", "", 5.0, 4.0, 6.0, 10.0)

    def test_degenerate_side_is_pinned(self):
        brackets = {"y": Bracket("y", "", 0.0, 0.0, 6.0, 10.0)}
        problem = BarrierProblem(_chain_arch(), brackets, PreferenceWeights())
        assert problem.pinned == {("y", "lo"): 0.0}
        assert [f[0:2] for f in problem.free] == [("y", "hi")]


class TestBarrier:
    def _problem(self, a_p=0.3, a_c=0.6):
        brackets = {"y": Bracket("y", "", 0.0, 4.0, 6.0, 10.0)}
        weights = PreferenceWeights(producer={"y": a_p}, consumer={"g": {"y": a_c}})
        return BarrierProblem(_chain_arch(), brackets, weights)

    def test_value_is_infinite_outside_brackets(self):
        p = self._problem()
        assert barrier_value(p, np.array([4.0, 6.0])) == float("inf")
        assert barrier_value(p, np.array([2.0, 8.0])) < float("inf")

    def test_gradient_matches_central_differences(self):
        p = self._problem()
        rng = random.Random(5)
        h = 1e-6
        for _ in range(100):
            x = np.array([rng.uniform(0.5, 3.5), rng.uniform(6.5, 9.5)])
            g = barrier_gradient(p, x)
            for k in range(len(x)):
                e = np.zeros(len(x))
                e[k] = h
                fd = (barrier_value(p, x + e) - barrier_value(p, x - e)) / (2 * h)
                assert g[k] == pytest.approx(fd, rel=1e-6)

    def test_solver_matches_closed_form_optimum(self):
        # stationarity of  -a_p*ln(d_inner) - a_c*ln(d_outer)  has the closed
        # form  bound* = (a_p*outer + a_c*inner) / (a_p + a_c)
        a_p, a_c = 0.3, 0.6
        p = self._problem(a_p, a_c)
        x, _ = solve_tradeoff(p)
        l_star = (a_p * 0.0 + a_c * 4.0) / (a_p + a_c)
        u_star = (a_p * 10.0 + a_c * 6.0) / (a_p + a_c)
        assert x[0] == pytest.approx(l_star, rel=1e-6)
        assert x[1] == pytest.approx(u_star, rel=1e-6)

    @pytest.mark.parametrize("a_p, a_c, expected", [
        (0.0, 0.6, [4.0, 6.0]),      # only the consumers push: the inner wall
        (0.3, 0.0, [0.0, 10.0]),     # only the producer pushes: the outer wall
        (0.0, 0.0, [2.0, 8.0]),      # constant barrier: the bracket midpoint
    ], ids=["inner-wall", "outer-wall", "midpoint"])
    def test_zero_weights_give_exact_walls_or_midpoint(self, a_p, a_c, expected):
        x, _ = solve_tradeoff(self._problem(a_p, a_c))
        assert list(x) == expected

    def test_unconsumed_variable_drifts_to_the_outer_wall(self):
        # z has no consumers, so only the producer term pushes: toward FPS1
        brackets = {"z": Bracket("z", "", -50.0, -10.0, 10.0, 50.0)}
        p = BarrierProblem(_chain_arch(), brackets,
                           PreferenceWeights(producer={"z": 0.5}, consumer={}))
        x, _ = solve_tradeoff(p)
        assert x[0] == pytest.approx(-50.0, abs=1e-3)
        assert x[1] == pytest.approx(50.0, abs=1e-3)


class TestRestoration:
    def test_output_widened_to_cover_interval_image(self):
        arch = _chain_arch()
        brackets = {"y": Bracket("y", "", -20.0, -0.5, 0.5, 20.0),
                    "z": Bracket("z", "", -50.0, -6.0, 6.0, 50.0)}
        chosen = RangeMap.of(y=(-0.5, 0.5), z=(-6.0, 6.0))
        fds2 = RangeMap.of(x=(-1.0, 2.0))
        fixed, log = restore_feasibility(arch, chosen, fds2, brackets)
        # y must cover f's image over x: [-1, 2]
        assert fixed["y"].contains_interval(Interval(-1, 2))
        # z must cover 2*y for the (possibly widened) y
        y = fixed["y"]
        assert fixed["z"].contains_interval(Interval(2 * y.lo, 2 * y.hi))
        assert any(e["step"] == "output-widened" for e in log)

    def test_inputs_pulled_in_when_image_overflows(self):
        arch = _chain_arch()
        # z is capped at [-7, 7]; image of chosen y=[-5,5] is [-10,10]
        brackets = {"y": Bracket("y", "", -20.0, -1.0, 1.0, 20.0),
                    "z": Bracket("z", "", -7.0, -2.0, 2.0, 7.0)}
        chosen = RangeMap.of(y=(-5.0, 5.0), z=(-2.0, 2.0))
        fds2 = RangeMap.of(x=(-1.0, 1.0))
        fixed, log = restore_feasibility(arch, chosen, fds2, brackets)
        assert any(e["step"] == "pulled-in" for e in log)
        y, z = fixed["y"], fixed["z"]
        assert -7.0 <= 2 * y.lo and 2 * y.hi <= 7.0
        assert z.contains_interval(Interval(2 * y.lo, 2 * y.hi))

    def test_sub_function_loop_is_swept_in_expression_order(self):
        arch = _loop_arch()
        brackets = {"a": Bracket("a", "", -80.0, 0.0, 1.0, 80.0),
                    **{v: Bracket(v, "", -100.0, 0.0, 2.0, 100.0) for v in "bcd"}}
        chosen = RangeMap.of(a=(-40.0, 40.5), b=(-50.0, 51.0), c=(-50.0, 51.0),
                             d=(-100.0, 100.0))
        fds2 = RangeMap.of(x=(0.0, 1.0))
        fixed, _ = restore_feasibility(arch, chosen, fds2, brackets)
        env = {v: fixed[v] if v in fixed else fds2[v] for v in "abcdx"}
        for sf in arch.subfunctions:
            for out, e in sf.exprs:
                assert fixed[out].contains_interval(evaluate_interval(e, env)), out
        # c = 2*a is widened first, then b = c follows it
        assert fixed["b"] == fixed["c"] == Interval(-80.0, 81.0)

    def test_variable_without_a_range_is_validation_error(self):
        brackets = {"y": Bracket("y", "", -20.0, -0.5, 0.5, 20.0),
                    "z": Bracket("z", "", -50.0, -6.0, 6.0, 50.0)}
        chosen = RangeMap.of(y=(-0.5, 0.5), z=(-6.0, 6.0))
        with pytest.raises(ValidationError, match="f: no range for 'x'"):
            restore_feasibility(_chain_arch(), chosen, RangeMap(), brackets)

    def test_impossible_overflow_raises(self):
        arch = _chain_arch()
        # even at the attained inner y=[-4,4], 2*y exceeds the z allowance
        brackets = {"y": Bracket("y", "", -20.0, -4.0, 4.0, 20.0),
                    "z": Bracket("z", "", -6.0, -2.0, 2.0, 6.0)}
        chosen = RangeMap.of(y=(-4.0, 4.0), z=(-2.0, 2.0))
        with pytest.raises(Infeasible):
            restore_feasibility(arch, chosen, RangeMap.of(x=(-1.0, 1.0)), brackets)


@pytest.fixture(scope="module")
def result():
    arch, raw = load_architecture(CRUISE)
    weights = PreferenceWeights.from_dict(raw["tradeoff"]["weights"])
    spaces = initial_spaces(arch)
    plan = SamplingPlan(grid=2, step=0.02, horizon=100.0)
    nres = narrow(arch, spaces, plan)
    tres = run_tradeoff(arch, nres.narrowed.fds, spaces.fps,
                        nres.narrowed.fps, weights)
    return arch, spaces, nres, tres


class TestCruiseTradeoff:
    def test_chosen_ranges_sit_between_the_spaces(self, result):
        arch, spaces, nres, tres = result
        for v, chosen in tres.chosen.items():
            outer, inner = spaces.fps[v], nres.narrowed.fps[v]
            assert outer.contains_interval(chosen), v
            assert chosen.contains_interval(inner), v

    def test_subrequirements_share_ranges_per_variable(self, result):
        arch, _, _, tres = result
        seen: dict[str, Interval] = {}
        for fr in tres.subrequirements:
            for m in (fr.inputs, fr.outputs, fr.controllables, fr.uncontrollables):
                for v, iv in m.items():
                    assert seen.setdefault(v, iv) == iv, v

    def test_composite_refines_top(self, result):
        arch, _, _, tres = result
        assert check_refines(tres.composite, arch.top, strict=False)

    def test_weights_parse_with_default(self):
        w = PreferenceWeights.from_dict({"producer": {"v": 0.9},
                                         "consumer": {"f5": {"v": 0.5}}})
        assert w.producer_weight("v") == 0.9
        assert w.producer_weight("unknown") == 0.5
        assert w.consumer_weight("f5", "v") == 0.5
        assert w.consumer_weight("f9", "v") == 0.5

    @pytest.mark.parametrize("doc", [
        {"producer": {"v": -0.1}},
        {"producer": {"v": float("nan")}},
        {"consumer": {"f5": {"v": float("inf")}}},
        {"consumer": {"f5": {"v": "heavy"}}},
        {"default": -1.0},
        {"producer": [0.5]},
        {"consumer": {"f5": 0.5}},
    ], ids=["negative", "nan", "infinite", "not-a-number", "negative-default",
            "producer-not-a-map", "consumer-not-a-map"])
    def test_weights_must_be_finite_and_non_negative(self, doc):
        with pytest.raises(ValidationError, match="trade-off weight"):
            PreferenceWeights.from_dict(doc)

    @pytest.mark.parametrize("doc", [
        {"producer": {"Tq": 0.1}},
        {"consumer": {"f99": {"v": 0.5}}},
    ], ids=["producer-not-a-performance-variable", "consumer-does-not-consume"])
    def test_weight_names_must_match_the_architecture(self, result, doc):
        arch, spaces, nres, _ = result
        with pytest.raises(ValidationError, match="trade-off weight"):
            BarrierProblem(arch, build_brackets(spaces.fps, nres.narrowed.fps),
                           PreferenceWeights.from_dict(doc))

    def test_composability_results_cover_every_link(self, result):
        arch, _, _, tres = result
        consumers = arch.consumers_of()
        links = {(p, c, v) for v, p in arch.producer_of().items()
                 for c in consumers.get(v, [])}
        assert {link[:3] for link in tres.composability} == links
        for producer, consumer, var, res in tres.composability:
            assert res.ok and var in res.shared, (producer, consumer)


def test_assemble_uses_design_ranges_for_design_vars():
    arch = _chain_arch()
    fds2 = RangeMap.of(x=(0.0, 1.0))
    chosen = RangeMap.of(y=(-5.0, 5.0), z=(-12.0, 12.0))
    frs = assemble_subrequirements(arch, fds2, chosen)
    f = next(fr for fr in frs if fr.name == "f")
    assert f.inputs["x"] == Interval(0.0, 1.0)
    assert f.outputs["y"] == Interval(-5.0, 5.0)
