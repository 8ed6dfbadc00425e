"""End-to-end acceptance checks for the decomposition pipeline.

Each test pins one external promise of the package: the algebraic laws the
contract calculus relies on, exact reproduction of the cruise-control
feasible spaces, requirement satisfaction of the narrowed design space,
trade-off solution quality, numerical soundness of the solver and the
integrator, and run-to-run determinism.
"""

import importlib.resources
import json
import math
import random
import time

import numpy as np
import pytest

from setdecomp.architecture import architecture_from_dict, classify, load_architecture
from setdecomp.expr import evaluate_interval
from setdecomp.intervals import (Interval, RangeMap, interval_intersect,
                                 rangemap_merge)
from setdecomp.narrowing import initial_spaces, narrow, top_windows
from setdecomp.pipeline import report_to_json, run_pipeline
from setdecomp.requirements import check_composable, check_refines, compose
from setdecomp.simulation import (SamplingPlan, build_ode, design_samples,
                                  envelope_over_box, integrate)
from setdecomp.tradeoff import (BarrierProblem, PreferenceWeights,
                                barrier_gradient, barrier_value,
                                build_brackets, run_tradeoff, solve_tradeoff)

from genfr import (oracle_composable, oracle_refines, rand_chain, rand_fr,
                   rand_interval, rand_refinement)

CRUISE = str(importlib.resources.files("setdecomp") / "data" / "cruise.json")

# Published reference values for the cruise-control study.  The feasible
# performance envelope below was produced by a zonotope reachability engine,
# so it is compared with tolerance; the initial spaces are pure range
# intersections and are compared exactly.
FDS1 = {"v_0": (23.0, 30.0), "v_r": (34.0, 36.0),
        "m": (990.0, 1100.0), "omega_m": (350.0, 480.0)}
FPS1 = {"v": (20.0, 40.0), "vdot": (-1.5, 3.0), "Fr": (70.0, 120.0),
        "F": (-250.0, 3500.0), "Fa": (0.0, 1000.0), "omega": (0.0, 450.0),
        "T": (0.0, 250.0), "u": (-0.5, 2.0)}
REFERENCE_FPS2 = {"vdot": (-0.63, 2.89), "Fr": (88.20, 107.80),
                  "F": (-9.33, 2997.78), "Fa": (240.88, 655.25),
                  "T": (179.94, 200.00), "u": (0.0, 1.51),
                  "omega": (219.66, 362.30), "v": (21.97, 36.23)}
REFERENCE_OMEGA_M = (365.0, 450.0)
REFERENCE_FINAL = {"v": (21.8, 38.4), "vdot": (-1.1, 3.0),
                   "Fr": (88.2, 107.8), "F": (-159.1, 3024.0),
                   "Fa": (237.6, 827.6), "omega": (109.8, 406.1),
                   "T": (150.0, 200.1), "u": (-0.1, 1.511)}
#: cruise-narrow: the windowed speed bound (t in [20, 100] s) lowered from
#: 37 m/s, so that the full omega_m box fails its check and narrowing bisects
NARROW_WINDOW_HI = 36.55


@pytest.fixture(scope="module")
def arch_and_raw():
    return load_architecture(CRUISE)


@pytest.fixture(scope="module")
def arch(arch_and_raw):
    return arch_and_raw[0]


@pytest.fixture(scope="module")
def spaces(arch):
    return initial_spaces(arch)


@pytest.fixture(scope="module")
def narrowed(arch, spaces):
    return narrow(arch, spaces, SamplingPlan())


@pytest.fixture(scope="module")
def cruise_narrow():
    """(architecture, initial spaces, narrowing result) of cruise-narrow."""
    with open(CRUISE, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["top"]["timed_outputs"][0]["windows"][0]["hi"] = NARROW_WINDOW_HI
    arch = architecture_from_dict(doc)
    spaces = initial_spaces(arch)
    return arch, spaces, narrow(arch, spaces, SamplingPlan())


@pytest.fixture(scope="module")
def weights(arch_and_raw):
    return PreferenceWeights.from_dict(arch_and_raw[1]["tradeoff"]["weights"])


@pytest.fixture(scope="module")
def tradeoff(arch, spaces, narrowed, weights):
    return run_tradeoff(arch, narrowed.narrowed.fds, spaces.fps,
                        narrowed.narrowed.fps, weights)


def _rand_rangemap(rng, names="abcdef"):
    picked = rng.sample(names, rng.randint(1, len(names)))
    return RangeMap.of(**{n: (lambda iv: (iv.lo, iv.hi))(rand_interval(rng))
                          for n in picked})


def test_set_algebra_laws_hold_on_randomized_inputs():
    rng = random.Random(20260826)
    start = time.perf_counter()

    for _ in range(1000):   # intersection commutativity
        a, b = rand_interval(rng), rand_interval(rng)
        assert interval_intersect(a, b) == interval_intersect(b, a)

    for _ in range(1000):   # intersection associativity
        a, b, c = (rand_interval(rng) for _ in range(3))
        ab, bc = interval_intersect(a, b), interval_intersect(b, c)
        lhs = None if ab is None else interval_intersect(ab, c)
        rhs = None if bc is None else interval_intersect(a, bc)
        assert lhs == rhs       # None on both sides when disjoint

    for _ in range(1000):   # intersection idempotence
        a = rand_interval(rng)
        assert interval_intersect(a, a) == a

    for _ in range(1000):   # containment transitivity
        a = rand_interval(rng)
        b = Interval(a.lo - rng.random(), a.hi + rng.random())
        c = Interval(b.lo - rng.random(), b.hi + rng.random())
        assert c.contains_interval(b) and b.contains_interval(a)
        assert c.contains_interval(a)

    for _ in range(1000):   # lookup/merge coherence
        a, b = _rand_rangemap(rng), _rand_rangemap(rng)
        try:
            merged = rangemap_merge(a, b)
        except Exception:
            continue     # empty overlap: merge legitimately refuses
        for v, _ in merged.items():
            expected = (interval_intersect(a[v], b[v])
                        if v in a and v in b
                        else a[v] if v in a else b[v])
            assert merged[v] == expected

    assert time.perf_counter() - start < 5.0


def test_contract_laws_match_brute_force_oracle():
    rng = random.Random(77)
    start = time.perf_counter()

    for _ in range(500):    # refinement is transitive
        fr = rand_fr(rng)
        mid = rand_refinement(rng, fr, name="mid")
        new = rand_refinement(rng, mid, name="new")
        assert check_refines(mid, fr).ok and oracle_refines(mid, fr)
        assert check_refines(new, mid).ok and oracle_refines(new, mid)
        assert check_refines(new, fr).ok and oracle_refines(new, fr)

    for _ in range(500):    # refining composable parts stays composable
        chain = rand_chain(rng, n=2)
        fine = [rand_refinement(rng, fr, name=fr.name + "'") for fr in chain]
        assert check_composable(chain[0], chain[1]).ok
        assert oracle_composable(chain[0], chain[1])
        if check_composable(fine[0], fine[1]).ok:
            assert oracle_composable(fine[0], fine[1])

    for _ in range(500):    # composite of refinements refines the composite
        chain = rand_chain(rng, n=2)
        fine = [rand_refinement(rng, fr, name=fr.name + "'") for fr in chain]
        if not check_composable(fine[0], fine[1]).ok:
            continue
        whole = compose(chain)
        fine_whole = compose(fine)
        assert check_refines(fine_whole, whole, strict=False).ok
        assert oracle_refines(fine_whole, whole, strict=False)

    for _ in range(500):    # satisfaction specializations of the above
        fr = rand_fr(rng)
        impl = rand_refinement(rng, fr, name="impl")
        # an implementation of a refinement implements the original
        assert check_refines(impl, fr).ok
        deep = rand_refinement(rng, impl, name="deep")
        assert check_refines(deep, fr).ok
        # satisfaction agrees with the containment oracle
        assert oracle_refines(deep, impl) and oracle_refines(deep, fr)

    assert time.perf_counter() - start < 10.0


def test_cruise_initial_spaces_reproduce_published_intervals(arch):
    start = time.perf_counter()
    spaces = initial_spaces(load_architecture(CRUISE)[0])
    elapsed = time.perf_counter() - start
    got_fds = {v: (iv.lo, iv.hi) for v, iv in spaces.fds.items()}
    got_fps = {v: (iv.lo, iv.hi) for v, iv in spaces.fps.items()}
    assert got_fds == FDS1
    assert got_fps == FPS1
    assert elapsed < 1.0


def test_cruise_classification_reproduces_published_sets(arch):
    cls = classify(arch)
    groups = {k: set(s) for k, s in cls.groups().items()}
    assert groups == {
        "x": {"v_0", "v_r"}, "x_tilde": set(),
        "c": set(), "c_tilde": {"omega_m"},
        "u": set(), "u_tilde": {"m"},
        "y1": set(),
        "y2": {"vdot", "Fr", "F", "Fa", "omega", "T", "u"},
        "y3": {"v"}, "y4": set(),
    }


def test_narrowed_design_points_satisfy_the_speed_requirement(arch, narrowed):
    start = time.perf_counter()
    fds = narrowed.narrowed.fds
    points = design_samples(fds, SamplingPlan(grid=3, cap=64))
    assert len(points) == 64
    bundle = {v: points[:, j] for j, (v, _) in enumerate(fds.items())}
    traj = integrate(build_ode(arch, bundle), horizon=100.0, step=0.01)
    v = traj.values["v"]
    assert float(v.min()) >= 20.0 and float(v.max()) <= 40.0
    settled = v[traj.times >= 20.0]
    assert float(settled.min()) >= 33.0 and float(settled.max()) <= 37.0
    assert time.perf_counter() - start < 30.0


def test_envelope_on_reference_design_space_within_tolerance(arch):
    # the reference envelope came from a different (zonotope) reachability
    # engine, so each bound gets 5% of the reference span as slack
    box = RangeMap.of(v_0=(23.0, 30.0, "m/s"), v_r=(34.0, 36.0, "m/s"),
                      m=(990.0, 1100.0, "kg"),
                      omega_m=(REFERENCE_OMEGA_M[0], REFERENCE_OMEGA_M[1], "rad/s"))
    env = envelope_over_box(arch, box, SamplingPlan(), windows=None)
    for name, (lo, hi) in REFERENCE_FPS2.items():
        slack = 0.05 * (hi - lo)
        got_lo, got_hi = env.bounds[name]
        assert got_lo >= lo - slack, f"{name}: {got_lo} < {lo - slack}"
        assert got_hi <= hi + slack, f"{name}: {got_hi} > {hi + slack}"


def test_motor_speed_narrowing_is_verification_closed(arch, spaces, narrowed, cruise_narrow,
                                                      record_property, capsys):
    ref_lo, ref_hi = REFERENCE_OMEGA_M
    for label, (arch_, spaces_, narrowed_) in (("cruise", (arch, spaces, narrowed)),
                                               ("cruise-narrow", cruise_narrow)):
        got = narrowed_.narrowed.fds["omega_m"]
        assert 350.0 <= got.lo and got.hi <= 480.0, label
        # verification closure: simulating over the narrowed design space
        # must keep every output inside the initial performance space,
        # including the time-windowed part of the top requirement
        specs = top_windows(arch_)
        env = envelope_over_box(
            arch_, narrowed_.narrowed.fds, SamplingPlan(),
            windows={k: [(t0, t1) for t0, t1, _ in ws] for k, ws in specs.items()})
        for v, iv in spaces_.fps.items():
            lo, hi = env.bounds[v]
            assert iv.lo <= lo and hi <= iv.hi, (label, v)
        for name, ws in specs.items():
            for t0, t1, required in ws:
                lo, hi = env.windows[name][(t0, t1)]
                assert required.lo <= lo and hi <= required.hi, (label, name, t0, t1)
        record_property(f"{label}_omega_m", (got.lo, got.hi))
        record_property(f"{label}_omega_m_delta_vs_reference", (got.lo - ref_lo, got.hi - ref_hi))
        print(f"{label}: omega_m narrowed to [{got.lo}, {got.hi}]; reference "
              f"[{ref_lo}, {ref_hi}]; deltas ({got.lo - ref_lo:+g}, {got.hi - ref_hi:+g})")


class TestTradeoffSolution:
    def test_solver_point_is_strictly_interior(self, arch, spaces, narrowed,
                                               weights):
        brackets = build_brackets(spaces.fps, narrowed.narrowed.fps)
        problem = BarrierProblem(arch, brackets, weights)
        x, _ = solve_tradeoff(problem)
        for (name, side, inner, outer), val in zip(problem.free, x):
            lo, hi = min(inner, outer), max(inner, outer)
            assert lo < val < hi, f"{name}.{side}"

    def test_solver_point_is_the_closed_form_optimum(self, arch, spaces,
                                                     narrowed, weights):
        brackets = build_brackets(spaces.fps, narrowed.narrowed.fps)
        problem = BarrierProblem(arch, brackets, weights)
        x, _ = solve_tradeoff(problem)
        for k, (name, side, inner, outer) in enumerate(problem.free):
            a_p, a_c = problem._terms(k)
            optimum = (a_p * outer + a_c * inner) / (a_p + a_c)
            assert x[k] == pytest.approx(optimum, rel=1e-12), f"{name}.{side}"

    def test_chosen_ranges_respect_the_brackets(self, spaces, narrowed, tradeoff):
        brackets = build_brackets(spaces.fps, narrowed.narrowed.fps)
        for name, b in brackets.items():
            iv = tradeoff.chosen[name]
            assert b.l1 <= iv.lo <= b.l2, name
            assert b.u2 <= iv.hi <= b.u1, name

    def test_interval_images_contained_exactly(self, arch, narrowed, tradeoff):
        # restoration's environment: constants, narrowed design, chosen ranges
        env = {k: Interval(v, v) for k, v in arch.constants}
        env.update(narrowed.narrowed.fds.items())
        env.update(tradeoff.chosen.items())
        for sf, out_name, e in arch.assignments:
            if sf.states or out_name not in tradeoff.chosen:
                continue
            img = evaluate_interval(e, env)
            got = tradeoff.chosen[out_name]
            assert got.lo <= img.lo and img.hi <= got.hi, f"{sf.id}/{out_name}"

    def test_subrequirements_compose_and_refine_the_top(self, arch, tradeoff):
        frs = tradeoff.subrequirements
        assert len(frs) == 8
        for a in frs:
            for b in frs:
                if a is b:
                    continue
                res = check_composable(a, b)
                assert not res.shared or res.ok, (a.name, b.name)
        assert check_refines(tradeoff.composite, arch.top, strict=False).ok

    def test_reference_bound_deltas_reported(self, tradeoff, record_property):
        lines = []
        for name, (lo, hi) in sorted(REFERENCE_FINAL.items()):
            iv = tradeoff.chosen[name]
            span = hi - lo
            d_lo, d_hi = abs(iv.lo - lo) / span, abs(iv.hi - hi) / span
            within = d_lo <= 0.15 and d_hi <= 0.15
            record_property(f"{name}_delta", (d_lo, d_hi))
            lines.append(f"{name}: got [{iv.lo:.4g}, {iv.hi:.4g}] vs "
                         f"[{lo}, {hi}] deltas ({d_lo:.1%}, {d_hi:.1%})"
                         f"{'' if within else ' [outside 15%]'}")
        print("\n".join(lines))


class TestNumericalSoundness:
    def test_barrier_gradient_matches_central_differences(self, arch, spaces,
                                                          narrowed, weights):
        brackets = build_brackets(spaces.fps, narrowed.narrowed.fps)
        problem = BarrierProblem(arch, brackets, weights)
        rng = random.Random(42)
        for _ in range(100):
            x = np.array([inner + (0.2 + 0.6 * rng.random()) * (outer - inner)
                          for (_, _, inner, outer) in problem.free])
            g = barrier_gradient(problem, x)
            for k, (_, _, inner, outer) in enumerate(problem.free):
                # fourth-order central stencil, step scaled to the bracket
                # width: the plain two-point formula loses digits where the
                # two wall forces nearly cancel
                h = 1e-4 * abs(outer - inner)
                e = np.zeros(len(x))
                e[k] = h

                def f(p):
                    return barrier_value(problem, p)

                fd = (8 * (f(x + e) - f(x - e))
                      - (f(x + 2 * e) - f(x - 2 * e))) / (12 * h)
                assert g[k] == pytest.approx(fd, rel=1e-6)

    def test_barrier_gradient_vanishes_at_the_solver_point(self, arch, spaces,
                                                           narrowed, weights):
        brackets = build_brackets(spaces.fps, narrowed.narrowed.fps)
        problem = BarrierProblem(arch, brackets, weights)
        x, _ = solve_tradeoff(problem)
        g = barrier_gradient(problem, x)
        for k, (name, side, inner, outer) in enumerate(problem.free):
            if not min(inner, outer) < x[k] < max(inner, outer):
                continue
            a_p, a_c = problem._terms(k)
            force = max(a_p / abs(x[k] - inner), a_c / abs(outer - x[k]))
            assert abs(g[k]) <= 1e-9 * force, f"{name}.{side}"

    def test_integrator_shows_fourth_order_step_halving(self, arch, narrowed):
        point = {v: iv.mid for v, iv in narrowed.narrowed.fds.items()}

        def final_state(h):
            traj = integrate(build_ode(arch, point), horizon=8.0, step=h)
            return np.array([traj.values[n][-1] for n in sorted(traj.values)])

        coarse, mid, fine = (final_state(h) for h in (0.4, 0.2, 0.1))
        order = math.log2(np.linalg.norm(coarse - mid)
                          / np.linalg.norm(mid - fine))
        assert 3.5 <= order <= 4.5


def test_repeated_pipeline_runs_are_byte_identical():
    texts = [report_to_json(run_pipeline(CRUISE)) for _ in range(2)]
    assert texts[0].encode() == texts[1].encode()
