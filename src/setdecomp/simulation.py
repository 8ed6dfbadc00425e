"""Executable ODE view of an architecture and sampled envelopes.

``build_ode`` assembles the connected sub-functions into a compiled
right-hand side: the states are every sub-function's states, exposed as
outputs or hidden, and the expression outputs are evaluated in the
architecture's one dependency order, ``Architecture.assignments``, which
feasibility restoration sweeps too.  One classical fixed-step 4th-order
Runge-Kutta kernel, ``_march``, steps it and hands the outputs at every
grid time to one of two reducers: ``integrate`` keeps the whole
trajectory, ``envelope_over_box`` keeps per-variable extrema over a
deterministic bundle of samples drawn from a design-space box (all corners
plus an n-per-axis grid).  The envelope is the raw simulated extrema at the
grid times: an empirical inner estimate, *not* a sound over-approximation,
and every consumer of it says so.

Both reducers follow one non-finite rule: states are float64, so overflow
and division by zero give inf or NaN (never an exception or a numpy
warning), and a :class:`NonFinite` error names the first output, in name
order, at the first grid time where it is not finite.

All samples of a bundle are integrated simultaneously as numpy vectors, so
the cost is dominated by the number of time steps, not the number of samples.
That is why ``envelope_over_box`` also takes several boxes at once (the
probes of one narrowing round) and reduces the bundle per box.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .architecture import Architecture, aggregate_names
from .errors import NonFinite, SetDecompError
from .intervals import RangeMap

__all__ = ["OdeSystem", "Trajectory", "Envelope", "SamplingPlan",
           "build_ode", "integrate", "envelope_over_box", "design_samples"]


@dataclass(frozen=True)
class SamplingPlan:
    """How to sample a design-space box for envelope estimation: all
    corners plus an n-per-axis grid."""

    grid: int = 3              # grid points per axis (0 disables the grid)
    step: float = 0.01         # integration step [s]
    horizon: float = 100.0     # integration horizon [s]
    cap: int = 10_000          # hard cap on bundle size

    def __post_init__(self):
        if not (self.step > 0 and self.horizon > 0 and self.grid >= 0):
            raise ValueError("SamplingPlan needs step > 0, horizon > 0 and grid >= 0")

    def reduced(self) -> "SamplingPlan":
        """Cheaper plan for inner narrowing loops: corners + center only,
        coarser step."""
        return SamplingPlan(grid=1, step=max(self.step, 0.05),
                            horizon=self.horizon, cap=self.cap)


@dataclass(frozen=True)
class OdeSystem:
    """Compiled dynamic system for one architecture at one design point."""

    output_names: tuple[str, ...]       # all sub-function outputs (the y' set)
    initial_state: tuple        # floats or ndarrays, one per rhs argument
    rhs: object                 # rhs(*states) -> (derivs tuple, outputs tuple)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    values: dict[str, np.ndarray]   # per variable, aligned with times


@dataclass(frozen=True)
class Envelope:
    """Per-variable (min, max) over a trajectory bundle, plus window extrema
    for time-windowed requirements."""

    bounds: dict[str, tuple[float, float]]
    windows: dict[str, dict[tuple[float, float], tuple[float, float]]] = field(default_factory=dict)
    n_samples: int = 0


def build_ode(arch: Architecture, point: dict[str, float]) -> OdeSystem:
    """Compile the architecture at a design point (values for every design
    variable: top inputs, free architecture inputs, controllables and
    uncontrollables).  Point values may be scalars or aligned numpy arrays."""
    xs, ys, cs, us = aggregate_names(arch)
    design = sorted((xs | cs | us) - ys)
    missing = [n for n in design if n not in point]
    if missing:
        raise SetDecompError(f"design point missing values for: {', '.join(missing)}")
    params = dict(arch.constants)       # what the right-hand side closes over
    params.update((n, point[n]) for n in design)

    # states in declaration order; the assignments in the architecture's order
    states = [(st.name, st.derivative, ex.evaluate(st.initial, params))
              for sf in arch.subfunctions for st in sf.states]
    assigns = arch.assignments
    state_names = tuple(n for n, _, _ in states)

    output_names = tuple(sorted(ys))

    # compile one Python function for the whole right-hand side
    names = sorted({*params, *state_names, *(out for _, out, _ in assigns)})
    rn = {n: f"_v{i}" for i, n in enumerate(names)}.__getitem__

    lines = ["def _make(_P):"]
    for n in sorted(params):
        lines.append(f"    {rn(n)} = _P[{n!r}]")
    args = ", ".join(rn(n) for n in state_names)
    lines.append(f"    def _rhs({args}):")
    for _, n, e in assigns:
        lines.append(f"        {rn(n)} = {ex.to_source(e, rn)}")
    derivs = ", ".join(ex.to_source(d, rn) for _, d, _ in states) or ""
    outs = ", ".join(rn(n) for n in output_names)
    lines.append(f"        return ({derivs}{',' if len(states) == 1 else ''}), "
                 f"({outs}{',' if len(output_names) == 1 else ''})")
    lines.append("    return _rhs")
    src = "\n".join(lines)
    ns: dict = {}
    exec(src, ns)  # noqa: S102 - generated from validated expression trees only
    rhs = ns["_make"](params)

    initial = tuple(v for _, _, v in states)
    return OdeSystem(output_names=output_names, initial_state=initial, rhs=rhs)


def _march(rhs, state: list, horizon: float, step: float, visit) -> None:
    """Fixed-step RK4 over [0, horizon], the one stepping loop.

    At every grid time ``t`` it calls ``visit(t, outputs)`` with the outputs
    evaluated at the grid point (not at RK stages) and stops early when
    ``visit`` returns True.  The grid-point evaluation is reused as ``k1``.
    Non-finite values propagate silently; each reducer reports them as
    :class:`NonFinite`.
    """
    if step <= 0 or horizon < 0:
        raise ValueError("step must be positive and horizon not negative")
    n = int(round(horizon / step))
    h = step
    with np.errstate(all="ignore"):
        for k in range(n + 1):
            k1, outs = rhs(*state)
            if visit(k * step, outs) or k == n:
                return
            # stage outputs are dropped at once, not kept alive into the next
            # grid-point evaluation
            k2 = rhs(*(s + 0.5 * h * d for s, d in zip(state, k1)))[0]
            k3 = rhs(*(s + 0.5 * h * d for s, d in zip(state, k2)))[0]
            k4 = rhs(*(s + h * d for s, d in zip(state, k3)))[0]
            state = [s + (h / 6.0) * (a + 2 * b + 2 * c + d)
                     for s, a, b, c, d in zip(state, k1, k2, k3, k4)]


def integrate(sys: OdeSystem, horizon: float, step: float) -> Trajectory:
    """Fixed-step RK4 over [0, horizon]; records every y' variable at every
    grid time.  Raises :class:`NonFinite` for the first output, in name
    order, at the first grid time where any of its values is not finite."""
    times: list[float] = []
    rows: list[tuple] = []

    def record(t, outs):
        times.append(t)
        rows.append(outs)

    # float64 states make overflow and division by zero inf/NaN, as in the
    # envelope, instead of Python float exceptions
    _march(sys.rhs, [np.asarray(v, dtype=float) for v in sys.initial_state],
           horizon, step, record)
    names = sys.output_names
    values = {name: np.asarray(col) for name, col in zip(names, zip(*rows))}
    bad = np.array([~np.isfinite(values[name]).reshape(len(times), -1).all(axis=1)
                    for name in names]).reshape(len(names), len(times))
    if bad.any():
        k = int(np.argmax(bad.any(axis=0)))
        raise NonFinite(names[int(np.argmax(bad[:, k]))], times[k])
    return Trajectory(times=np.array(times), values=values)


def design_samples(box: RangeMap, plan: SamplingPlan) -> list[dict[str, float]]:
    """Deterministic sample set for a box: all corners plus an n-per-axis
    grid, deduplicated; beyond the cap, a Halton low-discrepancy set."""
    items = box.items()
    names = [v for v, _ in items]
    lattices = [[(iv.lo, iv.hi) if iv.lo < iv.hi else (iv.lo,) for _, iv in items]]
    if plan.grid > 0:
        lattices.append([(iv.mid,) if iv.lo == iv.hi or plan.grid == 1
                         else tuple(np.linspace(iv.lo, iv.hi, plan.grid))
                         for _, iv in items])
    # count the union before building it: the 2^d corners and 3^d grid
    # points outgrow memory long before they reach the cap
    count = sum(math.prod(len(set(axis)) for axis in lattice) for lattice in lattices)
    if len(lattices) == 2:
        count -= math.prod(len(set(c) & set(g)) for c, g in zip(*lattices))
    if count > plan.cap:
        return [dict(zip(names, p)) for p in _halton_samples(items, plan.cap)]
    seen = set()
    unique: list[tuple[float, ...]] = []
    for p in itertools.chain.from_iterable(itertools.product(*lattice) for lattice in lattices):
        if p not in seen:
            seen.add(p)
            unique.append(p)
    return [dict(zip(names, p)) for p in unique]


def _primes(n: int) -> list[int]:
    primes: list[int] = []
    k = 2
    while len(primes) < n:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


def _halton_samples(items, n: int) -> list[tuple[float, ...]]:
    primes = _primes(len(items))   # one base per axis keeps axes independent

    def halton(i: int, base: int) -> float:
        f, r = 1.0, 0.0
        while i > 0:
            f /= base
            r += f * (i % base)
            i //= base
        return r

    out = []
    for i in range(1, n + 1):
        pt = tuple(iv.lo + halton(i, base) * (iv.hi - iv.lo)
                   for base, (_, iv) in zip(primes, items))
        out.append(pt)
    return out


def envelope_over_box(arch: Architecture, box: RangeMap | Sequence[RangeMap],
                      plan: SamplingPlan,
                      windows: dict[str, list[tuple[float, float]]] | None = None
                      ) -> Envelope | list[Envelope | NonFinite]:
    """Simulate every sample of the box and take per-variable extrema at the
    grid times.

    ``windows`` optionally requests extra extrema of given variables over
    time windows [t0, t1].

    ``box`` may also be a sequence of boxes, such as the probes of one
    narrowing round.  Their samples are then integrated as one bundle and
    the result is a list holding, per box, its envelope or the
    :class:`NonFinite` error its own samples ran into (returned, not
    raised).  A box's envelope does not depend on the other boxes it is
    simulated with.
    """
    single = isinstance(box, RangeMap)
    sample_sets = [design_samples(b, plan) for b in ([box] if single else box)]
    if not sample_sets or not all(sample_sets):
        raise ValueError("empty design box")
    results = _envelope_bundle(arch, sample_sets, plan, windows)
    if not single:
        return results
    if isinstance(results[0], NonFinite):
        raise results[0]
    return results[0]


def _envelope_bundle(arch: Architecture, sample_sets: list[list[dict[str, float]]],
                     plan: SamplingPlan,
                     windows: dict[str, list[tuple[float, float]]] | None
                     ) -> list[Envelope | NonFinite]:
    """The extrema reducer: all sample sets marched at once, with extrema
    reduced per set.

    Every set is filled to a common length ``m`` by repeating its own last
    sample, which leaves its extrema unchanged, so each step reduces every
    output over a (sets × m) view into one (outputs × sets) table and folds
    that table into the running extrema.  A set whose outputs turn
    non-finite gets the :class:`NonFinite` error it would raise alone; the
    march stops early once every set has one.
    """
    P = len(sample_sets)
    m = max(len(s) for s in sample_sets)
    filled = [s + [s[-1]] * (m - len(s)) for s in sample_sets]
    point = {k: np.array([s[k] for seg in filled for s in seg])
             for k in sample_sets[0][0]}
    sys = build_ode(arch, point)
    state = [np.asarray(v, dtype=float) + np.zeros(P * m) for v in sys.initial_state]

    names = sys.output_names
    table = np.empty((2, len(names), P))        # this step's [min, max]
    tlo, thi = table
    rlo = np.full((len(names), P), math.inf)    # running extrema
    rhi = np.full((len(names), P), -math.inf)
    rows = list(zip(tlo, thi))
    row_of = dict(zip(names, rows))
    wins = {name: {tuple(w): (np.full(P, math.inf), np.full(P, -math.inf)) for w in ws}
            for name, ws in (windows or {}).items()}
    win_rows = [(t0, t1, *row_of[name], *ext) for name, ws in wins.items() if name in row_of
                for (t0, t1), ext in ws.items()]
    errors: list[NonFinite | None] = [None] * P

    def extrema(t, outs) -> bool:
        for (lo_row, hi_row), val in zip(rows, outs):
            if isinstance(val, np.ndarray):
                seg = val.reshape(P, m)
                np.minimum.reduce(seg, 1, None, lo_row)
                np.maximum.reduce(seg, 1, None, hi_row)
            else:
                lo_row[:] = val
                hi_row[:] = val
        # NaN and inf survive min and max, so one test covers the step
        if not np.isfinite(table).all():
            _record_nonfinite(errors, table, outs, names, sample_sets, m, t)
            if all(e is not None for e in errors):
                return True
        # on ties the second argument wins, which keeps the first extremum
        # seen, down to the sign of a zero
        np.minimum(tlo, rlo, out=rlo)
        np.maximum(thi, rhi, out=rhi)
        for t0, t1, lo_row, hi_row, wlo, whi in win_rows:
            if t0 <= t <= t1:
                np.minimum(lo_row, wlo, out=wlo)
                np.maximum(hi_row, whi, out=whi)
        return False

    _march(sys.rhs, state, plan.horizon, plan.step, extrema)

    results: list = []
    for p, samples in enumerate(sample_sets):
        if errors[p] is not None:
            results.append(errors[p])
            continue
        bounds = {name: (float(rlo[i, p]), float(rhi[i, p]))
                  for i, name in enumerate(names)}
        wp = {name: {w: (float(wlo[p]), float(whi[p])) for w, (wlo, whi) in ws.items()}
              for name, ws in wins.items()}
        results.append(Envelope(bounds=bounds, windows=wp, n_samples=len(samples)))
    return results


def _record_nonfinite(errors: list, table: np.ndarray, outs, names, sample_sets,
                      m: int, t: float) -> None:
    """Give every set that first turned non-finite at time ``t`` the error a
    bundle of its samples alone raises: the first output in order, at the
    first such sample."""
    bad = ~np.isfinite(table).all(axis=0)       # (outputs, sets)
    for p in np.flatnonzero(bad.any(axis=0)):
        if errors[p] is not None:
            continue
        i = int(np.argmax(bad[:, p]))
        vals = np.broadcast_to(outs[i], (len(sample_sets) * m,))[p * m:(p + 1) * m]
        idx = int(np.argmax(~np.isfinite(vals)))
        errors[p] = NonFinite(f"{names[i]} (sample {sample_sets[p][idx]})", t)
