"""Executable ODE view of an architecture and sampled envelopes.

``build_ode`` compiles the connected sub-functions into Python functions
(``codegen.compile_rhs``): the states are every sub-function's states,
exposed as outputs or hidden, and the expression outputs are evaluated in
the architecture's one dependency order, ``Architecture.assignments``,
which feasibility restoration sweeps too.  The compiler partially
evaluates at the design point: every output and maximal subtree that the
parameters (constants and design point) alone determine is computed once,
and a subtree that occurs more than once is computed once per call.  The
same operations run on the same operands in the same order, so every value
is bit-identical to evaluating the expressions as written.

One classical fixed-step 4th-order Runge-Kutta kernel, ``_march``, steps
the system.  At each grid time the grid-point evaluation, reused as the
first RK stage, writes the outputs straight into a row of a preallocated
(K, outputs, lanes) buffer; once K rows are full it hands them to one of
two reducers: ``integrate`` keeps every row, ``envelope_over_box`` keeps
per-variable extrema over a deterministic bundle of samples drawn from a
design-space box (all corners plus an n-per-axis grid), reduced once per
chunk over the samples and then over the times.  K is as many rows as
``CHUNK_BYTES`` holds.  The envelope is the raw simulated extrema at the
grid times: an empirical inner estimate, *not* a sound over-approximation,
and every consumer of it says so.

Both reducers follow one non-finite rule: states are float64, so overflow
and division by zero give inf or NaN (never an exception or a numpy
warning; what Python floats would raise on is evaluated in float64), and a
:class:`NonFinite` error names the first output, in name order, at the
first grid time where it is not finite.  The march stops at the end of the
chunk that settles the error.

All samples of a bundle are integrated simultaneously as numpy vectors, one
lane each, so a step costs a fixed number of numpy calls: four evaluations
of the right-hand side (the parameter-only parts excluded) and the RK4
update, plus the reduction spread over the K grid times of a chunk.  The
number of time steps, not the number of samples, dominates the cost.  That
is why ``envelope_over_box`` also takes several boxes at once (the probes of
one narrowing round) and reduces the bundle per box.

A bundle's march allocates its arrays once and then nothing per step but
the results of ``**``: the states are one (states, lanes) matrix, ``k1`` to
``k4`` and the stage input are preallocated matrices of that shape, and
the right-hand side computes every operation with ``out=`` into a stage
matrix, a buffer row or one of its scratch slots.  Its memory is the
buffer, six state matrices and slots × lanes floats, the slot count being
what the liveness of the compiled operations needs (20 on the benchmark's
200-link chain).  One design point keeps its states as numpy scalars.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .architecture import Architecture, aggregate_names
from .codegen import compile_rhs
from .errors import NonFinite, SetDecompError, ValidationError
from .intervals import RangeMap

__all__ = ["OdeSystem", "Trajectory", "Envelope", "SamplingPlan",
           "build_ode", "integrate", "envelope_over_box", "design_samples"]

#: byte cap on the buffer of grid-time outputs that one reduction reads:
#: small enough to stay in cache and to leave peak memory where it was
CHUNK_BYTES = 128 * 1024


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
            raise ValidationError("SamplingPlan needs step > 0, horizon > 0 and grid >= 0")

    def reduced(self) -> "SamplingPlan":
        """Cheaper plan for inner narrowing loops: corners + center only,
        coarser step."""
        return SamplingPlan(grid=1, step=max(self.step, 0.05),
                            horizon=self.horizon, cap=self.cap)


@dataclass(frozen=True)
class OdeSystem:
    """Compiled dynamic system for one architecture at one design point."""

    output_names: tuple[str, ...]       # all sub-function outputs (the y' set)
    initial_state: tuple        # floats or ndarrays, one per state
    rhs: object                 # rhs(row or None, *states, d) -> derivatives; fills a row
    shape: tuple[int, ...]      # lanes: () for one design point, (n,) for n of them


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
    output_names = tuple(sorted(ys))
    shape = np.broadcast_shapes(*(np.shape(point[n]) for n in design))

    rhs, initial = compile_rhs(arch, params, output_names, inplace=bool(shape))
    return OdeSystem(output_names=output_names, initial_state=initial, rhs=rhs, shape=shape)


def _march(sys: OdeSystem, horizon: float, step: float, reduce) -> None:
    """Fixed-step RK4 over [0, horizon], the one stepping loop.

    At every grid time the grid-point evaluation, reused as ``k1``, writes
    the outputs into the next row of a (K, outputs, *lanes) buffer; the RK
    stages pass no row.  Once K rows are full, or at the last grid time,
    ``reduce(times, rows)`` gets those rows and stops the march by
    returning True.  K is as many rows as ``CHUNK_BYTES`` holds.  Non-finite
    values propagate silently; each reducer reports them as
    :class:`NonFinite`.

    A bundle's states are one (states, *lanes) matrix, and ``k1`` to
    ``k4``, each stage's input and the update are computed in place into
    matrices allocated once, in the operation order of the scalar form, so
    a step allocates no lane array but the results of ``**``.  One design
    point keeps its states as a list of numpy scalars (0-d arrays at
    t = 0), whose ``**`` rounds differently from an array's.
    """
    if not (step > 0 and horizon >= 0):
        raise ValidationError("step must be positive and horizon not negative")
    n = int(round(horizon / step))
    h = step
    row_bytes = 8 * max(1, len(sys.output_names)) * math.prod(sys.shape)
    chunk = min(n + 1, max(1, CHUNK_BYTES // row_bytes))
    buf = np.empty((chunk, len(sys.output_names), *sys.shape))
    rows = list(buf)
    rhs = sys.rhs
    # float64 states make overflow and division by zero inf/NaN instead of
    # Python float exceptions; a bundle's states fill every lane
    if sys.shape:
        state = np.empty((len(sys.initial_state), *sys.shape))
        for s, v in zip(state, sys.initial_state):
            np.add(np.asarray(v, dtype=float), 0.0, out=s)
        ks, x = np.empty((4, *state.shape)), np.empty_like(state)

        def ahead(s, c, d):                     # s + c * d, into x
            return np.add(s, np.multiply(c, d, out=x), out=x)

        def advance(s, a, b, c, d):             # s + (h / 6) * (a + 2 * b + 2 * c + d)
            u = np.add(a, np.multiply(2, b, out=x), out=x)
            np.add(u, np.multiply(2, c, out=c), out=u)
            np.add(u, d, out=u)
            return np.add(s, np.multiply(h / 6.0, u, out=u), out=s)
    else:
        state = [np.asarray(v, dtype=float) for v in sys.initial_state]
        ks = (None,) * 4

        def ahead(s, c, d):
            return [v + c * e for v, e in zip(s, d)]

        def advance(s, a, b, c, d):
            return [v + (h / 6.0) * (p + 2 * q + 2 * r + w)
                    for v, p, q, r, w in zip(s, a, b, c, d)]
    times: list[float] = []
    with np.errstate(all="ignore"):
        for k in range(n + 1):
            k1 = rhs(rows[len(times)], *state, ks[0])
            times.append(k * step)
            if len(times) == len(rows) or k == n:
                if reduce(times, buf[:len(times)]) or k == n:
                    return
                times = []
            k2 = rhs(None, *ahead(state, 0.5 * h, k1), ks[1])
            k3 = rhs(None, *ahead(state, 0.5 * h, k2), ks[2])
            k4 = rhs(None, *ahead(state, h, k3), ks[3])
            state = advance(state, k1, k2, k3, k4)


def integrate(sys: OdeSystem, horizon: float, step: float) -> Trajectory:
    """Fixed-step RK4 over [0, horizon]; records every y' variable at every
    grid time.  Raises :class:`NonFinite` for the first output, in name
    order, at the first grid time where any of its values is not finite; the
    march stops at the end of that time's chunk."""
    times: list[float] = []
    chunks: list[np.ndarray] = []

    def keep(ts, rows) -> bool:
        times.extend(ts)
        chunks.append(rows.copy())          # the buffer is reused
        return not np.isfinite(rows).all()

    _march(sys, horizon, step, keep)
    names = sys.output_names
    rows = np.concatenate(chunks)           # (times, outputs, *lanes)
    bad = ~np.isfinite(rows).all(axis=tuple(range(2, rows.ndim)))
    if bad.any():
        k = int(np.argmax(bad.any(axis=1)))
        raise NonFinite(names[int(np.argmax(bad[k]))], times[k])
    return Trajectory(times=np.array(times),
                      values={name: rows[:, j] for j, name in enumerate(names)})


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
    """Halton points 1 to ``n`` scaled to the box, one prime base per axis
    (which keeps the axes independent).  Each axis takes the radical
    inverse of every index at once, with the scalar recurrence's operations
    in its order; an index that reaches zero only adds zeros after."""
    index = np.arange(1, n + 1)
    axes = []
    for base, (_, iv) in zip(_primes(len(items)), items):
        i, f, r = index.copy(), 1.0, np.zeros(n)
        while i.any():
            f /= base
            r += f * (i % base)
            i //= base
        axes.append((iv.lo + r * (iv.hi - iv.lo)).tolist())
    return list(zip(*axes))


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
        raise ValidationError("empty design box")
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
    sample, which leaves its extrema unchanged, so each chunk of grid times
    reduces to a (times, outputs, sets) table over the samples, and that
    table to (outputs, sets) over the times, which is folded into the
    running extrema.  A set whose outputs turn non-finite gets the
    :class:`NonFinite` error it would raise alone; the march stops early once
    every set has one.
    """
    P = len(sample_sets)
    m = max(len(s) for s in sample_sets)
    filled = [s + [s[-1]] * (m - len(s)) for s in sample_sets]
    point = {k: np.array([s[k] for seg in filled for s in seg])
             for k in sample_sets[0][0]}
    sys = build_ode(arch, point)

    names = sys.output_names
    index = {name: j for j, name in enumerate(names)}
    rlo = np.full((len(names), P), math.inf)    # running extrema
    rhi = np.full((len(names), P), -math.inf)
    wins = {name: {tuple(w): (np.full(P, math.inf), np.full(P, -math.inf)) for w in ws}
            for name, ws in (windows or {}).items()}
    win_rows = [(index[name], t0, t1, *ext) for name, ws in wins.items() if name in index
                for (t0, t1), ext in ws.items()]
    errors: list[NonFinite | None] = [None] * P

    def extrema(times, rows) -> bool:
        seg = rows.reshape(len(times), len(names), P, m)
        lo, hi = np.minimum.reduce(seg, axis=3), np.maximum.reduce(seg, axis=3)
        clo, chi = _earliest(np.minimum, lo), _earliest(np.maximum, hi)
        # NaN and inf survive min and max, so one test covers the chunk
        finite = np.isfinite(clo) & np.isfinite(chi)
        if not finite.all():
            _record_nonfinite(errors, ~finite, times, lo, hi, rows, names, sample_sets, m)
            if all(e is not None for e in errors):
                return True
        # on ties the second argument wins, which keeps the earlier extremum
        np.minimum(clo, rlo, out=rlo)
        np.maximum(chi, rhi, out=rhi)
        for j, t0, t1, wlo, whi in win_rows:
            a, b = bisect.bisect_left(times, t0), bisect.bisect_right(times, t1)
            if a < b:
                np.minimum(_earliest(np.minimum, lo[a:b, j]), wlo, out=wlo)
                np.maximum(_earliest(np.maximum, hi[a:b, j]), whi, out=whi)
        return False

    _march(sys, plan.horizon, plan.step, extrema)

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


def _earliest(extremum, x: np.ndarray) -> np.ndarray:
    """``extremum`` (``np.minimum`` or ``np.maximum``) of ``x`` over its time
    axis 0.  Equal extrema differ only in the sign of a zero; the earliest
    time's wins, as in a running fold."""
    r = extremum.reduce(x, axis=0)
    zero = r == 0
    if zero.any():
        first = np.take_along_axis(x, (x == 0).argmax(axis=0)[np.newaxis], axis=0)[0]
        r[zero] = first[zero]
    return r


def _record_nonfinite(errors: list, bad: np.ndarray, times, lo, hi, rows, names,
                      sample_sets, m: int) -> None:
    """Give every set that first turns non-finite in this chunk (``bad``:
    outputs × sets, over the whole chunk) the error a bundle of its samples
    alone raises: at the first such time, the first output in order, at the
    first such sample."""
    fresh = {int(p) for p in np.flatnonzero(bad.any(axis=0)) if errors[p] is None}
    for k, t in enumerate(times):
        if not fresh:
            return
        now = ~(np.isfinite(lo[k]) & np.isfinite(hi[k]))        # (outputs, sets)
        for p in fresh & set(np.flatnonzero(now.any(axis=0)).tolist()):
            i = int(np.argmax(now[:, p]))
            idx = int(np.argmax(~np.isfinite(rows[k, i, p * m:(p + 1) * m])))
            errors[p] = NonFinite(f"{names[i]} (sample {sample_sets[p][idx]})", t)
            fresh.discard(p)
