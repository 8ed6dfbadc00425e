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
first RK stage, hands the outputs to one of two reducers, a chunk of K grid
times at a time, K being as many grid rows (outputs × lanes floats) as
``CHUNK_BYTES`` holds.  ``integrate`` keeps every row: the kernel writes
them into a preallocated (K, outputs, lanes) buffer.  ``envelope_over_box``
keeps per-variable extrema over a deterministic bundle of samples drawn
from a design-space box (all corners plus an n-per-axis grid), held as one
(samples, variables) matrix from sampling to the end of the march: its lane
reducer reduces each box over its own lanes into a (K, outputs, boxes)
table, which is then reduced over the times.  If a grid row fits
``CHUNK_BYTES``, the kernel writes K rows into a buffer and the reducer
reads them once per chunk; if not (the benchmark's 200-link chain: 16 MB),
the kernel writes no row but folds each output through the reducer right
after computing it, while it is still in cache, and a chunk is one grid
time.  The envelope is the raw simulated extrema at the grid times: an
empirical inner estimate, *not* a sound over-approximation, and every
consumer of it says so.

Both reducers follow one non-finite rule: states are float64, so overflow
and division by zero give inf or NaN (never an exception or a numpy
warning; what Python floats would raise on is evaluated in float64), and a
:class:`NonFinite` error names the first output, in name order, at the
first grid time where it is not finite.  The march stops at the end of the
chunk that settles the error.  Where the kernel folds, the one grid time
that turns a box non-finite is evaluated once more into a full row, so
that the error names the same sample.

All samples of a bundle are integrated simultaneously as numpy vectors, one
lane each, so a step costs a fixed number of numpy calls: four evaluations
of the right-hand side (the parameter-only parts excluded) and the RK4
update, plus the reduction spread over the K grid times of a chunk.  The
number of time steps, not the number of samples, dominates the cost.  That
is why ``envelope_over_box`` also takes several boxes at once (the probes of
one narrowing round) and reduces the bundle per box, each over its own
lanes; a sample that several of the boxes share is marched once.

A bundle's march allocates its arrays once and then nothing per step but
the results of ``**`` (and, with several boxes, the gather of a grid
row's or a folded output's lanes): the states are one (states, lanes)
matrix, the RK4 accumulator and one stage matrix, both a stage's input
and the derivative it writes, are preallocated matrices of that shape,
and the right-hand side computes every operation with ``out=`` into a
stage matrix, a buffer row or one of its scratch slots.  Its memory is
three state matrices and slots × lanes floats, the slot count being what
the liveness of the compiled operations needs (2 on the benchmark's
200-link chain), plus a buffer of at most
``CHUNK_BYTES`` where the rows fit and, per grid time, a (outputs, boxes)
table where the kernel folds.  The samples are one (samples, variables)
matrix and the lanes' design point one (variables, lanes) matrix.  Every
scalar a bundle's step hands numpy (a constant of the right-hand side,
``h`` and the RK4 weights) is a 0-d array, which numpy parses faster than
a Python float; at the tens to hundreds of lanes of a narrowing check, a
step costs calls more than arithmetic.  One design point keeps its states
as numpy scalars.
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
#: small enough to stay in cache; an envelope whose one grid row is larger
#: folds its outputs in the kernel instead
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
        if not (0 < self.step < math.inf and 0 < self.horizon < math.inf and self.grid >= 0):
            raise ValidationError("SamplingPlan needs a finite step > 0, a finite horizon > 0 "
                                  "and grid >= 0")

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
    rhs: object                 # rhs(grid or None, *states, d) -> derivatives
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


def build_ode(arch: Architecture, point: dict[str, float], fold: bool = False) -> OdeSystem:
    """Compile the architecture at a design point (values for every design
    variable: top inputs, free architecture inputs, controllables and
    uncontrollables).  Point values may be scalars or aligned numpy arrays.
    ``fold`` compiles a bundle's grid calls in the fold mode of
    :func:`codegen.compile_rhs`: they hand every output to a callable
    instead of writing a row."""
    xs, ys, cs, us = aggregate_names(arch)
    design = sorted((xs | cs | us) - ys)
    missing = [n for n in design if n not in point]
    if missing:
        raise SetDecompError(f"design point missing values for: {', '.join(missing)}")
    params = dict(arch.constants)       # what the right-hand side closes over
    params.update((n, point[n]) for n in design)
    output_names = tuple(sorted(ys))
    shape = np.broadcast_shapes(*(np.shape(point[n]) for n in design))

    rhs, initial = compile_rhs(arch, params, output_names, inplace=bool(shape), fold=fold)
    return OdeSystem(output_names=output_names, initial_state=initial, rhs=rhs, shape=shape)


def _march(sys: OdeSystem, horizon: float, step: float, grid: Sequence, reduce) -> None:
    """Fixed-step RK4 over [0, horizon], the one stepping loop.

    At every grid time the grid-point evaluation, reused as ``k1``, gets
    the next of the K ``grid`` targets: a row of a (K, outputs, *lanes)
    buffer to write the outputs into, or, for a system compiled to fold, a
    callable that folds them (see ``codegen.compile_rhs``); the RK stages
    get None.  Once K grid times are evaluated, or at the last one,
    ``reduce(times, state)`` gets their times and the states at the last of
    them, and stops the march by returning True.  Non-finite values
    propagate silently; each reducer reports them as :class:`NonFinite`.

    A bundle's march keeps three (states, *lanes) matrices, allocated
    once: the states ``S``, the accumulator ``acc`` and one stage matrix
    ``k``, which is both the stage input the right-hand side reads and the
    derivative it writes (see ``codegen.compile_rhs``).  ``k1`` is written
    into ``acc`` and the next stage input ``S + c*k1`` into ``k``.  ``k2``
    and ``k3`` are doubled in place and added to ``acc``, and the next
    stage input is ``S + (c/2) * (2*k)``: the same real product as ``c*k``,
    so the same double wherever ``2*k`` is finite.  ``k4`` is added last.
    So the update is ``S + (h/6) * (((k1 + 2*k2) + 2*k3) + k4)``, the
    scalar form's operations in its order, and a step allocates no lane
    array but the results of ``**``.  Where ``2*k`` overflows, ``acc``
    turns inf or NaN there as in the scalar form, but the stage input is
    inf where the scalar form's ``S + c*k`` is finite, so the lane's other
    states can turn non-finite one step sooner than in that form, and a
    :class:`NonFinite` error may name another output.  The right-hand side
    gets the rows of ``S`` and ``k`` as views taken once, and the update's
    scalars ``h/2``, ``h/4``, ``h``, ``2`` and ``h/6`` as 0-d arrays.  One
    design point keeps its states as a list of numpy scalars (0-d arrays
    at t = 0), whose ``**`` rounds differently from an array's.
    """
    if not (0 < step < math.inf and 0 <= horizon < math.inf):
        raise ValidationError("step must be positive and horizon not negative, both finite")
    n = int(round(horizon / step))
    h = step
    rhs = sys.rhs
    # float64 states make overflow and division by zero inf/NaN instead of
    # Python float exceptions; a bundle's states fill every lane
    if sys.shape:
        S = np.empty((len(sys.initial_state), *sys.shape))
        for s, v in zip(S, sys.initial_state):
            np.add(np.asarray(v, dtype=float), 0.0, out=s)
        acc, k = np.empty((2, *S.shape))
        ks = (acc, k, k, k)
        # the rows rhs reads, and the step's scalars as 0-d arrays, which
        # numpy takes faster than Python floats; a stage's c, with c/2 for
        # the doubled derivative
        state, k_rows = tuple(S), tuple(k)
        half, full = ((np.array(c), np.array(c / 2)) for c in (0.5 * h, h))
        two, sixth = np.array(2.0), np.array(h / 6.0)

        def ahead(s, c, d):                     # s + c * d, into k; s is S's rows
            c, c2 = c
            if d is k:                          # k2 or k3: acc += 2 * d, s + (c/2) * (2 * d)
                np.multiply(two, k, out=k)
                np.add(acc, k, out=acc)
                c = c2
            np.add(S, np.multiply(c, d, out=k), out=k)
            return k_rows

        def advance(s, a, b, c, d):             # s + (h / 6) * (a + 2 * b + 2 * c + d)
            np.add(acc, k, out=acc)             # acc holds a + 2 * b + 2 * c, k holds d
            np.add(S, np.multiply(sixth, acc, out=acc), out=S)
            return s
    else:
        state = [np.asarray(v, dtype=float) for v in sys.initial_state]
        ks = (None,) * 4
        half, full = 0.5 * h, h

        def ahead(s, c, d):
            return [v + c * e for v, e in zip(s, d)]

        def advance(s, a, b, c, d):
            return [v + (h / 6.0) * (p + 2 * q + 2 * r + w)
                    for v, p, q, r, w in zip(s, a, b, c, d)]
    times: list[float] = []
    with np.errstate(all="ignore"):
        for i in range(n + 1):
            k1 = rhs(grid[len(times)], *state, ks[0])
            times.append(i * step)
            if len(times) == len(grid) or i == n:
                if reduce(times, state) or i == n:
                    return
                times = []
            k2 = rhs(None, *ahead(state, half, k1), ks[1])
            k3 = rhs(None, *ahead(state, half, k2), ks[2])
            k4 = rhs(None, *ahead(state, full, k3), ks[3])
            state = advance(state, k1, k2, k3, k4)


def _rows_per_chunk(outputs: int, lanes: int) -> int:
    """How many grid rows of ``outputs`` × ``lanes`` floats ``CHUNK_BYTES``
    holds; 0 if not even one."""
    return CHUNK_BYTES // (8 * max(1, outputs) * lanes)


def integrate(sys: OdeSystem, horizon: float, step: float) -> Trajectory:
    """Fixed-step RK4 over [0, horizon]; records every y' variable at every
    grid time.  Raises :class:`NonFinite` for the first output, in name
    order, at the first grid time where any of its values is not finite; the
    march stops at the end of that time's chunk."""
    names = sys.output_names
    buf = np.empty((max(1, _rows_per_chunk(len(names), math.prod(sys.shape))), len(names),
                    *sys.shape))
    times: list[float] = []
    chunks: list[np.ndarray] = []

    def keep(ts, state) -> bool:
        rows = buf[:len(ts)]
        times.extend(ts)
        chunks.append(rows.copy())          # the buffer is reused
        return not np.isfinite(rows).all()

    _march(sys, horizon, step, list(buf), keep)
    rows = np.concatenate(chunks)           # (times, outputs, *lanes)
    bad = ~np.isfinite(rows).all(axis=tuple(range(2, rows.ndim)))
    if bad.any():
        k = int(np.argmax(bad.any(axis=1)))
        raise NonFinite(names[int(np.argmax(bad[k]))], times[k])
    return Trajectory(times=np.array(times),
                      values={name: rows[:, j] for j, name in enumerate(names)})


def design_samples(box: RangeMap, plan: SamplingPlan) -> np.ndarray:
    """Deterministic sample set for a box, as an (n, d) float64 matrix whose
    columns follow ``box.items()``: all corners in product order, then the
    n-per-axis grid points not already present (deduplicated by value);
    beyond the cap, a Halton low-discrepancy set.  A box with no design
    variable is one sample, of shape (1, 0)."""
    items = box.items()
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
        return _halton_samples(items, plan.cap)
    unique = dict.fromkeys(itertools.chain.from_iterable(
        itertools.product(*lattice) for lattice in lattices))
    return np.array(list(unique), dtype=np.float64).reshape(len(unique), len(items))


def _primes(n: int) -> list[int]:
    primes: list[int] = []
    k = 2
    while len(primes) < n:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


def _halton_samples(items, n: int) -> np.ndarray:
    """Halton points 1 to ``n`` scaled to the box, one prime base per axis
    (which keeps the axes independent), as an (n, axes) matrix.  Each axis
    takes the radical inverse of every index at once, with the scalar
    recurrence's operations in its order; an index that reaches zero only
    adds zeros after."""
    index = np.arange(1, n + 1)
    points = np.empty((n, len(items)))
    for j, (base, (_, iv)) in enumerate(zip(_primes(len(items)), items)):
        i, f, r = index.copy(), 1.0, np.zeros(n)
        while i.any():
            f /= base
            r += f * (i % base)
            i //= base
        points[:, j] = iv.lo + r * (iv.hi - iv.lo)
    return points


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
    boxes = [box] if single else list(box)
    sample_sets = [design_samples(b, plan) for b in boxes]
    if not sample_sets or not all(map(len, sample_sets)):
        raise ValidationError("empty design box")
    design = [v for v, _ in boxes[0].items()]      # the columns of every sample set
    if any(b.names() != boxes[0].names() for b in boxes):
        raise ValidationError("the boxes of one bundle must name the same variables")
    results = _envelope_bundle(arch, design, sample_sets, plan, windows)
    if not single:
        return results
    if isinstance(results[0], NonFinite):
        raise results[0]
    return results[0]


def _envelope_bundle(arch: Architecture, design: list[str], sample_sets: list[np.ndarray],
                     plan: SamplingPlan,
                     windows: dict[str, list[tuple[float, float]]] | None
                     ) -> list[Envelope | NonFinite]:
    """The extrema reducer: all sample sets marched at once, with extrema
    reduced per set.

    Every sample set is an (n, d) matrix whose columns are the ``design``
    variables.  Each distinct row is marched once, as one lane, in the
    order the sets first name it (the probes of a narrowing round share the
    corners at the bound held fixed: 143 distinct of 255 on
    ``cruise-narrow``); see :func:`_lanes`.  The lane reducer reduces each
    set over its own lanes, in set order: one gather of every set's lanes
    and ``reduceat``, or a plain reduce when one set covers every lane in
    order.  Its results, per grid time, output and set, make a (times,
    outputs, sets) table, which is reduced over the times and folded into
    the running extrema.  A set whose outputs turn non-finite gets the
    :class:`NonFinite` error it would raise alone; the march stops early
    once every set has one.

    The reducer runs at one of two places.  If a grid row (outputs × lanes
    floats) fits ``CHUNK_BYTES``, the kernel writes K rows into a buffer
    and the reducer reduces them at once.  Otherwise the system is compiled
    to fold: the kernel writes no row, and hands every output to the
    reducer as soon as it is computed, while it is still in cache; a chunk
    is then one grid time, whose states are at hand when a set turns
    non-finite, so that only on that path the grid time is evaluated once
    more into a full row, for the sample to name.
    """
    columns, index = _lanes(sample_sets)
    point = dict(zip(design, columns))
    lanes = columns.shape[1]
    starts = np.cumsum([0, *map(len, sample_sets[:-1])])
    box_lanes = np.split(index, starts[1:])

    names = tuple(sorted(aggregate_names(arch)[1]))     # build_ode's outputs
    K = _rows_per_chunk(len(names), lanes)
    fold = not K and bool(point)    # no design variable: one design point, no lanes
    K = max(K, 1)
    sys = build_ode(arch, point, fold=fold)

    P = len(sample_sets)
    lo, hi = np.empty((K, len(names), P)), np.empty((K, len(names), P))
    if P == 1 and lanes == len(index):
        def reduce_lanes(x, lo, hi):            # over the last axis, into lo and hi
            np.minimum.reduce(x, -1, None, lo, True)
            np.maximum.reduce(x, -1, None, hi, True)
    else:
        def reduce_lanes(x, lo, hi):
            x = x.take(index, -1)
            np.minimum.reduceat(x, starts, -1, None, lo)
            np.maximum.reduceat(x, starts, -1, None, hi)

    if fold:
        lo0, hi0 = lo[0], hi[0]

        def fold_output(j, v):
            if v.ndim:
                reduce_lanes(v, lo0[j], hi0[j])
            else:                               # a parameter-only scalar
                lo0[j] = hi0[j] = v

        def chunk_rows(times, state):
            row = np.empty((len(names), lanes))
            sys.rhs(row.__setitem__, *state)
            return row[np.newaxis]
        grid = [fold_output]
    else:
        buf = np.empty((K, len(names), *sys.shape))

        def chunk_rows(times, state):
            return buf[:len(times)].reshape(len(times), len(names), -1)
        grid = list(buf)

    rlo = np.full((len(names), P), math.inf)    # running extrema
    rhi = np.full((len(names), P), -math.inf)
    wins = {name: {tuple(w): (np.full(P, math.inf), np.full(P, -math.inf)) for w in ws}
            for name, ws in (windows or {}).items()}
    index_of = {name: j for j, name in enumerate(names)}
    win_rows = [(index_of[name], t0, t1, *ext) for name, ws in wins.items() if name in index_of
                for (t0, t1), ext in ws.items()]
    errors: list[NonFinite | None] = [None] * P

    def extrema(times, state) -> bool:
        T = len(times)
        if not fold:
            reduce_lanes(chunk_rows(times, state), lo[:T], hi[:T])
        clo, chi = _earliest(np.minimum, lo[:T]), _earliest(np.maximum, hi[:T])
        # NaN and inf survive min and max, so one test covers the chunk
        finite = np.isfinite(clo) & np.isfinite(chi)
        if not finite.all():
            fresh = {int(p) for p in np.flatnonzero(~finite.all(axis=0)) if errors[p] is None}
            if fresh:
                _record_nonfinite(errors, fresh, times, lo[:T], hi[:T], chunk_rows(times, state),
                                  names, design, sample_sets, box_lanes)
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

    _march(sys, plan.horizon, plan.step, grid, extrema)

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


def _lanes(sample_sets: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the (n, d) sample matrices, one lane each, in
    the order the sets first name them, as a (d, lanes) matrix (one
    contiguous row per design variable), and the lane of every sample, set
    after set.  Rows are keyed by the bits of their values, so 0.0 and
    -0.0 stay apart: a stable argsort of a byte view of the rows puts equal
    rows next to each other in sample order, a comparison of neighbours'
    bits, one column at a time, finds where each run of equal rows starts,
    and lanes are ranked by the first sample of their run."""
    rows = sample_sets[0] if len(sample_sets) == 1 else np.concatenate(sample_sets)
    n, d = rows.shape
    if not d:                               # no design variable: one lane
        return np.empty((0, 1)), np.zeros(n, dtype=np.intp)
    order = np.argsort(rows.view(np.dtype((np.void, rows.itemsize * d)))[:, 0], kind="stable")
    starts = np.zeros(n, dtype=bool)        # per sorted row: the first of its run
    starts[0] = True
    for column in rows.view(np.uint64).T:
        bits = column[order]
        starts[1:] |= bits[1:] != bits[:-1]
    first = order[starts]                   # the first sample of every run
    is_first = np.zeros(n, dtype=bool)
    is_first[first] = True
    lane = np.cumsum(is_first) - 1          # at a first sample: its lane
    index = np.empty(n, dtype=np.intp)
    index[order] = lane[first][np.cumsum(starts) - 1]
    lane_rows = np.flatnonzero(is_first)    # the sample of every lane
    columns = np.empty((d, len(lane_rows)))
    for row, column in zip(columns, rows.T):    # a whole-matrix take copies its out
        np.take(column, lane_rows, out=row)
    return columns, index


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


def _record_nonfinite(errors: list, fresh: set[int], times, lo, hi, rows, names,
                      design, sample_sets, box_lanes) -> None:
    """Give every set in ``fresh``, which first turns non-finite in this
    chunk, the error a bundle of its samples alone raises: at the first
    such time, the first output in order, at the first such sample.
    ``rows`` are the chunk's (times, outputs, lanes) outputs,
    ``box_lanes`` the lane of each sample of every set, and ``design`` the
    names of the sample matrices' columns; the error names its sample as
    a dict of plain floats."""
    for k, t in enumerate(times):
        if not fresh:
            return
        now = ~(np.isfinite(lo[k]) & np.isfinite(hi[k]))        # (outputs, sets)
        for p in fresh & set(np.flatnonzero(now.any(axis=0)).tolist()):
            i = int(np.argmax(now[:, p]))
            idx = int(np.argmax(~np.isfinite(rows[k, i, box_lanes[p]])))
            sample = dict(zip(design, sample_sets[p][idx].tolist()))
            errors[p] = NonFinite(f"{names[i]} (sample {sample})", t)
            fresh.discard(p)
