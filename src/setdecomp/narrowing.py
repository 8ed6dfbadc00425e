"""Space construction and narrowing.

Two stages:

1. ``initial_spaces`` intersects every port range of every sub-function in
   one pass (shared variables are merged with ⋓), pins the top-level input
   and uncontrollable ranges onto the result, tightens it with the top
   outputs, and splits it by the architecture's producer map: produced
   variables form the initial feasible performance space (FPS), all others
   the initial feasible design space (FDS).

2. ``narrow`` shrinks the controllable design ranges until the simulated
   envelope over the whole design box has no escapes from the FPS
   (``_escapes``; the top requirement's time-windowed outputs included),
   then re-simulates the narrowed box at the full plan.  That envelope is
   judged by the same ``_escapes`` verdict: an escape raises
   :class:`PostconditionFailure`, and otherwise its raw extrema are the
   attained performance space.  Both steps use the sampled-corner envelope
   from :mod:`.simulation`, so the narrowed spaces are empirical, not
   formally verified.  The checks are simulated in bundles, each sample of
   a bundle once: the full box with the all-midpoint box the bisection
   starts from, then the probes of up to ``_BUNDLE_DEPTH`` bisection steps
   at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .architecture import _ROLES, Architecture, validate_coverage
from .errors import (CoverageViolation, EmptyRange, Infeasible, NonFinite,
                     PostconditionFailure, UnitMismatch, ValidationError)
from .intervals import Interval, RangeMap, rangemap_merge
from .simulation import Envelope, SamplingPlan, envelope_over_box

__all__ = ["FeasibleSpaces", "NarrowingResult", "EnvelopeEscape",
           "initial_spaces", "narrow", "top_windows"]

#: bisection iterations spent on each interval bound while narrowing
_BISECT_ITERS = 12
#: bisection levels whose probes are simulated together in one bundle
_BUNDLE_DEPTH = 4


@dataclass(frozen=True)
class FeasibleSpaces:
    """A design-space box and the performance box it is paired with."""

    fds: RangeMap
    fps: RangeMap


@dataclass(frozen=True)
class EnvelopeEscape:
    """A simulated performance bound outside its allowed value: a bound of
    the FPS or, with ``window`` set, a time-windowed bound of the top
    requirement."""

    variable: str
    side: str           # "lo" | "hi"
    simulated: float
    allowed: float
    window: tuple[float, float] | None = None

    def __str__(self) -> str:
        where = "" if self.window is None else " over t in [{:g}, {:g}]".format(*self.window)
        relation = "<" if self.side == "lo" else ">"
        return (f"{self.variable} {self.side}{where}: simulated {self.simulated!r} "
                f"{relation} allowed {self.allowed!r}")


@dataclass(frozen=True)
class NarrowingResult:
    narrowed: FeasibleSpaces         # FDS after shrink, FPS the attained envelope
    log: tuple[dict, ...]            # step-by-step provenance, JSON-friendly


def _pin(base: RangeMap, pins: RangeMap, label: str) -> RangeMap:
    """Overwrite ranges in ``base`` with top-level ranges, after checking the
    architecture can actually cover them, in the same unit."""
    out = base
    for v, iv in pins.items():
        if v not in base:
            raise CoverageViolation([v], f"{label} variable not consumed by any sub-function")
        if base[v].unit != iv.unit:
            raise UnitMismatch(v, base[v].unit, iv.unit)
        if not base[v].contains_interval(iv):
            raise CoverageViolation(
                [v],
                f"{label} range {iv} exceeds what the sub-functions accept ({base[v]})")
        out = out.with_entry(v, iv)
    return out


def initial_spaces(arch: Architecture) -> FeasibleSpaces:
    """Initial FDS/FPS: every sub-function port range intersected, top-level
    input and uncontrollable ranges pinned on, top outputs intersected, and
    the result split into produced variables (FPS) and the rest (FDS).  Port
    ranges that do not overlap raise :class:`EmptyRange` naming every port
    that declares the variable; two ranges of one variable in different
    units raise :class:`UnitMismatch`, before anything is simulated."""
    validate_coverage(arch)
    produced = arch.producer_of()
    try:
        ranges = rangemap_merge(*(getattr(sf, role) for sf in arch.subfunctions
                                  for role in _ROLES))
    except EmptyRange as e:
        # name every port that declares the clashing variable
        ports = ", ".join(f"{sf.id}.{role} {getattr(sf, role)[e.name]!r}"
                          for sf in arch.subfunctions for role in _ROLES
                          if e.name in getattr(sf, role))
        raise EmptyRange(e.name, f"sub-function ports: {ports}") from None
    ranges = _pin(ranges, arch.top.inputs, "top input")
    ranges = _pin(ranges, arch.top.uncontrollables, "top uncontrollable")
    # the top requirement's own output demands tighten the performance side
    ranges = rangemap_merge(ranges, arch.top.outputs, context="top output")
    items = ranges.items()
    return FeasibleSpaces(
        fds=RangeMap((v, iv) for v, iv in items if v not in produced),
        fps=RangeMap((v, iv) for v, iv in items if v in produced))


def top_windows(arch: Architecture) -> dict[str, list[tuple[float, float, Interval]]]:
    """Time-windowed output specs of the top requirement, keyed by variable."""
    out: dict[str, list[tuple[float, float, Interval]]] = {}
    for spec in arch.top.timed_outputs:
        out.setdefault(spec.variable, []).extend(spec.windows)
    return out


def _escapes(env: Envelope, fps: RangeMap,
             windows: dict[str, list[tuple[float, float, Interval]]]) -> list[EnvelopeEscape]:
    """Every envelope bound outside ``fps`` or outside a top-level window,
    in variable-name order, unwindowed bounds first."""
    out: list[EnvelopeEscape] = []

    def judge(name: str, lo: float, hi: float, allowed: Interval, window=None):
        if lo < allowed.lo:
            out.append(EnvelopeEscape(name, "lo", lo, allowed.lo, window))
        if hi > allowed.hi:
            out.append(EnvelopeEscape(name, "hi", hi, allowed.hi, window))

    for v, allowed in fps.items():
        judge(v, *env.bounds[v], allowed)
    for name in sorted(windows):
        for t0, t1, allowed in windows[name]:
            judge(name, *env.windows[name][(t0, t1)], allowed, (t0, t1))
    return out


def _check_windows_sampled(windows: dict[str, list[tuple[float, float, Interval]]],
                           plans: tuple[SamplingPlan, ...]) -> None:
    """Every time window must hold a grid time ``k * step``, k = 0 ..
    round(horizon / step), of every plan: those are the times the RK4 march
    visits, so a window without one would pass unjudged."""
    for name in sorted(windows):
        for t0, t1, _ in windows[name]:
            for plan in plans:
                times = (k * plan.step for k in range(int(round(plan.horizon / plan.step)) + 1))
                if not any(t0 <= t <= t1 for t in times):
                    raise ValidationError(
                        f"time window [{t0:g}, {t1:g}] of '{name}' holds no grid time "
                        f"of the plan (horizon {plan.horizon:g}, step {plan.step:g})")


def _bisection_round(work: RangeMap, var: str, side: str, ok: float, target: float,
                     depth: int, check) -> tuple[float, float, RangeMap]:
    """``depth`` steps of the bisection of one bound, speculatively.

    Every probe the sequential search could make in those steps is built
    up front: node ``i`` of the tree (heap order) bisects its own
    ``(ok, target)`` pair, its child ``2i+1`` continues after a pass and
    ``2i+2`` after a fail.  ``check`` judges all probe boxes in one call;
    the tree is then walked by its verdicts, so the result is the
    sequential one even where feasibility is not monotone.  A probe's
    :class:`NonFinite` error is raised only if the walk reaches it.
    """
    cur = work[var]
    pairs = [(ok, target)]
    trials: list[float] = []
    boxes: list[RangeMap] = []
    for i in range(2 ** depth - 1):
        o, g = pairs[i]
        trial = 0.5 * (o + g)
        pairs += [(trial, g), (o, trial)]
        trials.append(trial)
        cand = (Interval(trial, cur.hi, cur.unit) if side == "lo"
                else Interval(cur.lo, trial, cur.unit))
        boxes.append(work.with_entry(var, cand))
    verdicts = check(boxes)
    i = 0
    for _ in range(depth):
        if isinstance(verdicts[i], NonFinite):
            raise verdicts[i]
        if verdicts[i]:
            ok, work, i = trials[i], boxes[i], 2 * i + 1
        else:
            target, i = trials[i], 2 * i + 2
    return ok, target, work


def narrow(arch: Architecture, spaces: FeasibleSpaces,
           plan: SamplingPlan | None = None) -> NarrowingResult:
    """Shrink the controllable ranges of ``spaces.fds`` until the simulated
    envelope over the whole box fits inside ``spaces.fps``.

    The narrowed box's envelope at the full ``plan`` is judged like every
    probe: an escape raises :class:`PostconditionFailure`, else its raw
    extrema are the attained performance space.

    Deterministic: if the full box already fits, it is returned unchanged;
    if it has no controllable, its escapes raise :class:`Infeasible`.
    Otherwise every controllable interval collapses to its midpoint and each
    bound is grown back outward by bisection (lower bound first, variables in
    name order, a fixed number of iterations per bound); escapes of the
    all-midpoint box raise :class:`Infeasible`.  The full and the
    all-midpoint box are simulated in one bundle; the full box's
    :class:`NonFinite` error is raised, the midpoint box's only when the
    full box does not fit.  The probes of up to
    ``_BUNDLE_DEPTH`` consecutive bisection steps are simulated as one
    bundle (see :func:`_bisection_round`); the result is that of probing
    one at a time.
    """
    plan = plan or SamplingPlan()
    check_plan = plan.reduced()
    windows = top_windows(arch)
    _check_windows_sampled(windows, (plan, check_plan))
    env_windows = {k: [(t0, t1) for t0, t1, _ in ws] for k, ws in windows.items()}
    # only variables we are free to choose can be narrowed; the rest must be
    # verified over their full range
    candidates = sorted({v for sf in arch.subfunctions for v in sf.controllables})

    def fits(env: Envelope) -> bool:
        return not _escapes(env, spaces.fps, windows)

    def check(boxes: list[RangeMap]) -> list:
        return [r if isinstance(r, NonFinite) else fits(r)
                for r in envelope_over_box(arch, boxes, check_plan, windows=env_windows)]

    fds = spaces.fds
    # the all-midpoint box the bisection starts from is judged in the same
    # march as the full box, and read only if the full box does not fit
    work = RangeMap((v, Interval(iv.mid, iv.mid, iv.unit) if v in candidates else iv)
                    for v, iv in fds.items())
    full_check, mid_check = envelope_over_box(arch, [fds, work], check_plan,
                                              windows=env_windows)
    if isinstance(full_check, NonFinite):
        raise full_check
    log: list[dict] = [{"step": "narrow-start",
                        "candidates": candidates,
                        "samples_per_check": full_check.n_samples}]
    full_escapes = _escapes(full_check, spaces.fps, windows)
    if not full_escapes:
        log.append({"step": "full-box-feasible", "narrowed": False})
        narrowed_fds = fds
    elif not candidates:
        raise Infeasible("no controllable to narrow, and the design box escapes: "
                         + "; ".join(map(str, full_escapes)))
    else:
        # grow each bound of the all-midpoint box back out
        if isinstance(mid_check, NonFinite):
            raise mid_check
        mid_escapes = _escapes(mid_check, spaces.fps, windows)
        if mid_escapes:
            raise Infeasible("no feasible design at the controllable midpoints: "
                             + "; ".join(map(str, mid_escapes)))
        # a probe box is a sub-box of the full one, so it has at most as
        # many samples; keep every bundle within the plan's cap
        depth = max(d for d in range(1, _BUNDLE_DEPTH + 1)
                    if (2 ** d - 1) * full_check.n_samples <= check_plan.cap)
        for name in candidates:
            full = fds[name]
            for side in ("lo", "hi"):
                ok = getattr(work[name], side)   # known-feasible bound value
                target = getattr(full, side)     # most generous bound value
                for done in range(0, _BISECT_ITERS, depth):
                    ok, target, work = _bisection_round(
                        work, name, side, ok, target,
                        min(depth, _BISECT_ITERS - done), check)
                log.append({"step": "bound-grown", "variable": name,
                            "side": side, "value": ok})
        narrowed_fds = work

    env = envelope_over_box(arch, narrowed_fds, plan, windows=env_windows)
    escapes = _escapes(env, spaces.fps, windows)
    if escapes:
        raise PostconditionFailure("envelope", "; ".join(map(str, escapes)))
    fps2 = RangeMap((v, Interval(*env.bounds[v], allowed.unit))
                    for v, allowed in spaces.fps.items())
    log.append({"step": "performance-envelope", "samples": env.n_samples})
    return NarrowingResult(narrowed=FeasibleSpaces(fds=narrowed_fds, fps=fps2),
                           log=tuple(log))
