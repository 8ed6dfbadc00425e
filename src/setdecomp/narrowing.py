"""Space construction and narrowing.

Two stages:

1. ``initial_spaces`` intersects the per-port ranges of all sub-functions
   (shared variables are merged with ⋓), pins the top-level input and
   uncontrollable ranges onto the result, and splits the variables into the
   initial feasible design space (FDS) and feasible performance space (FPS).

2. ``narrow`` shrinks the controllable design ranges until the simulated
   envelope over the whole design box stays inside the FPS (including the
   top requirement's time-windowed outputs), then re-simulates the narrowed
   box to get the attainable performance envelope.  Both steps use the
   sampled-corner envelope from :mod:`.simulation`, so the narrowed spaces
   are empirical, not formally verified.
"""

from __future__ import annotations

from dataclasses import dataclass

from .architecture import Architecture, Classification, classify, validate_coverage
from .errors import CoverageViolation, Infeasible, NonFinite
from .intervals import Interval, RangeMap, VarId, rangemap_merge
from .simulation import Envelope, SamplingPlan, envelope_over_box

__all__ = ["FeasibleSpaces", "NarrowingResult", "EnvelopeEscape",
           "aggregate_ranges", "compute_group_ranges", "initial_spaces",
           "narrow", "top_windows"]

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
    """A simulated performance bound that left the allowed space and was
    clipped back to it."""

    variable: str
    side: str           # "lo" | "hi"
    simulated: float
    clipped_to: float


@dataclass(frozen=True)
class NarrowingResult:
    initial: FeasibleSpaces          # FDS/FPS before narrowing
    narrowed: FeasibleSpaces         # FDS after shrink, FPS re-simulated
    envelope: Envelope               # raw (unclipped) envelope over the narrowed box
    escapes: tuple[EnvelopeEscape, ...]
    log: tuple[dict, ...]            # step-by-step provenance, JSON-friendly


def aggregate_ranges(arch: Architecture) -> dict[str, RangeMap]:
    """Merge the port ranges of every sub-function by role; shared variables
    intersect.  Keys: 'inputs', 'outputs', 'controllables', 'uncontrollables'."""
    roles = {"inputs": RangeMap(), "outputs": RangeMap(),
             "controllables": RangeMap(), "uncontrollables": RangeMap()}
    for sf in arch.subfunctions:
        for role in roles:
            roles[role] = rangemap_merge(roles[role], getattr(sf, role),
                                         context=f"{sf.id}.{role}")
    return roles


def _pin(base: RangeMap, pins: RangeMap, label: str) -> RangeMap:
    """Overwrite ranges in ``base`` with top-level ranges, after checking the
    architecture can actually cover them."""
    out = base
    for v, iv in pins.items():
        if v not in base:
            raise CoverageViolation([v.name], f"{label} variable not consumed by any sub-function")
        if not base[v].contains_interval(iv):
            raise CoverageViolation(
                [v.name],
                f"{label} range {iv} exceeds what the sub-functions accept ({base[v]})")
        out = out.with_entry(v, iv)
    return out


def compute_group_ranges(arch: Architecture,
                         cls: Classification | None = None) -> dict[str, RangeMap]:
    """Per-group range maps (x, x_free, c, c_free, u, u_free, y1..y4) built
    from the aggregated sub-function ranges with top-level pinning applied."""
    cls = cls or classify(arch)
    roles = aggregate_ranges(arch)
    all_ranges = rangemap_merge(
        rangemap_merge(roles["inputs"], roles["outputs"], context="aggregate"),
        rangemap_merge(roles["controllables"], roles["uncontrollables"],
                       context="aggregate"),
        context="aggregate")
    all_ranges = _pin(all_ranges, arch.top.inputs, "top input")
    all_ranges = _pin(all_ranges, arch.top.uncontrollables, "top uncontrollable")
    # the top requirement's own output demands tighten the performance side
    all_ranges = rangemap_merge(all_ranges, arch.top.outputs, context="top output")

    def pick(group) -> RangeMap:
        names = {v.name for v in group}
        out = RangeMap()
        for v, iv in all_ranges.items():
            if v.name in names:
                out = out.with_entry(v, iv)
        return out

    return {label: pick(group) for label, group in cls.groups().items()}


def initial_spaces(arch: Architecture) -> FeasibleSpaces:
    """Initial FDS/FPS: intersected sub-function ranges with top-level input
    and uncontrollable ranges pinned on."""
    validate_coverage(arch)
    cls = classify(arch)
    groups = compute_group_ranges(arch, cls)
    fds = RangeMap()
    for label in ("x", "x_tilde", "c", "c_tilde", "u", "u_tilde"):
        fds = rangemap_merge(fds, groups[label], context="fds")
    fps = RangeMap()
    for label in ("y1", "y2", "y3", "y4"):
        fps = rangemap_merge(fps, groups[label], context="fps")
    return FeasibleSpaces(fds=fds, fps=fps)


def top_windows(arch: Architecture) -> dict[str, list[tuple[float, float, Interval]]]:
    """Time-windowed output specs of the top requirement, keyed by variable."""
    out: dict[str, list[tuple[float, float, Interval]]] = {}
    for spec in arch.top.timed_outputs:
        out.setdefault(spec.variable.name, []).extend(spec.windows)
    return out


def _narrowable(arch: Architecture, cls: Classification) -> list[str]:
    # only variables we are free to choose can be narrowed; the rest must be
    # verified over their full range
    return sorted(v.name for v in (cls.c | cls.c_tilde))


def _fits(env: Envelope, fps: RangeMap,
          windows: dict[str, list[tuple[float, float, Interval]]]) -> bool:
    for v, iv in fps.items():
        lo, hi = env.bounds[v.name]
        if lo < iv.lo or hi > iv.hi:
            return False
    for name, ws in windows.items():
        for t0, t1, iv in ws:
            lo, hi = env.windows[name][(t0, t1)]
            if lo < iv.lo or hi > iv.hi:
                return False
    return True


def _bisection_round(work: RangeMap, var: VarId, side: str, ok: float, target: float,
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

    Deterministic: if the full box already fits, it is returned unchanged.
    Otherwise every controllable interval collapses to its midpoint and each
    bound is grown back outward by bisection (lower bound first, variables in
    name order, a fixed number of iterations per bound).  Infeasibility at
    the all-midpoint box raises :class:`Infeasible`.  The probes of up to
    ``_BUNDLE_DEPTH`` consecutive bisection steps are simulated as one
    bundle (see :func:`_bisection_round`); the result is that of probing
    one at a time.
    """
    plan = plan or SamplingPlan()
    check_plan = plan.reduced()
    windows = top_windows(arch)
    env_windows = {k: [(t0, t1) for t0, t1, _ in ws] for k, ws in windows.items()}
    cls = classify(arch)
    candidates = _narrowable(arch, cls)

    def check(boxes: list[RangeMap]) -> list:
        return [r if isinstance(r, NonFinite) else _fits(r, spaces.fps, windows)
                for r in envelope_over_box(arch, boxes, check_plan, windows=env_windows)]

    fds = spaces.fds
    full_check = envelope_over_box(arch, fds, check_plan, windows=env_windows)
    log: list[dict] = [{"step": "narrow-start",
                        "candidates": candidates,
                        "samples_per_check": full_check.n_samples}]
    if _fits(full_check, spaces.fps, windows):
        log.append({"step": "full-box-feasible", "narrowed": False})
        narrowed_fds = fds
    else:
        # collapse candidates to midpoints, then grow each bound back out
        work = fds
        for name in candidates:
            iv = fds[VarId(name)]
            work = work.with_entry(VarId(name, iv.unit),
                                   Interval(iv.mid, iv.mid, iv.unit))
        if not _fits(envelope_over_box(arch, work, check_plan, windows=env_windows),
                     spaces.fps, windows):
            raise Infeasible("no feasible design at the controllable midpoints")
        # a probe box is a sub-box of the full one, so it has at most as
        # many samples; keep every bundle within the plan's cap
        depth = max(d for d in range(1, _BUNDLE_DEPTH + 1)
                    if (2 ** d - 1) * full_check.n_samples <= check_plan.cap)
        for name in candidates:
            full = fds[VarId(name)]
            var = VarId(name, full.unit)
            for side in ("lo", "hi"):
                ok = getattr(work[var], side)    # known-feasible bound value
                target = getattr(full, side)     # most generous bound value
                for done in range(0, _BISECT_ITERS, depth):
                    ok, target, work = _bisection_round(
                        work, var, side, ok, target,
                        min(depth, _BISECT_ITERS - done), check)
                log.append({"step": "bound-grown", "variable": name,
                            "side": side, "value": ok})
        narrowed_fds = work

    env = envelope_over_box(arch, narrowed_fds, plan, windows=env_windows)

    # attainable performance box, clipped to the allowed space where the
    # padded empirical envelope pokes out
    escapes: list[EnvelopeEscape] = []
    fps2 = RangeMap()
    for v, allowed in spaces.fps.items():
        lo, hi = env.bounds[v.name]
        if lo < allowed.lo:
            escapes.append(EnvelopeEscape(v.name, "lo", lo, allowed.lo))
            lo = allowed.lo
        if hi > allowed.hi:
            escapes.append(EnvelopeEscape(v.name, "hi", hi, allowed.hi))
            hi = allowed.hi
        fps2 = fps2.with_entry(v, Interval(lo, hi, allowed.unit))

    log.append({"step": "performance-envelope",
                "samples": env.n_samples,
                "escapes": [{"variable": e.variable, "side": e.side,
                             "simulated": e.simulated, "clipped_to": e.clipped_to}
                            for e in escapes]})
    return NarrowingResult(initial=spaces,
                           narrowed=FeasibleSpaces(fds=narrowed_fds, fps=fps2),
                           envelope=env, escapes=tuple(escapes), log=tuple(log))
