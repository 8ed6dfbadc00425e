"""Choosing final sub-requirement ranges between two nested performance boxes.

After narrowing we hold, for every performance variable, an outer allowed
interval [l1, u1] (what the connected sub-functions tolerate) and an inner
attained interval [l2, u2] (what simulation says the design actually does).
Any choice l1 <= l* <= l2 <= u2 <= u* <= u1 yields consistent
sub-requirements; where in that corridor to land is a trade-off between the
producer of a variable (wants a generous output promise, away from [l2, u2])
and its consumers (want a tight input obligation, away from [l1, u1]).

The trade-off is scored with a weighted log-barrier, a sum of independent
one-dimensional terms, so every free bound is set to its term's closed-form
minimiser.  A final feasibility-restoration pass enforces, for every output
of a sub-function without states, that the interval-arithmetic image of
its expression is contained in the chosen output range.  It sweeps the
architecture's one dependency order, the order ``build_ode`` compiles the
right-hand side in, and evaluates every image in one environment of
constants, narrowed design ranges and chosen performance ranges.
Sub-functions with states, exposed as outputs or hidden, are excluded
(interval arithmetic says nothing useful about them) and are covered by the
simulated envelope instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .architecture import Architecture, _finite
from .errors import (Infeasible, InfeasibleBrackets, PostconditionFailure,
                     ValidationError)
from .expr import evaluate_interval, free_vars
from .intervals import Interval, RangeMap
from .requirements import (ComposabilityResult, FunctionalRequirement,
                           _assemble, check_refines, links)

__all__ = ["PreferenceWeights", "Bracket", "BarrierProblem", "TradeoffResult",
           "build_brackets", "check_weight_names", "barrier_optimum",
           "solve_tradeoff", "assemble_subrequirements", "run_tradeoff"]


def _weight(where: str, value) -> float:
    w = _finite(value, f"trade-off weight {where}")
    if w < 0:
        raise ValidationError(f"trade-off weight {where} is negative: {value!r}")
    return w


@dataclass(frozen=True)
class PreferenceWeights:
    """Per-variable producer weights and per-(sub, variable) consumer weights.
    Anything unspecified defaults to 0.5.  ``from_dict`` accepts only finite,
    non-negative numbers: the closed-form optimum assumes them."""

    producer: dict[str, float] = field(default_factory=dict)
    consumer: dict[str, dict[str, float]] = field(default_factory=dict)
    default: float = 0.5

    def producer_weight(self, variable: str) -> float:
        return self.producer.get(variable, self.default)

    def consumer_weight(self, sub_id: str, variable: str) -> float:
        return self.consumer.get(sub_id, {}).get(variable, self.default)

    @classmethod
    def from_dict(cls, doc: dict) -> "PreferenceWeights":
        try:
            return cls(producer={v: _weight(f"producer.{v}", w)
                                 for v, w in doc.get("producer", {}).items()},
                       consumer={k: {v: _weight(f"consumer.{k}.{v}", w) for v, w in ws.items()}
                                 for k, ws in doc.get("consumer", {}).items()},
                       default=_weight("default", doc.get("default", 0.5)))
        except AttributeError as e:     # a section that is not a JSON object
            raise ValidationError(f"trade-off weights must map names to numbers: {e}") from None


def check_weight_names(arch: Architecture, weights: PreferenceWeights, variables) -> None:
    """Every producer weight must name one of the performance ``variables``,
    and every consumer weight a sub-function that consumes one of them;
    otherwise :class:`ValidationError`.  A variable outside ``variables``
    (a top input, say) takes no weight, even where a sub-function reads it."""
    consumers = arch.consumers_of()
    for name in weights.producer:
        if name not in variables:
            raise ValidationError(
                f"trade-off weight producer.{name}: '{name}' is not a performance variable")
    for sub_id, ws in weights.consumer.items():
        for name in ws:
            if name not in variables or sub_id not in consumers.get(name, ()):
                raise ValidationError(
                    f"trade-off weight consumer.{sub_id}.{name}: "
                    f"'{sub_id}' does not consume performance variable '{name}'")


@dataclass(frozen=True)
class Bracket:
    """Feasible corridor for one variable's chosen bounds:
    l1 <= l* <= l2  and  u2 <= u* <= u1."""

    variable: str
    unit: str
    l1: float
    l2: float
    u2: float
    u1: float

    def __post_init__(self):
        if not (self.l1 <= self.l2 <= self.u2 <= self.u1):
            raise InfeasibleBrackets(
                f"{self.variable}: need l1<=l2<=u2<=u1, got "
                f"[{self.l1}, {self.l2}, {self.u2}, {self.u1}]")


def build_brackets(fps1: RangeMap, fps2: RangeMap) -> dict[str, Bracket]:
    """Brackets from the allowed (outer) and attained (inner) performance
    boxes.  The inner box must be contained in the outer one."""
    return {v: Bracket(v, outer.unit, outer.lo, fps2[v].lo, fps2[v].hi, outer.hi)
            for v, outer in fps1.items()}


class BarrierProblem:
    """The trade-off's bounds, each computed once.

    ``free`` lists, in variable-name order, the lower then the upper bound
    of every variable whose bracket has interior width on that side, as
    ``(variable, side, inner wall, outer wall, producer weight, summed
    consumer weight)``.  ``pinned`` maps each zero-width side
    ``(variable, side)`` to its only possible value.  The weight names are
    checked first (:func:`check_weight_names`).
    """

    def __init__(self, arch: Architecture, brackets: dict[str, Bracket],
                 weights: PreferenceWeights):
        check_weight_names(arch, weights, brackets)
        consumers = arch.consumers_of()
        self.brackets = brackets
        self.free: list[tuple[str, str, float, float, float, float]] = []
        self.pinned: dict[tuple[str, str], float] = {}
        for name in sorted(brackets):
            b = brackets[name]
            a_p = weights.producer_weight(name)
            a_c = sum(weights.consumer_weight(j, name) for j in consumers.get(name, []))
            for side, inner, outer in (("lo", b.l2, b.l1), ("hi", b.u2, b.u1)):
                if inner != outer:
                    self.free.append((name, side, inner, outer, a_p, a_c))
                else:
                    self.pinned[(name, side)] = outer

    def dim(self) -> int:
        return len(self.free)


def barrier_optimum(inner: float, outer: float, a_p: float, a_c: float) -> float:
    """The minimiser of one free bound's barrier term
    -a_p*ln|x - inner| - a_c*ln|outer - x| over the open bracket, where it
    is stationary: x = (a_p*outer + a_c*inner) / (a_p + a_c).

    A zero producer weight puts the bound on its inner wall, a zero consumer
    weight on its outer wall; with both zero the term is constant and the
    bound stays at the bracket midpoint.
    """
    if a_p == 0 and a_c == 0:
        return 0.5 * (inner + outer)
    if a_p == 0:
        return inner
    if a_c == 0:
        return outer
    return (a_p * outer + a_c * inner) / (a_p + a_c)


def solve_tradeoff(problem: BarrierProblem) -> tuple[RangeMap, int]:
    """The chosen performance ranges: every free bound at its
    :func:`barrier_optimum`, every pinned bound at its only value.

    The barrier is a sum of independent one-dimensional terms, so this is
    its exact minimiser and takes no iterations.  The returned count, always
    0, is kept because the benchmark's traced mode reads it.
    """
    value = dict(problem.pinned)
    for name, side, inner, outer, a_p, a_c in problem.free:
        value[(name, side)] = barrier_optimum(inner, outer, a_p, a_c)
    return RangeMap((name, Interval(value[(name, "lo")], value[(name, "hi")], b.unit))
                    for name, b in problem.brackets.items()), 0


def restore_feasibility(arch: Architecture, chosen: RangeMap, fds2: RangeMap,
                        brackets: dict[str, Bracket]) -> tuple[RangeMap, list[dict]]:
    """Make the chosen ranges containment-consistent for every static
    sub-function (one without states): the interval image of each bracketed
    output's expression must fit in its chosen range.  Every chosen
    variable has a bracket, as :func:`solve_tradeoff` chooses one range per
    bracket.

    One sweep walks the architecture's dependency order,
    ``Architecture.assignments`` (the order the ODE right-hand side is
    compiled in), so every output is widened to cover its interval image
    after the outputs it reads.  Images are taken in one environment: the
    constants as point intervals, then ``fds2``, then the current chosen
    ranges; a variable in none of them raises :class:`ValidationError`.  If
    any image overflows the outer bracket, every chosen performance range
    is pulled toward its attained (inner) range by one shared interpolation
    parameter, found by binary search on the smallest pull for which the
    sweep succeeds.  Per-sub-function pulls do not work here: shrinking a
    consumer's input re-widens at its producer, and the two can see-saw
    forever.
    """
    entries = [(sf, out, e) for sf, out, e in arch.assignments
               if not sf.states and out in brackets]
    base = {k: Interval(v, v, "") for k, v in arch.constants}
    base.update(fds2.items())
    for sf, out, e in entries:
        for name in sorted(free_vars(e) - base.keys() - chosen.names()):
            raise ValidationError(f"{sf.id}: no range for '{name}' in the expression for "
                                  f"'{out}' during feasibility restoration")

    def pulled(t: float) -> RangeMap:
        def pull(v: str, got: Interval) -> Interval:
            b = brackets[v]
            if t == 1.0:        # the attained range, which the sum can miss by an ulp
                return Interval(b.l2, b.u2, got.unit)
            # clamped so that no pull overshoots the attained range
            return Interval(min(got.lo + t * (b.l2 - got.lo), b.l2),
                            max(got.hi + t * (b.u2 - got.hi), b.u2), got.unit)

        return RangeMap((v, pull(v, got)) for v, got in chosen.items())

    def sweep(cur: RangeMap) -> tuple[RangeMap, list[dict]] | None:
        widenings: list[dict] = []
        env = dict(base)
        env.update(cur.items())
        for sf, out, e in entries:
            b = brackets[out]
            img = evaluate_interval(e, env)
            if img.lo < b.l1 or img.hi > b.u1:
                return None
            got = env[out]
            new_lo, new_hi = min(got.lo, img.lo), max(got.hi, img.hi)
            if (new_lo, new_hi) != (got.lo, got.hi):
                env[out] = Interval(new_lo, new_hi, got.unit)
                widenings.append({"step": "output-widened", "sub": sf.id,
                                  "output": out, "lo": new_lo, "hi": new_hi})
        return RangeMap((v, env[v]) for v in cur), widenings

    done = sweep(chosen)
    if done is not None:
        fixed, log = done
        return fixed, log
    if sweep(pulled(1.0)) is None:
        raise Infeasible(
            "interval images exceed the outer brackets even at the attained "
            "performance ranges")
    t_lo, t_hi = 0.0, 1.0
    for _ in range(40):
        t = 0.5 * (t_lo + t_hi)
        if sweep(pulled(t)) is None:
            t_lo = t
        else:
            t_hi = t
    fixed, log = sweep(pulled(t_hi))
    return fixed, [{"step": "pulled-in", "t": t_hi}, *log]


@dataclass(frozen=True)
class TradeoffResult:
    chosen: RangeMap                       # final performance ranges
    subrequirements: tuple[FunctionalRequirement, ...]
    composite: FunctionalRequirement
    #: (producer, consumer, variable, result) for every variable a
    #: producer->consumer link shares
    composability: tuple[tuple[str, str, str, ComposabilityResult], ...]
    log: tuple[dict, ...]


def assemble_subrequirements(arch: Architecture, fds2: RangeMap,
                             chosen: RangeMap) -> tuple[FunctionalRequirement, ...]:
    """One functional requirement per sub-function: performance variables get
    the chosen ranges, design variables the narrowed design ranges."""

    def remap(role: RangeMap) -> RangeMap:
        return RangeMap((v, chosen[v] if v in chosen else fds2[v] if v in fds2 else declared)
                        for v, declared in role.items())

    frs = []
    for sf in arch.subfunctions:
        frs.append(FunctionalRequirement(
            name=sf.id, inputs=remap(sf.inputs), outputs=remap(sf.outputs),
            controllables=remap(sf.controllables),
            uncontrollables=remap(sf.uncontrollables)))
    return tuple(frs)


def run_tradeoff(arch: Architecture, fds2: RangeMap, fps1: RangeMap,
                 fps2: RangeMap, weights: PreferenceWeights) -> TradeoffResult:
    """Full final step: bracket construction, barrier optimum, feasibility
    restoration, sub-requirement assembly, and the composability/refinement
    post-conditions."""
    brackets = build_brackets(fps1, fps2)
    problem = BarrierProblem(arch, brackets, weights)
    chosen, _ = solve_tradeoff(problem)
    log: list[dict] = [{"step": "barrier-optimum", "free_bounds": problem.dim(),
                        "pinned_bounds": sorted(f"{n}.{s}" for n, s in problem.pinned)}]
    chosen, rlog = restore_feasibility(arch, chosen, fds2, brackets)
    log.extend(rlog)

    frs = assemble_subrequirements(arch, fds2, chosen)
    composability = []
    for fr_j, fr_k, res in links(frs):
        if not res:
            raise PostconditionFailure(
                "composability", f"{fr_j.name} -> {fr_k.name}: {res.witness_var}")
        composability.extend((fr_j.name, fr_k.name, v, res) for v in sorted(res.shared))
    composite = _assemble(frs, f"{arch.top.name}-composite")
    res = check_refines(composite, arch.top, strict=False)
    if not res:
        raise PostconditionFailure(
            "refinement", f"{res.witness_var}: {res.clause}")
    log.append({"step": "post-conditions", "composable": True, "refines_top": True})
    return TradeoffResult(chosen=chosen, subrequirements=frs, composite=composite,
                          composability=tuple(composability), log=tuple(log))
