"""Random generators and first-principles oracles for contract law tests.

Plain ``random.Random`` (not hypothesis) so a few thousand cases run in
well under a second; every test seeds its own generator for repeatability.
"""

import random

from setdecomp.intervals import Interval, RangeMap
from setdecomp.requirements import FunctionalRequirement

UNIVERSE = list("abcdefghij")


def rand_interval(rng: random.Random, lo=-100.0, hi=100.0) -> Interval:
    a = rng.uniform(lo, hi)
    b = rng.uniform(lo, hi)
    return Interval(min(a, b), max(a, b))


def rand_fr(rng: random.Random, name="fr") -> FunctionalRequirement:
    names = rng.sample(UNIVERSE, rng.randint(2, 8))
    rng.shuffle(names)
    n_in = rng.randint(1, max(1, len(names) - 1))
    n_out = rng.randint(1, len(names) - n_in)
    rest = names[n_in + n_out:]
    n_c = rng.randint(0, len(rest))

    def mk(group):
        return RangeMap([(n, rand_interval(rng)) for n in group])

    return FunctionalRequirement(
        name=name, inputs=mk(names[:n_in]),
        outputs=mk(names[n_in:n_in + n_out]),
        controllables=mk(rest[:n_c]), uncontrollables=mk(rest[n_c:]))


def _widen(rng: random.Random, iv: Interval) -> Interval:
    return Interval(iv.lo - rng.uniform(0, 10), iv.hi + rng.uniform(0, 10))


def _tighten(rng: random.Random, iv: Interval) -> Interval:
    cut = rng.uniform(0, 0.4) * iv.width
    lo = iv.lo + rng.uniform(0, cut)
    hi = iv.hi - rng.uniform(0, cut)
    return Interval(min(lo, hi), max(lo, hi))


def rand_refinement(rng: random.Random, fr: FunctionalRequirement,
                    name=None) -> FunctionalRequirement:
    """A valid refinement: inputs/uncontrollables widened,
    outputs/controllables tightened, same variables."""

    def map_with(m: RangeMap, f) -> RangeMap:
        return RangeMap([(v, f(rng, iv)) for v, iv in m.items()])

    return FunctionalRequirement(
        name=name or fr.name + "'",
        inputs=map_with(fr.inputs, _widen),
        outputs=map_with(fr.outputs, _tighten),
        controllables=map_with(fr.controllables, _tighten),
        uncontrollables=map_with(fr.uncontrollables, _widen))


def rand_chain(rng: random.Random, n=3) -> list[FunctionalRequirement]:
    """A composable chain fr_0 -> fr_1 -> ... -> fr_{n-1}: each link's output
    feeds the next link's input with a strictly wider consumer range."""
    frs = []
    prev_out = None
    for k in range(n):
        out_var = f"s{k}"
        out_iv = rand_interval(rng)
        inputs = [(f"x{k}", rand_interval(rng))]
        if prev_out is not None:
            v, iv = prev_out
            inputs.append((v, _widen(rng, iv)))
        frs.append(FunctionalRequirement(
            name=f"fr{k}", inputs=RangeMap(inputs),
            outputs=RangeMap([(out_var, out_iv)])))
        prev_out = (out_var, out_iv)
    return frs


def rand_fan_out(rng: random.Random, consumers=3) -> list[FunctionalRequirement]:
    """One producer of ``s`` and ``consumers`` parts that each read ``s``
    with a random range, so some links hold and some do not."""
    s = "s"
    frs = [FunctionalRequirement("prod", inputs=RangeMap([("x", rand_interval(rng))]),
                                 outputs=RangeMap([(s, rand_interval(rng, -10, 10))]))]
    for k in range(consumers):
        frs.append(FunctionalRequirement(
            f"cons{k}", inputs=RangeMap([(s, rand_interval(rng, -20, 20))]),
            outputs=RangeMap([(f"y{k}", rand_interval(rng))])))
    return frs


# --- oracles: containment checked variable-by-variable, no library calls ----

def _as_dict(m: RangeMap) -> dict:
    return {v: (iv.lo, iv.hi) for v, iv in m.items()}


def oracle_refines(new: FunctionalRequirement, old: FunctionalRequirement,
                   strict: bool = False) -> bool:
    new_in, old_in = _as_dict(new.inputs), _as_dict(old.inputs)
    new_out, old_out = _as_dict(new.outputs), _as_dict(old.outputs)
    for n, (lo, hi) in old_in.items():
        if n not in new_in:
            return False
        nlo, nhi = new_in[n]
        if nlo > lo or nhi < hi:
            return False
    for n, (lo, hi) in old_out.items():
        if n not in new_out:
            return False
        nlo, nhi = new_out[n]
        if nlo < lo or nhi > hi:
            return False
    if strict:
        for n, (lo, hi) in _as_dict(old.uncontrollables).items():
            d = _as_dict(new.uncontrollables)
            if n not in d or d[n][0] > lo or d[n][1] < hi:
                return False
        for n, (lo, hi) in _as_dict(old.controllables).items():
            d = _as_dict(new.controllables)
            if n not in d or d[n][0] < lo or d[n][1] > hi:
                return False
    return True


def oracle_composable(prod: FunctionalRequirement,
                      cons: FunctionalRequirement) -> bool:
    p_out, c_in = _as_dict(prod.outputs), _as_dict(cons.inputs)
    shared = set(p_out) & set(c_in)
    if not shared:
        return False
    for n in shared:
        if p_out[n][0] < c_in[n][0] or p_out[n][1] > c_in[n][1]:
            return False
    return True
