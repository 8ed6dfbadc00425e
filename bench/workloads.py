"""Workload inputs: architecture documents the benchmark hands to setdecomp.

Every generator returns a plain JSON-ready dict in the architecture file
format; the program only ever sees the written files.  ``chain`` takes the
benchmark seed; the other inputs do not depend on it.
"""

from __future__ import annotations

import copy
import json
import random

#: the windowed speed bound (t in [20, 100] s) of cruise-narrow, lowered from
#: 37 m/s so that the full omega_m box fails its check and narrowing bisects
NARROW_WINDOW_HI = 36.55

#: fixed seed of the degenerate chain's weights; the failing operation must
#: not depend on the benchmark seed
DEGENERATE_WEIGHT_SEED = 1

_ALLOWED = {"lo": -10.0, "hi": 20.0, "unit": ""}
#: uneven producer/consumer weights are drawn from these
_WEIGHTS = (0.1, 0.3, 0.5, 0.7, 0.9)


def load_cruise(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def cruise_narrow(cruise: dict) -> dict:
    """cruise.json with the windowed upper speed bound lowered."""
    doc = copy.deepcopy(cruise)
    (timed,) = doc["top"]["timed_outputs"]
    (window,) = timed["windows"]
    window["hi"] = NARROW_WINDOW_HI
    return doc


def _link(k: int, expr, extra_controllable: dict | None = None,
          state: dict | None = None) -> dict:
    sub = {"id": f"L{k:03d}", "kind": "algebraic",
           "exprs": {f"s{k}": expr},
           "inputs": {f"s{k - 1}": dict(_ALLOWED)},
           "outputs": {f"s{k}": dict(_ALLOWED)}}
    if extra_controllable:
        sub["controllables"] = extra_controllable
    if state:
        sub["states"] = [state]
    return sub


def _halve_plus_one(k: int):
    return ["+", ["*", 0.5, ["var", f"s{k - 1}"]], 1.0]


def _chain_doc(name: str, n: int, x0: tuple[float, float], top_out: tuple[float, float],
               subs: list[dict], rng: random.Random) -> dict:
    producer = {f"s{k}": rng.choice(_WEIGHTS) for k in range(1, n + 1)}
    consumer = {f"L{k:03d}": {f"s{k - 1}": rng.choice(_WEIGHTS)}
                for k in range(2, n + 1)}
    return {
        "top": {"name": name,
                "inputs": {"s0": {"lo": x0[0], "hi": x0[1], "unit": ""}},
                "outputs": {f"s{n}": {"lo": top_out[0], "hi": top_out[1], "unit": ""}},
                "controllables": {}, "uncontrollables": {}},
        "constants": {"tau": 0.5},
        "subfunctions": subs,
        "tradeoff": {"weights": {"producer": producer, "consumer": consumer,
                                 "default": 0.5}},
    }


def chain(seed: int, n: int = 200) -> dict:
    """A seeded chain s_k = 0.5*s_{k-1} + 1 [+ c_k] of ``n`` links.

    Every tenth link is a first-order lag (time constant tau, state starting
    at 0), so no attained range collapses to a point; ten evenly spaced
    links carry a controllable offset c_k, which with the top input s0 gives
    11 design variables.  The seed draws the controllable ranges and uneven
    producer/consumer weights.
    """
    if n < 60:
        raise ValueError("the chain needs at least 60 links for its ten offsets")
    rng = random.Random(seed)
    # ten evenly spaced offsets whatever n is: every extra design variable
    # multiplies the corner and grid points design_samples builds
    spacing = n // 10
    subs = []
    for k in range(1, n + 1):
        if k % 10 == 0:
            z = f"z{k}"
            state = {"name": z,
                     "derivative": ["/", ["-", _halve_plus_one(k), ["var", z]],
                                    ["var", "tau"]],
                     "initial": 0.0}
            subs.append(_link(k, ["var", z], state=state))
        elif k % spacing == 5:
            lo = round(rng.uniform(0.0, 0.2), 3)
            c = {f"c{k}": {"lo": lo, "hi": round(lo + rng.uniform(0.2, 0.5), 3),
                           "unit": ""}}
            subs.append(_link(k, ["+", _halve_plus_one(k), ["var", f"c{k}"]], c))
        else:
            subs.append(_link(k, _halve_plus_one(k)))
    return _chain_doc(f"chain-{n}", n, (0.0, 1.0), (-5.0, 15.0), subs, rng)


def degenerate_chain(n: int = 4) -> dict:
    """A short lag-free chain fed by the point input s0 = 2, the fixed point
    of every link, so each attained range is the single point [2, 2]; the
    top output's lower bound is 1.9."""
    subs = [_link(k, _halve_plus_one(k)) for k in range(1, n + 1)]
    return _chain_doc(f"degenerate-chain-{n}", n, (2.0, 2.0), (1.9, 15.0), subs,
                      random.Random(DEGENERATE_WEIGHT_SEED))


def write(doc: dict, path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path
