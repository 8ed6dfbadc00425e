"""Correctness checks written apart from setdecomp.

Nothing here imports the program.  The checks read the architecture file the
benchmark generated and the files the program wrote (JSON report, contract
files, trajectory CSV, check-laws output) and recompute what they must hold:
plain range intersections, containment, natural interval images from a small
evaluator, and trajectories from a plain RK4.  Each check raises
``CheckFailed`` with the first violation it finds.
"""

from __future__ import annotations

import math
import random

import numpy as np

#: initial spaces of the published cruise-control study
PUBLISHED_FDS1 = {"v_0": (23.0, 30.0), "v_r": (34.0, 36.0),
                  "m": (990.0, 1100.0), "omega_m": (350.0, 480.0)}
PUBLISHED_FPS1 = {"v": (20.0, 40.0), "vdot": (-1.5, 3.0), "Fr": (70.0, 120.0),
                  "F": (-250.0, 3500.0), "Fa": (0.0, 1000.0), "omega": (0.0, 450.0),
                  "T": (0.0, 250.0), "u": (-0.5, 2.0)}

#: slack, in units in the last place, allowed between an interval image
#: computed here and the output range the program chose
IMAGE_ULPS = 4


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _within(inner: tuple[float, float], outer: tuple[float, float]) -> bool:
    return outer[0] <= inner[0] and inner[1] <= outer[1]


def _pair(entry: dict) -> tuple[float, float]:
    return (entry["lo"], entry["hi"])


_ROLES = ("inputs", "outputs", "controllables", "uncontrollables")


# --- architecture model -------------------------------------------------------

class Arch:
    """The parts of an architecture document the checks need."""

    def __init__(self, doc: dict):
        self.top = doc["top"]
        self.constants = {k: float(v) for k, v in doc.get("constants", {}).items()}
        self.subs = doc["subfunctions"]
        self.producer = {name: sf["id"] for sf in self.subs for name in sf.get("outputs", {})}
        self.links = sorted({(self.producer[name], sf["id"])
                             for sf in self.subs for name in sf.get("inputs", {})
                             if name in self.producer})
        self.static = [sf for sf in self.subs
                       if sf["kind"] == "algebraic" and not sf.get("states")]

    def initial_spaces(self) -> tuple[dict, dict]:
        """Every declared port range intersected per variable, top inputs and
        uncontrollables pinned, top outputs intersected; produced variables
        form the performance space, the rest the design space."""
        ranges: dict[str, tuple[float, float]] = {}
        for sf in self.subs:
            for role in _ROLES:
                for name, e in sf.get(role, {}).items():
                    lo, hi = _pair(e)
                    if name in ranges:
                        lo, hi = max(lo, ranges[name][0]), min(hi, ranges[name][1])
                    _require(lo <= hi, f"initial range of {name} is empty")
                    ranges[name] = (lo, hi)
        for role in ("inputs", "uncontrollables"):
            for name, e in self.top.get(role, {}).items():
                _require(_within(_pair(e), ranges[name]),
                         f"top {role} {name} exceeds the declared ports")
                ranges[name] = _pair(e)
        for name, e in self.top.get("outputs", {}).items():
            ranges[name] = (max(ranges[name][0], e["lo"]), min(ranges[name][1], e["hi"]))
        fds = {n: r for n, r in ranges.items() if n not in self.producer}
        fps = {n: r for n, r in ranges.items() if n in self.producer}
        return fds, fps


# --- expressions ---------------------------------------------------------------

def _source(node, local) -> str:
    """Python source for a prefix-array expression; ``local`` maps a
    variable name to its identifier."""
    if isinstance(node, (int, float)):
        return repr(float(node))
    head = node[0]
    if head == "num":
        return repr(float(node[1]))
    if head == "var":
        return local(node[1])
    if head == "neg":
        return f"(-{_source(node[1], local)})"
    if head == "pow":
        return f"({_source(node[1], local)} ** {node[2]})"
    return f"({_source(node[1], local)} {head} {_source(node[2], local)})"


def _names(node, out: set) -> set:
    if isinstance(node, list):
        if node[0] == "var":
            out.add(node[1])
        elif node[0] != "num":
            for child in node[1:]:
                _names(child, out)
    return out


def _imul(a, b):
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(ps), max(ps))


def interval_image(node, env: dict[str, tuple[float, float]]) -> tuple[float, float]:
    """Natural interval extension of a prefix-array expression."""
    if isinstance(node, (int, float)):
        return (float(node), float(node))
    head = node[0]
    if head == "num":
        return (float(node[1]), float(node[1]))
    if head == "var":
        return env[node[1]]
    if head == "neg":
        lo, hi = interval_image(node[1], env)
        return (-hi, -lo)
    if head == "pow":
        lo, hi = interval_image(node[1], env)
        n = node[2]
        _require(n >= 0, "negative powers are outside the checker")
        if n == 0:
            return (1.0, 1.0)
        a, b = lo ** n, hi ** n
        if n % 2 == 1:
            return (a, b)
        if lo <= 0.0 <= hi:
            return (0.0, max(a, b))
        return (min(a, b), max(a, b))
    a, b = interval_image(node[1], env), interval_image(node[2], env)
    if head == "+":
        return (a[0] + b[0], a[1] + b[1])
    if head == "-":
        return (a[0] - b[1], a[1] - b[0])
    if head == "*":
        return _imul(a, b)
    _require(not (b[0] <= 0.0 <= b[1]), "interval division by a range holding zero")
    return _imul(a, (1.0 / b[1], 1.0 / b[0]))


def _slack(x: float) -> float:
    return IMAGE_ULPS * math.ulp(abs(x))


# --- plain RK4 -----------------------------------------------------------------

class Simulator:
    """Classical fixed-step RK4 over an architecture, vectorised over design
    points; outputs are sampled at the grid times."""

    def __init__(self, arch: Arch):
        self.arch = arch
        states: list[tuple[str, object, object]] = []   # name, derivative, initial
        assigns: dict[str, object] = {}
        for sf in arch.subs:
            if sf["kind"] == "integrator":
                states.append((sf["state"], ["var", sf["derivative_input"]],
                               ["var", sf["initial_input"]]))
            else:
                for st in sf.get("states", []):
                    states.append((st["name"], st["derivative"], st.get("initial", 0.0)))
                assigns.update(sf["exprs"])
        known = set(arch.constants) | {n for n, _, _ in states}
        known |= {n for sf in arch.subs for role in _ROLES for n in sf.get(role, {})
                  if n not in arch.producer}
        order: list[str] = []
        pending = dict(assigns)
        while pending:
            ready = sorted(n for n, e in pending.items() if _names(e, set()) <= known)
            _require(bool(ready), "algebraic loop in the architecture")
            for n in ready:
                order.append(n)
                known.add(n)
                del pending[n]
        self.state_names = [n for n, _, _ in states]
        self.outputs = sorted(arch.producer)
        ident = {n: f"v{i}" for i, n in enumerate(sorted(known))}
        local = ident.__getitem__
        body = [f"def rhs({', '.join(local(n) for n in self.state_names)}):"]
        body += [f"    {local(n)} = {_source(assigns[n], local)}" for n in order]
        body.append(f"    return [{', '.join(_source(d, local) for _, d, _ in states)}], "
                    f"[{', '.join(local(n) for n in self.outputs)}]")
        outer = ["def make(P):"]
        outer += [f"    {local(n)} = P[{n!r}]" for n in sorted(known - set(order)
                                                            - set(self.state_names))]
        outer += ["    " + line for line in body] + ["    return rhs"]
        self._src = "\n".join(outer)
        self._initial = [init for _, _, init in states]

    def run(self, point: dict[str, np.ndarray], horizon: float, step: float):
        """Times and per-output arrays of shape (steps + 1, points)."""
        params = dict(self.arch.constants)
        params.update(point)
        ns: dict = {}
        exec(self._src, ns)  # noqa: S102 - source built from the architecture's expression trees
        rhs = ns["make"](params)
        width = len(next(iter(point.values())))
        ident = {n: n for n in params}
        state = [np.zeros(width) + eval(_source(init, ident.__getitem__), {}, params)  # noqa: S307
                 for init in self._initial]
        n = int(round(horizon / step))
        out = np.empty((len(self.outputs), n + 1, width))
        for k in range(n + 1):
            k1, ys = rhs(*state)
            for i, y in enumerate(ys):
                out[i, k] = y
            if k < n:
                k2, _ = rhs(*(s + 0.5 * step * d for s, d in zip(state, k1)))
                k3, _ = rhs(*(s + 0.5 * step * d for s, d in zip(state, k2)))
                k4, _ = rhs(*(s + step * d for s, d in zip(state, k3)))
                state = [s + (step / 6.0) * (a + 2 * b + 2 * c + d)
                         for s, a, b, c, d in zip(state, k1, k2, k3, k4)]
        times = np.arange(n + 1) * step
        return times, {name: out[i] for i, name in enumerate(self.outputs)}


# --- checks on a decomposition report --------------------------------------------

def check_initial_spaces(arch: Arch, report: dict, published: bool) -> None:
    fds, fps = arch.initial_spaces()
    spaces = report["spaces"]
    got_fds = {n: _pair(e) for n, e in spaces["fds1"].items()}
    got_fps = {n: _pair(e) for n, e in spaces["fps1"].items()}
    _require(got_fds == fds, f"fds1 {got_fds} != recomputed {fds}")
    _require(got_fps == fps, f"fps1 {got_fps} != recomputed {fps}")
    if published:
        _require(fds == PUBLISHED_FDS1, f"fds1 {fds} != published {PUBLISHED_FDS1}")
        _require(fps == PUBLISHED_FPS1, f"fps1 {fps} != published {PUBLISHED_FPS1}")


def check_nesting(report: dict) -> None:
    """attained ⊆ final ⊆ allowed per performance variable, and the narrowed
    design box inside the initial one."""
    sp = report["spaces"]
    _require(set(sp["fds2"]) == set(sp["fds1"]), "narrowed design space has other variables")
    for name, e in sp["fds2"].items():
        _require(_within(_pair(e), _pair(sp["fds1"][name])),
                 f"narrowed {name} {_pair(e)} leaves {_pair(sp['fds1'][name])}")
    _require(set(sp["fps_star"]) == set(sp["fps1"]) == set(sp["fps2"]),
             "performance spaces disagree on their variables")
    for name, e in sp["fps_star"].items():
        final, attained, allowed = _pair(e), _pair(sp["fps2"][name]), _pair(sp["fps1"][name])
        _require(_within(attained, final) and _within(final, allowed),
                 f"{name}: final {final} not between attained {attained} "
                 f"and allowed {allowed}")


def _subreqs(report: dict) -> dict[str, dict]:
    return {fr["name"]: fr for fr in report["subrequirements"]}


def check_laws(arch: Arch, report: dict) -> None:
    """Composability per producer->consumer variable and refinement of the
    top requirement, from the report's sub-requirements alone."""
    frs = _subreqs(report)
    _require(set(frs) == {sf["id"] for sf in arch.subs}, "one sub-requirement per sub-function")
    final = report["spaces"]["fps_star"]
    design = report["spaces"]["fds2"]
    for sf in arch.subs:
        fr = frs[sf["id"]]
        for name, e in fr["outputs"].items():
            _require(_pair(e) == _pair(final[name]),
                     f"{sf['id']} promises {name} {_pair(e)}, final range {_pair(final[name])}")
        for role in ("controllables", "uncontrollables"):
            for name, e in fr[role].items():
                _require(_pair(e) == _pair(design[name]),
                         f"{sf['id']} {role} {name} differs from the narrowed design space")
    for sf in arch.subs:
        for name in sf.get("inputs", {}):
            if name not in arch.producer:
                continue
            produced = _pair(frs[arch.producer[name]]["outputs"][name])
            accepted = _pair(frs[sf["id"]]["inputs"][name])
            _require(_within(produced, accepted),
                     f"{arch.producer[name]} -> {sf['id']}: {name} {produced} "
                     f"not within {accepted}")
    exposed: dict[str, tuple[float, float]] = {}
    for fr in frs.values():
        for name, e in fr["inputs"].items():
            if name in arch.producer:
                continue
            lo, hi = _pair(e)
            if name in exposed:
                lo, hi = max(lo, exposed[name][0]), min(hi, exposed[name][1])
            exposed[name] = (lo, hi)
    for name, e in arch.top.get("inputs", {}).items():
        _require(name in exposed and _within(_pair(e), exposed[name]),
                 f"composite does not accept top input {name} {_pair(e)}")
    for name, e in arch.top.get("outputs", {}).items():
        promised = _pair(frs[arch.producer[name]]["outputs"][name])
        _require(_within(promised, _pair(e)),
                 f"composite output {name} {promised} exceeds top {_pair(e)}")
    _require(report["law_checks"]["refinement"]["ok"] is True, "report says refinement fails")
    _require(len(report["law_checks"]["composability"])
             == sum(1 for sf in arch.subs for n in sf.get("inputs", {}) if n in arch.producer),
             "composability matrix does not list every linked variable")


def check_images(arch: Arch, report: dict) -> None:
    """Interval images of each static sub-function's expressions, over its
    sub-requirement's ranges, lie inside the chosen output ranges."""
    frs = _subreqs(report)
    final = report["spaces"]["fps_star"]
    for sf in arch.static:
        fr = frs[sf["id"]]
        env = {k: (v, v) for k, v in arch.constants.items()}
        for role in ("inputs", "controllables", "uncontrollables"):
            env.update({n: _pair(e) for n, e in fr[role].items()})
        for out, node in sf["exprs"].items():
            lo, hi = interval_image(node, env)
            flo, fhi = _pair(final[out])
            _require(lo >= flo - _slack(flo) and hi <= fhi + _slack(fhi),
                     f"{sf['id']}: image of {out} [{lo!r}, {hi!r}] not within "
                     f"[{flo!r}, {fhi!r}]")


def design_points(arch: Arch, report: dict, seed: int, count: int) -> dict[str, np.ndarray]:
    """The initial design-space midpoint (column 0), then ``count`` seeded
    uniform points of the narrowed design box."""
    rng = random.Random(seed)
    mid = midpoint(arch)
    box = {n: _pair(e) for n, e in report["spaces"]["fds2"].items()}
    _require(set(box) == set(mid), "narrowed box and initial space disagree on variables")
    return {n: np.array([mid[n]] + [rng.uniform(lo, hi) for _ in range(count)])
            for n, (lo, hi) in sorted(box.items())}


def check_trajectories(arch: Arch, times: np.ndarray, ys: dict[str, np.ndarray]) -> float:
    """Every simulated point meets the top requirement over the whole
    horizon and inside every time window.  Returns the largest windowed
    value seen (the margin the README quotes), or -inf without windows."""
    worst = -math.inf
    for name, e in arch.top.get("outputs", {}).items():
        y = ys[name]
        _require(float(y.min()) >= e["lo"] and float(y.max()) <= e["hi"],
                 f"top output {name} reaches [{y.min()}, {y.max()}] outside {_pair(e)}")
    for timed in arch.top.get("timed_outputs", []):
        y = ys[timed["variable"]]
        for w in timed["windows"]:
            seen = y[(times >= w["t_start"]) & (times <= w["t_end"])]
            _require(float(seen.min()) >= w["lo"] and float(seen.max()) <= w["hi"],
                     f"{timed['variable']} reaches [{seen.min()}, {seen.max()}] in "
                     f"[{w['t_start']}, {w['t_end']}] s, outside [{w['lo']}, {w['hi']}]")
            worst = max(worst, float(seen.max()))
    return worst


def check_report(arch: Arch, report: dict, published: bool) -> None:
    check_initial_spaces(arch, report, published)
    check_nesting(report)
    check_laws(arch, report)
    check_images(arch, report)


# --- checks on check-laws and simulate output ------------------------------------

def check_laws_output(arch: Arch, text: str) -> int:
    """One pass line per producer->consumer link, no failures, refinement
    passes.  Returns the number of links."""
    lines = text.splitlines()
    passes = sorted(tuple(line[len("pass composable "):].split(" -> "))
                    for line in lines if line.startswith("pass composable "))
    _require(not any(line.startswith("FAIL") for line in lines), "check-laws reports FAIL")
    _require(passes == [tuple(link) for link in arch.links],
             f"check-laws passed {len(passes)} links, the architecture has {len(arch.links)}")
    _require(sum(line.startswith("pass refines ") for line in lines) == 1,
             "check-laws printed no refinement pass")
    return len(arch.links)


def midpoint(arch: Arch) -> dict[str, float]:
    fds, _ = arch.initial_spaces()
    return {n: 0.5 * (lo + hi) for n, (lo, hi) in fds.items()}


def check_trajectory_csv(arch: Arch, text: str, step: float,
                         ys: dict[str, np.ndarray]) -> list[str]:
    """The exported trajectory at the design-space midpoints: one row per
    grid time, values matching a plain RK4.  Returns the time-column faults
    (empty when every time cell reads as the number k*step); every other
    fault raises."""
    rows = text.splitlines()
    n = len(next(iter(ys.values()))) - 1
    header = rows[0].split(",")
    _require(header == ["t"] + sorted(arch.producer), f"CSV header {header}")
    _require(len(rows) == n + 2, f"CSV has {len(rows) - 1} data rows, expected {n + 1}")
    mid = midpoint(arch)
    time_faults = []
    for k, row in enumerate(rows[1:]):
        cells = row.split(",")
        _require(len(cells) == len(header), f"CSV row {k} has {len(cells)} cells")
        try:
            t = float(cells[0])
        except ValueError:
            t = None
        if t != k * step and len(time_faults) < 3:
            time_faults.append(f"row {k}: time cell {cells[0]!r}, expected {k * step!r}")
        for name, cell in zip(header[1:], cells[1:]):
            want = float(ys[name][k])
            got = float(cell)
            _require(abs(got - want) <= 1e-9 * (1.0 + abs(want)),
                     f"CSV {name}(t={k * step!r}) = {got!r}, plain RK4 gives {want!r}")
    for sf in arch.subs:
        if sf["kind"] == "integrator":
            first = float(rows[1].split(",")[header.index(sf["state"])])
            _require(first == mid[sf["initial_input"]],
                     f"{sf['state']}(0) = {first!r}, midpoint of "
                     f"{sf['initial_input']} is {mid[sf['initial_input']]!r}")
    return time_faults
