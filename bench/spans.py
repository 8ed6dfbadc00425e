"""Traced mode: spans around setdecomp's public functions, from outside.

setdecomp modules import each other's functions by name (``narrowing`` calls
its own ``envelope_over_box`` binding, ``cli`` its own ``check_composable``),
so a wrapper is installed on every module attribute that is bound to the
original function, and removed again afterwards.  Spans are kept in memory;
per-layer metrics are derived from them once the traced operations are done.
"""

from __future__ import annotations

import inspect
import sys
import time


def _plan_steps(plan) -> int:
    return int(round(plan.horizon / plan.step)) + 1


#: (module, function, note): ``note(arguments, result)`` gives what a span
#: carries besides its times
TARGETS = (
    ("architecture", "load_architecture", None),
    ("architecture", "classify", None),
    ("narrowing", "initial_spaces", None),
    ("narrowing", "narrow", lambda a, r: {"plan": a.get("plan")}),
    ("simulation", "envelope_over_box",
     lambda a, r: {"plan": a["plan"], "steps": _plan_steps(a["plan"])}),
    ("simulation", "design_samples", lambda a, r: {"samples": len(r)}),
    ("simulation", "build_ode", None),
    ("simulation", "integrate",
     lambda a, r: {"steps": int(round(a["horizon"] / a["step"])) + 1}),
    ("tradeoff", "run_tradeoff", None),
    ("tradeoff", "solve_tradeoff",
     lambda a, r: {"iterations": r[1], "free_bounds": a["problem"].dim()}),
    ("tradeoff", "restore_feasibility", None),
    ("expr", "evaluate_interval", None),
    ("requirements", "check_composable", None),
    ("requirements", "check_refines", None),
    ("requirements", "compose", None),
    ("requirements", "load_fr", None),
    ("pipeline", "run_pipeline", None),
    ("pipeline", "report_to_json", lambda a, r: {"bytes": len(r.encode("utf-8"))}),
    ("cli", "_cmd_check_laws", None),
    ("cli", "_cmd_simulate", None),
)


class Recorder:
    """Spans as [name, parent index, start, end, note]; -1 is no parent."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, note):
        sig = inspect.signature(fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    bound = sig.bind(*args, **kwargs)
                    span[4] = note(bound.arguments, result)
                return result
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        package = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "setdecomp" or n.startswith("setdecomp."))]
        for module_name, func_name, note in TARGETS:
            original = getattr(sys.modules[f"setdecomp.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, note)
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer time and counts over one traced round of operations."""
    duration = [s[3] - s[2] for s in spans]
    in_children = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            in_children[s[1]] += duration[i]

    def of(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total(name):
        return sum(duration[i] for i in of(name))

    def own(name):
        return sum(duration[i] - in_children[i] for i in of(name))

    def under(name, parent):
        return [i for i in of(name) if spans[i][1] >= 0 and spans[spans[i][1]][0] == parent]

    envelopes = of("simulation.envelope_over_box")
    samples_in = {i: 0 for i in envelopes}
    for i in of("simulation.design_samples"):
        if spans[i][1] in samples_in:
            samples_in[spans[i][1]] += spans[i][4]["samples"]
    steps = sum(spans[i][4]["steps"] for i in envelopes)
    checks = 0
    for i in under("simulation.envelope_over_box", "narrowing.narrow"):
        narrow_plan = spans[spans[i][1]][4]["plan"]
        if narrow_plan is None or spans[i][4]["plan"] != narrow_plan:
            checks += 1
    solves = of("tradeoff.solve_tradeoff")
    iterations = sum(spans[i][4]["iterations"] for i in solves)
    integrate_steps = sum(spans[i][4]["steps"] for i in of("simulation.integrate"))
    return {
        "simulation.envelope_s": total("simulation.envelope_over_box"),
        "simulation.envelope.calls": len(envelopes),
        "simulation.envelope.steps": steps,
        "simulation.envelope.sample_steps":
            sum(spans[i][4]["steps"] * samples_in[i] for i in envelopes),
        "simulation.envelope.step_us": 1e6 * total("simulation.envelope_over_box") / max(steps, 1),
        "narrowing.narrow_s": total("narrowing.narrow"),
        "narrowing.narrow.self_s": own("narrowing.narrow"),
        "narrowing.checks": checks,
        "simulation.design_samples_s": total("simulation.design_samples"),
        "simulation.samples": sum(spans[i][4]["samples"] for i in of("simulation.design_samples")),
        "simulation.build_ode_s": total("simulation.build_ode"),
        "simulation.build_ode.calls": len(of("simulation.build_ode")),
        "tradeoff.run_s": total("tradeoff.run_tradeoff"),
        "tradeoff.solve_s": total("tradeoff.solve_tradeoff"),
        "tradeoff.solve.iterations": iterations,
        "tradeoff.solve.free_bounds": sum(spans[i][4]["free_bounds"] for i in solves),
        "tradeoff.solve.iter_us": 1e6 * total("tradeoff.solve_tradeoff") / max(iterations, 1),
        "tradeoff.restore_s": total("tradeoff.restore_feasibility"),
        "tradeoff.restore.interval_evals":
            len(under("expr.evaluate_interval", "tradeoff.restore_feasibility")),
        "tradeoff.post_s": own("tradeoff.run_tradeoff"),
        "architecture.load_s": total("architecture.load_architecture"),
        "architecture.classify_s": total("architecture.classify"),
        "architecture.classify.calls": len(of("architecture.classify")),
        "narrowing.initial_spaces_s": total("narrowing.initial_spaces"),
        "requirements.check_composable_s": total("requirements.check_composable"),
        "requirements.check_composable.calls": len(of("requirements.check_composable")),
        "requirements.compose_s": total("requirements.compose"),
        "requirements.check_refines_s": total("requirements.check_refines"),
        "requirements.load_fr_s": total("requirements.load_fr"),
        "cli.check_laws.pairs": len(under("requirements.check_composable", "cli._cmd_check_laws")),
        "pipeline.run_s": total("pipeline.run_pipeline"),
        "pipeline.self_s": own("pipeline.run_pipeline"),
        "pipeline.render_s": total("pipeline.report_to_json"),
        "pipeline.report_bytes": sum(spans[i][4]["bytes"] for i in of("pipeline.report_to_json")),
        "simulation.integrate_s": total("simulation.integrate"),
        "simulation.integrate.step_us":
            1e6 * total("simulation.integrate") / max(integrate_steps, 1),
        "cli.simulate.csv_s": own("cli._cmd_simulate"),
        "trace.spans": len(spans),
    }
