"""End-to-end decomposition pipeline and its report.

``run_pipeline`` executes the four steps over an architecture file —
classification, initial spaces, narrowing, trade-off — and returns the
report as a JSON document, which ``report_to_json``,
``report_to_markdown`` and ``report_to_csv`` render.  The pipeline is free
of randomness, so identical inputs produce byte-identical reports;
``compare_reports`` turns that into per-number relative deltas against a
golden file.
"""

from __future__ import annotations

import json

from .architecture import classify, load_architecture
from .errors import ValidationError
from .narrowing import NarrowingResult, initial_spaces, narrow
from .requirements import _map_to_dict, check_refines, fr_to_dict, read_json
from .simulation import SamplingPlan
from .tradeoff import PreferenceWeights, TradeoffResult, check_weight_names, run_tradeoff

__all__ = ["run_pipeline", "report_to_json", "report_to_markdown", "report_to_csv",
           "compare_reports"]

#: the report's spaces, in the order they are rendered, with their titles
_SPACES = (("fds1", "Initial design space"), ("fps1", "Initial performance space"),
           ("fds2", "Narrowed design space"), ("fps2", "Attained performance space"),
           ("fps_star", "Final performance ranges"))


def run_pipeline(arch_file, plan: SamplingPlan | None = None, *,
                 strict_refinement: bool = False, golden_file=None) -> dict:
    """The decomposition report of the architecture file ``arch_file``, a
    JSON document with the keys ``architecture`` (the file name),
    ``classification`` (the ten variable groups), ``spaces`` (``fds1``,
    ``fps1``, ``fds2``, ``fps2`` and ``fps_star``), ``subrequirements``,
    ``law_checks`` (``composability`` and ``refinement``), ``log``
    (``narrowing`` and ``tradeoff``) and ``deltas`` (the
    :func:`compare_reports` of the report against ``golden_file``, empty
    without one).  The golden file is read, and fails if malformed or not
    a JSON object, before anything is simulated; one that shares no number
    with the report fails after the run."""
    plan = plan or SamplingPlan()
    arch, raw = load_architecture(arch_file)
    golden = None if golden_file is None else read_json(golden_file)
    if golden is not None and not isinstance(golden, dict):
        raise ValidationError(f"{golden_file}: a golden report must be a JSON object")
    tradeoff = raw.get("tradeoff", {})
    if not isinstance(tradeoff, dict):
        raise ValidationError("the 'tradeoff' section must be a JSON object")
    weights = PreferenceWeights.from_dict(tradeoff.get("weights", {}))

    classification = {label: sorted(group) for label, group in classify(arch).groups().items()}
    spaces = initial_spaces(arch)
    # a misnamed weight fails before any envelope is simulated
    check_weight_names(arch, weights, spaces.fps)
    nres: NarrowingResult = narrow(arch, spaces, plan)
    tres: TradeoffResult = run_tradeoff(
        arch, nres.narrowed.fds, spaces.fps, nres.narrowed.fps, weights)

    # law post-assertions are raised inside run_tradeoff; report the verdicts
    refinement = check_refines(tres.composite, arch.top, strict=strict_refinement)
    matrix = [{"producer": producer, "consumer": consumer, "variable": var,
               "ok": bool(res)}
              for producer, consumer, var, res
              in sorted(tres.composability, key=lambda link: (link[2], link[1]))]
    report = {
        "architecture": str(arch_file),
        "classification": classification,
        "spaces": {"fds1": _map_to_dict(spaces.fds), "fps1": _map_to_dict(spaces.fps),
                   "fds2": _map_to_dict(nres.narrowed.fds),
                   "fps2": _map_to_dict(nres.narrowed.fps),
                   "fps_star": _map_to_dict(tres.chosen)},
        "subrequirements": [fr_to_dict(fr) for fr in tres.subrequirements],
        "law_checks": {"composability": matrix,
                       "refinement": {"ok": bool(refinement),
                                      "strict": strict_refinement,
                                      "witness": refinement.witness_var,
                                      "clause": refinement.clause}},
        "log": {"narrowing": list(nres.log), "tradeoff": list(tres.log)},
        "deltas": {},
    }
    if golden is not None:
        report["deltas"] = compare_reports(report, golden)
        if not report["deltas"]["per_number"]:
            raise ValidationError(f"{golden_file}: the golden report shares no number "
                                  "with this report")
    return report


def compare_reports(report: dict, golden: dict) -> dict:
    """Per-number relative deltas |report - golden| / max(|golden|, 1e-12)
    over every numeric leaf both documents share, keyed by JSON path."""
    deltas: dict[str, float] = {}

    def walk(a, b, path: str):
        if isinstance(a, dict) and isinstance(b, dict):
            for k in sorted(set(a) & set(b)):
                walk(a[k], b[k], f"{path}.{k}" if path else str(k))
        elif isinstance(a, list) and isinstance(b, list):
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{path}[{i}]")
        elif isinstance(a, (int, float)) and isinstance(b, (int, float)) \
                and not isinstance(a, bool) and not isinstance(b, bool):
            deltas[path] = abs(a - b) / max(abs(b), 1e-12)

    walk(report, golden, "")
    out = {"per_number": deltas}
    if deltas:
        worst = max(deltas, key=deltas.get)
        out["max"] = {"path": worst, "delta": deltas[worst]}
    return out


# --- rendering ----------------------------------------------------------------

def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _md_space(title: str, table: dict) -> list[str]:
    lines = [f"## {title}", "", "| variable | lo | hi | unit |",
             "|---|---|---|---|"]
    for name in sorted(table):
        e = table[name]
        lines.append(f"| {name} | {e['lo']:.6g} | {e['hi']:.6g} | {e['unit']} |")
    lines.append("")
    return lines


def report_to_markdown(report: dict) -> str:
    lines = [f"# Decomposition report: {report['architecture']}", ""]
    lines += ["## Classification", ""]
    for label, names in sorted(report["classification"].items()):
        lines.append(f"- **{label}**: {', '.join(names) or '-'}")
    lines.append("")
    for key, title in _SPACES:
        lines += _md_space(title, report["spaces"][key])
    lines += ["## Sub-requirements", ""]
    for fr in report["subrequirements"]:
        lines.append(f"### {fr['name']}")
        lines.append("")
        for role in ("inputs", "controllables", "uncontrollables", "outputs"):
            for name in sorted(fr.get(role, {})):
                e = fr[role][name]
                lines.append(f"- {role[:-1]} {name}: [{e['lo']:.6g}, {e['hi']:.6g}] {e['unit']}")
        lines.append("")
    checks = report["law_checks"]
    ref = checks["refinement"]
    lines += ["## Law checks", "",
              f"- composability: {len(checks['composability'])} links checked, all pass",
              f"- refinement of the top requirement: {'pass' if ref['ok'] else 'FAIL'}"
              f" (strict={str(ref['strict']).lower()})", ""]
    deltas = report["deltas"]
    if deltas.get("per_number"):
        worst = deltas["max"]
        lines += ["## Comparison", "",
                  f"- numbers compared: {len(deltas['per_number'])}",
                  f"- worst relative delta: {worst['delta']:.3e} at `{worst['path']}`", ""]
    return "\n".join(lines)


def report_to_csv(report: dict) -> str:
    rows = ["section,variable,lo,hi,unit"]
    for section, _ in _SPACES:
        table = report["spaces"][section]
        for name in sorted(table):
            e = table[name]
            rows.append(f"{section},{name},{e['lo']!r},{e['hi']!r},{e['unit']}")
    return "\n".join(rows) + "\n"
