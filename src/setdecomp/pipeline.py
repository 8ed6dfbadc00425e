"""End-to-end decomposition pipeline and its report.

``run_pipeline`` executes the four steps over an architecture file —
classification, initial spaces, narrowing, trade-off — and returns a
``PipelineReport`` that can be rendered to JSON, Markdown or CSV.  The
pipeline is free of randomness, so identical inputs produce byte-identical
reports; ``compare_reports`` turns that into per-number relative deltas
against a golden file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .architecture import classify, load_architecture
from .errors import ValidationError
from .narrowing import NarrowingResult, initial_spaces, narrow
from .requirements import _map_to_dict, check_refines, fr_to_dict
from .simulation import SamplingPlan
from .tradeoff import PreferenceWeights, TradeoffResult, check_weight_names, run_tradeoff

__all__ = ["PipelineReport", "run_pipeline",
           "report_to_json", "report_to_markdown", "report_to_csv",
           "compare_reports"]


@dataclass(frozen=True)
class PipelineReport:
    architecture: str
    classification: dict[str, list[str]]
    fds1: dict
    fps1: dict
    fds2: dict
    fps2: dict
    fps_star: dict
    subrequirements: list[dict]
    law_checks: dict
    narrowing_log: list[dict]
    tradeoff_log: list[dict]
    deltas: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "architecture": self.architecture,
            "classification": self.classification,
            "spaces": {"fds1": self.fds1, "fps1": self.fps1,
                       "fds2": self.fds2, "fps2": self.fps2,
                       "fps_star": self.fps_star},
            "subrequirements": self.subrequirements,
            "law_checks": self.law_checks,
            "log": {"narrowing": self.narrowing_log, "tradeoff": self.tradeoff_log},
            "deltas": self.deltas,
        }


def run_pipeline(arch_file, plan: SamplingPlan | None = None, *,
                 strict_refinement: bool = False, golden_file=None) -> PipelineReport:
    plan = plan or SamplingPlan()
    arch, raw = load_architecture(arch_file)
    tradeoff = raw.get("tradeoff", {})
    if not isinstance(tradeoff, dict):
        raise ValidationError("the 'tradeoff' section must be a JSON object")
    weights = PreferenceWeights.from_dict(tradeoff.get("weights", {}))

    cls = classify(arch)
    classification = {label: sorted(group)
                      for label, group in cls.groups().items()}

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

    report = PipelineReport(
        architecture=str(arch_file),
        classification=classification,
        fds1=_map_to_dict(spaces.fds), fps1=_map_to_dict(spaces.fps),
        fds2=_map_to_dict(nres.narrowed.fds), fps2=_map_to_dict(nres.narrowed.fps),
        fps_star=_map_to_dict(tres.chosen),
        subrequirements=[fr_to_dict(fr) for fr in tres.subrequirements],
        law_checks={"composability": matrix,
                    "refinement": {"ok": bool(refinement),
                                   "strict": strict_refinement,
                                   "witness": refinement.witness_var,
                                   "clause": refinement.clause}},
        narrowing_log=list(nres.log),
        tradeoff_log=list(tres.log),
    )
    if golden_file is not None:
        with open(golden_file, "r", encoding="utf-8") as fh:
            golden = json.load(fh)
        deltas = compare_reports(report.to_dict(), golden)
        report = PipelineReport(**{**report.__dict__, "deltas": deltas})
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

def report_to_json(report: PipelineReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


def _md_space(title: str, table: dict) -> list[str]:
    lines = [f"## {title}", "", "| variable | lo | hi | unit |",
             "|---|---|---|---|"]
    for name in sorted(table):
        e = table[name]
        lines.append(f"| {name} | {e['lo']:.6g} | {e['hi']:.6g} | {e['unit']} |")
    lines.append("")
    return lines


def report_to_markdown(report: PipelineReport) -> str:
    lines = [f"# Decomposition report: {report.architecture}", ""]
    lines += ["## Classification", ""]
    for label in sorted(report.classification):
        names = ", ".join(report.classification[label]) or "-"
        lines.append(f"- **{label}**: {names}")
    lines.append("")
    for title, table in (("Initial design space", report.fds1),
                         ("Initial performance space", report.fps1),
                         ("Narrowed design space", report.fds2),
                         ("Attained performance space", report.fps2),
                         ("Final performance ranges", report.fps_star)):
        lines += _md_space(title, table)
    lines += ["## Sub-requirements", ""]
    for fr in report.subrequirements:
        lines.append(f"### {fr['name']}")
        lines.append("")
        for role in ("inputs", "controllables", "uncontrollables", "outputs"):
            for name in sorted(fr.get(role, {})):
                e = fr[role][name]
                lines.append(f"- {role[:-1]} {name}: [{e['lo']:.6g}, {e['hi']:.6g}] {e['unit']}")
        lines.append("")
    ref = report.law_checks["refinement"]
    lines += ["## Law checks", "",
              f"- composability: {len(report.law_checks['composability'])} links checked, all pass",
              f"- refinement of the top requirement: {'pass' if ref['ok'] else 'FAIL'}"
              f" (strict={str(ref['strict']).lower()})", ""]
    if report.deltas.get("per_number"):
        worst = report.deltas["max"]
        lines += ["## Comparison", "",
                  f"- numbers compared: {len(report.deltas['per_number'])}",
                  f"- worst relative delta: {worst['delta']:.3e} at `{worst['path']}`", ""]
    return "\n".join(lines)


def report_to_csv(report: PipelineReport) -> str:
    rows = ["section,variable,lo,hi,unit"]
    for section, table in (("fds1", report.fds1), ("fps1", report.fps1),
                           ("fds2", report.fds2), ("fps2", report.fps2),
                           ("fps_star", report.fps_star)):
        for name in sorted(table):
            e = table[name]
            rows.append(f"{section},{name},{e['lo']!r},{e['hi']!r},{e['unit']}")
    return "\n".join(rows) + "\n"
