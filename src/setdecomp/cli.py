"""Command-line driver.

Three subcommands:

* ``decompose <arch.json>`` — run the full pipeline and emit a report
  (``--emit json|md|csv``), optionally diffed against a golden report
  (``--compare``).
* ``check-laws <part.json> [...] <top.json>`` — verify that every
  producer->consumer link between the leading contract files is composable
  and, when all are, that their composite refines the last file.
* ``simulate <arch.json> [name=value ...]`` — export one trajectory as CSV;
  unspecified design variables default to the midpoints of the initial
  design space.

Exit codes: 0 success, 2 validation/parse failure, 3 infeasibility,
4 law violation.

Each command imports what it runs, when it runs: at import this module
loads only ``architecture``, ``errors`` and ``requirements``, none of which
imports numpy, and that is all ``check-laws`` needs. ``decompose`` imports
``pipeline`` and ``simulation`` (and through them numpy, ``narrowing``,
``codegen`` and ``tradeoff``); ``simulate`` imports numpy, ``narrowing``
and ``simulation``.
"""

from __future__ import annotations

import argparse
import sys

from .architecture import load_architecture
from .errors import (EmptyRange, Infeasible, NonFinite, NotComposable,
                     ParseError, PostconditionFailure, SetDecompError)
from .requirements import _assemble, check_refines, links, load_fr

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_LAW = 4


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--step", type=float, default=0.01,
                   help="integration step in seconds (default 0.01)")
    p.add_argument("--horizon", type=float, default=100.0,
                   help="integration horizon in seconds (default 100)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setdecomp",
        description="Set-based decomposition of functional requirements.")
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="run the four-step pipeline")
    d.add_argument("architecture", help="architecture JSON file")
    _add_run_flags(d)
    d.add_argument("--grid", type=int, default=3,
                   help="envelope grid points per design axis (default 3)")
    d.add_argument("--strict-refinement", action="store_true",
                   help="also require controllable/uncontrollable refinement")
    d.add_argument("--compare", metavar="FILE",
                   help="golden report JSON to diff against")
    d.add_argument("--emit", choices=("json", "md", "csv"), default="json")
    d.add_argument("--out", metavar="FILE", help="write report here instead of stdout")

    c = sub.add_parser("check-laws", help="check contract files against each other")
    c.add_argument("files", nargs="+",
                   help="contract JSON files; the last one is the contract to refine")
    c.add_argument("--strict-refinement", action="store_true")

    s = sub.add_parser("simulate", help="export one trajectory as CSV")
    s.add_argument("architecture", help="architecture JSON file")
    s.add_argument("overrides", nargs="*", metavar="name=value",
                   help="design-point overrides (default: design-space midpoints)")
    _add_run_flags(s)
    s.add_argument("--out", metavar="FILE", help="write CSV here instead of stdout")
    return parser


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_decompose(args) -> int:
    from .pipeline import report_to_csv, report_to_json, report_to_markdown, run_pipeline
    from .simulation import SamplingPlan

    plan = SamplingPlan(grid=args.grid, step=args.step, horizon=args.horizon)
    report = run_pipeline(args.architecture, plan,
                          strict_refinement=args.strict_refinement,
                          golden_file=args.compare)
    render = {"json": report_to_json, "md": report_to_markdown,
              "csv": report_to_csv}[args.emit]
    _write(render(report), args.out)
    if not report["law_checks"]["refinement"]["ok"]:
        return EXIT_LAW
    return EXIT_OK


def _cmd_check_laws(args) -> int:
    if len(args.files) < 2:
        print("check-laws needs at least two files (parts..., contract)",
              file=sys.stderr)
        return EXIT_VALIDATION
    frs = [load_fr(f) for f in args.files]
    parts, top = frs[:-1], frs[-1]
    composable = True
    for fr_j, fr_k, res in links(parts):
        if res:
            print(f"pass composable {fr_j.name} -> {fr_k.name}")
        else:
            composable = False
            print(f"FAIL composable {fr_j.name} -> {fr_k.name}: "
                  f"'{res.witness_var}' {res.producer_range!r} not within "
                  f"{res.consumer_range!r}")
    if not composable:
        return EXIT_LAW
    whole = _assemble(parts, "composite") if len(parts) > 1 else parts[0]
    res = check_refines(whole, top, strict=args.strict_refinement)
    if res:
        print(f"pass refines {whole.name} -> {top.name}")
        return EXIT_OK
    print(f"FAIL refines {whole.name} -> {top.name}: "
          f"'{res.witness_var}' {res.clause} ({res.refining!r} vs {res.refined!r})")
    return EXIT_LAW


def _cmd_simulate(args) -> int:
    import numpy as np

    from .narrowing import initial_spaces
    from .simulation import build_ode, integrate

    arch, _ = load_architecture(args.architecture)
    spaces = initial_spaces(arch)
    point = {v: iv.mid for v, iv in spaces.fds.items()}
    for item in args.overrides:
        name, eq, value = item.partition("=")
        try:
            number = float(value) if eq else None
        except ValueError:
            number = None
        if number is None:
            print(f"bad override {item!r}, expected name=value", file=sys.stderr)
            return EXIT_VALIDATION
        if name not in point:
            print(f"unknown design variable {name!r}; have: "
                  f"{', '.join(sorted(point))}", file=sys.stderr)
            return EXIT_VALIDATION
        point[name] = number
    sys_ = build_ode(arch, point)
    traj = integrate(sys_, horizon=args.horizon, step=args.step)
    names = sorted(traj.values)
    table = np.column_stack([traj.times, *(traj.values[n] for n in names)]).tolist()
    rows = ["t," + ",".join(names), *(",".join(map(repr, row)) for row in table)]
    _write("\n".join(rows) + "\n", args.out)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "decompose":
            return _cmd_decompose(args)
        if args.command == "check-laws":
            return _cmd_check_laws(args)
        return _cmd_simulate(args)
    except (ParseError, EmptyRange) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (Infeasible, NonFinite) as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (PostconditionFailure, NotComposable) as e:
        print(f"law violation: {e}", file=sys.stderr)
        return EXIT_LAW
    except SetDecompError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
