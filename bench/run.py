"""Benchmark for setdecomp: three workloads through the CLI entry point.

Run from the repository root:

    python3 bench/run.py --workload cruise --seed 1 --seconds 25 --trace 0

Each run generates its inputs from the seed, times whole rounds of
operations (decompose, check-laws over the emitted sub-requirements,
simulate; on ``chain`` also the degenerate-chain decompose) in this warm
process until ``--seconds`` have passed, checks every output with the
independent checks in ``checks.py`` and prints one JSON object as its last
line.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of ``spans.py``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import spans
import workloads

STEP = 0.01
#: seeded design points simulated by the plain RK4 check
RK4_POINTS = 32

#: per workload: horizon, whether the published initial spaces apply, and
#: how many check-laws, simulate and set-up (fresh interpreter) samples one
#: round holds next to its one decompose.  The cheap operations are repeated,
#: and interleaved with each other, so that their samples spread over the
#: whole run and a short slow spell of the machine moves few of them.
WORKLOADS = {
    # the paper's study at the default settings; the full box is feasible
    "cruise": {"horizon": 100.0, "published": True,
               "check_laws": 50, "simulate": 6, "setup": 3},
    # one lowered window bound makes narrowing bisect both omega_m bounds
    "cruise-narrow": {"horizon": 100.0, "published": False,
                      "check_laws": 50, "simulate": 8, "setup": 5},
    # what grows with architecture size: structure, sampling, solver, laws
    "chain": {"horizon": 1.0, "published": False,
              "check_laws": 4, "simulate": 12, "setup": 2},
}

#: imports the program and loads and validates one architecture, as a user's
#: first command does
SETUP_SNIPPET = """\
import sys
import setdecomp
from setdecomp.architecture import classify, load_architecture
if not setdecomp.__file__.startswith(sys.argv[1]):
    sys.exit("setdecomp imported from " + setdecomp.__file__)
arch, _ = load_architecture(sys.argv[2])
classify(arch)
"""


class BenchError(Exception):
    pass


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program(src: str):
    if not os.path.isfile(os.path.join(src, "setdecomp", "__init__.py")):
        raise BenchError(f"no setdecomp sources under {src}; run from the repository root")
    sys.path.insert(0, src)
    import setdecomp
    import setdecomp.cli
    if not os.path.abspath(setdecomp.__file__).startswith(src + os.sep):
        raise BenchError(f"setdecomp was imported from {setdecomp.__file__}, not {src}")
    return setdecomp.cli


class Bench:
    def __init__(self, args, cli, src: str, work: str):
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.src = src
        self.cli = cli
        # one thread, in this process and in the fresh ones
        os.environ.pop("SETDECOMP_THREADS", None)
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.work = work
        self.run_flags = ["--step", repr(STEP), "--horizon", repr(self.spec["horizon"])]

        cruise = workloads.load_cruise(os.path.join(self.src, "setdecomp", "data", "cruise.json"))
        doc = {"cruise": lambda: cruise,
               "cruise-narrow": lambda: workloads.cruise_narrow(cruise),
               "chain": lambda: workloads.chain(args.seed)}[args.workload]()
        self.arch = checks.Arch(doc)
        self.arch_path = workloads.write(doc, self._path("architecture.json"))
        self.top_path = workloads.write(doc["top"], self._path("top.json"))
        self.degenerate_path = None
        if args.workload == "chain":
            self.degenerate_path = workloads.write(workloads.degenerate_chain(),
                                                   self._path("degenerate.json"))
        self.part_paths: list[str] = []
        self.times: dict[str, list[float]] = {"decompose": [], "check-laws": [], "simulate": []}
        self.outputs: dict[str, list[bytes]] = {"decompose": [], "check-laws": [], "simulate": []}
        self.attempted: dict[str, int] = {}
        self.errors: dict[str, list[str]] = {}
        self.setup_times: list[float] = []

    def _path(self, name: str) -> str:
        return os.path.join(self.work, name)

    # --- operations -------------------------------------------------------------

    def _cli(self, argv: list[str]) -> tuple[int, str, str, float]:
        out, err = io.StringIO(), io.StringIO()
        # collection debt left by the previous operation would land at a
        # random point of this one
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = self.cli.main(argv)
            elapsed = time.perf_counter() - start
        return code, out.getvalue(), err.getvalue(), elapsed

    def _attempt(self, name: str, argv: list[str]) -> tuple[int, str, float]:
        self.attempted[name] = self.attempted.get(name, 0) + 1
        code, out, err, elapsed = self._cli(argv)
        if code != 0:
            self.errors.setdefault(name, []).append(f"exit {code}: {err.strip()}")
        return code, out, elapsed

    def decompose(self) -> None:
        report = self._path("report.json")
        code, _, elapsed = self._attempt(
            "decompose", ["decompose", self.arch_path, *self.run_flags, "--out", report])
        if code == 0:
            self.times["decompose"].append(elapsed)
            with open(report, "rb") as fh:
                self.outputs["decompose"].append(fh.read())
            if not self.part_paths:
                self._write_parts(json.loads(self.outputs["decompose"][0]))

    def _write_parts(self, report: dict) -> None:
        for fr in report["subrequirements"]:
            self.part_paths.append(workloads.write(fr, self._path(f"part-{fr['name']}.json")))

    def check_laws(self) -> None:
        if not self.part_paths:
            raise BenchError("no decomposition report to take the sub-requirements from")
        code, out, elapsed = self._attempt("check-laws",
                                           ["check-laws", *self.part_paths, self.top_path])
        if code == 0:
            self.times["check-laws"].append(elapsed)
            self.outputs["check-laws"].append(out.encode("utf-8"))

    def simulate(self) -> None:
        csv = self._path("trajectory.csv")
        code, _, elapsed = self._attempt(
            "simulate", ["simulate", self.arch_path, *self.run_flags, "--out", csv])
        if code == 0:
            self.times["simulate"].append(elapsed)
            with open(csv, "rb") as fh:
                self.outputs["simulate"].append(fh.read())

    def degenerate(self) -> None:
        self._attempt("degenerate-decompose",
                      ["decompose", self.degenerate_path, "--horizon", "1",
                       "--out", self._path("degenerate-report.json")])

    def round(self, recorder: spans.Recorder | None, setup: bool) -> None:
        """One decompose, then the workload's check-laws, simulate and, when
        ``setup`` is set, set-up repetitions, interleaved; a recorder traces
        the first operation of each kind."""
        ops = [(self.check_laws, self.spec["check_laws"]), (self.simulate, self.spec["simulate"])]
        if setup:
            ops.append((self.setup_once, self.spec["setup"]))
        self._run(self.decompose, recorder)
        for i in range(max(repeats for _, repeats in ops)):
            for op, repeats in ops:
                if i < repeats:
                    self._run(op, recorder if i == 0 else None)
        if self.degenerate_path:
            self.degenerate()

    @staticmethod
    def _run(op, recorder: spans.Recorder | None) -> None:
        if recorder is None:
            op()
            return
        recorder.install()
        try:
            op()
        finally:
            recorder.remove()

    # --- fresh processes --------------------------------------------------------

    def setup_once(self) -> None:
        """Times one fresh interpreter importing setdecomp and loading and
        classifying the architecture."""
        cmd = [sys.executable, "-c", SETUP_SNIPPET, self.src + os.sep, self.arch_path]
        start = time.perf_counter()
        done = subprocess.run(cmd, env=self.env, capture_output=True, text=True)
        self.setup_times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise BenchError(f"set-up process failed: {done.stderr.strip()}")

    def fresh_decompose(self) -> float:
        """Peak resident MiB of a new process running one decompose; its
        report joins the byte-identity check."""
        report = self._path("fresh-report.json")
        cmd = [sys.executable, "-m", "setdecomp.cli", "decompose", self.arch_path,
               *self.run_flags, "--out", report]
        with open(self._path("fresh.err"), "w+") as err:
            proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            message = err.read().strip()
        if proc.returncode != 0:
            raise BenchError(f"fresh decompose exited {proc.returncode}: {message}")
        with open(report, "rb") as fh:
            self.outputs["decompose"].append(fh.read())
        return usage.ru_maxrss / 1024.0

    # --- correctness ------------------------------------------------------------

    def verify(self) -> tuple[dict[str, list[str]], list[str]]:
        """Failures per operation (output faults on top of exit codes) and
        the check notes to print."""
        notes = []
        for name, outs in self.outputs.items():
            if not outs:
                raise checks.CheckFailed(f"no successful {name}")
            if any(o != outs[0] for o in outs):
                raise checks.CheckFailed(f"{len(outs)} {name} outputs are not byte-identical")
        report = json.loads(self.outputs["decompose"][0])
        checks.check_report(self.arch, report, self.spec["published"])
        sim = checks.Simulator(self.arch)
        times, ys = sim.run(checks.design_points(self.arch, report, self.args.seed, RK4_POINTS),
                            self.spec["horizon"], STEP)
        worst = checks.check_trajectories(
            self.arch, times, {k: v[:, 1:] for k, v in ys.items()})
        if worst > -float("inf"):
            notes.append(f"window max over {RK4_POINTS} narrowed-box points: {worst!r}")
        links = checks.check_laws_output(self.arch, self.outputs["check-laws"][0].decode())
        notes.append(f"check-laws passed {links} links")
        faults = checks.check_trajectory_csv(self.arch, self.outputs["simulate"][0].decode(),
                                             STEP, {k: v[:, 0] for k, v in ys.items()})
        failures = {name: list(errs) for name, errs in self.errors.items()}
        if faults:
            # the same bytes came out of every simulate, so every one is faulty
            failures.setdefault("simulate", []).extend(
                ["time column not numeric: " + "; ".join(faults)] * len(self.outputs["simulate"]))
        if self.degenerate_path and "degenerate-decompose" not in self.errors:
            with open(self.degenerate_path, encoding="utf-8") as fh:
                arch = checks.Arch(json.load(fh))
            with open(self._path("degenerate-report.json"), encoding="utf-8") as fh:
                checks.check_report(arch, json.load(fh), False)
        return failures, notes


def _unit(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_s", "s"), ("bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def _median_of(bench: Bench, op: str) -> float:
    if not bench.times[op]:
        raise BenchError(f"every {op} failed: {bench.errors[op][0]}")
    return statistics.median(bench.times[op])


def run(args, root: str) -> dict:
    src = os.path.join(root, "src")
    cli = _import_program(src)
    scratch = os.path.join(root, ".bench_work")
    work = os.path.join(scratch, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        bench = Bench(args, cli, src, work)
        metrics: dict[str, dict] = {}
        if not args.trace:
            metrics["peak_rss_mib"] = {"value": bench.fresh_decompose(), "unit": "MiB"}

        layer_rounds: list[dict[str, float]] = []
        traced_decompose: list[float] = []
        rounds = 0
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and rounds % 2 == 1
            recorder = spans.Recorder() if traced else None
            before = len(bench.times["decompose"])
            bench.round(recorder, setup=not args.trace)
            if traced:
                layer_rounds.append(spans.layer_metrics(recorder.spans))
                traced_decompose.extend(bench.times["decompose"][before:])
                del bench.times["decompose"][before:]
            rounds += 1
            if time.perf_counter() - start >= args.seconds and (not args.trace or rounds % 2 == 0):
                break

        correct = True
        try:
            failures, notes = bench.verify()
        except checks.CheckFailed as e:
            correct, failures, notes = False, dict(bench.errors), [f"CHECK FAILED: {e}"]

        if args.trace:
            for name in layer_rounds[0]:
                metrics[name] = {"value": statistics.median([r[name] for r in layer_rounds]),
                                 "unit": _unit(name)}
            metrics["cli.simulate.bytes"] = {"value": len(bench.outputs["simulate"][0]),
                                             "unit": "bytes"}
            metrics["trace.overhead_s"] = {
                "value": statistics.median(traced_decompose) - _median_of(bench, "decompose"),
                "unit": "s"}
        else:
            metrics["setup_s"] = {"value": statistics.median(bench.setup_times), "unit": "s"}
            for key in ("decompose", "check-laws", "simulate"):
                metrics[key.replace("-", "_") + "_s"] = {"value": _median_of(bench, key),
                                                         "unit": "s"}

        attempted = sum(bench.attempted.values())
        failed = sum(len(v) for v in failures.values())
        print(f"{args.workload} seed {args.seed}: {rounds} rounds, "
              f"{attempted} operations, {failed} failed")
        for name in sorted(bench.attempted):
            errs = failures.get(name, [])
            print(f"  {name}: {bench.attempted[name]} attempted, {len(errs)} failed"
                  + (f" -- {errs[0]}" if errs else ""))
        for note in notes:
            print(f"  {note}")
        for op, times in [*bench.times.items(), ("setup", bench.setup_times)]:
            if times:
                print(f"  {op}: {len(times)} timed, {min(times):.4g} to {max(times):.4g} s")
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    try:
        result = run(args, root)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
