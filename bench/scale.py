"""How each layer grows with architecture size: one traced decompose plus
one traced check-laws of the generated chain per size.

Run from the repository root:

    python3 bench/scale.py 100 200 400 --seed 1
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import time

import run
import spans
import workloads

LAYERS = ("architecture.load_s", "architecture.classify_s", "narrowing.initial_spaces_s",
          "simulation.design_samples_s", "simulation.envelope_s", "tradeoff.solve_s",
          "tradeoff.solve.iterations", "tradeoff.restore_s", "requirements.compose_s",
          "requirements.check_composable_s", "cli.check_laws.pairs", "pipeline.render_s")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("sizes", type=int, nargs="+")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    root = os.getcwd()
    cli = run._import_program(os.path.join(root, "src"))
    work = os.path.join(root, ".bench_work", f"scale-{os.getpid()}")
    os.makedirs(work)
    try:
        print("n," + ",".join(("decompose_s",) + LAYERS))
        for n in args.sizes:
            doc = workloads.chain(args.seed, n)
            arch = workloads.write(doc, os.path.join(work, "chain.json"))
            top = workloads.write(doc["top"], os.path.join(work, "top.json"))
            report = os.path.join(work, "report.json")
            recorder = spans.Recorder()
            recorder.install()
            try:
                start = time.perf_counter()
                if cli.main(["decompose", arch, "--horizon", "1", "--out", report]) != 0:
                    raise SystemExit(f"decompose of chain-{n} failed")
                elapsed = time.perf_counter() - start
                with open(report, encoding="utf-8") as fh:
                    parts = [workloads.write(fr, os.path.join(work, f"part-{fr['name']}.json"))
                             for fr in json.load(fh)["subrequirements"]]
                with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                    if cli.main(["check-laws", *parts, top]) != 0:
                        raise SystemExit(f"check-laws of chain-{n} failed")
            finally:
                recorder.remove()
            m = spans.layer_metrics(recorder.spans)
            print(f"{n},{elapsed:.3f}," + ",".join(f"{m[k]:.4g}" for k in LAYERS), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
