"""What each entry point imports. Loading and classifying an architecture and
``check-laws`` run without numpy and the simulator; ``decompose`` loads them;
the package root resolves each export from its submodule on first use. Each
case runs in a fresh interpreter, because this one has imported everything."""

import importlib.resources
import json
import os
import pathlib
import subprocess
import sys

import pytest

import setdecomp
from setdecomp.cli import main

CRUISE = str(importlib.resources.files("setdecomp") / "data" / "cruise.json")
FAST = ["--step", "0.05", "--horizon", "30", "--grid", "2"]
SIMULATOR = ["numpy", "setdecomp.codegen", "setdecomp.narrowing", "setdecomp.pipeline",
             "setdecomp.simulation", "setdecomp.tradeoff"]
SRC = str(pathlib.Path(setdecomp.__file__).resolve().parent.parent)


def _fresh(code: str, *args: str):
    """Run ``code`` in a new interpreter that imports setdecomp from this
    checkout; return the JSON value it prints last."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _simulator_after(code: str, *args: str) -> list[str]:
    """The modules of ``SIMULATOR`` a new interpreter holds after ``code``."""
    return _fresh(f"import json, sys\n{code}\n"
                  f"print(json.dumps([m for m in {SIMULATOR!r} if m in sys.modules]))", *args)


@pytest.fixture
def emitted_parts(tmp_path):
    """The sub-requirements ``decompose`` emits for cruise, then its top
    requirement, as contract files."""
    report = tmp_path / "report.json"
    assert main(["decompose", CRUISE, *FAST, "--out", str(report)]) == 0
    paths = []
    for fr in [*json.loads(report.read_text())["subrequirements"],
               json.loads(open(CRUISE).read())["top"]]:
        paths.append(tmp_path / f"{fr['name']}.json")
        paths[-1].write_text(json.dumps(fr))
    return [str(p) for p in paths]


def test_load_and_classify_import_no_simulator():
    code = ("import setdecomp\n"
            "arch, _ = setdecomp.load_architecture(sys.argv[1])\n"
            "setdecomp.classify(arch)")
    assert _simulator_after(code, CRUISE) == []


def test_check_laws_imports_no_simulator(emitted_parts):
    code = ("from setdecomp import cli\n"
            "assert cli.main(['check-laws', *sys.argv[1:]]) == 0")
    assert len(emitted_parts) == 9
    assert _simulator_after(code, *emitted_parts) == []


def test_decompose_imports_the_simulator(tmp_path):
    code = ("from setdecomp import cli\n"
            "assert cli.main(['decompose', *sys.argv[1:]]) == 0")
    loaded = _simulator_after(code, CRUISE, *FAST, "--out", str(tmp_path / "report.json"))
    assert loaded == SIMULATOR


def test_exports_resolve_to_their_submodules():
    code = """\
import importlib, json, setdecomp
names = [n for n in setdecomp.__all__ if n != "__version__"]
star = {}
exec("from setdecomp import *", star)
try:
    setdecomp.no_such_name
    unknown = "resolved"
except AttributeError as e:
    unknown = str(e)
print(json.dumps({
    "same": [n for n in names if getattr(setdecomp, n)
             is not getattr(importlib.import_module("setdecomp." + setdecomp._EXPORTS[n]), n)],
    "unbound": [n for n in setdecomp.__all__ if n not in star],
    "unknown": unknown,
}))"""
    assert _fresh(code) == {"same": [], "unbound": [],
                            "unknown": "module 'setdecomp' has no attribute 'no_such_name'"}


def test_dir_lists_every_export_before_first_use():
    code = "import json, setdecomp\nprint(json.dumps(dir(setdecomp)))"
    assert set(setdecomp.__all__) <= set(_fresh(code))
