"""Fixtures shared by more than one test module."""

import importlib.resources
import json

import pytest

from setdecomp.cli import main

CRUISE = str(importlib.resources.files("setdecomp") / "data" / "cruise.json")
#: quick run flags for decompose: a coarse step, a short horizon, two grid points
FAST = ["--step", "0.05", "--horizon", "30", "--grid", "2"]


@pytest.fixture
def emitted_parts(tmp_path):
    """The sub-requirements ``decompose`` emits for cruise at ``FAST``, then
    its top requirement, as contract files."""
    report = tmp_path / "report.json"
    assert main(["decompose", CRUISE, *FAST, "--out", str(report)]) == 0
    paths = []
    for fr in [*json.loads(report.read_text())["subrequirements"],
               json.loads(open(CRUISE).read())["top"]]:
        paths.append(tmp_path / f"{fr['name']}.json")
        paths[-1].write_text(json.dumps(fr))
    return [str(p) for p in paths]
