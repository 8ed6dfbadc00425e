"""Source hygiene: every name a package module imports is used or re-exported,
every name it exports exists, the README's Python examples import only
exported names, the README's flag list is the CLI's, every function the
benchmark's traced mode wraps exists with the arguments it reads, and the
traced mode runs on one decompose."""

import argparse
import ast
import importlib
import importlib.resources
import importlib.util
import inspect
import json
import pathlib
import re
import sys

import pytest

from setdecomp.cli import build_parser, main
from setdecomp.intervals import RangeMap
from setdecomp.simulation import SamplingPlan, design_samples

SOURCES = sorted(p for p in importlib.resources.files("setdecomp").iterdir()
                 if p.name.endswith(".py"))
ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
README_SNIPPETS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                             re.DOTALL | re.MULTILINE)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line for every import in the module."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in _imported(tree).items()
                    if name not in used and name not in _exported(tree))
    assert not unused, f"{path.name}: unused imports: {', '.join(unused)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_export_resolves_once(path):
    name = "setdecomp" if path.name == "__init__.py" else f"setdecomp.{path.name[:-3]}"
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    missing = [n for n in exported if not hasattr(module, n)]
    repeated = sorted({n for n in exported if exported.count(n) > 1})
    assert not missing, f"{path.name}: __all__ names undefined {', '.join(missing)}"
    assert not repeated, f"{path.name}: __all__ lists twice {', '.join(repeated)}"


def test_readme_has_python_examples():
    assert README_SNIPPETS


@pytest.mark.parametrize("snippet", README_SNIPPETS,
                         ids=[f"block{k}" for k in range(1, len(README_SNIPPETS) + 1)])
def test_readme_example_imports_exported_names(snippet):
    # static only: compiling and reading the imports, not running the example
    tree = ast.parse(snippet)
    compile(tree, "README.md", "exec")
    unexported = [f"{node.module}.{alias.name}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module
                  and node.module.split(".")[0] == "setdecomp"
                  for alias in node.names
                  if alias.name not in importlib.import_module(node.module).__all__]
    assert not unexported, f"README imports unexported {', '.join(unexported)}"


def test_readme_flags_are_the_cli_options():
    (flags,) = re.findall(r"^Flags:(.*?)\.\s", README.read_text(encoding="utf-8"),
                          re.DOTALL | re.MULTILINE)
    documented = re.findall(r"`(--[\w-]+)", flags)
    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    options = {option for parser in commands.choices.values() for action in parser._actions
               if not isinstance(action, argparse._HelpAction)
               for option in action.option_strings}
    assert sorted(documented) == sorted(options)


def _span_targets() -> list[tuple[str, str, set[str]]]:
    """(module, function, argument names its note reads) for every entry of
    ``TARGETS`` in bench/spans.py, read from the source without running it."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    (table,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)]
    targets = []
    for entry in table.elts:
        module, func, note = entry.elts
        read: set[str] = set()
        if isinstance(note, ast.Lambda):
            args = note.args.args[0].arg
            for node in ast.walk(note.body):
                if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                        and node.value.id == args):
                    read.add(node.slice.value)
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and isinstance(node.func.value, ast.Name) and node.func.value.id == args):
                    read.add(node.args[0].value)
        targets.append((module.value, func.value, read))
    return targets


SPAN_TARGETS = _span_targets()


def test_span_targets_are_found():
    assert SPAN_TARGETS


@pytest.mark.parametrize("module, func, read", SPAN_TARGETS,
                         ids=[f"{m}.{f}" for m, f, _ in SPAN_TARGETS])
def test_traced_function_exists_with_the_arguments_read(module, func, read):
    fn = getattr(importlib.import_module(f"setdecomp.{module}"), func, None)
    assert callable(fn), f"setdecomp.{module}.{func} is not a function"
    missing = sorted(read - set(inspect.signature(fn).parameters))
    assert not missing, f"setdecomp.{module}.{func} has no argument {', '.join(missing)}"


def test_design_samples_length_is_the_sample_count():
    # the traced mode records len(design_samples(box, plan)) as
    # simulation.samples: the lattice, the Halton set above the cap and a box
    # with no design variable
    (note,) = [n for m, f, n in SPAN_TARGETS if (m, f) == ("simulation", "design_samples")]
    assert note == set()        # the note reads the result, no argument
    box = RangeMap.of(a=(0, 1), b=(10, 20))
    for b, plan, count in ((box, SamplingPlan(grid=3), 9), (box, SamplingPlan(grid=3, cap=5), 5),
                           (RangeMap(), SamplingPlan(), 1)):
        samples = design_samples(b, plan)
        assert len(samples) == samples.shape[0] == count


def test_traced_mode_records_one_decompose(tmp_path):
    # bench/spans.py as the benchmark runs it, on every module it wraps
    spec = importlib.util.spec_from_file_location("spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    originals = {(m, f): getattr(importlib.import_module(f"setdecomp.{m}"), f)
                 for m, f, _ in spans.TARGETS}
    recorder = spans.Recorder()
    recorder.install()
    try:
        unwrapped = [f"{m}.{f}" for (m, f), fn in originals.items()
                     if getattr(sys.modules[f"setdecomp.{m}"], f) is fn]
        report = tmp_path / "report.json"
        cruise = str(importlib.resources.files("setdecomp") / "data" / "cruise.json")
        assert main(["decompose", cruise, "--step", "0.05", "--horizon", "30", "--grid", "2",
                     "--out", str(report)]) == 0
    finally:
        recorder.remove()
    assert unwrapped == []
    metrics = spans.layer_metrics(recorder.spans)
    (optimum,) = [entry for entry in json.loads(report.read_text())["log"]["tradeoff"]
                  if entry["step"] == "barrier-optimum"]
    assert metrics["tradeoff.solve.iterations"] == 0
    assert metrics["tradeoff.solve.free_bounds"] == optimum["free_bounds"]
