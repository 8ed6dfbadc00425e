"""Source hygiene: every name a package module imports is used or re-exported,
and every name it exports exists."""

import ast
import importlib
import importlib.resources

import pytest

SOURCES = sorted(p for p in importlib.resources.files("setdecomp").iterdir()
                 if p.name.endswith(".py"))


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
