"""The package's modules import each other strictly downward, and never at call time.

The order is errors -> series -> spaces -> {modelspace, extremal} -> bounds
-> cli: a module imports only from a lower layer, so no module needs a
function-level import to break a cycle.  The package ``__init__`` only
re-exports the layers and holds the version; ``__main__`` runs the CLI.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "discinterp"

LAYER = {
    "errors": 0,
    "series": 1,
    "spaces": 2,
    "modelspace": 3,
    "extremal": 3,
    "bounds": 4,
    "cli": 5,
    "__main__": 6,
}


def _tree(name: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{name}.py").read_text(), filename=f"{name}.py")


def _targets(node: ast.AST) -> list[str]:
    """The package modules an import statement reads from; "__init__" for the package."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
        return [n.split(".")[1] if "." in n else "__init__" for n in names
                if n.split(".")[0] == "discinterp"]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 0:
        if node.module is None or node.module.split(".")[0] != "discinterp":
            return []
        parts = node.module.split(".")
    else:
        parts = ["discinterp"] + (node.module.split(".") if node.module else [])
    if len(parts) > 1:
        return [parts[1]]
    return [alias.name if alias.name in LAYER else "__init__" for alias in node.names]


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYER)


@pytest.mark.parametrize("name", sorted(LAYER))
def test_imports_point_to_a_strictly_lower_layer(name):
    upward = [
        (node.lineno, target)
        for node in ast.walk(_tree(name))
        for target in _targets(node)
        if target != "__init__" and not LAYER[target] < LAYER[name]
    ]
    assert not upward, f"{name} imports from a layer not below its own: {upward}"


@pytest.mark.parametrize("name", sorted(LAYER))
def test_no_package_import_inside_a_function(name):
    nested = [
        (node.lineno, ast.unparse(node))
        for fn in ast.walk(_tree(name))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and (getattr(node, "level", 0) > 0 or _targets(node))
    ]
    assert not nested, f"{name} imports from the package at call time: {nested}"
