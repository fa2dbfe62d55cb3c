"""Every name a package or test module imports is used in that module,
and no module of the package imports scipy.

Static scans with the stdlib ``ast`` module: an imported name counts as
used when it appears as a bare name anywhere in the module, including the
root of an attribute chain such as ``np.linalg``.  The package's
``__init__.py`` is skipped, because its imports are the re-exports.
"""

import ast
from pathlib import Path

import pytest

import xpgraphs

PACKAGE = sorted(p for p in Path(xpgraphs.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))
MODULES = PACKAGE + TESTS


def imported_names(tree: ast.Module) -> dict:
    """Name bound by each import in the module -> line of the import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported_names(tree).items()
                  if name not in used)


def scipy_importers(source: str) -> list:
    """Dotted name of the function or class around each scipy import, ""
    for one at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                modules = [child.module or ""]
            else:
                modules = []
            if any(m.split(".")[0] == "scipy" for m in modules):
                found.append(".".join(scope))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, scope + [child.name] if named else scope)

    visit(ast.parse(source), [])
    return found


def test_scan_finds_scipy_imports():
    source = ("import scipy.special\nclass A:\n    def f(self):\n"
              "        from scipy.integrate import quad\n")
    assert scipy_importers(source) == ["", "A.f"]


def test_no_package_module_imports_scipy():
    # the runtime needs numpy only; scipy is a test oracle
    found = [f"{p.stem}.{name}" for p in PACKAGE for name in scipy_importers(p.read_text())]
    assert found == []


def test_scan_covers_the_package():
    assert {p.stem for p in PACKAGE} >= {"extensions", "graph", "spectra", "traces"}


def test_scan_covers_the_tests():
    assert {p.stem for p in TESTS} >= {"test_graph", "test_unused_imports", "util"}


def test_scan_flags_unused_names():
    source = ("from __future__ import annotations\nimport math\n"
              "import numpy as np\nfrom os import path, sep\nprint(np.pi, sep)\n")
    assert unused_imports(source) == [(2, "math"), (4, "path")]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: p.name if p in PACKAGE else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
