"""Package surface: every exported name resolves, and the package imports
nothing beyond the standard library and numpy."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import qtmix

MODULES = ["qtmix"] + [f"qtmix.{m.name}" for m in pkgutil.iter_modules(qtmix.__path__)]
SOURCES = sorted(Path(qtmix.__file__).parent.glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "qtmix"}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def imported_roots(tree: ast.AST) -> set[str]:
    """Top-level package of every absolute import, anywhere in the module."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_only_stdlib_numpy_and_qtmix(path):
    roots = imported_roots(ast.parse(path.read_text(), filename=str(path)))
    assert roots - ALLOWED == set(), f"{path.name} imports {sorted(roots - ALLOWED)}"


def test_import_check_sees_every_import_form():
    tree = ast.parse("import os.path\nfrom scipy import linalg\nfrom . import kernels\n"
                     "def f():\n    import pandas as pd\n")
    assert imported_roots(tree) == {"os", "scipy", "pandas"}
