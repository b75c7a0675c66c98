"""Package surface: every exported name resolves, the package imports
nothing beyond the standard library and numpy, every error class is
raised somewhere in it, and ``pyproject.toml`` points its console script
and package search at the code here."""

import ast
import importlib
import json
import pkgutil
import sys
from pathlib import Path

import pytest

import qtmix
from qtmix import errors

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


def raised_names(tree: ast.AST) -> set[str]:
    """Class names in ``raise Name``, ``raise Name(...)`` and
    ``raise module.Name(...)`` statements, anywhere in the module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_error_class_is_raised_in_the_package():
    # a class no code raises is a failure mode that cannot happen
    raised = set().union(*(raised_names(ast.parse(p.read_text(), filename=str(p)))
                           for p in SOURCES))
    classes = {c.__name__ for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.QtmixError)
               and c is not errors.QtmixError}
    assert classes - raised == set(), f"never raised: {sorted(classes - raised)}"


def test_raise_scan_sees_every_raise_form():
    tree = ast.parse("raise KeyError\nraise ValueError('x')\n"
                     "def f():\n    raise errors.ParseError('y') from None\n"
                     "try:\n    pass\nexcept OSError:\n    raise\n")
    assert raised_names(tree) == {"KeyError", "ValueError", "ParseError"}


def pyproject_section(name: str) -> dict:
    """The one-line ``key = value`` entries of a ``[name]`` table of
    ``pyproject.toml``, values read as JSON (tomllib needs Python 3.11)."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    entries, current = {}, None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("["):
            current = line.strip("[]")
        elif current == name and "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            entries[key] = json.loads(value)
    return entries


def test_console_script_resolves_to_cli_main():
    module, func = pyproject_section("project.scripts")["qtmix"].split(":")
    from qtmix import cli
    assert getattr(importlib.import_module(module), func) is cli.main


def test_package_search_is_src():
    where = pyproject_section("tool.setuptools.packages.find")["where"]
    assert where == ["src"]
    assert (Path(__file__).resolve().parents[1] / "src" / "qtmix" / "cli.py").is_file()
