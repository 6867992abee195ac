"""Every name a package module imports is used in that module, and every
module the package imports is in the standard library or numpy.

``__init__.py`` counts a name as used when ``__all__`` lists it.
"""

import ast
import sys
from pathlib import Path

import portagents

PACKAGE = Path(portagents.__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_checker_finds_an_unused_import():
    assert unused_imports("import json\nfrom os import path, sep\nprint(sep)\n") == [
        "json (line 1)",
        "path (line 2)",
    ]


def test_package_has_no_unused_imports():
    found = {
        path.name: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if (unused := unused_imports(path.read_text()))
    }
    assert found == {}


RUNTIME_MODULES = sys.stdlib_module_names | {"numpy"}


def foreign_imports(source: str) -> list[str]:
    """Absolute imports of a module outside the standard library and numpy."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names if name.split(".")[0] not in RUNTIME_MODULES]
    return sorted(found)


def test_checker_finds_a_foreign_import():
    source = "import os, scipy.special\nfrom numpy import linalg\nfrom . import nn\nfrom scipy import stats\n"
    assert foreign_imports(source) == ["scipy (line 4)", "scipy.special (line 1)"]


def test_package_imports_only_stdlib_and_numpy():
    found = {
        path.name: foreign
        for path in sorted(PACKAGE.glob("*.py"))
        if (foreign := foreign_imports(path.read_text()))
    }
    assert found == {}
