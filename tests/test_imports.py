"""Every name a package module imports is used in that module, and no
module imports sympy.  No linter is part of the toolchain, so this walks
each module's syntax tree."""

import ast
from pathlib import Path

import pytest

import brstkdv

MODULES = sorted(Path(brstkdv.__file__).parent.glob("*.py"))


def imports(tree):
    """(bound name, imported module) for every import statement in ``tree``;
    the module of a relative import starts with a dot."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0], a.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield a.asname or a.name, "." * node.level + (node.module or "")


def unused_imports(source):
    """Names bound by import statements in ``source`` that it never reads;
    a name listed in ``__all__`` is a re-export and counts as read."""
    tree = ast.parse(source)
    imported = {name for name, _ in imports(tree)}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_detector_finds_an_unused_import():
    src = ("import os.path\nimport numpy as np\nfrom json import dumps, loads\n"
           "from .x import y\n__all__ = ['y']\nprint(np.pi, loads)\n")
    assert unused_imports(src) == ["dumps", "os"]
    assert [m for _, m in imports(ast.parse(src))] == ["os.path", "numpy", "json", "json", ".x"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_does_not_import_sympy(path):
    # sympy is a test oracle; the package runs on numpy alone
    modules = {module for _, module in imports(ast.parse(path.read_text()))}
    assert not any(m == "sympy" or m.startswith("sympy.") for m in modules)
