"""Every name a package module imports is used in that module.  No linter
is part of the toolchain, so this walks each module's syntax tree.  Numeric
commands run without sympy, which only prints parameter polynomials."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import brstkdv

MODULES = sorted(Path(brstkdv.__file__).parent.glob("*.py"))


def unused_imports(source):
    """Names bound by import statements in ``source`` that it never reads;
    a name listed in ``__all__`` is a re-export and counts as read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
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


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


NUMERIC_RUN = """
import sys
import brstkdv
from brstkdv import cli, verify
assert cli.run(["simulate", "--system", "kdv", "--soliton", "k=0.7", "--n", "64",
                "--t-end", "0.01", "--diag", "H0,Ht1", "--out", "run"]) == 0
assert cli.run(["miura", "--initial", "sx", "--n", "16", "--out", "miura.csv"]) == 0
assert cli.run(["list-systems"]) == 0
assert cli.run(["conserved", "--system", "kdv"]) == 0
assert cli.run(["euler", "--density", "1/2*u_x^2 - u^3", "--field", "u"]) == 0
assert all(r.status == "pass" for r in verify.run_all())
print(sorted(m for m in sys.modules if m.split(".")[0] == "sympy"))
"""


def test_numeric_commands_do_not_import_sympy(tmp_path):
    # the exact checks of run_all use a symbolic beta, so a str() of a
    # parameter polynomial on any of these paths would show up here
    src = str(Path(brstkdv.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", NUMERIC_RUN], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.splitlines()[-1] == "[]"
