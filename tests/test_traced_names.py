"""The names that the benchmark's tracer (``bench/spans.py``) rebinds still
resolve, so a refactor that drops one fails here and not only in a traced
benchmark run.  The tracer's module is read with ``runpy``, which runs it
without importing anything from ``bench/`` or writing bytecode there."""

import importlib
import runpy
from pathlib import Path

import pytest

from brstkdv import graded, solver

SPANS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "spans.py"))


@pytest.mark.parametrize("module, attr", [t[:2] for t in SPANS["TARGETS"]],
                         ids=[f"{m}.{a}" for m, a, _ in SPANS["TARGETS"]])
def test_every_traced_target_resolves(module, attr):
    owner = importlib.import_module(module)
    *cls, name = attr.split(".")
    if cls:
        # a method is read off its own class's dict, not inherited
        assert callable(vars(getattr(owner, cls[0]))[name])
    else:
        assert callable(getattr(owner, name))


@pytest.mark.parametrize("name", SPANS["GRADED_FUNCTIONS"])
def test_every_traced_graded_function_resolves(name):
    assert callable(getattr(graded, name))


def test_the_traced_step_resolves():
    # the tracer counts steps and their FFTs by rebinding _Stepper.advance
    assert callable(vars(solver._Stepper)["advance"])
