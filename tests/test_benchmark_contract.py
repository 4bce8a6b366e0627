"""The names the benchmark's tracer wraps still exist in the package.

perfbench/tracing.py wraps functions and methods by name and skips a
name that is gone, so a rename would make its per-layer metric read 0
without failing anything.  This test loads the tracer by path, without
installing it, and resolves every target.
"""

import importlib.util
import inspect
import pathlib
import sys

import pytest

import degenpde.cli  # noqa: F401  (loads every module the tracer wraps)
from degenpde.fields import heston
from degenpde.grid import Grid

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
    "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(tracing):
    for modname, attr, _ in tracing.FUNCTIONS:
        assert callable(getattr(sys.modules.get(modname), attr, None)), \
            "%s.%s" % (modname, attr)


def test_traced_methods_resolve(tracing):
    for modname, clsname, methods, _ in tracing.METHODS:
        cls = getattr(sys.modules.get(modname), clsname, None)
        assert cls is not None, "%s.%s" % (modname, clsname)
        for meth in methods:
            assert callable(getattr(cls, meth, None)), \
                "%s.%s.%s" % (modname, clsname, meth)


def test_traced_experiments_and_assembly(tracing):
    # install() wraps cli.EXPERIMENTS, and the assembly note reads the
    # grid size and the nnz of discretize_operator(...)[0]
    assert sys.modules["degenpde.cli"].EXPERIMENTS
    assemble = sys.modules["degenpde.solver"].discretize_operator
    args = (heston(2.0, 0.25, 1.0, 0.0), Grid.build(2, 2.0, 2.0, 5, 5, 0.5, 2),
            0.0)
    result = assemble(*args)
    tags = tracing.NOTES["solver.assemble"](
        inspect.signature(assemble).bind(*args), result)
    assert tags == {"n": 5, "nnz": result[0].nnz} and tags["nnz"] > 0
