"""Fixtures shared by the test modules."""

import pytest

from degenpde import analytic
from degenpde.grid import GridFunction


@pytest.fixture
def fresh_compiles(monkeypatch):
    """An empty process memo of compiled closures for one test, so a
    lambdify count sees what a fresh object compiles, not what earlier
    tests left behind; the memo is restored afterwards."""
    monkeypatch.setattr(analytic, "_COMPILED", {})


@pytest.fixture
def sample():
    """sample(grid, fn): fn, an AnalyticFunction or the text of one in
    t, x1..xd, as a GridFunction on every slice of grid, via on_grid."""
    def make(grid, fn):
        if isinstance(fn, str):
            fn = analytic.AnalyticFunction.from_text(fn, grid.d)
        return GridFunction(grid, fn.on_grid(grid.times, grid).reshape(
            (grid.n_t,) + grid.shape))
    return make
