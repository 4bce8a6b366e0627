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


def sympy_bump(syms, center, radius, powers=4):
    """The product bump of analytic.bump, written out in sympy."""
    import sympy as sp
    out = sp.Integer(1)
    for x, c, r in zip(syms, center, radius):
        s = (x - sp.Float(c)) / sp.Float(r)
        out *= sp.Piecewise(((1 - s ** 2) ** powers, sp.Abs(s) < 1),
                            (0, True))
    return out


@pytest.fixture
def interpolation_exprs():
    """The five functions of default_interpolation_functions(2) as sympy
    expressions in (t, x1, x2), written out independently of them."""
    import sympy as sp
    t, (x1, x2) = sp.Symbol("t", real=True), analytic.space_symbols(2)
    base = sympy_bump((x1, x2), (0.0, 0.0), (1.0, 1.0))
    shift = sympy_bump((x1, x2), (0.3, 0.0), (1.2, 0.8))
    tight = sympy_bump((x1, x2), (0.0, 0.0), (0.7, 0.7), powers=5)
    return [base, sp.exp(-t) * base, (1 + x1 / 2) * shift,
            sp.Float(2.5) * tight, sp.cos(2 * x1) * base * sp.exp(-t / 2)]


@pytest.fixture
def manufactured_exprs():
    """manufactured_solution's kinds in two dimensions on the default box
    (x_extent = height = 2) as sympy expressions in (t, x1, x2)."""
    import sympy as sp
    t, (x1, x2) = sp.Symbol("t", real=True), analytic.space_symbols(2)
    return {"constant": sp.Integer(1),
            "affine_height": sp.exp(-t) * (1 + x2),
            "inner_bump": 1 + sp.exp(-t) * sympy_bump((x1, x2), (0.0, 0.0),
                                                      (1.2, 1.2))}


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
