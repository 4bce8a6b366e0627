"""Coefficient families and assumption validation."""

import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_sympy, symbols
from degenpde.analytic import affine, constant, profile, text_function
from degenpde.fields import (
    CoefficientField,
    constant_field,
    from_expressions,
    heston,
    homogeneous_drift,
    validate_assumptions,
)
from degenpde.grid import Grid
from degenpde.solver import discretize_operator
from degenpde.verification import default_interpolation_functions


def row(rows, name):
    """(estimate, declared constant, passed) of one assumption row."""
    return {r[0]: r[1:] for r in rows}[name]


def passed(rows):
    return all(ok for *_, ok in rows)


class TestHeston:
    def test_coefficient_values(self):
        f = heston(kappa=2.0, theta=0.25, sigma=1.0, rho=0.5,
                   r=0.05, q=0.02)
        t = np.zeros(3)
        x = np.array([[0.0, 0.25], [1.0, 1.0], [-2.0, 0.0]])
        a = f.a(t, x)
        assert np.allclose(a, [[0.5, 0.25], [0.25, 0.5]], rtol=0,
                           atol=1e-15)
        b = f.b(t, x)
        # b1 = r - q - y/2, b2 = kappa (theta - y)
        assert np.allclose(b[:, 0], 0.03 - x[:, 1] / 2, rtol=0, atol=1e-15)
        assert np.allclose(b[:, 1], 2.0 * (0.25 - x[:, 1]), rtol=0,
                           atol=1e-15)
        assert np.allclose(f.c(t, x), -0.05, rtol=0, atol=1e-15)
        assert not f.time_dependent

    def test_metadata(self):
        f = heston(2.0, 0.25, 1.0, 0.5)
        # lambda_min of [[1/2, 1/4], [1/4, 1/2]] via the 2x2 closed form
        tr, det = 1.0, 0.25 * (1.0 - 0.25)
        lam_min = (tr - math.sqrt(tr * tr - 4 * det)) / 2
        assert abs(f.delta - lam_min) <= 1e-12
        assert abs(f.delta - 0.25) <= 1e-12
        assert f.nu == 2.0 * 0.25
        assert f.K >= 6.0 * 2.0

    @pytest.mark.parametrize("rho", [1.0, -1.0, 1.5])
    def test_rejects_degenerate_correlation(self, rho):
        with pytest.raises(ValueError):
            heston(2.0, 0.25, 1.0, rho)

    @pytest.mark.parametrize("kwargs", [
        dict(kappa=0.0, theta=0.25, sigma=1.0, rho=0.0),
        dict(kappa=2.0, theta=-1.0, sigma=1.0, rho=0.0),
        dict(kappa=2.0, theta=0.25, sigma=0.0, rho=0.0)])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            heston(**kwargs)

    @pytest.mark.parametrize("rho", [0.0, 0.3, -0.6])
    def test_assumptions_validate(self, rho):
        rows = validate_assumptions(heston(2.0, 0.25, 1.0, rho),
                                    n_samples=1500, seed=0)
        assert passed(rows), rows


class TestHomogeneousDrift:
    def test_constant_parts(self):
        f = homogeneous_drift(0.7, d=3)
        a, b, c = f.constant_parts()
        assert np.array_equal(a, np.eye(3))
        assert np.array_equal(b, [0.0, 0.0, 0.7])
        assert c == 0.0
        assert f.nu == 0.7 and f.delta == 1.0

    def test_assumptions_validate(self):
        rows = validate_assumptions(homogeneous_drift(1.0),
                                    n_samples=1000, seed=1)
        assert passed(rows), rows
        # constant coefficients: the low-region quotient vanishes, the
        # high-region one sees x_d * a and stays below |dy| / rho^alpha <= 1
        assert row(rows, "holder_s_hat")[0] == 0.0
        assert 0.0 < row(rows, "holder_rho_hat")[0] <= 1.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            homogeneous_drift(0.0)
        with pytest.raises(ValueError):
            homogeneous_drift(1.0, d=1)


class TestConstantField:
    def test_metadata_from_arrays(self):
        f = constant_field([[2.0, 1.0], [1.0, 1.0]], [0.5, 1.5], -0.25)
        a, b, c = f.constant_parts()
        assert np.array_equal(a, [[2.0, 1.0], [1.0, 1.0]])
        assert np.array_equal(b, [0.5, 1.5])
        assert c == -0.25
        assert f.nu == 1.5
        lam_min = (3.0 - math.sqrt(9.0 - 4.0)) / 2
        assert abs(f.delta - lam_min) <= 1e-12

    def test_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            constant_field([[1.0, 0.5], [0.0, 1.0]], [0.0, 1.0], 0.0)
        with pytest.raises(ValueError):
            constant_field([[1.0, 2.0], [2.0, 1.0]], [0.0, 1.0], 0.0)

    def test_symmetry_enforced_symbolically(self):
        with pytest.raises(ValueError):
            CoefficientField(2, [[1, 2], [3, 1]], [0, 1], 0,
                             delta=0.1, K=10.0, nu=1.0)


class TestExpressions:
    def test_build_and_evaluate(self):
        f = from_expressions(
            2,
            [["1 + 0.1*sin(x1)", "0"], ["0", "1"]],
            ["0", "1 + t"],
            "-1",
            delta=0.9, K=10.0, nu=1.0, name="wavy")
        assert f.time_dependent
        t = np.array([0.0, 1.0])
        x = np.array([[0.0, 1.0], [np.pi / 2, 2.0]])
        a = f.a(t, x)
        assert abs(a[1, 0, 0] - 1.1) <= 1e-12
        assert np.allclose(f.b(t, x)[:, 1], [1.0, 2.0], rtol=0, atol=1e-15)
        with pytest.raises(ValueError):
            f.constant_parts()

    def test_unknown_symbols_rejected(self):
        with pytest.raises(ValueError):
            from_expressions(2, [["x3", "0"], ["0", "1"]], ["0", "1"], "0",
                             1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            from_expressions(2, [["foo(x1)", "0"], ["0", "1"]],
                             ["0", "1"], "0", 1.0, 1.0, 1.0)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            from_expressions(2, [["1", "x1"], ["0", "1"]], ["0", "1"], "0",
                             1.0, 10.0, 1.0)

    def test_equal_products_are_symmetric(self):
        # text has its products in one order, which the symmetry check
        # compares: x1*x2 and x2*x1 are the same entry
        f = from_expressions(2, [["1", "x1*x2"], ["x2*x1", "1"]],
                             ["0", "1"], "0", 1.0, 10.0, 1.0)
        assert f.a_fns[0][1].terms == f.a_fns[1][0].terms
        assert f.a_fns[0][1].depends(1) and f.a_fns[0][1].depends(2)

    @pytest.mark.parametrize("a12, a21", [
        ("0.1*x2*sin(x1)", "0.1*sin(x1)*x2"),
        ("sin(x1) + x2**3", "x2**3 + sin(x1)"),
        ("exp(x1*x2)*(x2 + sin(x1))", "(sin(x1) + x2)*exp(x2*x1)"),
        ("(x1 + 1)*x2", "x2*(1 + x1)")])
    def test_reordered_text_is_symmetric(self, a12, a21):
        # text is one tree, whose sums and products are sorted
        f = from_expressions(2, [["1", a12], [a21, "1"]], ["0", "1"], "0",
                             1.0, 10.0, 1.0)
        assert f.a_fns[0][1].terms == f.a_fns[1][0].terms
        x = np.array([[0.3, 0.7], [-1.1, 1.9]])
        assert np.array_equal(f.a(0.0, x)[:, 0, 1], f.a(0.0, x)[:, 1, 0])

    @pytest.mark.parametrize("a12, a21", [
        ("x2*sin(x1)", "x1*sin(x2)"), ("sin(x1) + x2**3", "sin(x1) - x2**3"),
        ("sin(x1)/x2", "x2/sin(x1)"), ("(x1 + 1)*x2", "x1*x2 + x2")])
    def test_asymmetric_text_rejected(self, a12, a21):
        # sums and products are sorted, not expanded: a factored entry and
        # its expansion are two entries
        with pytest.raises(ValueError, match="must be symmetric"):
            from_expressions(2, [["1", a12], [a21, "1"]], ["0", "1"], "0",
                             1.0, 10.0, 1.0)

    @pytest.mark.parametrize("a", [
        [["1"]], [["1", "0"], ["0"]],
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        [["1", "0", "0"], ["0", "1", "0"]]],
        ids=["1x1", "ragged", "3x3", "2x3"])
    def test_diffusion_must_be_d_by_d(self, a):
        with pytest.raises(ValueError, match="a must be 2 x 2"):
            from_expressions(2, a, ["0", "1"], "0", 1.0, 10.0, 1.0)


class TestValidation:
    def test_overstated_ellipticity_fails(self):
        f = from_expressions(2, [["1", "0"], ["0", "1"]], ["0", "1"], "0",
                             delta=5.0, K=10.0, nu=1.0)
        rows = validate_assumptions(f, n_samples=500, seed=2)
        assert not row(rows, "delta_hat")[2]
        assert not passed(rows)

    def test_vanishing_inward_drift_fails(self):
        f = constant_field(np.eye(2), [1.0, 0.0], 0.0)
        rows = validate_assumptions(f, n_samples=500, seed=3)
        assert not row(rows, "nu_hat")[2]

    def test_oversized_zeroth_order_fails(self):
        f = from_expressions(2, [["1", "0"], ["0", "1"]], ["0", "1"], "10",
                             delta=1.0, K=1.0, nu=1.0)
        rows = validate_assumptions(f, n_samples=500, seed=4)
        assert not row(rows, "c_max_hat")[2]
        assert not row(rows, "K_hat")[2]

    def test_report_rows_and_summary(self):
        field = homogeneous_drift(1.0)
        rows = validate_assumptions(field, n_samples=300, seed=5)
        assert [r[0] for r in rows] == [
            "delta_hat", "delta_interior_hat", "nu_hat", "K_hat",
            "c_max_hat", "holder_s_hat", "holder_rho_hat", "growth_hat"]
        assert [r[2] for r in rows] == [field.delta] * 2 + [field.nu] \
            + [field.K] * 5
        assert passed(rows)

    def test_growth_estimate_stable_in_sample_size(self):
        f = heston(2.0, 0.25, 1.0, 0.3)
        small = row(validate_assumptions(f, n_samples=1000, seed=6),
                    "growth_hat")[0]
        large = row(validate_assumptions(f, n_samples=4000, seed=6),
                    "growth_hat")[0]
        assert abs(small - large) <= 0.25 * large

    def test_deterministic(self):
        f = heston(2.0, 0.25, 1.0, 0.3)
        r1 = validate_assumptions(f, n_samples=800, seed=7)
        r2 = validate_assumptions(f, n_samples=800, seed=7)
        assert row(r1, "K_hat")[0] == row(r2, "K_hat")[0]
        assert row(r1, "holder_s_hat")[0] == row(r2, "holder_s_hat")[0]


def test_vectorized_shapes():
    f = heston(2.0, 0.25, 1.0, 0.0)
    t = np.zeros(7)
    x = np.abs(np.random.default_rng(0).normal(size=(7, 2)))
    assert f.a(t, x).shape == (7, 2, 2)
    assert f.b(t, x).shape == (7, 2)
    assert f.c(t, x).shape == (7,)
    # scalar time broadcasts across the node axis
    assert f.b(0.0, x).shape == (7, 2)


class TestCompiledEntries:
    @pytest.mark.parametrize("make,d,compiled", [
        (lambda: homogeneous_drift(0.7, 3), 3, 0),
        (lambda: constant_field([[2.0, 1.0], [1.0, 1.0]], [1.0, 2.0], -0.5),
         2, 0),
        (lambda: heston(2.0, 0.25, 1.0, 0.3, r=0.05), 2, 2),
        (lambda: from_expressions(2, [["1", "0"], ["0", "1 + exp(x1)"]],
                                  ["0", "1"], "0", 1.0, 10.0, 1.0), 2, 1),
        (lambda: from_expressions(2, [["1", "0"], ["0", "1 + x1**2"]],
                                  ["0", "1 + t"], "0", 1.0, 10.0, 1.0), 2, 2),
    ], ids=["homogeneous-drift", "constant", "heston", "expressions",
            "polynomial-expressions"])
    def test_only_varying_entries_compile(self, make, d, compiled):
        # constants carry no factor; each of Heston's affine drift
        # entries is one factor, and so is text that is not a number, a
        # polynomial too; each factor depends on t or x
        field = make()
        entries = [f for row in field.a_fns for f in row] + field.b_fns \
            + [field.c_fn]
        factors = [f for e in entries for _, fs in e.terms for f in fs]
        assert len(factors) == compiled
        assert all(held for _, held in factors)
        grid = Grid.build(d, 1.0, 1.0, 5, 5, 0.5, 3)
        A, _ = discretize_operator(field, grid, 0.0)
        assert np.all(np.isfinite(A.data))

    def test_number_derivative_compiles_nothing(self):
        # a derivative that is the number 0 has no terms
        u = text_function("x1 + 3*x2", 2)
        assert u.derivative((1, 2)).terms == ()
        x = np.ones((4, 1, 2))
        t = np.zeros(3)
        first = u.dxx(0, 1, t, x)
        second = u.dxx(0, 1, t, x)
        assert first.shape == second.shape == (4, 3)
        assert first.dtype == float and np.all(first == 0.0)
        assert first.flags.writeable and not np.shares_memory(first, second)
        first[0, 0] = 5.0
        assert np.all(u.dxx(0, 1, t, x) == 0.0)
        axes = (np.ones((3, 1)), np.ones((1, 4)))
        slope = u.dx(1, 0.0, axes)
        assert slope.shape == (3, 4) and np.all(slope == 3.0)
        assert slope.flags.writeable

    @pytest.mark.parametrize("text,rule", [
        ("Piecewise((1, (x1 < 0.2) & (x2 < 1)), (0, True))",
         lambda t, x1, x2: (x1 < 0.2) & (x2 < 1)),
        ("Piecewise((1, (x1 < 0.2) | (x2 < 1) | (t > 0.3)), (0, True))",
         lambda t, x1, x2: (x1 < 0.2) | (x2 < 1) | (t > 0.3)),
    ], ids=["and", "or-with-t"])
    def test_joint_conditions_on_sparse_axes(self, text, rule):
        # a condition on two coordinates takes the sparse mesh axes,
        # which broadcast together but do not stack into one array
        grid = Grid.build(2, 2.0, 2.0, 9, 9, 0.5, 4)
        u = text_function(text, 2)
        t, x = grid.times[:, None], grid.nodes()
        want = np.broadcast_to(rule(t, x[:, 0], x[:, 1]),
                               (len(t), len(x))).astype(float)
        assert np.array_equal(u.on_grid(grid.times, grid), want)
        assert np.array_equal(u.value(t, x), want)

    def test_floats_keep_full_precision(self):
        # 17 significant digits; 15 would round each of them
        v, r = 0.7123456789012346, 0.012345678901234568
        x = np.array([[0.5, 0.0], [1.0, 0.0]])
        assert np.all(homogeneous_drift(v).b(0.0, x)[:, 1] == v)
        f = heston(2.0, 0.25, 1.0, 0.0, r=r)
        assert np.all(f.c(0.0, x) == -r)
        assert np.all(f.b(0.0, x)[:, 0] == r)  # r - q - x2 / 2 at x2 = 0
        _, x1, x2 = symbols(2)
        u = from_sympy(2, sp.Float(v) * x1 + x2)
        assert np.all(u.value(0.0, np.array([[1.0, 0.0]])) == v)
        w = text_function("%r * x1 + x2" % v, 2)
        assert np.all(w.value(0.0, np.array([[1.0, 0.0]])) == v)


# The interpolation lattice: 6 times in [0, 1], x1 on 13 nodes of
# [-1.3, 1.3] and x2 on 9 of [0, 1.3].
T_SYM, X1, X2 = symbols(2)
_LATTICE = [a.ravel() for a in np.meshgrid(
    np.linspace(0.0, 1.0, 6), np.linspace(-1.3, 1.3, 13),
    np.linspace(0.0, 1.3, 9), indexing="ij")]


def assert_values_agree(got, want):
    """got and want agree within 1e-12 of want's largest magnitude."""
    got, want = np.broadcast_arrays(got, want)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def lattice_values(exprs):
    """Each expression of exprs on the lattice, compiled together."""
    fn = sp.lambdify((T_SYM, X1, X2), list(exprs), modules="numpy")
    return [np.broadcast_to(np.asarray(v, dtype=float), _LATTICE[0].shape)
            for v in fn(*_LATTICE)]


# Factors in t, x1 and x2, each with its sympy form: affine and other
# powers, cos, exp, bumps, a Gaussian and a factor that holds two
# variables; and a constant.
def _factors():
    out = []
    for k, v in enumerate((T_SYM, X1, X2)):
        def w(c, k=k):
            return [c if j == k else 0.0 for j in range(3)]
        out += [
            (affine(w(1.0)), v),
            (profile("power", w(0.5), 1.0, 3), (1 + v / 2) ** 3),
            (profile("cos", w(2.0), -0.3), sp.cos(2 * v - sp.Float(0.3))),
            (profile("exp", w(-0.5)), sp.exp(-v / 2)),
            (profile("bump", w(1.25), -0.25, 4), sp.Piecewise(
                ((1 - (1.25 * v - 0.25) ** 2) ** 4,
                 sp.Abs(1.25 * v - 0.25) < 1), (0, True))),
            (profile("gauss", w(0.8), 0.1), sp.exp(-(0.8 * v + 0.1) ** 2))]
    return out + [(constant(2, 2.5), sp.Float(2.5)),
                  (profile("power", [0.0, 0.5, -0.25], 1.0, -2),
                   (1 + X1 / 2 - X2 / 4) ** -2)]


FACTORS = _factors()
ORDERS = [(), (0,), (1,), (2,), (1, 1), (1, 2), (2, 2)]


def diffs(expr):
    """expr and its derivatives along ORDERS, by sp.diff."""
    syms = (T_SYM, X1, X2)
    return [sp.diff(expr, *(syms[i] for i in order)) if order else expr
            for order in ORDERS]


def derivatives(u, t, x):
    """value, dt, dx and dxx of u in the order of ORDERS."""
    return [u.value(t, x), u.dt(t, x), u.dx(0, t, x), u.dx(1, t, x),
            u.dxx(0, 0, t, x), u.dxx(0, 1, t, x), u.dxx(1, 1, t, x)]


class TestDerivative:
    @pytest.mark.parametrize("k", range(5))
    def test_interpolation_functions_match_diff(self, k,
                                                interpolation_exprs):
        # every derivative analytic_constituents takes, by the product
        # and chain rules, against sp.diff of the written-out function
        u = default_interpolation_functions()[k]
        t, x = _LATTICE[0], np.stack(_LATTICE[1:], axis=-1)
        want = lattice_values(diffs(interpolation_exprs[k]))
        for g, w in zip(derivatives(u, t, x), want):
            assert_values_agree(g, w)

    def test_free_term_gives_zero(self):
        # a variable that no factor holds is never differentiated along:
        # the derivative is the number 0, and exactly 0 on the points
        u = profile("cos", [0.0, 2.0, 0.0]) * profile("exp", [-1.0, 0, 0])
        t, x = _LATTICE[0], np.stack(_LATTICE[1:], axis=-1)
        coords = _LATTICE[1:]
        assert u.raw(t, coords, (2,)) == 0.0
        assert u.raw(t, coords, (0, 2)) == 0.0
        assert constant(2, 3.0).raw(t, coords, (1,)) == 0.0
        assert np.all(u.dx(1, t, x) == 0.0)
        assert np.all(u.dxx(0, 1, t, x) == 0.0)
        assert np.any(u.dxx(0, 0, t, x) != 0.0)

    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.lists(st.sampled_from(range(len(FACTORS))),
                             min_size=1, max_size=4), min_size=1,
                    max_size=3))
    def test_sums_of_products_match_diff(self, terms):
        u, expr = constant(2, 0.0), sp.Integer(0)
        for picks in terms:
            fn, ex = constant(2, 1.0), sp.Integer(1)
            for k in picks:
                fn, ex = fn * FACTORS[k][0], ex * FACTORS[k][1]
            u, expr = u + fn, expr + ex
        t, x = _LATTICE[0], np.stack(_LATTICE[1:], axis=-1)
        want = lattice_values(diffs(expr))
        for g, w in zip(derivatives(u, t, x), want):
            assert_values_agree(g, w)
