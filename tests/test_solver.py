"""Spatial discretization, certificates and the theta-scheme."""

import threading

import numpy as np
import pytest
import scipy.sparse as sparse
import sympy as sp
from scipy.sparse.linalg import spsolve

from conftest import from_sympy, symbols
from degenpde import gridio, solver
from degenpde.analytic import constant, profile
from degenpde.fields import (
    CoefficientField,
    constant_field,
    from_expressions,
    heston,
    homogeneous_drift,
)
from degenpde.grid import Grid, GridFunction
from degenpde.solver import (
    CauchyProblem,
    CertificateError,
    SolverError,
    apply_discrete_operator,
    convergence_study,
    discretize_operator,
    manufactured_problem,
    manufactured_solution,
    monotonicity_certificate,
    operator_apply,
    solve_cauchy,
)


def small_grid(n=7, n_slices=4, height=2.0, x_extent=2.0,
               grading="quadratic"):
    return Grid.build(2, x_extent, height, n, n, 0.5, n_slices,
                      grading=grading)


class TestAssembly:
    def test_dirichlet_rows_empty(self):
        grid = small_grid()
        A, dir_flat = discretize_operator(homogeneous_drift(1.0), grid, 0.0)
        assert A[dir_flat].nnz == 0
        assert np.array_equal(dir_flat, grid.dirichlet_mask().ravel())

    def test_diffusion_row_weights(self):
        # pure diffusion; hand-computed three-point weights on the graded
        # height axis at an interior node
        field = constant_field(np.eye(2), [0.0, 0.0], 0.0)
        grid = small_grid()
        A, _ = discretize_operator(field, grid, 0.0)
        n1, n2 = grid.shape
        k1, k2 = 3, 3
        row = A[k1 * n2 + k2].toarray().ravel()
        y = grid.axes[1][k2]
        hl = grid.axes[0][1] - grid.axes[0][0]
        hm = grid.axes[1][k2] - grid.axes[1][k2 - 1]
        hp = grid.axes[1][k2 + 1] - grid.axes[1][k2]
        assert abs(row[(k1 - 1) * n2 + k2] - (-y / hl ** 2)) <= 1e-12
        assert abs(row[(k1 + 1) * n2 + k2] - (-y / hl ** 2)) <= 1e-12
        assert abs(row[k1 * n2 + k2 - 1]
                   - (-y * 2.0 / (hm * (hm + hp)))) <= 1e-12
        assert abs(row[k1 * n2 + k2 + 1]
                   - (-y * 2.0 / (hp * (hm + hp)))) <= 1e-12
        diag = 2.0 * y / hl ** 2 + y * 2.0 / (hm * hp)
        assert abs(row[k1 * n2 + k2] - diag) <= 1e-12

    def test_bottom_row_upwinds_into_domain(self):
        # at height 0 the diffusion vanishes and the inward drift is
        # differenced forward; no entry reaches below the boundary
        field = homogeneous_drift(1.0)
        grid = small_grid()
        n1, n2 = grid.shape
        A, _ = discretize_operator(field, grid, 0.0)
        k1 = 2
        row = A[k1 * n2 + 0].toarray().ravel()
        hp = grid.axes[1][1] - grid.axes[1][0]
        expect = np.zeros(n1 * n2)
        expect[k1 * n2 + 0] = 1.0 / hp
        expect[k1 * n2 + 1] = -1.0 / hp
        assert np.allclose(row, expect, rtol=0, atol=1e-12)

    def test_negative_drift_upwinds_backward(self):
        field = constant_field(np.eye(2), [-2.0, 1.0], 0.0)
        grid = small_grid(grading="uniform")
        n1, n2 = grid.shape
        A, _ = discretize_operator(field, grid, 0.0)
        k1, k2 = 3, 2
        row = A[k1 * n2 + k2].toarray().ravel()
        hl = grid.axes[0][1] - grid.axes[0][0]
        # lateral part: beta1 = -2 pulls from the left neighbor
        assert abs(row[(k1 - 1) * n2 + k2] - (-2.0 / hl
                   + (-grid.axes[1][k2] / hl ** 2))) <= 1e-12
        assert row[(k1 + 1) * n2 + k2] < 0  # diffusion only

    def test_matches_analytic_operator_on_quadratic(self):
        field = constant_field([[1.0, 0.0], [0.0, 0.5]], [0.0, 0.0], -0.25)
        grid = small_grid()
        syms = symbols(2)[1:]
        u = from_sympy(2, 1 + syms[0] ** 2 + 0.5 * syms[1] ** 2
                       + syms[0] * 0.3)
        f = operator_apply(field, u)
        A, dir_flat = discretize_operator(field, grid, 0.0)
        nodes = grid.nodes()
        got = A @ u.value(0.0, nodes)
        want = f.value(0.0, nodes)
        free = ~dir_flat
        assert np.allclose(got[free], want[free], rtol=0, atol=1e-10)

    def test_matches_analytic_operator_on_affine_with_drift(self):
        # upwind differences are exact on affine data, including the
        # forward difference at the bottom row
        field = constant_field(np.eye(2), [1.5, 2.0], 0.0)
        grid = small_grid()
        syms = symbols(2)[1:]
        u = from_sympy(2, 2 + 3 * syms[0] - syms[1])
        f = operator_apply(field, u)
        A, dir_flat = discretize_operator(field, grid, 0.0)
        nodes = grid.nodes()
        got = A @ u.value(0.0, nodes)
        want = f.value(0.0, nodes)
        free = ~dir_flat
        assert np.allclose(got[free], want[free], rtol=0, atol=1e-10)


def coo_reference(field, grid, t):
    """Reference for discretize_operator: the operator assembled entry by
    entry into COO lists under per-axis validity masks, then summed by
    the CSR conversion."""
    d = grid.d
    shape = grid.shape
    N = int(np.prod(shape))
    nodes = grid.nodes()
    idx = np.indices(shape).reshape(d, N)
    strides = np.array([int(np.prod(shape[i + 1:], dtype=np.int64))
                        for i in range(d)])
    dir_flat = grid.dirichlet_mask().ravel()
    free = ~dir_flat
    height = nodes[:, -1]

    t_arr = np.full(N, float(t))
    a_vals = field.a(t_arr, nodes)
    b_vals = field.b(t_arr, nodes)
    c_vals = field.c(t_arr, nodes)

    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    flat = np.arange(N)
    diffs = [np.diff(ax) for ax in grid.axes]

    for i in range(d):
        k = idx[i]
        n_i = shape[i]
        dx = diffs[i]
        hm = dx[np.clip(k - 1, 0, n_i - 2)]
        hp = dx[np.clip(k, 0, n_i - 2)]
        sl = strides[i]

        # pure second derivative, coefficient height * a_ii
        kappa = height * a_vals[:, i, i]
        ok = free & (k >= 1) & (k <= n_i - 2) & (kappa != 0.0)
        if np.any(ok):
            f_ = flat[ok]
            km, kp, kap = hm[ok], hp[ok], kappa[ok]
            add(f_, f_ - sl, -kap * 2.0 / (km * (km + kp)))
            add(f_, f_, kap * 2.0 / (km * kp))
            add(f_, f_ + sl, -kap * 2.0 / (kp * (km + kp)))

        # upwinded drift
        beta = b_vals[:, i]
        fwd = free & (beta != 0.0) & ((beta > 0) | (k == 0)) & (k <= n_i - 2)
        if np.any(fwd):
            f_ = flat[fwd]
            w = beta[fwd] / hp[fwd]
            add(f_, f_, w)
            add(f_, f_ + sl, -w)
        bwd = free & (beta < 0) & (k >= 1)
        bwd &= ~fwd
        if np.any(bwd):
            f_ = flat[bwd]
            w = beta[bwd] / hm[bwd]
            add(f_, f_, -w)
            add(f_, f_ - sl, w)

        # mixed second derivatives as products of centered first
        # differences; both signs appear among the weights, which is what
        # breaks the M-matrix property when a_ij != 0
        for j in range(i + 1, d):
            kj = idx[j]
            n_j = shape[j]
            dxj = diffs[j]
            hmj = dxj[np.clip(kj - 1, 0, n_j - 2)]
            hpj = dxj[np.clip(kj, 0, n_j - 2)]
            slj = strides[j]
            kappa2 = 2.0 * height * a_vals[:, i, j]
            ok = (free & (k >= 1) & (k <= n_i - 2)
                  & (kj >= 1) & (kj <= n_j - 2) & (kappa2 != 0.0))
            if not np.any(ok):
                continue
            f_ = flat[ok]
            kap = kappa2[ok]
            wi = [(-hp[ok] / (hm[ok] * (hm[ok] + hp[ok])), -sl),
                  ((hp[ok] - hm[ok]) / (hm[ok] * hp[ok]), 0),
                  (hm[ok] / (hp[ok] * (hm[ok] + hp[ok])), sl)]
            wj = [(-hpj[ok] / (hmj[ok] * (hmj[ok] + hpj[ok])), -slj),
                  ((hpj[ok] - hmj[ok]) / (hmj[ok] * hpj[ok]), 0),
                  (hmj[ok] / (hpj[ok] * (hmj[ok] + hpj[ok])), slj)]
            for w1, o1 in wi:
                for w2, o2 in wj:
                    add(f_, f_ + o1 + o2, -kap * w1 * w2)

    # zeroth order
    if np.any(free & (c_vals != 0.0)):
        ok = free & (c_vals != 0.0)
        add(flat[ok], flat[ok], -c_vals[ok])

    return sparse.coo_matrix(
        (np.concatenate(vals),
         (np.concatenate(rows), np.concatenate(cols))),
        shape=(N, N)).tocsr()


def random_spd_field(d, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(d, d))
    return constant_field(m @ m.T + 0.5 * np.eye(d), rng.normal(size=d),
                          -0.3, name="random-spd")


# (field, d, times): x-dependent cross diffusion with drift that changes
# sign along both axes, negative at part of the bottom row; the
# benchmark's time-dependent Heston field at three times; and one field
# for each other shape an entry takes on the sparse axes: c in t alone,
# a drift that is not a polynomial, and d = 3 with zero and nonzero
# off-diagonals in x1, in x3 and constant.
ASSEMBLY_CASES = {
    "heston-rho0": (lambda: heston(2.0, 0.25, 1.0, 0.0, r=0.05), 2, [0.0]),
    "heston-rho-0.5": (lambda: heston(2.0, 0.25, 1.0, -0.5, r=0.05), 2,
                       [0.0]),
    "random-spd-3d": (lambda: random_spd_field(3, 7), 3, [0.0]),
    "expressions-cross": (lambda: from_expressions(
        2, [["1 + 0.5*sin(x1)", "0.3*cos(x1)*(1 + x2)"],
            ["0.3*cos(x1)*(1 + x2)", "1 + x2/4"]],
        ["x2 - 1 - x1/2", "x1 - x2/2 + 0.25"], "-0.1 - x1**2/10",
        delta=0.2, K=10.0, nu=0.1), 2, [0.0]),
    "heston-timedep": (lambda: from_expressions(
        2, [["0.5", "0"], ["0", "0.5"]],
        ["0.05 - x2/2", "2*(0.25*(1 + t) - x2)"], "-0.05",
        delta=0.5, K=12.0, nu=0.5), 2, [0.0, 0.25, 0.5]),
    "c-in-t": (lambda: from_expressions(
        2, [["0.5", "0"], ["0", "0.5"]], ["0.05 - x2/2", "0.5 - x2"],
        "-0.05*(1 + t)", delta=0.5, K=12.0, nu=0.5), 2, [0.0, 0.5]),
    "sympy-drift": (lambda: from_expressions(
        2, [["1", "0"], ["0", "1"]], ["Max(x2 - 1, 0) - x1/2", "1 - x2"],
        "0", delta=1.0, K=10.0, nu=1.0), 2, [0.0]),
    "expressions-3d": (lambda: from_expressions(
        3, [["1", "0", "0.2*cos(x1)"], ["0", "1 + x3/4", "0.1"],
            ["0.2*cos(x1)", "0.1", "0.5"]],
        ["x2/2 - x1", "0.3 - x3", "1 - x3/2 + t"], "-0.1", delta=0.2,
        K=10.0, nu=1.0), 3, [0.0, 0.5]),
}


class TestDiagonalAssembly:
    @pytest.mark.parametrize("grading", ["uniform", "quadratic"])
    @pytest.mark.parametrize("case", sorted(ASSEMBLY_CASES))
    def test_matches_coo_reference(self, case, grading):
        # the second pass assembles from the plan the first one stored
        make, d, times = ASSEMBLY_CASES[case]
        field = make()
        grid = Grid.build(d, 2.0, 2.0, 7, 9, 0.5, 3, grading=grading)
        for t in times * 2:
            A, dir_flat = discretize_operator(field, grid, t)
            ref = coo_reference(field, grid, t)
            A.sort_indices()
            ref.sort_indices()
            assert A.nnz == ref.nnz
            assert np.array_equal(A.indptr, ref.indptr)
            assert np.array_equal(A.indices, ref.indices)
            scale = np.max(np.abs(ref.data))
            assert np.max(np.abs(A.data - ref.data)) <= 1e-14 * scale
            assert A[dir_flat].nnz == 0


class TestEntryAssembly:
    @pytest.mark.parametrize("case", ["heston-rho0", "heston-timedep"])
    def test_reads_entries_not_stacked_coefficients(self, monkeypatch,
                                                    case):
        # assembly, a certified solve and the residual operator read the
        # field's entries; the stacked a, b and c are the samplers'
        def stacked(self, t, x):
            raise AssertionError("stacked coefficients evaluated")

        for name in ("a", "b", "c"):
            monkeypatch.setattr(CoefficientField, name, stacked)
        field = ASSEMBLY_CASES[case][0]()
        grid = small_grid(n=9, n_slices=4)
        A, dir_flat = discretize_operator(field, grid, 0.25)
        assert A.nnz > 0 and A[dir_flat].nnz == 0
        u, report = solve_cauchy(manufactured_problem(field, "inner_bump"),
                                 grid, certify=True)
        assert report.certificate.passed
        residual = apply_discrete_operator(u, field)
        assert np.isfinite(residual[:, ~grid.dirichlet_mask()]).all()


class TestStencilPlan:
    def test_built_once_per_grid(self, monkeypatch):
        calls = count_calls(monkeypatch, "_StencilPlan")
        field = accelerating_field()
        grid = small_grid(n=9, n_slices=5)
        u, _ = solve_cauchy(manufactured_problem(field, "inner_bump"), grid,
                            theta=0.5)
        apply_discrete_operator(u, field, theta=0.5)
        discretize_operator(homogeneous_drift(1.0), grid, 0.0)
        assert len(calls) == 1
        discretize_operator(field, small_grid(n=9, n_slices=5), 0.0)
        assert len(calls) == 2

    @pytest.mark.parametrize("make,passed", [
        (ASSEMBLY_CASES["heston-timedep"][0], True),
        (lambda: heston(2.0, 0.25, 1.0, 0.5), False)],
        ids=["heston-timedep", "heston-rho-0.5"])
    def test_certificate_matches_eye_formula(self, monkeypatch, make,
                                             passed):
        # each matrix the solver certifies against I + theta dt A(t)
        # formed with sparse.eye from an assembly on a fresh grid
        field = make()
        calls = count_calls(monkeypatch, "monotonicity_certificate")
        grid = small_grid(n=9, n_slices=4)
        problem = manufactured_problem(field, "inner_bump")
        if passed:
            solve_cauchy(problem, grid)
        else:
            with pytest.raises(CertificateError):
                solve_cauchy(problem, grid)
        assert len(calls) == (grid.n_t - 1 if passed else 1)
        for (B, _), t in zip(calls, grid.times[1:]):
            fresh = small_grid(n=9, n_slices=4)
            A, _ = discretize_operator(field, fresh, t)
            want = (sparse.eye(A.shape[0], format="csr")
                    + grid.dt * A).tocsr()
            got, ref = (monotonicity_certificate(M, grid) for M in (B, want))
            assert got.passed is ref.passed is passed
            assert (got.offdiag_max, got.margin_min, got.offending_node,
                    got.detail) == (ref.offdiag_max, ref.margin_min,
                                    ref.offending_node, ref.detail)


def implicit_matrix(field, grid, theta=1.0):
    A, _ = discretize_operator(field, grid, 0.0)
    return (sparse.eye(A.shape[0], format="csr")
            + (theta * grid.dt) * A).tocsr()


def dense_certificate(B):
    """(offdiag_max, margin_min, row of the positive off-diagonal entry)
    of B computed densely, row by row."""
    M = B.toarray()
    off = M - np.diag(np.diag(M))
    margin = np.diag(M) - np.abs(off).sum(axis=1)
    flat = np.where(off != 0.0, off, -np.inf)
    row = int(np.argmax(flat.max(axis=1)))
    return float(flat.max()), float(margin.min()), row


class TestCertificate:
    def test_uncorrelated_fields_pass(self):
        grid = small_grid()
        for field in (homogeneous_drift(1.0), heston(2.0, 0.25, 1.0, 0.0)):
            cert = monotonicity_certificate(implicit_matrix(field, grid),
                                            grid)
            assert cert.passed, cert.detail
            assert cert.offdiag_max <= 1e-12
            assert cert.margin_min > 0
            cert.require()

    def test_correlation_breaks_monotonicity(self):
        grid = small_grid()
        B = implicit_matrix(heston(2.0, 0.25, 1.0, 0.5), grid)
        cert = monotonicity_certificate(B, grid)
        assert not cert.passed
        assert cert.offdiag_max > 0
        assert "off-diagonal" in cert.detail
        assert cert.offending_node is not None
        with pytest.raises(CertificateError):
            cert.require()

    @pytest.mark.parametrize("rho,theta", [(0.0, 1.0), (0.5, 1.0),
                                           (-0.7, 0.5)])
    def test_matches_dense_computation(self, rho, theta):
        # the CSR row sums give the margins and the first offending row
        # that a dense row-by-row computation gives
        grid = small_grid()
        B = implicit_matrix(heston(2.0, 0.25, 1.0, rho), grid, theta)
        cert = monotonicity_certificate(B, grid)
        offdiag_max, margin_min, row = dense_certificate(B)
        assert cert.offdiag_max == offdiag_max
        assert abs(cert.margin_min - margin_min) <= 1e-12 * abs(margin_min)
        if not cert.passed:
            assert cert.offending_node == np.unravel_index(row, grid.shape)

    def test_dominance_margin_can_fail(self):
        # nonpositive off-diagonal entries whose sum outweighs the
        # diagonal; an explicit zero is not an off-diagonal entry
        grid = small_grid()
        N = int(np.prod(grid.shape))
        rows = np.r_[np.arange(N), 10, 12]
        cols = np.r_[np.arange(N), 11, 13]
        B = sparse.csr_matrix((np.r_[np.ones(N), -2.0, 0.0], (rows, cols)),
                              shape=(N, N))
        assert B.nnz == N + 2
        cert = monotonicity_certificate(B, grid)
        assert not cert.passed
        assert cert.offdiag_max == -2.0
        assert cert.margin_min == -1.0
        assert cert.offending_node == np.unravel_index(10, grid.shape)
        assert "dominance margin" in cert.detail

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["B", "E"])
    def test_non_finite_entry_fails_at_its_node(self, value, where):
        # an entry that no sign test can judge, even an infinite diagonal
        # that would leave every margin positive, fails at its row
        grid = small_grid()
        B = implicit_matrix(homogeneous_drift(1.0), grid, theta=0.5)
        E = 2.0 * sparse.eye(B.shape[0], format="csr") - B
        row = int(np.flatnonzero(B.diagonal() != 1.0)[3])
        bad = B if where == "B" else E
        bad.data[bad.indptr[row]:bad.indptr[row + 1]][
            bad.indices[bad.indptr[row]:bad.indptr[row + 1]] == row] = value
        cert = monotonicity_certificate(B, grid, explicit=E)
        assert not cert.passed
        assert cert.offending_node == np.unravel_index(row, grid.shape)
        assert cert.detail == "non-finite entry %s" % value
        with pytest.raises(CertificateError, match="non-finite entry"):
            cert.require()

    @pytest.mark.parametrize("make,theta,n_slices,passed", [
        (lambda: heston(2.0, 0.25, 1.0, 0.0), 0.5, 4, False),
        (lambda: heston(2.0, 0.25, 1.0, 0.0), 0.5, 200, True),
        (lambda: homogeneous_drift(1.0), 0.0, 4, False),
        (lambda: homogeneous_drift(1.0), 0.0, 200, True),
        (lambda: heston(2.0, 0.25, 1.0, 0.5), 0.0, 200, False),
    ], ids=["heston-cn-coarse", "heston-cn-fine", "drift-explicit-coarse",
            "drift-explicit-fine", "heston-rho-0.5-explicit"])
    def test_explicit_matrix_matches_dense_computation(
            self, make, theta, n_slices, passed):
        # E = I - (1 - theta) dt A must have no negative entry; its least
        # stored entry and the row of a failing one are those a dense
        # computation gives.  B alone passes in every case, and at
        # theta = 0 (B = I) the correlated field fails off E's diagonal.
        grid = small_grid(n_slices=n_slices)
        A, _ = discretize_operator(make(), grid, 0.0)
        eye = sparse.eye(A.shape[0], format="csr")
        B = (eye + (theta * grid.dt) * A).tocsr()
        E = (eye - ((1.0 - theta) * grid.dt) * A).tocsr()
        assert monotonicity_certificate(B, grid).passed
        cert = monotonicity_certificate(B, grid, explicit=E)
        assert cert.passed is passed
        dense = np.where(E.toarray() != 0.0, E.toarray(), np.inf)
        assert cert.explicit_min == dense.min()
        if not passed:
            assert "negative explicit entry" in cert.detail
            row = int(np.argmin(dense.min(axis=1)))
            assert cert.offending_node == np.unravel_index(row, grid.shape)

    def test_certified_solve_checks_explicit_matrix_below_theta_one(self):
        problem = manufactured_problem(homogeneous_drift(1.0), "inner_bump")
        with pytest.raises(CertificateError, match="negative explicit"):
            solve_cauchy(problem, small_grid(), theta=0.5, certify=True)
        _, report = solve_cauchy(problem, small_grid(n_slices=200),
                                 theta=0.5, certify=True)
        assert report.certificate.explicit_min > 0.0
        _, report = solve_cauchy(problem, small_grid())
        assert report.certificate.passed
        assert report.certificate.explicit_min is None

    def test_solve_refuses_uncertified_by_default(self):
        problem = manufactured_problem(heston(2.0, 0.25, 1.0, 0.5),
                                       "constant")
        with pytest.raises(CertificateError):
            solve_cauchy(problem, small_grid())
        u, report = solve_cauchy(problem, small_grid(), certify=False)
        assert report.certificate is None
        assert np.allclose(u.values, 1.0, rtol=0, atol=1e-9)


class TestSolve:
    def test_constant_solution_exact(self):
        problem = manufactured_problem(homogeneous_drift(1.0), "constant")
        grid = small_grid(n=9, n_slices=6)
        u, report = solve_cauchy(problem, grid)
        assert float(np.max(np.abs(u.values - 1.0))) <= 1e-12
        assert len(report.steps) == grid.n_t - 1
        assert report.certificate is not None and report.certificate.passed
        assert report.max_residual() <= 1e-9

    def test_zero_data_zero_solution(self):
        field = homogeneous_drift(1.0)
        zero = constant(2, 0.0)
        problem = CauchyProblem(field, None, zero)
        u, _ = solve_cauchy(problem, small_grid())
        assert np.array_equal(u.values, np.zeros_like(u.values))

    def test_discrete_operator_consistency(self):
        # the stepped solution satisfies the implicit equations up to the
        # linear-solve tolerance divided by dt
        field = homogeneous_drift(1.0)
        problem = manufactured_problem(field, "inner_bump")
        grid = small_grid(n=9, n_slices=6)
        u, _ = solve_cauchy(problem, grid)
        lu = apply_discrete_operator(u, field)
        free = ~grid.dirichlet_mask()
        worst = 0.0
        for n in range(grid.n_t - 1):
            f_vals = problem.f.on_grid(grid.times[n + 1],
                                       grid).reshape(grid.shape)
            worst = max(worst,
                        float(np.max(np.abs((lu[n] - f_vals)[free]))))
        assert worst <= 1e-5

    @pytest.mark.parametrize("theta", [1.0, 0.5])
    @pytest.mark.parametrize("n", [14, 33])
    def test_operator_in_one_product_equals_per_step(self, theta, n):
        # one sparse product over all slices sums each CSR row in the
        # order of one matvec per step, so the values are bitwise equal
        field = heston(2.0, 0.25, 1.0, -0.5, r=0.05)
        grid = small_grid(n=n, n_slices=6)
        rng = np.random.default_rng(n)
        w = GridFunction(grid, rng.standard_normal((grid.n_t,) + grid.shape))
        got = apply_discrete_operator(w, field, theta)
        A, dirichlet = discretize_operator(field, grid, 0.0)
        flat = w.values.reshape(grid.n_t, -1)
        want = np.full((grid.n_t - 1, flat.shape[1]), np.nan)
        for k in range(grid.n_t - 1):
            lw = (flat[k + 1] - flat[k]) / grid.dt + theta * (A @ flat[k + 1])
            if theta != 1.0:
                lw += (1.0 - theta) * (A @ flat[k])
            want[k, ~dirichlet] = lw[~dirichlet]
        assert np.array_equal(got.reshape(want.shape), want, equal_nan=True)

    def test_time_dependent_drift_keeps_constants(self):
        field = from_expressions(
            2, [["1", "0"], ["0", "1"]], ["0", "1 + 0.5*t"], "0",
            delta=1.0, K=4.0, nu=1.0, name="accelerating")
        assert field.time_dependent
        problem = manufactured_problem(field, "constant")
        u, _ = solve_cauchy(problem, small_grid(n_slices=5))
        assert float(np.max(np.abs(u.values - 1.0))) <= 1e-12

    def test_exact_boundary_beats_frozen(self):
        field = homogeneous_drift(1.0)
        problem = manufactured_problem(field, "affine_height")
        grid = small_grid(n=9, n_slices=8)
        exact = problem.exact.on_grid(grid.times, grid)
        u_frozen, _ = solve_cauchy(problem, grid, boundary="frozen")
        u_exact, _ = solve_cauchy(problem, grid, boundary="exact")
        err_frozen = float(np.max(np.abs(
            u_frozen.values.reshape(exact.shape) - exact)))
        err_exact = float(np.max(np.abs(
            u_exact.values.reshape(exact.shape) - exact)))
        assert err_exact < 0.2 * err_frozen

    def test_input_validation(self):
        field = homogeneous_drift(1.0)
        problem = manufactured_problem(field, "constant")
        with pytest.raises(ValueError):
            solve_cauchy(problem, small_grid(), boundary="weird")
        bare = CauchyProblem(field, None, constant(2, 1.0))
        with pytest.raises(ValueError):
            solve_cauchy(bare, small_grid(), boundary="exact")
        with pytest.raises(ValueError):
            CauchyProblem(field, None, constant(3, 1.0))
        irregular = Grid((np.linspace(-1, 1, 5), np.linspace(0, 1, 5) ** 2),
                         [0.0, 0.1, 0.3])
        with pytest.raises(ValueError):
            solve_cauchy(problem, irregular)

    def test_operator_rejects_nonuniform_time_axis(self, sample):
        # the operator steps with times[1] - times[0]; on this axis it
        # read L(u = t) as 1, 2, 0.5 instead of 1, 1, 1
        grid = Grid([np.linspace(-2, 2, 7), np.linspace(0, 2, 7)],
                    [0.0, 0.1, 0.3, 0.35])
        u = sample(grid, "t")
        with pytest.raises(ValueError, match="uniform"):
            apply_discrete_operator(u, homogeneous_drift(1.0))


def accelerating_field():
    """Unit diffusion with inward drift 1 + 3t: A changes every step."""
    return from_expressions(2, [["1", "0"], ["0", "1"]], ["0", "1 + 3*t"],
                            "0", delta=1.0, K=8.0, nu=1.0,
                            name="accelerating")


def count_calls(monkeypatch, name, wrap=None):
    """Replace solver.<name> by a wrapper that records its calls."""
    original = getattr(solver, name)
    calls = []

    def wrapper(*args, **kw):
        calls.append(args)
        result = original(*args, **kw)
        return wrap(result) if wrap else result

    monkeypatch.setattr(solver, name, wrapper)
    return calls


def reference_solve(problem, grid, theta=1.0):
    """The theta-scheme with frozen boundary values, one spsolve a step."""
    field = problem.field
    nodes = grid.nodes()
    dir_flat = grid.dirichlet_mask().ravel()
    eye = sparse.eye(len(nodes))

    def f(t):
        vals = problem.f.value(t, nodes)
        vals[dir_flat] = 0.0
        return vals

    u = problem.g.value(0.0, nodes)
    out = [u]
    for t_old, t_new in zip(grid.times[:-1], grid.times[1:]):
        A_old, _ = discretize_operator(field, grid, t_old)
        A_new, _ = discretize_operator(field, grid, t_new)
        rhs = (u + grid.dt * (theta * f(t_new) + (1.0 - theta) * f(t_old))
               - (1.0 - theta) * grid.dt * (A_old @ u))
        rhs[dir_flat] = u[dir_flat]
        u = spsolve((eye + theta * grid.dt * A_new).tocsc(), rhs)
        out.append(u)
    return np.reshape(out, (grid.n_t,) + grid.shape)


class ExactOnce:
    """An LU whose first solve is exact (plus perturb at one node) and
    whose later solves return rhs unchanged, a useless preconditioner."""

    def __init__(self, lu, perturb=0.0):
        self.lu = lu
        self.perturb = perturb
        self.used = False

    def solve(self, rhs):
        if self.used:
            return rhs.copy()
        self.used = True
        x = self.lu.solve(rhs)
        x[len(x) // 2] += self.perturb
        return x


class TestDirectSolve:
    def problem(self):
        return manufactured_problem(heston(2.0, 0.25, 1.0, 0.0),
                                    "inner_bump")

    def test_time_independent_factors_once(self, monkeypatch):
        calls = count_calls(monkeypatch, "splu")
        grid = small_grid(n=9, n_slices=6)
        u, report = solve_cauchy(self.problem(), grid)
        assert len(calls) == 1
        assert [s[1] for s in report.steps] == [1] * (grid.n_t - 1)
        assert report.max_residual() <= 1e-12
        assert report.certificate is not None and report.certificate.passed

    def test_agrees_with_spsolve(self):
        # the factored and the preconditioned steps against a per-step
        # spsolve of the same theta-scheme system
        grid = small_grid(n=9, n_slices=6)
        for field in (heston(2.0, 0.25, 1.0, 0.0), accelerating_field()):
            problem = manufactured_problem(field, "inner_bump")
            u, _ = solve_cauchy(problem, grid)
            want = reference_solve(problem, grid)
            assert float(np.max(np.abs(u.values - want))) <= 1e-8

    @pytest.mark.parametrize("perturb", [1e-6, np.nan])
    def test_bad_back_solve_raises(self, monkeypatch, perturb):
        class Perturbed:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs):
                x = self.lu.solve(rhs)
                x[len(x) // 2] += perturb
                return x

        count_calls(monkeypatch, "splu", wrap=Perturbed)
        with pytest.raises(SolverError, match="back-solve"):
            solve_cauchy(self.problem(), small_grid(n=9, n_slices=4))

    def test_time_dependent_factors_once(self, monkeypatch):
        # the LU of the first matrix preconditions every later step
        calls = count_calls(monkeypatch, "splu")
        problem = manufactured_problem(accelerating_field(), "inner_bump")
        grid = small_grid(n=9, n_slices=6)
        u, report = solve_cauchy(problem, grid)
        assert len(calls) == 1
        assert report.steps[0][1] == 1
        assert report.max_residual() <= solver.RTOL

    def test_poor_preconditioner_refactors(self, monkeypatch):
        # an LU that is the identity as a preconditioner leaves BiCGStab
        # short of rtol, so every later step factors its own matrix
        calls = count_calls(monkeypatch, "splu", wrap=ExactOnce)
        problem = manufactured_problem(accelerating_field(), "inner_bump")
        grid = small_grid(n=33, n_slices=5)
        u, report = solve_cauchy(problem, grid)
        assert len(calls) == grid.n_t - 1
        assert [s[1] for s in report.steps] == [1] * (grid.n_t - 1)
        assert report.max_residual() <= solver.RTOL
        want = reference_solve(problem, grid)
        assert float(np.max(np.abs(u.values - want))) <= 1e-8

    def test_bad_refactored_back_solve_raises(self, monkeypatch):
        # the second LU, factored at step 2, back-solves with an error
        def wrap(lu):
            return ExactOnce(lu, perturb=1e-6 if len(calls) > 1 else 0.0)

        calls = count_calls(monkeypatch, "splu", wrap=wrap)
        problem = manufactured_problem(accelerating_field(), "inner_bump")
        with pytest.raises(SolverError, match="step 2 .*back-solve"):
            solve_cauchy(problem, small_grid(n=33, n_slices=5))


def same_axes(grid):
    """A grid equal to grid, with no stencil plan or system of its own."""
    return Grid(grid.axes, grid.times)


class TestSteppedSystem:
    """A field that does not depend on time keeps one system on the
    grid, keyed by the field object and theta."""

    @staticmethod
    def problems(field, seed):
        # two data pairs on one field, as the comparison suite draws them
        rng = np.random.default_rng(seed)
        bump = [manufactured_solution(field, "inner_bump")]
        return [CauchyProblem(field, float(rng.uniform(0.5, 2.0)) * bump[0],
                              constant(2, float(rng.uniform(-1.0, 1.0))))
                for _ in range(2)]

    @staticmethod
    def run(problem, grid, **solve):
        u, report = solve_cauchy(problem, grid, **solve)
        theta = solve.get("theta", 1.0)
        return (u.values, report.steps, report.certificate,
                apply_discrete_operator(u, problem.field, theta))

    @staticmethod
    def assert_same(got, want):
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1] and got[2] == want[2]
        assert np.array_equal(got[3], want[3], equal_nan=True)

    def test_second_solve_reuses_system(self, monkeypatch):
        assembled = count_calls(monkeypatch, "discretize_operator")
        factored = count_calls(monkeypatch, "splu")
        certified = count_calls(monkeypatch, "monotonicity_certificate")
        field = heston(2.0, 0.25, 1.0, 0.0)
        grid = small_grid(n=9, n_slices=5)
        first, second = self.problems(field, 1)
        got = [self.run(first, grid)]
        assert (len(assembled), len(factored), len(certified)) == (1, 1, 1)
        # the second solve and both operator applications read the kept
        # A, certificate and LU
        got.append(self.run(second, grid))
        assert (len(assembled), len(factored), len(certified)) == (1, 1, 1)
        for problem, result in zip((first, second), got):
            self.assert_same(result, self.run(problem, same_axes(grid)))
        assert got[1][2].passed

    def test_certificate_made_on_first_certified_solve(self, monkeypatch):
        certified = count_calls(monkeypatch, "monotonicity_certificate")
        field = heston(2.0, 0.25, 1.0, 0.0)
        grid = small_grid(n=9, n_slices=5)
        first, second = self.problems(field, 2)
        assert self.run(first, grid, certify=False)[2] is None
        assert certified == []
        got = self.run(second, grid)
        assert len(certified) == 1
        self.assert_same(got, self.run(second, same_axes(grid)))

    @pytest.mark.parametrize("other", ["new-field-object", "theta",
                                       "time-dependent"])
    def test_other_system_assembles_and_factors(self, monkeypatch, other):
        assembled = count_calls(monkeypatch, "discretize_operator")
        factored = count_calls(monkeypatch, "splu")
        field = heston(2.0, 0.25, 1.0, 0.0)
        grid = small_grid(n=9, n_slices=5)
        kept, _ = self.problems(field, 3)
        self.run(kept, grid)
        assembled.clear()
        factored.clear()
        solve = {"theta": 0.5, "certify": False} if other == "theta" else {}
        second = {"new-field-object": heston(2.0, 0.25, 1.0, 0.0),
                  "theta": field,
                  "time-dependent": accelerating_field()}[other]
        problem = self.problems(second, 4)[0]
        got = self.run(problem, grid, **solve)
        # a time-dependent field assembles each step, in the solve and
        # again in the operator
        assert len(factored) == 1
        assert len(assembled) == (2 * (grid.n_t - 1)
                                  if other == "time-dependent" else 1)
        self.assert_same(got, self.run(problem, same_axes(grid), **solve))
        # a time-dependent field leaves the kept system in place; any
        # other replaces it
        assembled.clear()
        self.run(kept, grid)
        assert len(assembled) == (0 if other == "time-dependent" else 1)


class TestExtrapolatedStart:
    def test_matches_per_step_factoring_with_fewer_solves(self,
                                                          monkeypatch):
        # heston-timedep at 65^2 x 9; started from the previous slice,
        # BiCGStab took 38 LU solves in all
        solves = []

        class Counted:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs):
                solves.append(1)
                return self.lu.solve(rhs)

        count_calls(monkeypatch, "splu", wrap=Counted)
        problem = manufactured_problem(ASSEMBLY_CASES["heston-timedep"][0](),
                                       "inner_bump")
        grid = small_grid(n=65, n_slices=9)
        u, report = solve_cauchy(problem, grid)
        assert report.max_residual() <= solver.RTOL
        assert len(solves) < 38
        want = reference_solve(problem, grid)
        assert float(np.max(np.abs(u.values - want))) <= 1e-8

    def test_iterations_count_half_steps(self, monkeypatch):
        # an iteration is two preconditioner applications; one that stops
        # at its half step still counts
        applied = []
        original = solver.bicgstab

        def bicgstab(B, rhs, M, **kw):
            count = [0]

            def precondition(r):
                count[0] += 1
                return M.matvec(r)

            result = original(B, rhs, M=solver.LinearOperator(
                B.shape, matvec=precondition, dtype=float), **kw)
            applied.append(count[0])
            return result

        monkeypatch.setattr(solver, "bicgstab", bicgstab)
        problem = manufactured_problem(accelerating_field(), "inner_bump")
        _, report = solve_cauchy(problem, small_grid(n=33, n_slices=6))
        assert len(applied) == len(report.steps) - 1
        assert [s[1] for s in report.steps[1:]] == [
            (k + 1) // 2 for k in applied]


class TestTimeDependent:
    @pytest.mark.parametrize("theta, first", [(1.0, 1), (0.5, 0)])
    def test_assembles_each_time_once(self, monkeypatch, theta, first):
        # theta = 1 never needs A(t_0); theta < 1 reuses A(t_{n+1}) as
        # the next step's explicit matrix
        calls = count_calls(monkeypatch, "discretize_operator")
        problem = manufactured_problem(accelerating_field(), "constant")
        grid = small_grid(n_slices=6)
        solve_cauchy(problem, grid, theta=theta)
        assert [c[2] for c in calls] == list(grid.times[first:])
        calls.clear()
        solve_cauchy(manufactured_problem(homogeneous_drift(1.0),
                                          "constant"), grid, theta=theta)
        assert len(calls) == 1

    @pytest.mark.parametrize("theta, order", [(1.0, 1.0), (0.5, 2.0)])
    def test_temporal_order(self, theta, order):
        # affine_height is spatially exact, so only the time error shows
        study = convergence_study(
            accelerating_field(), "affine_height",
            [(9, 9, 5), (9, 9, 9), (9, 9, 17)], t_final=0.5, theta=theta,
            mode="time", boundary="exact")
        assert abs(study.order - order) <= 0.2

    @pytest.mark.parametrize("theta", [1.0, 0.5])
    def test_residual_operator_matches_solver(self, theta):
        # the solver and apply_discrete_operator step with the same
        # matrices, so L_h u = f up to the linear-solve tolerance
        field = accelerating_field()
        problem = manufactured_problem(field, "affine_height")
        grid = small_grid(n=9, n_slices=9)
        u, _ = solve_cauchy(problem, grid, theta=theta, boundary="exact")
        lu = apply_discrete_operator(u, field, theta)
        free = ~grid.dirichlet_mask()
        worst = 0.0
        for n in range(grid.n_t - 1):
            f = (theta * problem.f.on_grid(grid.times[n + 1], grid)
                 + (1.0 - theta) * problem.f.on_grid(grid.times[n], grid))
            worst = max(worst, float(np.max(
                np.abs(lu[n] - f.reshape(grid.shape))[free])))
        assert worst <= 1e-6


class TestLookAhead:
    """A time-dependent field's next system is built on a worker thread
    while the current step solves."""

    @pytest.mark.parametrize("boundary", ["frozen", "exact"])
    @pytest.mark.parametrize("theta, certify", [(1.0, True), (0.5, False)],
                             ids=["implicit-certified", "cn-uncertified"])
    @pytest.mark.parametrize("make", [ASSEMBLY_CASES["heston-timedep"][0],
                                      accelerating_field],
                             ids=["heston-timedep", "accelerating"])
    def test_bit_identical_to_plain_iteration(self, monkeypatch, make,
                                              theta, certify, boundary):
        problem = manufactured_problem(make(), "inner_bump")
        grid = small_grid(n=33, n_slices=6)
        threads, factoring = [], set()
        count_calls(monkeypatch, "splu", wrap=lambda lu: factoring.add(
            threading.current_thread()) or lu)
        original = solver.discretize_operator

        def assemble(*args):
            threads[-1].add(threading.current_thread())
            return original(*args)

        def run():
            threads.append(set())
            u, report = solve_cauchy(problem, grid, theta=theta,
                                     certify=certify, boundary=boundary)
            return u.values, report.steps, report.certificate

        monkeypatch.setattr(solver, "discretize_operator", assemble)
        u, steps, cert = run()
        monkeypatch.setattr(solver, "_one_ahead", lambda items, pool: items)
        u_ref, steps_ref, cert_ref = run()
        # the worker only builds: every LU is factored on the caller
        main = threading.main_thread()
        assert main not in threads[0] and threads[1] == {main}
        assert factoring == {main}
        assert np.array_equal(u, u_ref)
        assert steps == steps_ref
        assert cert == cert_ref
        assert (cert is not None) is certify

    def test_certificate_fails_at_its_step(self, monkeypatch):
        # cross diffusion from t = 0.2 on: at dt = 0.1 the certificate
        # first fails at step 3; steps 1 and 2 are solved (a back-solve,
        # then BiCGStab) before that failure, which the thread found a
        # step earlier, is raised
        a12 = "Max(0, t - 0.2)"
        field = from_expressions(2, [["1", a12], [a12, "1"]], ["0", "1"],
                                 "0", delta=0.5, K=8.0, nu=1.0)
        iterated = count_calls(monkeypatch, "_preconditioned_bicgstab")
        factored = count_calls(monkeypatch, "splu")
        problem = manufactured_problem(field, "inner_bump")
        before = threading.active_count()
        with pytest.raises(CertificateError,
                           match=r"at node \(1, 7\) \(positive "
                                 r"off-diagonal entry 0.0404\)"):
            solve_cauchy(problem, small_grid(n=9, n_slices=6))
        assert (len(factored), len(iterated)) == (1, 1)
        assert threading.active_count() == before

    def test_time_independent_field_starts_no_thread(self, monkeypatch):
        # one matrix serves every step, so there is nothing to build
        # ahead; it is factored on the caller at any grid size
        started = count_calls(monkeypatch, "_one_ahead")
        during = []
        count_calls(monkeypatch, "splu", wrap=lambda lu: during.append(
            (threading.current_thread(), threading.active_count())) or lu)
        problem = manufactured_problem(heston(2.0, 0.25, 1.0, 0.0),
                                       "inner_bump")
        before = threading.active_count()
        for n in (9, 97):
            solve_cauchy(problem, small_grid(n=n, n_slices=3))
        assert started == []
        assert during == [(threading.main_thread(), before)] * 2
        assert threading.active_count() == before

    def test_data_error_leaves_no_thread(self, monkeypatch):
        # the look-ahead starts before the data are evaluated, and a data
        # error joins it
        problem = manufactured_problem(ASSEMBLY_CASES["heston-timedep"][0](),
                                       "inner_bump")
        during = []

        def on_grid(*args):
            during.append(threading.active_count())
            raise ValueError("bad data")

        monkeypatch.setattr(problem.g, "on_grid", on_grid)
        before = threading.active_count()
        with pytest.raises(ValueError, match="bad data"):
            solve_cauchy(problem, small_grid(n=33, n_slices=6))
        assert during == [before + 1]
        assert threading.active_count() == before

    def test_no_thread_outlives_the_solve(self, monkeypatch):
        problem = manufactured_problem(accelerating_field(), "inner_bump")
        grid = small_grid(n=33, n_slices=6)
        during = []
        original = solver.monotonicity_certificate

        def certify(*args, **kw):
            during.append(threading.active_count())
            return original(*args, **kw)

        monkeypatch.setattr(solver, "monotonicity_certificate", certify)
        before = threading.active_count()
        solve_cauchy(problem, grid)
        assert max(during) == before + 1
        assert threading.active_count() == before

        # every LU solve after the first returns NaN, so step 2 fails
        # in BiCGStab and in the back-solve of its own LU
        lu_solves = []

        class NaNLater:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs):
                lu_solves.append(1)
                x = self.lu.solve(rhs)
                return x if len(lu_solves) == 1 else np.full_like(x, np.nan)

        count_calls(monkeypatch, "splu", wrap=NaNLater)
        with pytest.raises(SolverError, match="at step 2 "):
            solve_cauchy(problem, grid)
        assert threading.active_count() == before


# The coefficients (a, b, c) of the fields of test_operator_apply_matches_diff
# as text, written out from their presets.
REFERENCE_COEFFICIENTS = {
    "heston-rho0": ([["0.5", "0"], ["0", "0.5"]],
                    ["0.05 - x2/2", "2*(0.25 - x2)"], "-0.05"),
    "heston-timedep": ([["0.5", "0"], ["0", "0.5"]],
                       ["0.05 - x2/2", "2*(0.25*(1 + t) - x2)"], "-0.05"),
    "correlated-constant": ([["2", "1"], ["1", "1"]], ["1", "2"], "-0.5"),
}


def operator_apply_reference(case, u):
    """L u with sp.diff over every ordered pair (i, j)."""
    t, *syms = symbols(2)
    names = {"t": t, "x1": syms[0], "x2": syms[1]}
    a, b, c = REFERENCE_COEFFICIENTS[case]
    a, b = [[sp.parse_expr(e, names) for e in row] for row in a], \
        [sp.parse_expr(e, names) for e in b]
    lap = sum(a[i][j] * sp.diff(u, syms[i], syms[j])
              for i in range(2) for j in range(2))
    drift = sum(b[i] * sp.diff(u, syms[i]) for i in range(2))
    return (sp.diff(u, t) - syms[-1] * lap - drift
            - sp.parse_expr(c, names) * u)


class TestManufactured:
    @pytest.mark.parametrize("kind", ["affine_height", "inner_bump"])
    @pytest.mark.parametrize("case", ["heston-rho0", "heston-timedep",
                                      "correlated-constant"])
    def test_operator_apply_matches_diff(self, case, kind,
                                         manufactured_exprs):
        # f from the field's values and u's exact derivatives, each mixed
        # pair taken once, against sp.diff over both orders of the
        # written-out u, on a lattice of the box
        field = constant_field([[2.0, 1.0], [1.0, 1.0]], [1.0, 2.0], -0.5) \
            if case == "correlated-constant" else ASSEMBLY_CASES[case][0]()
        u = manufactured_solution(field, kind)
        ref = from_sympy(2, operator_apply_reference(
            case, manufactured_exprs[kind]))
        t, x1, x2 = (a.ravel() for a in np.meshgrid(
            np.linspace(0.0, 0.5, 5), np.linspace(-2.0, 2.0, 17),
            np.linspace(0.0, 2.0, 13), indexing="ij"))
        x = np.stack([x1, x2], axis=-1)
        want = ref.value(t, x)
        got = operator_apply(field, u).value(t, x)
        assert np.max(np.abs(want)) > 0
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_registry(self):
        field = homogeneous_drift(1.0)
        for kind in ("constant", "affine_height", "inner_bump"):
            u = manufactured_solution(field, kind)
            assert u.d == 2
        with pytest.raises(ValueError):
            manufactured_solution(field, "sawtooth")

    def test_inner_bump_vanishes_near_faces(self):
        field = homogeneous_drift(1.0)
        u = manufactured_solution(field, "inner_bump", x_extent=2.0,
                                  height=2.0)
        t = np.zeros(4)
        x = np.array([[2.0, 1.0], [-2.0, 0.5], [0.0, 2.0], [1.9, 1.9]])
        assert np.allclose(u.value(t, x), 1.0, rtol=0, atol=1e-12)
        # ... but varies inside
        assert abs(u.value(0.0, np.array([[0.0, 0.0]]))[0] - 2.0) <= 1e-12

    def test_problem_data_consistent(self):
        field = heston(2.0, 0.25, 1.0, 0.0)
        problem = manufactured_problem(field, "inner_bump")
        rng = np.random.default_rng(0)
        x = rng.uniform(-1.5, 1.5, (50, 2))
        x[:, 1] = rng.uniform(0.0, 1.5, 50)
        assert np.allclose(problem.g.value(0.0, x),
                           problem.exact.value(0.0, x), rtol=0, atol=1e-12)
        f2 = operator_apply(field, problem.exact)
        t = rng.uniform(0.0, 1.0, 50)
        assert np.allclose(problem.f.value(t, x), f2.value(t, x),
                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_grid_evaluation_matches_nodes(self, d):
        # evaluating on the sparse tensor axes gives the node values bit
        # for bit, one time or all slices in one call; a constant is a
        # number, not an array
        field = heston(2.0, 0.25, 1.0, 0.0) if d == 2 \
            else homogeneous_drift(1.0, d)
        problem = manufactured_problem(field, "inner_bump")
        lateral = [np.linspace(-2.0, 2.0, 7 + i) for i in range(d - 1)]
        grid = Grid(lateral + [2.0 * np.linspace(0.0, 1.0, 9) ** 2],
                    [0.0, 0.2, 0.5])
        nodes = grid.nodes()
        for fn in (problem.f, problem.g, problem.exact,
                   constant(d, 2.5)):
            want = np.stack([fn.value(t, nodes) for t in grid.times])
            got = np.stack([fn.on_grid(t, grid) for t in grid.times])
            assert np.array_equal(got, want)
            assert np.array_equal(fn.on_grid(grid.times, grid), want)
            assert np.array_equal(fn.on_grid(grid.times[1:], grid), want[1:])
        # absent f is the zero function: +0.0 at every node and slice
        bare = CauchyProblem(field, None, problem.g)
        assert bare.f.on_grid(0.2, grid).shape == (len(nodes),)
        zeros = bare.f.on_grid(grid.times, grid)
        assert zeros.tobytes() == np.zeros((grid.n_t, len(nodes))).tobytes()


class TestConvergence:
    def test_spatial_order_space_mode(self):
        study = convergence_study(
            homogeneous_drift(1.0), "inner_bump",
            [(9, 9, 4), (17, 17, 13)], t_final=0.5)
        assert study.order is not None and study.order >= 0.5
        assert "# fitted order (space): " in gridio.convergence_csv(study)

    def test_temporal_order_theta_one(self):
        study = convergence_study(
            homogeneous_drift(1.0), "affine_height",
            [(9, 9, 5), (9, 9, 9), (9, 9, 17)], t_final=0.5,
            mode="time", boundary="exact")
        assert study.order is not None
        assert abs(study.order - 1.0) <= 0.4

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            convergence_study(homogeneous_drift(1.0), "constant",
                              [(7, 7, 4), (9, 9, 5)], mode="spcae")

    def test_exact_family_reports_no_order(self):
        study = convergence_study(
            homogeneous_drift(1.0), "constant",
            [(7, 7, 4), (9, 9, 5)], t_final=0.5)
        assert study.order is None
        assert "fitted order" not in gridio.convergence_csv(study)


class AffineHeston:
    """The exact solution u = exp(A(t) + mu x1 + B(t) x2) of the Heston
    problem with f = 0 and g = exp(mu x1 - lam x2) (Heston, Rev. Financ.
    Stud. 6 (1993); Duffie, Pan & Singleton, Econometrica 68 (2000)).

    Substituting u gives B' = a B^2 + b B + c with a = sigma^2 / 2,
    b = rho sigma mu - kappa, c = (mu^2 - mu) / 2 and B(0) = -lam, and
    A' = kappa theta B + r mu - r with A(0) = 0.  With the roots r1 > r2
    of a B^2 + b B + c, K = (B(0) - r1) / (B(0) - r2) and
    D = a (r1 - r2), B = r2 + (r1 - r2) / (1 - K e^{Dt}) and its
    integral is r1 t - log((1 - K e^{Dt}) / (1 - K)) / a.  For mu in
    (0, 1) the roots are real and B stays finite.
    """

    d = 2

    def __init__(self, kappa, theta, sigma, rho, r, mu, lam):
        a, b, c = sigma ** 2 / 2, rho * sigma * mu - kappa, (mu * mu - mu) / 2
        root = np.sqrt(b * b - 4 * a * c)
        self.r1, self.r2 = (-b + root) / (2 * a), (-b - root) / (2 * a)
        self.K = (-lam - self.r1) / (-lam - self.r2)
        self.a, self.D = a, a * (self.r1 - self.r2)
        self.level, self.rate, self.mu = kappa * theta, r * mu - r, mu

    def value(self, t, x):
        t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
        e = self.K * np.exp(self.D * t)
        B = self.r2 + (self.r1 - self.r2) / (1 - e)
        integral = self.r1 * t - np.log((1 - e) / (1 - self.K)) / self.a
        A = self.level * integral + self.rate * t
        return np.exp(A + self.mu * x[..., 0] + B * x[..., 1])


class TestAffineHeston:
    """Unforced Heston solves against the affine exact solution, on
    [-2, 2] x [0, 2] up to T = 0.5 with n x n nodes and n slices."""

    PARAMETERS = dict(kappa=2.0, theta=0.25, sigma=1.0, r=0.05)

    def exact(self, rho):
        return AffineHeston(rho=rho, mu=0.5, lam=1.0, **self.PARAMETERS)

    @pytest.mark.parametrize("rho", [0.0, -0.5, -0.9])
    def test_formula_solves_the_equation(self, rho):
        # L u of the central-difference derivatives, h = 1e-4
        u, h = self.exact(rho), 1e-4
        t, x1, x2 = 0.3, 0.2, 0.7

        def at(dt=0.0, d1=0.0, d2=0.0):
            return float(u.value(t + dt, np.array([x1 + d1, x2 + d2])))

        u_t = (at(dt=h) - at(dt=-h)) / (2 * h)
        u_1 = (at(d1=h) - at(d1=-h)) / (2 * h)
        u_2 = (at(d2=h) - at(d2=-h)) / (2 * h)
        u_11 = (at(d1=h) - 2 * at() + at(d1=-h)) / h ** 2
        u_22 = (at(d2=h) - 2 * at() + at(d2=-h)) / h ** 2
        u_12 = (at(d1=h, d2=h) - at(d1=h, d2=-h) - at(d1=-h, d2=h)
                + at(d1=-h, d2=-h)) / (4 * h * h)
        lu = (x2 * (0.5 * u_11 + rho * u_12 + 0.5 * u_22)
              + (0.05 - x2 / 2) * u_1 + 2.0 * (0.25 - x2) * u_2 - 0.05 * at())
        assert abs(u_t - lu) <= 1e-6
        assert float(u.value(0.0, np.array([x1, x2]))) == pytest.approx(
            np.exp(0.5 * x1 - x2), rel=1e-15)

    # sup errors at n = 17, 33, 65 and the least fitted order: about 1
    # on the uniform grading, about 0.83 on the quadratic one, whose
    # first height rows are finer than its largest spacing
    @pytest.mark.parametrize("rho, grading, certify, errors, order", [
        (0.0, "uniform", True, [1.42e-2, 7.02e-3, 3.48e-3], 0.9),
        (-0.5, "uniform", False, [1.35e-2, 6.73e-3, 3.34e-3], 0.9),
        (-0.9, "uniform", False, [1.30e-2, 6.54e-3, 3.25e-3], 0.9),
        (0.0, "quadratic", True, [9.25e-3, 5.42e-3, 2.90e-3], 0.8),
        (-0.5, "quadratic", False, [8.47e-3, 4.98e-3, 2.68e-3], 0.8),
        (-0.9, "quadratic", False, [8.18e-3, 4.79e-3, 2.59e-3], 0.8),
    ], ids=["rho-0-certified", "rho-minus-0.5-uncertified",
            "rho-minus-0.9-uncertified", "quadratic-rho-0-certified",
            "quadratic-rho-minus-0.5-uncertified",
            "quadratic-rho-minus-0.9-uncertified"])
    def test_first_order_in_space(self, rho, grading, certify, errors,
                                  order):
        exact = self.exact(rho)
        problem = CauchyProblem(heston(rho=rho, **self.PARAMETERS), None,
                                profile("exp", [0.0, 0.5, -1.0]),
                                exact=exact)
        got, spacings = [], []
        for n in (17, 33, 65):
            grid = Grid.build(2, 2.0, 2.0, n, n, 0.5, n, grading=grading)
            u, report = solve_cauchy(problem, grid, certify=certify,
                                     boundary="exact")
            assert (report.certificate is not None) is certify
            audited = grid.audited_mask().ravel()
            want = exact.value(grid.times[:, None], grid.nodes()[audited])
            got.append(float(np.max(np.abs(
                u.values.reshape(grid.n_t, -1)[:, audited] - want))))
            spacings.append(grid.max_spacing())
        assert got == pytest.approx(errors, rel=0.01)
        assert np.polyfit(np.log(spacings), np.log(got), 1)[0] >= order

