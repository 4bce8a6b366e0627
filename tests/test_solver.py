"""Spatial discretization, certificates and the theta-scheme."""

import numpy as np
import pytest
import scipy.sparse as sparse
import sympy as sp
from scipy.sparse.linalg import spsolve

from degenpde import solver
from degenpde.analytic import AnalyticFunction, space_symbols
from degenpde.fields import (
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
        syms = space_symbols(2)
        u = AnalyticFunction(2, 1 + syms[0] ** 2 + 0.5 * syms[1] ** 2
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
        syms = space_symbols(2)
        u = AnalyticFunction(2, 2 + 3 * syms[0] - syms[1])
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
# sign along both axes, negative at part of the bottom row; and the
# benchmark's time-dependent Heston field at three times.
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
        assert report.wall_time > 0.0
        assert report.max_residual() <= 1e-9

    def test_zero_data_zero_solution(self):
        field = homogeneous_drift(1.0)
        zero = AnalyticFunction(2, 0)
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
            f_vals = problem.f_values(grid.times[n + 1],
                                      grid).reshape(grid.shape)
            worst = max(worst,
                        float(np.max(np.abs((lu[n] - f_vals)[free]))))
        assert worst <= 1e-5

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
        exact = GridFunction.from_callable(grid,
                                           problem.exact.grid_callable())
        u_frozen, _ = solve_cauchy(problem, grid, boundary="frozen")
        u_exact, _ = solve_cauchy(problem, grid, boundary="exact")
        err_frozen = float(np.max(np.abs(u_frozen.values - exact.values)))
        err_exact = float(np.max(np.abs(u_exact.values - exact.values)))
        assert err_exact < 0.2 * err_frozen

    def test_input_validation(self):
        field = homogeneous_drift(1.0)
        problem = manufactured_problem(field, "constant")
        with pytest.raises(ValueError):
            solve_cauchy(problem, small_grid(), boundary="weird")
        bare = CauchyProblem(field, None, AnalyticFunction(2, 1))
        with pytest.raises(ValueError):
            solve_cauchy(bare, small_grid(), boundary="exact")
        with pytest.raises(ValueError):
            CauchyProblem(field, None, AnalyticFunction(3, 1))
        irregular = Grid((np.linspace(-1, 1, 5), np.linspace(0, 1, 5) ** 2),
                         [0.0, 0.1, 0.3])
        with pytest.raises(ValueError):
            solve_cauchy(problem, irregular)


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
        assert report.max_residual() <= report.rtol

    def test_poor_preconditioner_refactors(self, monkeypatch):
        # an LU that is the identity as a preconditioner leaves BiCGStab
        # short of rtol, so every later step factors its own matrix
        calls = count_calls(monkeypatch, "splu", wrap=ExactOnce)
        problem = manufactured_problem(accelerating_field(), "inner_bump")
        grid = small_grid(n=33, n_slices=5)
        u, report = solve_cauchy(problem, grid)
        assert len(calls) == grid.n_t - 1
        assert [s[1] for s in report.steps] == [1] * (grid.n_t - 1)
        assert report.max_residual() <= report.rtol
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
        assert report.max_residual() <= report.rtol
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
            f = (theta * problem.f_values(grid.times[n + 1], grid)
                 + (1.0 - theta) * problem.f_values(grid.times[n], grid))
            worst = max(worst, float(np.max(
                np.abs(lu[n] - f.reshape(grid.shape))[free])))
        assert worst <= 1e-6


class TestManufactured:
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
        # for bit; lambdify returns a constant expression as a scalar
        field = heston(2.0, 0.25, 1.0, 0.0) if d == 2 \
            else homogeneous_drift(1.0, d)
        problem = manufactured_problem(field, "inner_bump")
        lateral = [np.linspace(-2.0, 2.0, 7 + i) for i in range(d - 1)]
        grid = Grid(lateral + [2.0 * np.linspace(0.0, 1.0, 9) ** 2],
                    [0.0, 0.2, 0.5])
        nodes = grid.nodes()
        for fn in (problem.f, problem.g, problem.exact,
                   AnalyticFunction(d, 2.5)):
            want = np.stack([fn.value(t, nodes) for t in grid.times])
            got = np.stack([fn.on_grid(t, grid) for t in grid.times])
            assert np.array_equal(got, want)
            sampled = GridFunction.from_callable(grid, fn.grid_callable())
            assert np.array_equal(sampled.values.reshape(want.shape), want)
        assert np.array_equal(problem.f_values(0.2, grid),
                              problem.f.value(0.2, nodes))


class TestConvergence:
    def test_spatial_order_space_mode(self):
        study = convergence_study(
            homogeneous_drift(1.0), "inner_bump",
            [(9, 9, 4), (17, 17, 13)], t_final=0.5)
        assert study.order is not None and study.order >= 0.5
        assert "fitted order" in study.summary()

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
        assert "machine precision" in study.summary()
