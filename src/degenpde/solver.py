"""Finite-difference solver for the degenerate Cauchy problem.

Spatial discretization on the truncated box: second-order centered
differences for the height-weighted diffusion (three-point formulas that
stay second order on the graded axis), first-order upwinding for the
drift, and no equation modification at the bottom boundary: the diffusion
coefficient vanishes identically at height 0 and the inward drift is
differenced forward into the domain, which is exactly how the continuous
problem avoids needing a boundary condition there.  Lateral and top
truncation faces carry Dirichlet data, by default the initial condition
frozen in time; verification runs that know the exact solution may
request exact boundary values instead so artificial-boundary error does
not contaminate convergence measurements.  Everything of the stencil
that depends only on the grid (per-axis weights, upwind first-node
masks, Dirichlet rows, the offsets and the CSR pattern with its gather
index) is one plan, built on a grid's first assembly and kept on the
grid.  An assembly then evaluates a, b and c, adds each term's per-axis
three-point weights into the row of the offset they reach, and gathers
those rows into the CSR values, dropping zeros.

Each implicit step solves B u_new = rhs with B = I + theta dt A.  The
first B is factored with a sparse LU (scipy's splu, minimum-degree
ordering on the symmetric pattern of the 5-point stencil).  A step whose
B is the factored matrix, which is every step of a field that does not
depend on time, is one back-solve.  A step whose B differs runs BiCGStab,
preconditioned by the factored LU, for a small fixed number of
iterations, started from the polynomial through the last three (at the
second step two) solution slices at the new time; a time-dependent field
changes slowly, so on the 257^2 x 33 Heston benchmark with a moving mean
level every step takes one iteration.  Its iterations are counted as the
preconditioner's applications halved, rounded up, so that one stopped at
its half step counts.  If BiCGStab does not converge within that budget,
the step factors its own B and back-solves, and that LU
preconditions the steps that follow.  The true relative residual of
every step is stored; SolverError is raised on a non-finite solution
and on a back-solve whose residual exceeds rtol.  For theta = 1 every
system matrix is checked to be an M-matrix (nonpositive off-diagonal
entries, positive dominance margin); mixed second derivatives break the
sign condition, so runs with correlated diffusion must explicitly opt
out of certification.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sparse
import sympy as sp
from scipy.sparse.linalg import LinearOperator, bicgstab, splu

from .analytic import _TIME, AnalyticFunction, bump, space_symbols
from .grid import Grid, GridFunction


# BiCGStab iterations a step may spend, preconditioned by an LU of an
# earlier matrix, before it factors its own; at 257^2 twenty cost about
# as much as one factorization.
_PRECONDITIONED_ITERATIONS = 20

# Weights of the last two or three slices (oldest first) in the
# polynomial through them at the next time: BiCGStab's starting guess.
# BiCGStab runs from the second step on, once the first B is factored.
_EXTRAPOLATION = ((-1.0, 2.0), (1.0, -3.0, 3.0))

# Boundary data on the truncation faces, refinement modes of a convergence
# study, and the exact solutions of `manufactured_solution`.
BOUNDARIES = ("frozen", "exact")
CONVERGENCE_MODES = ("space", "time")
MANUFACTURED_KINDS = ("constant", "affine_height", "inner_bump")


class SolverError(RuntimeError):
    pass


class CertificateError(SolverError):
    pass


@dataclass
class CauchyProblem:
    """Data (f, g) for L u = f, u(0, .) = g, on a coefficient field.

    f and g may be any object with d, value(t, x) and on_grid(t, grid),
    which is all that solve_cauchy and the data checks use; the
    randomized suites pass numpy-evaluated data, not AnalyticFunctions.
    """

    field: object
    f: AnalyticFunction | None
    g: AnalyticFunction
    exact: AnalyticFunction | None = None
    name: str = "problem"

    def __post_init__(self):
        for fn in (self.f, self.g, self.exact):
            if fn is not None and fn.d != self.field.d:
                raise ValueError("data dimension does not match field")

    def f_values(self, t, grid):
        """f at time t at every node of grid, in grid.nodes() order."""
        if self.f is None:
            return np.zeros(int(np.prod(grid.shape)))
        return self.f.on_grid(float(t), grid)


@dataclass
class MonotonicityCertificate:
    """M-matrix check of one implicit system matrix."""

    passed: bool
    offdiag_max: float
    margin_min: float
    offending_node: tuple | None
    detail: str

    def require(self):
        if not self.passed:
            raise CertificateError(
                "monotonicity certificate failed at node %s (%s); "
                "reduce the time step, refine the grid, or solve with "
                "certify=False" % (self.offending_node, self.detail))


def _axis_weights(x):
    """Three-point weights (below, at, above) of one axis at every node.

    Returns the second, centered first, forward and backward differences
    on the nodes x, each of shape (3, len(x)).  The second and centered
    differences vanish at both end nodes, the forward difference at the
    last and the backward difference at the first: a weight whose
    neighbour lies off the axis is 0.
    """
    h = np.diff(x)
    hm, hp = h[:-1], h[1:]
    second, first, forward, backward = np.zeros((4, 3, len(x)))
    second[:, 1:-1] = [2.0 / (hm * (hm + hp)), -2.0 / (hm * hp),
                       2.0 / (hp * (hm + hp))]
    first[:, 1:-1] = [-hp / (hm * (hm + hp)), (hp - hm) / (hm * hp),
                      hm / (hp * (hm + hp))]
    forward[1:, :-1] = [-1.0 / h, 1.0 / h]
    backward[:2, 1:] = [-1.0 / h, 1.0 / h]
    return second, first, forward, backward


class _StencilPlan:
    """Everything of the operator's stencil that depends only on the grid.

    Built on a grid's first assembly and kept on it.  The per-axis weights
    and first-node masks are shaped to broadcast against arrays of the
    grid's shape.  Assembly fills an (offsets x N) array, one row per
    stencil offset (a sum of +-stride over at most two axes, ascending),
    and `gather` takes it into the stencil's CSR pattern: each free node
    and its in-grid neighbours in the row of each free node.  Rows of
    Dirichlet nodes hold nothing.
    """

    def __init__(self, grid):
        d, shape = grid.d, grid.shape
        N = int(np.prod(shape))

        def along(i, v):
            """v over axis i (last dimension), broadcast to the grid."""
            return v.reshape(v.shape[:-1] + tuple(
                n if j == i else 1 for j, n in enumerate(shape)))

        self.N = N
        self.strides = [int(np.prod(shape[i + 1:])) for i in range(d)]
        self.nodes = grid.nodes()
        self.height = along(d - 1, grid.axes[-1])
        self.dir_flat = grid.dirichlet_mask().ravel()
        self.dir_flat.flags.writeable = False  # handed to callers
        self.weights = [[along(i, w) for w in _axis_weights(ax)]
                        for i, ax in enumerate(grid.axes)]
        self.first_node = [along(i, np.arange(n) == 0)
                           for i, n in enumerate(shape)]
        steps = sorted((s for s in itertools.product((-1, 0, 1), repeat=d)
                        if np.count_nonzero(s) <= 2),
                       key=lambda s: np.dot(s, self.strides))
        self.offsets = np.array([np.dot(s, self.strides) for s in steps])
        self.slot = {int(o): k for k, o in enumerate(self.offsets)}
        valid = []  # per offset: a free node whose neighbour is in the grid
        for s in steps:
            ok = ~self.dir_flat.reshape(shape)
            for i, (si, n) in enumerate(zip(s, shape)):
                ok = ok & along(i, (np.arange(n) + si >= 0)
                                & (np.arange(n) + si < n))
            valid.append(ok.ravel())
        # (node, offset) in row-major order is the CSR order; int32
        # indices hold any grid whose pattern fits in memory
        valid = np.array(valid)
        entries = np.flatnonzero(valid.T)
        node = entries // len(steps)
        k = entries - len(steps) * node
        self.gather = k * N + node
        self.indices = (node + self.offsets[k]).astype(np.int32)
        self.indptr = np.concatenate(
            ([0], np.cumsum(valid.sum(axis=0)))).astype(np.int32)


def discretize_operator(field, grid, t):
    """Assemble the spatial operator A at time t as a CSR matrix.

    Each neighbour offset of the stencil is one row of the plan's value
    array, summed from per-axis weights and gathered into CSR; zero
    weights are dropped.  Rows of truncation (Dirichlet) nodes are left
    empty; the implicit matrix I + theta dt A therefore has identity rows
    there.  Returns (A, flat Dirichlet mask); the mask is the plan's and
    read-only.
    """
    plan = grid._stencil
    if plan is None:
        plan = grid._stencil = _StencilPlan(grid)
    shape = grid.shape
    t_arr = np.full(plan.N, float(t))
    a_vals, b_vals, c_vals = (coef(t_arr, plan.nodes)
                              for coef in (field.a, field.b, field.c))
    a_vals = a_vals.reshape(shape + a_vals.shape[1:])
    b_vals = b_vals.reshape(shape + b_vals.shape[1:])

    # row k: weight of the neighbour at offsets[k] in every row of
    # x_d a:D^2 + b.grad + c, before the sign flip to A
    values = np.zeros((len(plan.offsets),) + shape)
    for i in range(grid.d):
        second, first, forward, backward = plan.weights[i]
        beta = b_vals[..., i]
        # upwinded drift; the first node differences forward whatever the
        # sign of the drift, so the bottom row reaches into the domain
        up = (beta > 0) | plan.first_node[i]
        stencil = (plan.height * a_vals[..., i, i] * second
                   + beta * np.where(up, forward, backward))
        for s in (-1, 0, 1):
            values[plan.slot[s * plan.strides[i]]] += stencil[s + 1]
        # mixed second derivatives as products of centered first
        # differences; both signs appear among the weights, which is what
        # breaks the M-matrix property when a_ij != 0.  A zero a_ij adds
        # only zeros.
        for j in range(i + 1, grid.d):
            kappa = plan.height * a_vals[..., i, j]
            if not np.any(kappa):
                continue
            for si in (-1, 0, 1):
                for sj in (-1, 0, 1):
                    values[plan.slot[si * plan.strides[i]
                                     + sj * plan.strides[j]]] += (
                        2.0 * kappa * first[si + 1]
                        * plan.weights[j][1][sj + 1])
    values = values.reshape(len(plan.offsets), plan.N)
    values[plan.slot[0]] += c_vals
    data = values.ravel()[plan.gather]
    # the plan's index arrays are copied, since dropping zeros edits them
    A = sparse.csr_matrix((np.negative(data, out=data), plan.indices.copy(),
                           plan.indptr.copy()), shape=(plan.N, plan.N))
    A.eliminate_zeros()
    return A, plan.dir_flat


def monotonicity_certificate(B, grid):
    """Check that the implicit matrix B = I + theta dt A (CSR) is an
    M-matrix candidate.

    Requires every off-diagonal entry nonpositive and a positive
    dominance margin diag - sum|offdiag| in every row.  The off-diagonal
    entries are read from B's CSR arrays; explicit zeros are skipped.
    """
    N = B.shape[0]
    rows = np.repeat(np.arange(N), np.diff(B.indptr))
    off = (B.indices != rows) & (B.data != 0.0)
    off_rows, off_vals = rows[off], B.data[off]
    scale = max(1.0, float(np.max(np.abs(B.data))) if B.nnz else 1.0)
    tol = 1e-12 * scale
    offdiag_max = float(off_vals.max()) if off_vals.size else 0.0
    diag = B.diagonal()
    margin = diag - np.bincount(off_rows, weights=np.abs(off_vals),
                                minlength=N)
    margin_min = float(np.min(margin))
    passed = offdiag_max <= tol and margin_min > 0.0
    node = None
    detail = "ok"
    if not passed:
        if offdiag_max > tol:
            row = int(off_rows[np.argmax(off_vals)])
            detail = "positive off-diagonal entry %.3g" % offdiag_max
        else:
            row = int(np.argmin(margin))
            detail = "nonpositive dominance margin %.3g" % margin_min
        node = np.unravel_index(row, grid.shape)
    return MonotonicityCertificate(passed, offdiag_max, margin_min, node,
                                   detail)


@dataclass
class SolveReport:
    theta: float
    rtol: float
    certificate: MonotonicityCertificate | None
    steps: list = dc_field(default_factory=list)
    wall_time: float = 0.0

    def max_residual(self):
        return max((s[2] for s in self.steps), default=0.0)


def _theta_steps(field, grid, theta):
    """Yield (n, A_old, A_new) for each step t_n -> t_{n+1}.

    A_new = A(t_{n+1}) is the implicit matrix and A_old = A(t_n) the
    explicit one.  A field that does not depend on time is assembled
    once and that one matrix object is yielded as both, at every step.
    For a time-dependent field at theta = 1 the explicit part vanishes,
    so A_old is None and A(t_0) is never assembled.  This is the one
    stepping loop of the theta-scheme: solve_cauchy and
    apply_discrete_operator both consume it.
    """
    if not field.time_dependent:
        A, _ = discretize_operator(field, grid, grid.times[0])
        for n in range(grid.n_t - 1):
            yield n, A, A
        return
    A_old = None
    if theta != 1.0:
        A_old, _ = discretize_operator(field, grid, grid.times[0])
    for n in range(grid.n_t - 1):
        A_new, _ = discretize_operator(field, grid, grid.times[n + 1])
        yield n, A_old, A_new
        if theta != 1.0:
            A_old = A_new


def _factor(B):
    """Sparse LU of B, ordered for the symmetric pattern of the stencil.

    Minimum degree on A^T + A with a relaxed diagonal pivot threshold
    keeps the fill of the 5-point pattern at half of COLAMD's.
    """
    return splu(B.tocsc(), permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.01, options=dict(SymmetricMode=True))


def _preconditioned_bicgstab(B, rhs, x0, lu, rtol):
    """BiCGStab on B from x0, preconditioned by lu, within the budget.

    Returns (x, info, iterations); info != 0 means not converged.  An
    iteration applies the preconditioner twice and may stop after the
    first, so iterations counts its applications halved, rounded up.
    """
    solves = [0]

    def precondition(r):
        solves[0] += 1
        return lu.solve(r)

    precond = LinearOperator(B.shape, matvec=precondition, dtype=float)
    x, info = bicgstab(B, rhs, x0=x0, rtol=rtol, atol=0.0,
                       maxiter=_PRECONDITIONED_ITERATIONS, M=precond)
    return x, info, (solves[0] + 1) // 2


def solve_cauchy(problem, grid, theta=1.0, certify=None, boundary="frozen",
                 rtol=1e-10):
    """March the theta-scheme over the grid; returns (u, SolveReport).

    certify defaults to True for theta = 1 and raises on certificate
    failure; pass certify=False to run uncertified (needed for fields
    with mixed second derivatives).  boundary is 'frozen' (initial data
    held fixed on the truncation faces) or 'exact' (sample
    problem.exact there each step).
    """
    if certify is None:
        certify = theta == 1.0
    if boundary not in BOUNDARIES:
        raise ValueError("boundary must be one of %s" % (BOUNDARIES,))
    if boundary == "exact" and problem.exact is None:
        raise ValueError("exact boundary values need problem.exact")
    start = time.perf_counter()
    field = problem.field
    N = int(np.prod(grid.shape))
    dt = grid.dt
    if np.max(np.abs(np.diff(grid.times) - dt)) > 1e-12 * max(dt, 1.0):
        raise ValueError("time axis must be uniform")

    u = problem.g.on_grid(0.0, grid)
    dir_flat = grid.dirichlet_mask().ravel()
    dir_nodes = grid.nodes()[dir_flat]
    eye = sparse.eye(N, format="csr")

    report = SolveReport(theta, rtol, None)

    values = np.empty((grid.n_t, N))
    values[0] = u

    A_prev = lu = factored = None
    f_new = problem.f_values(grid.times[0], grid)
    f_new[dir_flat] = 0.0
    for n, A_old, A_new in _theta_steps(field, grid, theta):
        t_new = grid.times[n + 1]
        if A_new is not A_prev:
            A_prev = A_new
            B = (eye + (theta * dt) * A_new).tocsr()
            if certify:
                cert = monotonicity_certificate(B, grid)
                cert.require()
                report.certificate = cert
            if lu is None:
                lu, factored = _factor(B), B
        f_old = f_new
        f_new = problem.f_values(t_new, grid)
        f_new[dir_flat] = 0.0
        rhs = u + dt * (theta * f_new + (1.0 - theta) * f_old)
        if theta != 1.0:
            rhs -= (1.0 - theta) * dt * (A_old @ u)
        if boundary == "frozen":
            rhs[dir_flat] = u[dir_flat]
        else:
            rhs[dir_flat] = problem.exact.value(float(t_new), dir_nodes)
        if np.linalg.norm(rhs) == 0.0:
            u = np.zeros(N)
            report.steps.append((n + 1, 0, 0.0))
        else:
            if B is not factored:
                past = values[max(n - 2, 0):n + 1]
                x0 = np.dot(_EXTRAPOLATION[len(past) - 2], past)
                x, info, iters = _preconditioned_bicgstab(B, rhs, x0, lu,
                                                          rtol)
                if info != 0:
                    lu, factored = _factor(B), B
            back_solve = B is factored
            if back_solve:
                x, iters = lu.solve(rhs), 1
            res = float(np.linalg.norm(B @ x - rhs) / np.linalg.norm(rhs))
            if (not np.all(np.isfinite(x))
                    or (back_solve and not res <= rtol)):
                raise SolverError(
                    "linear solve failed at step %d (rel residual %.3g "
                    "after %d %s)"
                    % (n + 1, res, iters,
                       "back-solve" if back_solve else "iterations"))
            u = x
            report.steps.append((n + 1, iters, res))
        values[n + 1] = u

    report.wall_time = time.perf_counter() - start
    out = GridFunction(grid, values.reshape((grid.n_t,) + grid.shape))
    return out, report


def apply_discrete_operator(w, field, theta=1.0):
    """Discrete L applied to a grid function.

    Returns an array of shape (n_t - 1, *spatial) holding
    (w_new - w_old)/dt + theta A^{n+1} w_new + (1-theta) A^n w_old at free
    nodes and NaN at truncation nodes, with the matrices solve_cauchy
    steps with.
    """
    grid = w.grid
    N = int(np.prod(grid.shape))
    dt = grid.dt
    flat = w.values.reshape(grid.n_t, N)
    out = np.full((grid.n_t - 1, N), np.nan)
    free = ~grid.dirichlet_mask().ravel()
    for n, A_old, A_new in _theta_steps(field, grid, theta):
        lw = (flat[n + 1] - flat[n]) / dt + theta * (A_new @ flat[n + 1])
        if theta != 1.0:
            lw += (1.0 - theta) * (A_old @ flat[n])
        out[n, free] = lw[free]
    return out.reshape((grid.n_t - 1,) + grid.shape)


def manufactured_solution(field, kind, x_extent=2.0, height=2.0):
    """Registered exact solutions for convergence and round-trip studies.

    'constant'      u = 1, exact at any resolution;
    'affine_height' u = e^-t (1 + height coordinate), spatially exact so
                    only the time error is visible;
    'inner_bump'    u = 1 + e^-t * product bump supported strictly inside
                    the lateral and top faces (so frozen boundary data are
                    exact) and touching the bottom boundary.
    """
    d = field.d
    syms = space_symbols(d)
    if kind == "constant":
        expr = sp.Integer(1)
    elif kind == "affine_height":
        expr = sp.exp(-_TIME) * (1 + syms[-1])
    elif kind == "inner_bump":
        prof = bump(d, [0.0] * (d - 1) + [0.0],
                    [0.6 * x_extent] * (d - 1) + [0.6 * height])
        expr = 1 + sp.exp(-_TIME) * prof.expr
    else:
        raise ValueError("manufactured kind must be one of %s"
                         % (MANUFACTURED_KINDS,))
    return AnalyticFunction(d, expr)


def operator_apply(field, u):
    """f = L u computed symbolically from a field and analytic function."""
    d = field.d
    syms = space_symbols(d)
    lap = sp.Integer(0)
    for i in range(d):
        for j in range(d):
            lap += field.a_sym[i, j] * sp.diff(u.expr, syms[i], syms[j])
    drift = sum(field.b_sym[i] * sp.diff(u.expr, syms[i]) for i in range(d))
    f_expr = (sp.diff(u.expr, _TIME) - syms[-1] * lap - drift
              - field.c_sym * u.expr)
    return AnalyticFunction(d, f_expr)


def manufactured_problem(field, kind, x_extent=2.0, height=2.0):
    """Cauchy problem whose exact solution is the registered member.

    The right side is built symbolically, f = L u, so its values and the
    initial data are exact.
    """
    u = manufactured_solution(field, kind, x_extent, height)
    f = operator_apply(field, u)
    g = AnalyticFunction(field.d, u.expr.subs(_TIME, 0))
    return CauchyProblem(field, f, g, exact=u,
                         name="mms-%s-%s" % (field.name, kind))


@dataclass
class ConvergenceStudy:
    mode: str
    rows: list
    order: float | None

    def summary(self):
        lines = ["convergence (%s refinement)" % self.mode,
                 "  %-12s %-12s %-16s" % ("h", "dt", "sup error")]
        for h, dt, err in self.rows:
            lines.append("  %-12.6g %-12.6g %-16.10g" % (h, dt, err))
        if self.order is None:
            lines.append("  order fit skipped (errors at machine precision)")
        else:
            lines.append("  fitted order: %.4f" % self.order)
        return "\n".join(lines)


def convergence_study(field, kind, ladder, x_extent=2.0, height=2.0,
                      t_final=1.0, theta=1.0, mode="space",
                      boundary="frozen", grading="quadratic",
                      certify=None):
    """Solve the manufactured problem across a grid ladder and fit order.

    ladder is a list of (n_lateral, n_height, n_slices).  The error is
    the sup over the audited region and all time slices; the order is the
    least-squares slope of log error against log h (mode 'space', h the
    largest spatial spacing) or log dt (mode 'time').
    """
    if mode not in CONVERGENCE_MODES:
        raise ValueError("mode must be one of %s" % (CONVERGENCE_MODES,))
    problem = manufactured_problem(field, kind, x_extent, height)
    rows = []
    for n_lat, n_h, n_sl in ladder:
        grid = Grid.build(field.d, x_extent, height, n_lat, n_h, t_final,
                          n_sl, grading=grading)
        u, _ = solve_cauchy(problem, grid, theta=theta, boundary=boundary,
                            certify=certify)
        exact = GridFunction.from_callable(grid,
                                           problem.exact.grid_callable())
        mask = grid.audited_mask()
        err = float(np.max(np.abs(u.values - exact.values)[:, mask]))
        rows.append((grid.max_spacing(), grid.dt, err))
    errs = np.array([r[2] for r in rows])
    if np.max(errs) < 1e-13:
        order = None
    else:
        xs = np.log([r[0] if mode == "space" else r[1] for r in rows])
        order = float(np.polyfit(xs, np.log(np.maximum(errs, 1e-300)),
                                 1)[0])
    return ConvergenceStudy(mode, rows, order)
