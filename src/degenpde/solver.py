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
masks, Dirichlet rows, the offsets, the CSR pattern with its gather
index and the identity) is one plan, built on a grid's first assembly
and kept on the grid.  An assembly then evaluates each entry of a, b
and c on the plan's sparse axes, adds each term's per-axis three-point
weights into the row of the offset they reach, and gathers those rows
into the CSR values, dropping zeros.

Each implicit step solves B u_new = rhs with B = I + theta dt A.  The
first B is factored with a sparse LU (scipy's splu, minimum-degree
ordering on the symmetric pattern of the 5-point stencil, panels of one
column).  A step whose B is the factored matrix, which is every step of
a field that does not depend on time, is one back-solve.  A step whose
B differs runs BiCGStab, preconditioned by the factored LU, for a small
fixed number of iterations, started from the polynomial through the
last three (at the second step two) solution slices at the new time; a
time-dependent field changes slowly, so on the 257^2 x 33 Heston
benchmark with a moving mean level every step takes one iteration.  Its
iterations are counted as the preconditioner's applications halved,
rounded up, so that one stopped at its half step counts.  If BiCGStab
does not converge within that budget, the step factors its own B and
back-solves, and that LU preconditions the steps that follow.  The true relative residual of
every step is stored; SolverError is raised on a non-finite solution
and on a back-solve whose residual exceeds RTOL.  A certified solve
checks every system matrix B to be an M-matrix (nonpositive off-diagonal
entries, positive dominance margin), and at theta < 1 also checks the
explicit matrix E = I - (1 - theta) dt A, which the step applies to the
old slice, to have no negative entry: together they make each step map
nonnegative data to a nonnegative solution.  Certification is on by
default at theta = 1 only; at theta < 1 E's diagonal turns negative once
dt exceeds the inverse of (1 - theta) A_ii, and mixed second derivatives
break the sign conditions at any theta, so runs with correlated
diffusion must explicitly opt out of certification.

One generator, _steps, walks the steps for solve_cauchy and for
apply_discrete_operator alike, so the residual operator applies the
matrices the solve steps with.  It yields each step's system: A at the
new time, B = I + theta dt A, and B's certificate and LU, each of the
last two made on first use.  A system depends on the time but not on
the solution.  For a time-dependent field, which gets a new system each
step, one worker thread therefore builds and certifies each step's
system one step ahead: the first while the calling thread evaluates g,
f and the exact faces, each later one while the current step factors,
back-solves or iterates; numpy's kernels and SuperLU release the GIL,
so the two overlap.  It is the only thread: a field that does not
depend on time has one system, made on the calling thread.  The
arithmetic and its order are those of a serial solve, so the solution
is the same to the bit, and a failed certificate of step k is raised
once steps before k are solved.  The thread lives only as long as the
call to solve_cauchy.

That one system is kept on the grid's stencil plan, keyed by the field
object and theta, and yielded at every step.  A later solve_cauchy or
apply_discrete_operator with the same field and theta on that grid
reuses its A, B, certificate and LU (the operator applies A to every
slice in one sparse product), so the randomized suites, which solve one
field twice and apply its operator to both solutions, assemble and
factor once per field.  The plan keeps one system: another field, or
another theta, replaces it.  A time-dependent field neither reads nor
replaces it.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import LinearOperator, bicgstab, splu

from .analytic import (AnalyticFunction, affine, axis_weights,
                       bump, constant, profile)
from .grid import Grid, GridFunction


# BiCGStab iterations a step may spend, preconditioned by an LU of an
# earlier matrix, before it factors its own; at 257^2 twenty cost about
# as much as one factorization.
_PRECONDITIONED_ITERATIONS = 20

# Relative residual every step's linear solve must reach.
RTOL = 1e-10

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

    f, g and exact are AnalyticFunctions, built in numpy or parsed from
    text; a manufactured f is operator_apply's L u.  f = None is the
    zero function.
    """

    field: object
    f: AnalyticFunction | None
    g: AnalyticFunction
    exact: AnalyticFunction | None = None

    def __post_init__(self):
        if self.f is None:
            self.f = AnalyticFunction(self.field.d)
        for fn in (self.f, self.g, self.exact):
            if fn is not None and fn.d != self.field.d:
                raise ValueError("data dimension does not match field")


@dataclass
class MonotonicityCertificate:
    """M-matrix check of one implicit system matrix B and, at theta < 1,
    of the sign of the explicit matrix E (explicit_min is None at
    theta = 1, where E = I)."""

    passed: bool
    offdiag_max: float
    margin_min: float
    explicit_min: float | None
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

    Built on a grid's first assembly and kept on it.  The sparse mesh,
    whose last axis is the height factor, the per-axis weights and the
    first-node masks broadcast against arrays of the grid's shape.
    Assembly fills an (offsets x N) array, one row per stencil offset (a
    sum of +-stride over at most two axes, ascending), and `gather` takes
    it into the stencil's CSR pattern: each free node and its in-grid
    neighbours in the row of each free node.  Rows of Dirichlet nodes
    hold nothing.  `eye` is the grid's one identity, which every B and E
    adds to.  `stepped` is the _System of a field that does not depend
    on time kept on the grid, or None.
    """

    def __init__(self, grid):
        d, shape = grid.d, grid.shape
        N = int(np.prod(shape))
        self.stepped = None

        def along(i, v):
            """v over axis i (last dimension), broadcast to the grid."""
            return v.reshape(v.shape[:-1] + tuple(
                n if j == i else 1 for j, n in enumerate(shape)))

        self.N = N
        self.eye = sparse.eye(N, format="csr")
        self.strides = [int(np.prod(shape[i + 1:])) for i in range(d)]
        self.mesh = grid.meshes(sparse=True)
        self.dir_flat = grid.dirichlet_mask().ravel()
        self.dir_flat.flags.writeable = False  # handed to callers
        self.weights = [[along(i, w) for w in _axis_weights(ax)]
                        for i, ax in enumerate(grid.axes)]
        self.first_node = [m == ax[0] for m, ax in zip(self.mesh, grid.axes)]
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


def _plan(grid):
    """The grid's stencil plan, built on its first use."""
    if grid._stencil is None:
        grid._stencil = _StencilPlan(grid)
    return grid._stencil


def discretize_operator(field, grid, t):
    """Assemble the spatial operator A at time t as a CSR matrix.

    Each entry of a (i <= j), b and c is read with AnalyticFunction.raw
    on the plan's sparse mesh, so a constant stays a number and an entry
    in x_d alone one row.  Each neighbour offset of the stencil is one
    row of the plan's value array, summed from per-axis weights and
    gathered into CSR; zero weights are dropped.  Rows of truncation
    (Dirichlet) nodes are left empty; the implicit matrix I + theta dt A
    therefore has identity rows there.  Returns (A, flat Dirichlet mask);
    the mask is the plan's and read-only.
    """
    plan = _plan(grid)
    t, mesh = np.asarray(t, dtype=float), plan.mesh

    # row k: weight of the neighbour at offsets[k] in every row of
    # x_d a:D^2 + b.grad + c, before the sign flip to A
    values = np.zeros((len(plan.offsets),) + grid.shape)
    for i in range(grid.d):
        second, first, forward, backward = plan.weights[i]
        beta = field.b_fns[i].raw(t, mesh)
        # upwinded drift; the first node differences forward whatever the
        # sign of the drift, so the bottom row reaches into the domain
        up = (beta > 0) | plan.first_node[i]
        stencil = (mesh[-1] * field.a_fns[i][i].raw(t, mesh) * second
                   + beta * np.where(up, forward, backward))
        for s in (-1, 0, 1):
            values[plan.slot[s * plan.strides[i]]] += stencil[s + 1]
        # mixed second derivatives as products of centered first
        # differences; both signs appear among the weights, which is what
        # breaks the M-matrix property when a_ij != 0.  A zero a_ij adds
        # only zeros.
        for j in range(i + 1, grid.d):
            kappa = mesh[-1] * field.a_fns[i][j].raw(t, mesh)
            if not np.any(kappa):
                continue
            for si in (-1, 0, 1):
                for sj in (-1, 0, 1):
                    values[plan.slot[si * plan.strides[i]
                                     + sj * plan.strides[j]]] += (
                        2.0 * kappa * first[si + 1]
                        * plan.weights[j][1][sj + 1])
    values[plan.slot[0]] += field.c_fn.raw(t, mesh)
    data = values.ravel()[plan.gather]
    # the plan's index arrays are copied, since dropping zeros edits them
    A = sparse.csr_matrix((np.negative(data, out=data), plan.indices.copy(),
                           plan.indptr.copy()), shape=(plan.N, plan.N))
    A.eliminate_zeros()
    return A, plan.dir_flat


def _tolerance(M):
    """Round-off allowance on the signs of M's entries."""
    return 1e-12 * max(1.0, float(np.max(np.abs(M.data))) if M.nnz else 1.0)


def monotonicity_certificate(B, grid, explicit=None):
    """Check that the implicit matrix B = I + theta dt A (CSR) is an
    M-matrix candidate, and that the explicit matrix E = I - (1 - theta)
    dt A_old (CSR, given at theta < 1) has no negative entry.

    B must have every off-diagonal entry nonpositive and a positive
    dominance margin diag - sum|offdiag| in every row.  The off-diagonal
    entries are read from B's CSR arrays; explicit zeros are skipped.
    Then B^-1 >= 0, and with E >= 0 a step maps nonnegative data to a
    nonnegative solution; at theta = 0, where B = I, the whole check is
    on E.  E's least stored entry is reported as explicit_min.  A stored
    entry of B or E that is not finite fails the check at its row.
    """
    N = B.shape[0]
    rows = np.repeat(np.arange(N), np.diff(B.indptr))
    off = (B.indices != rows) & (B.data != 0.0)
    off_rows, off_vals = rows[off], B.data[off]
    tol = _tolerance(B)
    offdiag_max = float(off_vals.max()) if off_vals.size else 0.0
    diag = B.diagonal()
    margin = diag - np.bincount(off_rows, weights=np.abs(off_vals),
                                minlength=N)
    margin_min = float(np.min(margin))
    explicit_min = None if explicit is None else float(explicit.data.min())
    explicit_ok = explicit_min is None or explicit_min >= -_tolerance(explicit)
    bad = [M for M in (B, explicit)
           if M is not None and not np.isfinite(M.data).all()]
    passed = not bad and offdiag_max <= tol and margin_min > 0.0 \
        and explicit_ok
    node = None
    detail = "ok"
    if not passed:
        if bad:
            k = int(np.argmin(np.isfinite(bad[0].data)))
            row = int(np.searchsorted(bad[0].indptr, k, "right")) - 1
            detail = "non-finite entry %s" % bad[0].data[k]
        elif offdiag_max > tol:
            row = int(off_rows[np.argmax(off_vals)])
            detail = "positive off-diagonal entry %.3g" % offdiag_max
        elif margin_min <= 0.0:
            row = int(np.argmin(margin))
            detail = "nonpositive dominance margin %.3g" % margin_min
        else:
            row = int(np.searchsorted(explicit.indptr,
                                      np.argmin(explicit.data), "right")) - 1
            detail = "negative explicit entry %.3g" % explicit_min
        node = tuple(map(int, np.unravel_index(row, grid.shape)))
    return MonotonicityCertificate(passed, offdiag_max, margin_min,
                                   explicit_min, node, detail)


@dataclass
class SolveReport:
    certificate: MonotonicityCertificate | None
    steps: list = dc_field(default_factory=list)

    def max_residual(self):
        return max((s[2] for s in self.steps), default=0.0)


def _uniform_dt(grid):
    """grid.dt; a time axis that is not uniform is a ValueError."""
    dt = grid.dt
    if np.max(np.abs(np.diff(grid.times) - dt)) > 1e-12 * max(dt, 1.0):
        raise ValueError("time axis must be uniform")
    return dt


def _certify(B, A_old, theta, grid):
    """Certificate of B and, at theta < 1, of E = I - (1 - theta) dt
    A_old; a CertificateError if it fails."""
    E = None if theta == 1.0 else (
        _plan(grid).eye - ((1.0 - theta) * grid.dt) * A_old).tocsr()
    cert = monotonicity_certificate(B, grid, explicit=E)
    cert.require()
    return cert


class _System:
    """One step's system on a grid: A = A(t), B = I + theta dt A with
    the plan's identity, and B's certificate and LU, None until a step
    makes them."""

    def __init__(self, field, grid, theta, t):
        self.field, self.theta = field, theta
        self.A, _ = discretize_operator(field, grid, t)
        self.B = (_plan(grid).eye + (theta * grid.dt) * self.A).tocsr()
        self.certificate = self.lu = None


def _steps(field, grid, theta, certify=False):
    """Yield (n, A_old, system) for each step t_n -> t_{n+1}.

    system is the _System of t_{n+1}, the implicit one, and A_old = A(t_n)
    the explicit matrix; at theta = 1 the explicit part vanishes, so A_old
    is None and A(t_0) is never assembled.  A field that does not depend
    on time yields its kept system, plan.stepped, at every step: built,
    in place of the one kept, unless the one kept is of this field object
    and theta.  A time-dependent field gets a new system each step.  With
    certify, a system's certificate of B and, at theta < 1, of
    E = I - (1 - theta) dt A_old is made the first time the system is
    used, and a failed one raises CertificateError instead of yielding
    its step.  It steps with grid.dt, so a time axis that is not uniform
    is a ValueError.
    """
    _uniform_dt(grid)
    plan = _plan(grid)
    kept = None
    if not field.time_dependent:
        kept = plan.stepped
        if kept is None or kept.field is not field or kept.theta != theta:
            kept = plan.stepped = _System(field, grid, theta, grid.times[0])
    A_old = None
    if theta != 1.0:
        A_old = kept.A if kept else discretize_operator(
            field, grid, grid.times[0])[0]
    for n in range(grid.n_t - 1):
        system = kept or _System(field, grid, theta, grid.times[n + 1])
        if certify and system.certificate is None:
            system.certificate = _certify(system.B, A_old, theta, grid)
        yield n, A_old, system
        if theta != 1.0:
            A_old = system.A


def _one_ahead(items, pool):
    """The items of the iterator items, each computed on pool's one
    thread while the caller works on the item before; the first is
    submitted before this returns.

    An exception of items is raised at the item it belongs to.  The
    caller shuts pool down, which waits for the item in flight.
    """
    def ahead(future):
        while (item := future.result()) is not None:
            future = pool.submit(next, items, None)
            yield item

    return ahead(pool.submit(next, items, None))


def _factor(B):
    """Sparse LU of B, ordered for the symmetric pattern of the stencil.

    Minimum degree on A^T + A with a relaxed diagonal pivot threshold
    keeps the fill of the 5-point pattern at half of COLAMD's.  SuperLU
    updates panels of one column instead of its default width: the
    ordering, the fill and the back-solves stay as they are, and the
    factorization is faster.
    """
    return splu(B.tocsc(), permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.01, panel_size=1,
                options=dict(SymmetricMode=True))


def _preconditioned_bicgstab(B, rhs, x0, lu):
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
    x, info = bicgstab(B, rhs, x0=x0, rtol=RTOL, atol=0.0,
                       maxiter=_PRECONDITIONED_ITERATIONS, M=precond)
    return x, info, (solves[0] + 1) // 2


def solve_cauchy(problem, grid, theta=1.0, certify=None, boundary="frozen"):
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
    field = problem.field
    N = int(np.prod(grid.shape))
    dt = grid.dt
    report = SolveReport(None)
    values = np.empty((grid.n_t, N))

    # the pool starts its thread at the first submit, so only a
    # time-dependent field, whose systems are built one ahead, starts one
    steps = _steps(field, grid, theta, certify)
    with ThreadPoolExecutor(1) as pool:
        if field.time_dependent:
            steps = _one_ahead(steps, pool)
        # the data, while the pool's thread builds the first system
        u = problem.g.on_grid(0.0, grid)
        dir_flat = grid.dirichlet_mask().ravel()
        f = problem.f.on_grid(grid.times, grid)
        f[:, dir_flat] = 0.0
        if boundary == "exact":
            faces = problem.exact.value(grid.times[:, None],
                                        grid.nodes()[dir_flat])
        values[0] = u
        lu = factored = None
        for n, A_old, system in steps:
            B = system.B
            if certify:
                report.certificate = system.certificate
            if lu is None:
                if system.lu is None:
                    system.lu = _factor(B)
                lu, factored = system.lu, B
            rhs = u + dt * (theta * f[n + 1] + (1.0 - theta) * f[n])
            if theta != 1.0:
                rhs -= (1.0 - theta) * dt * (A_old @ u)
            if boundary == "frozen":
                rhs[dir_flat] = u[dir_flat]
            else:
                rhs[dir_flat] = faces[n + 1]
            if np.linalg.norm(rhs) == 0.0:
                u = np.zeros(N)
                report.steps.append((n + 1, 0, 0.0))
            else:
                if B is not factored:
                    past = values[max(n - 2, 0):n + 1]
                    x0 = np.dot(_EXTRAPOLATION[len(past) - 2], past)
                    x, info, iters = _preconditioned_bicgstab(
                        B, rhs, x0, lu)
                    if info != 0:
                        lu, factored = _factor(B), B
                back_solve = B is factored
                if back_solve:
                    x, iters = lu.solve(rhs), 1
                res = float(np.linalg.norm(B @ x - rhs)
                            / np.linalg.norm(rhs))
                if (not np.all(np.isfinite(x))
                        or (back_solve and not res <= RTOL)):
                    raise SolverError(
                        "linear solve failed at step %d (rel residual %.3g "
                        "after %d %s)"
                        % (n + 1, res, iters,
                           "back-solve" if back_solve else "iterations"))
                u = x
                report.steps.append((n + 1, iters, res))
            values[n + 1] = u

    out = GridFunction(grid, values.reshape((grid.n_t,) + grid.shape))
    return out, report


def apply_discrete_operator(w, field, theta=1.0):
    """Discrete L applied to a grid function.

    Returns an array of shape (n_t - 1, *spatial) holding
    (w_new - w_old)/dt + theta A^{n+1} w_new + (1-theta) A^n w_old at free
    nodes and NaN at truncation nodes.  It walks solve_cauchy's _steps,
    so A^n and A^{n+1} are the matrices of the solve's steps.  A field
    that does not depend on time yields its kept system at every step,
    and its A is applied to every slice in one sparse product, whose rows
    sum in the order of one product per slice, so the values are the
    same to the bit.
    """
    grid = w.grid
    N = int(np.prod(grid.shape))
    dt = _uniform_dt(grid)
    flat = w.values.reshape(grid.n_t, N)
    steps = _steps(field, grid, theta)
    if field.time_dependent:
        new, old = np.empty((2, grid.n_t - 1, N))
        for n, A_old, system in steps:
            new[n] = system.A @ flat[n + 1]
            if theta != 1.0:
                old[n] = A_old @ flat[n]
    else:
        # every step yields the kept system: one product over all slices
        applied = (next(steps)[2].A @ flat.T).T
        new, old = applied[1:], applied[:-1]
    lw = np.diff(flat, axis=0) / dt + theta * new
    if theta != 1.0:
        lw += (1.0 - theta) * old
    lw[:, grid.dirichlet_mask().ravel()] = np.nan
    return lw.reshape((grid.n_t - 1,) + grid.shape)


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
    if kind not in MANUFACTURED_KINDS:
        raise ValueError("manufactured kind must be one of %s"
                         % (MANUFACTURED_KINDS,))
    one = constant(d, 1.0)
    if kind == "constant":
        return one
    decay = profile("exp", axis_weights(d, 0, -1.0))
    if kind == "affine_height":
        return decay * affine(axis_weights(d, d, 1.0), 1.0)
    return one + decay * bump(d, [0.0] * d, [0.6 * x_extent] * (d - 1)
                              + [0.6 * height])


def operator_apply(field, u):
    """f = L u for a field and an AnalyticFunction u, as an
    AnalyticFunction: the field's entries times u's exact derivatives.
    a is symmetric, so each mixed pair i < j enters once, with weight 2."""
    d = field.d
    height = affine(axis_weights(d, d, 1.0))
    rest = field.c_fn * u
    for i in range(d):
        rest = rest + field.b_fns[i] * u.derivative((1 + i,))
        for j in range(i, d):
            rest = rest + (1 if i == j else 2) * height \
                * field.a_fns[i][j] * u.derivative((1 + i, 1 + j))
    return u.derivative((0,)) + -1 * rest


def manufactured_problem(field, kind, x_extent=2.0, height=2.0):
    """Cauchy problem whose exact solution is the registered member.

    The right side is f = L u from u's exact derivatives, so its values
    and the initial data are exact.
    """
    u = manufactured_solution(field, kind, x_extent, height)
    return CauchyProblem(field, operator_apply(field, u), u.at_time(0.0),
                         exact=u)


@dataclass
class ConvergenceStudy:
    mode: str
    rows: list
    order: float | None


def convergence_study(field, kind, ladder, x_extent=2.0, height=2.0,
                      t_final=1.0, mode="space", grading="quadratic",
                      **solve):
    """Solve the manufactured problem across a grid ladder and fit order.

    ladder is a list of (n_lateral, n_height, n_slices); solve holds the
    keyword arguments of solve_cauchy for every rung.  The error is
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
        u, _ = solve_cauchy(problem, grid, **solve)
        exact = problem.exact.on_grid(grid.times, grid)
        err = float(np.max(np.abs(u.values.reshape(exact.shape) - exact)[
            :, grid.audited_mask().ravel()]))
        rows.append((grid.max_spacing(), grid.dt, err))
    errs = np.array([r[2] for r in rows])
    if np.max(errs) < 1e-13:
        order = None
    else:
        xs = np.log([r[0] if mode == "space" else r[1] for r in rows])
        order = float(np.polyfit(xs, np.log(np.maximum(errs, 1e-300)),
                                 1)[0])
    return ConvergenceStudy(mode, rows, order)
