"""Quantitative checks of the solution theory on computed solutions.

Each check compares a measured quantity (lhs) against a bound (rhs) with
a declared slack factor and reports one row: the discrete maximum
principle and its comparison form, the unweighted and weighted a-priori
supremum estimates with their explicit supersolutions, strict positivity
of the boundary barrier residual, the interpolation inequalities with
fitted constants, stability of the Schauder ratio under refinement, and
the vanishing of the height-weighted Hessian at the degenerate boundary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .analytic import affine, axis_weights, bump, constant, profile
from .fields import constant_field, heston, homogeneous_drift
from .grid import Grid, GridFunction, Region
from .gridio import csv_text
from .metrics import (analytic_constituents, grid_constituents,
                      grid_point_set, holder_norm, order2_norm,
                      split_holder_norm)
from .reduction import build_reduction_plan
from .solver import (CauchyProblem, apply_discrete_operator,
                     manufactured_problem, solve_cauchy)

CHECK_CSV_COLUMNS = ("check", "anchor", "lhs", "rhs", "slack", "pass")


@dataclass
class CheckResult:
    """Outcome of one verification check; one CSV row."""

    check: str
    anchor: str
    lhs: float
    rhs: float
    slack: float
    passed: bool
    detail: str = ""

    def line(self):
        return ("[%s] %-34s lhs=%.6g rhs=%.6g slack=%.3g %s"
                % ("pass" if self.passed else "FAIL", self.check,
                   self.lhs, self.rhs, self.slack,
                   self.detail and "(%s)" % self.detail or ""))


def checks_to_csv(results):
    return csv_text(CHECK_CSV_COLUMNS, [
        (r.check, r.anchor, float(r.lhs), float(r.rhs), float(r.slack),
         "pass" if r.passed else "fail") for r in results])


# ---------------------------------------------------------------------------
# explicit supersolutions

def check_quadratic_supersolution(field, seed=0):
    """(L + lambda) h >= 0 for h = 1 + |x|^2 at 4000 points sampled from
    Region.sampling_box, with lambda = 3K.

    Uses exact derivatives of h: L h = -2 x_d tr(a) - 2 x.b - c h, so the
    residual is (lambda - c) h - 2 x_d tr(a) - 2 x.b.
    """
    lam = 3.0 * field.K
    n_samples = 4000
    rng = np.random.default_rng(seed)
    t, x = Region.sampling_box(field.d).sample(rng, n_samples)
    h = 1.0 + np.sum(x ** 2, axis=1)
    tr = np.trace(field.a(t, x), axis1=-2, axis2=-1)
    resid = ((lam - field.c(t, x)) * h - 2.0 * x[:, -1] * tr
             - 2.0 * np.sum(x * field.b(t, x), axis=1))
    lhs = float(np.min(resid))
    return CheckResult("supersolution(1+|x|^2,lambda=%.3g)" % lam,
                       "quadratic-supersolution", lhs, 0.0, 1.0,
                       lhs >= -1e-12 * max(1.0, lam) * float(np.max(h)),
                       "min residual over %d samples" % n_samples)


# ---------------------------------------------------------------------------
# a-priori bounds on computed solutions

def data_sups(problem, grid, w=1.0):
    """Grid maxima of w |f| and w |g| over all nodes and slice times."""
    g_sup = float(np.max(w * np.abs(problem.g.on_grid(0.0, grid))))
    f_sup = float(np.max(w * np.abs(problem.f.on_grid(grid.times, grid))))
    return f_sup, g_sup


def check_sup_bound(u, problem, K, slack=1.02):
    """sup |u| <= e^{KT} (T ||f|| + ||g||) on the audited region."""
    grid = u.grid
    f_sup, g_sup = data_sups(problem, grid)
    T = grid.t_final
    lhs = u.sup(grid.audited_mask())
    rhs = float(np.exp(K * T) * (T * f_sup + g_sup))
    return CheckResult("sup-bound(K=%.3g)" % K, "supremum-estimate",
                       lhs, rhs, slack, lhs <= rhs * slack,
                       "field %s" % problem.field.name)


def check_weighted_bound(u, problem, K, q, slack=1.05):
    """Weighted bound with rate lambda = 1 + q(q+4)K and weight (1+|x|)^q."""
    grid = u.grid
    nodes = grid.nodes()
    w = (1.0 + np.linalg.norm(nodes, axis=1)) ** q
    f_sup, g_sup = data_sups(problem, grid, w)
    lam = 1.0 + q * (q + 4.0) * K
    T = grid.t_final
    mask = grid.audited_mask().ravel()
    wu = np.abs(u.values.reshape(grid.n_t, -1)[:, mask]) * w[mask]
    lhs = float(np.max(wu))
    rhs = float(np.exp(lam * T) * (f_sup + g_sup))
    return CheckResult("weighted-bound(q=%g,K=%.3g)" % (q, K),
                       "weighted-supremum-estimate", lhs, rhs, slack,
                       lhs <= rhs * slack, "lambda=%.6g" % lam)


def comparison_check(u, v, field, conclusion_tol=1e-7, absolute=False):
    """Discrete comparison: L u <= L v and u <= v at t=0 and on the
    truncation faces imply u <= v everywhere.

    L is the implicit-Euler operator the solver steps; the premises hold
    up to 1e-8 times max(sup |u|, sup |v|, 1).

    With absolute=True the premises are |L u| <= L v, |u| <= v on the
    initial slice and truncation faces, and the conclusion is |u| <= v.
    Returns a CheckResult whose check id carries the verdict; when the
    premises fail the result is 'not-applicable' and counts as passed
    (nothing to verify), mirroring how the continuous statement is used.
    """
    grid = u.grid
    if v.grid is not grid and v.grid != grid:
        raise ValueError("functions live on different grids")
    scale = max(u.sup(), v.sup(), 1.0)
    ptol = 1e-8 * scale
    ctol = conclusion_tol * scale
    lu = apply_discrete_operator(u, field)
    lv = apply_discrete_operator(v, field)
    dir_mask = grid.dirichlet_mask()
    uu, vv = u.values, v.values
    if absolute:
        uu, lu = np.abs(uu), np.abs(lu)
    init_ok = np.all(uu[0] <= vv[0] + ptol)
    keep = ~np.isnan(lu)
    op_ok = np.all(lu[keep] <= lv[keep] + ptol)
    face_ok = np.all(uu[:, dir_mask] <= vv[:, dir_mask] + ptol)
    name = "comparison-absolute" if absolute else "comparison"
    if not (init_ok and op_ok and face_ok):
        return CheckResult(name + "(not-applicable)", "comparison-principle",
                           0.0, 0.0, 1.0, True,
                           "premises not satisfied; nothing to verify")
    lhs = float(np.max(uu - vv))
    return CheckResult(name, "comparison-principle", lhs, 0.0, 1.0,
                       lhs <= ctol, "max violation vs tol %.3g" % ctol)


def nonpositivity_check(u, problem):
    """L u <= 0 and g <= 0 must give u <= 0 (conclusion checked directly,
    up to 1e-8 max(sup |u|, 1))."""
    lhs = float(np.max(u.values))
    grid = u.grid
    g_ok = np.all(problem.g.on_grid(0.0, grid) <= 1e-12)
    f_ok = np.all(problem.f.on_grid(grid.times, grid) <= 1e-12)
    scale = max(u.sup(), 1.0)
    if not (g_ok and f_ok):
        return CheckResult("nonpositivity(not-applicable)",
                           "maximum-principle", 0.0, 0.0, 1.0, True,
                           "data are not nonpositive")
    return CheckResult("nonpositivity", "maximum-principle", lhs, 0.0, 1.0,
                       lhs <= 1e-8 * scale, "max of u vs 0")


# ---------------------------------------------------------------------------
# randomized maximum-principle suite

def _random_heston(rng):
    return heston(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.3, 1.0)),
                  float(rng.uniform(0.5, 1.5)), 0.0,
                  r=float(rng.uniform(0.0, 0.2)))


def _random_certified_field(rng):
    pick = rng.integers(0, 3)
    if pick == 0:
        return homogeneous_drift(float(rng.uniform(0.5, 2.0)))
    if pick == 1:
        return _random_heston(rng)
    diag = rng.uniform(0.3, 2.0, 2)
    b = rng.uniform(-1.0, 1.0, 2)
    b[-1] = rng.uniform(0.3, 2.0)
    return constant_field(np.diag(diag), b, -float(rng.uniform(0.0, 1.0)),
                          name="random-diag")


def _decay(k, r):
    """k e^{-r t} in two dimensions."""
    return k * profile("exp", axis_weights(2, 0, -r))


def _random_nonneg_profile(rng, d):
    """Smooth nonnegative profile c0 + c1 prod_i exp(-((x_i - m_i) / w_i)^2),
    an AnalyticFunction evaluated in numpy."""
    c0 = float(rng.uniform(0.05, 0.5))
    c1 = float(rng.uniform(0.2, 1.5))
    width = rng.uniform(0.5, 2.0, d)
    center = rng.uniform(-1.5, 1.5, d)
    center[-1] = rng.uniform(0.0, 1.5)
    gauss = constant(d, c1)
    for i in range(d):
        gauss = gauss * profile("gauss", axis_weights(d, 1 + i, 1 / width[i]),
                                -center[i] / width[i])
    return constant(d, c0) + gauss


def _suite_grid():
    """The grid every randomized suite solves on: 14 x 14 nodes on
    [-3, 3] x [0, 3] and 12 slices on [0, 0.5]."""
    return Grid.build(2, 3.0, 3.0, 14, 14, 0.5, 12)


def maximum_principle_suite(n_problems=50, seed=0):
    """Randomized nonpositivity and comparison checks on certified runs.

    Every problem uses a field whose implicit-Euler matrix passes the
    monotonicity certificate; data are smooth with nonpositive sign for
    the maximum-principle half and ordered data for the comparison half.
    The data are random Gaussian profiles (_random_nonneg_profile),
    evaluated in numpy.
    """
    rng = np.random.default_rng(seed)
    grid = _suite_grid()
    results = []
    for k in range(n_problems):
        fld = _random_certified_field(rng)
        g1 = -1.0 * _random_nonneg_profile(rng, 2)
        f1 = _random_nonneg_profile(rng, 2) * _decay(-1.0, 1.0)
        prob1 = CauchyProblem(fld, f1, g1)
        u1, _ = solve_cauchy(prob1, grid, certify=True)
        r = nonpositivity_check(u1, prob1)
        r.check += "[%d:%s]" % (k, fld.name)
        results.append(r)

        # ordered data: adding a nonnegative bump to (f, g) must raise u
        df = _random_nonneg_profile(rng, 2)
        dg = _random_nonneg_profile(rng, 2)
        prob2 = CauchyProblem(fld, f1 + df, g1 + dg)
        u2, _ = solve_cauchy(prob2, grid, certify=True)
        r2 = comparison_check(u1, u2, fld)
        r2.check += "[%d:%s]" % (k, fld.name)
        results.append(r2)
    return results


def absolute_bound_suite(n_problems=20, seed=1, slack=1.02):
    """|L u| <= L v1 forces |u| <= v1 with v1 the explicit supersolution.

    K = 0 is a valid constant for every generated field (c <= 0), which
    makes v1 = e^{Kt} (t ||f|| + ||g||) = t ||f|| + ||g|| linear in time
    and hence exact for the discrete operator as well.  g = +-P and
    f = -e^{-r t} P with random Gaussian profiles P and a random rate r,
    evaluated in numpy.
    """
    rng = np.random.default_rng(seed)
    grid = _suite_grid()
    results = []
    for k in range(n_problems):
        fld = _random_certified_field(rng)
        sgn = 1.0 if rng.uniform() < 0.5 else -1.0
        g = sgn * _random_nonneg_profile(rng, 2)
        rate = float(rng.uniform(0.0, 1.0))
        f = _random_nonneg_profile(rng, 2) * _decay(-1.0, rate)
        prob = CauchyProblem(fld, f, g)
        u, _ = solve_cauchy(prob, grid, certify=True)
        f_sup, g_sup = data_sups(prob, grid)
        v1 = GridFunction(grid, np.broadcast_to(
            (f_sup * grid.times + g_sup)[:, None, None], u.values.shape))
        tag = "[%d:%s]" % (k, fld.name)
        r = comparison_check(u, v1, fld, absolute=True)
        r.check = "absolute-bound" + tag
        sup = check_sup_bound(u, prob, 0.0, slack=slack)
        sup.check += tag
        results.extend((r, sup))
    return results


def growth_constant_on_grid(field, grid):
    """Smallest K with sum x_d |a^ij| + |x.b| <= K (1+|x|^2) on the nodes.

    This is the growth rate the weighted supersolution needs; measured on
    the actual grid it gives the tightest honest constant for the run.
    """
    nodes = grid.nodes()
    times = grid.times if field.time_dependent else grid.times[:1]
    t = np.repeat(times, len(nodes))
    x = np.tile(nodes, (len(times), 1))
    a = np.abs(field.a(t, x)).reshape(len(x), -1).sum(axis=1)
    num = x[:, -1] * a + np.abs(np.sum(x * field.b(t, x), axis=1))
    return max(0.0, float(np.max(num / (1.0 + np.sum(x ** 2, axis=1)))),
               float(np.max(field.c(t, x))))


def weighted_bound_suite(n_problems=20, q_values=(1.0, 2.0), seed=2,
                         slack=1.05):
    """Randomized weighted-supremum bounds, rotating through field types.

    Every fourth problem is a stochastic-volatility field so the suite
    exercises the growing drift term; K is measured on the grid so the
    supersolution premise actually holds for the run.  g = +-P and
    f = -e^{-t} P with random Gaussian profiles P, evaluated in numpy.
    """
    rng = np.random.default_rng(seed)
    grid = _suite_grid()
    results = []
    for k in range(n_problems):
        fld = _random_heston(rng) if k % 4 == 0 \
            else _random_certified_field(rng)
        sgn = 1.0 if rng.uniform() < 0.5 else -1.0
        g = sgn * _random_nonneg_profile(rng, 2)
        f = _random_nonneg_profile(rng, 2) * _decay(-1.0, 1.0)
        prob = CauchyProblem(fld, f, g)
        u, _ = solve_cauchy(prob, grid, certify=True)
        K = growth_constant_on_grid(fld, grid)
        for q in q_values:
            r = check_weighted_bound(u, prob, K, q, slack=slack)
            r.check += "[%d:%s]" % (k, fld.name)
            results.append(r)
    return results


# ---------------------------------------------------------------------------
# boundary barriers for the model operator

@dataclass
class Barrier:
    """Traveling barrier along x1 in two dimensions, with x1 drift `drift`.

    phi = (1 + x1 - b t)^-2 + (1 - x1 - b t)^-2 with speed
    b = |drift| + 1, valid while both bases stay >= gamma; the window
    length (1 - gamma) / b guarantees that on [0, 0.9 window].  gamma
    must lie in (0, 1), or the window is empty.
    """

    drift: float
    gamma: float = 0.5

    def __post_init__(self):
        if not 0 < self.gamma < 1:
            raise ValueError("barrier gamma must lie in (0, 1), not %r"
                             % (self.gamma,))
        self.drift = float(self.drift)
        self.speed = abs(self.drift) + 1.0
        self.window = 0.9 * (1.0 - self.gamma) / self.speed
        self.plus, self.minus = (
            profile("power", [-self.speed, sign, 0.0], 1.0, -2)
            for sign in (1.0, -1.0))
        self.phi = self.plus + self.minus

    def in_window(self, t, x):
        x1 = x[..., 0]
        shift = self.speed * t
        return ((1 + x1 - shift >= self.gamma)
                & (1 - x1 - shift >= self.gamma)
                & (t >= 0.0) & (t <= self.window))

    def model_operator(self, t, x):
        """L0 phi with L0 = d_t - x2 Laplacian - drift d_x1, exact; phi
        does not depend on x2, so its x2 terms are 0."""
        return (self.phi.dt(t, x) - x[..., -1] * self.phi.dxx(0, 0, t, x)
                - self.drift * self.phi.dx(0, t, x))

    def residual(self, t, x):
        """L0 phi + C x_d phi^2 - c phi^(3/2) - c with the barrier lemma's
        C = 6 and c = 1/2; positive in the window."""
        phi = self.phi.value(t, x)
        h = x[..., -1]
        return (self.model_operator(t, x) + 6.0 * h * phi ** 2
                - 0.5 * phi ** 1.5 - 0.5)


def check_barrier(drift_i, gamma=0.5, n_points=2000, seed=0):
    """Strict positivity of the barrier residual at n_points sampled in
    the window, at heights up to 3, of the two-dimensional barrier along
    x1 with drift (drift_i, 0)."""
    bar = Barrier(drift_i, gamma)
    rng = np.random.default_rng(seed)
    pts_t = np.empty(0)
    pts_x = np.empty((0, 2))
    while len(pts_t) < n_points:
        t = rng.uniform(0.0, bar.window, 4 * n_points)
        x = rng.uniform(-1.0, 1.0, (4 * n_points, 2))
        x[:, -1] = rng.uniform(0.0, 3.0, 4 * n_points)
        keep = bar.in_window(t, x)
        pts_t = np.concatenate([pts_t, t[keep]])
        pts_x = np.concatenate([pts_x, x[keep]])
    pts_t, pts_x = pts_t[:n_points], pts_x[:n_points]
    lhs = float(np.min(bar.residual(pts_t, pts_x)))
    return CheckResult("barrier(drift=%g,C=6,c=0.5)" % drift_i,
                       "boundary-barrier", lhs, 0.0, 1.0, lhs > 0.0,
                       "min residual over %d window points" % n_points)


# ---------------------------------------------------------------------------
# interpolation inequalities

INTERP_INEQUALITIES = ("c-alpha", "gradient-sup", "weighted-gradient",
                       "weighted-hessian")


@dataclass
class InterpolationFit:
    inequality: str
    constant: float
    exponent: float
    n_cases: int
    worst_case: str = ""

    def feasible(self):
        return np.isfinite(self.constant) and self.constant >= 0


def interpolation_cases(u, points, alpha):
    """(lhs per inequality, full cycloidal norm, sup norm) for one u.

    The full norm adds the cycloidal norms of u and u_t, of the worst first
    derivative and of the worst height-weighted second derivative.  The
    left-hand sides reuse the same constituent arrays: the c-alpha side
    is the norm of u itself.
    """
    vals, dt_vals, du, wdd = analytic_constituents(u, points)
    h = points.x[:, -1]

    def norm(v):
        return holder_norm(v, points, alpha, "s").total

    norm_u = norm(vals)
    full = (norm_u + norm(dt_vals) + max(map(norm, du))
            + max(map(norm, wdd)))
    sup = float(np.max(np.abs(vals)))
    lhs = {"c-alpha": norm_u,
           "gradient-sup": max(float(np.max(np.abs(v))) for v in du),
           "weighted-gradient": max(norm(h * v) for v in du),
           "weighted-hessian": max(float(np.max(np.abs(v))) for v in wdd)}
    return lhs, full, sup


def fit_interpolation_constants(cases, eps_ladder):
    """Smallest (C, m) with lhs <= eps * full + C eps^-m * sup for all cases.

    cases is a list of (lhs dict, full norm, sup norm) triples.  For each
    inequality the constant at fixed exponent is the max over cases and
    epsilons of (lhs - eps*full)/ (eps^-m * sup); the reported pair
    minimizes that constant over the exponents 0, 0.25, ..., 6 (then
    prefers the smallest exponent).  A case whose lhs, full norm or sup
    is not finite makes the constant inf, so the fit is not feasible.
    """
    fits = {}
    for key in INTERP_INEQUALITIES:
        best = None
        for m in np.linspace(0.0, 6.0, 25):
            c_need = 0.0
            worst = ""
            for ci, (lhs, full, sup) in enumerate(cases):
                if not np.isfinite([lhs[key], full, sup]).all():
                    c_need, worst = np.inf, "case %d, not finite" % ci
                    break
                if sup <= 0:
                    continue
                for eps in eps_ladder:
                    need = (lhs[key] - eps * full) / (eps ** -m * sup)
                    if need > c_need:
                        c_need = need
                        worst = "case %d, eps=%g" % (ci, eps)
            if best is None or c_need < best[0] - 1e-15:
                best = (c_need, float(m), worst)
        fits[key] = InterpolationFit(key, best[0], best[1], len(cases),
                                     best[2])
    return fits


def default_interpolation_functions(d=2):
    """Five compactly supported test functions touching the boundary."""
    base = bump(d, [0.0] * d, [1.0] * (d - 1) + [1.0])
    shift = bump(d, [0.3] * (d - 1) + [0.0], [1.2] * (d - 1) + [0.8])
    tight = bump(d, [0.0] * d, [0.7] * d, powers=5)
    decay = [profile("exp", axis_weights(d, 0, -r)) for r in (1.0, 0.5)]
    return [base, decay[0] * base,
            affine(axis_weights(d, 1, 0.5), 1.0) * shift, 2.5 * tight,
            profile("cos", axis_weights(d, 1, 2.0)) * base * decay[1]]


def interpolation_check(functions=None, alpha=0.5,
                        eps_ladder=(0.5, 0.25, 0.1), seed=0):
    """Fit one (C, m) per inequality across functions and epsilons.

    The cases are taken at every (slice, node) of the lattice of 6 slices
    on [0, 1], 13 lateral nodes on [-1.3, 1.3] and 9 height nodes on
    [0, 1.3].
    """
    if functions is None:
        functions = default_interpolation_functions()
    grid = Grid([np.linspace(-1.3, 1.3, 13), np.linspace(0.0, 1.3, 9)],
                np.linspace(0.0, 1.0, 6))
    points = grid_point_set(grid, n_max=np.inf, seed=seed)[0]
    cases = [interpolation_cases(u, points, alpha) for u in functions]
    fits = fit_interpolation_constants(cases, eps_ladder)
    results = []
    for key, fit in fits.items():
        results.append(CheckResult(
            "interpolation-%s(C=%.6g,m=%.3g)" % (key, fit.constant,
                                                 fit.exponent),
            "interpolation-" + key, fit.constant, float("inf"), 1.0,
            fit.feasible(), "n_cases=%d %s" % (fit.n_cases,
                                               fit.worst_case)))
    return fits, cases, results


# ---------------------------------------------------------------------------
# Schauder ratio and boundary degeneration

@dataclass
class SchauderReport:
    numerator: float
    denominator: float
    reports: list = dc_field(default_factory=list)

    @property
    def ratio(self):
        return self.numerator / self.denominator


def schauder_ratio(problem, grid, alpha=0.5, n_points=1200, seed=0,
                   **solve):
    """Ratio of the solution norm of order 2+alpha to the data norms.

    Numerator: unweighted split norm of order 2+alpha of the computed
    solution (finite differences on the audited region), solved with the
    keyword arguments solve of solve_cauchy.  Denominator: unweighted
    norm of order alpha of f plus unweighted norm of order 2+alpha of g,
    exact derivatives.
    """
    u, _ = solve_cauchy(problem, grid, **solve)
    points, ti, si = grid_point_set(grid, grid.audited_mask(),
                                    n_max=n_points, seed=seed)
    num, reports = order2_norm(grid_constituents(u, ti, si), points, alpha)
    rf = split_holder_norm(problem.f.value(points.t, points.x), points, alpha)
    ng, g_reports = order2_norm(analytic_constituents(problem.g, points),
                                points, alpha)
    den = rf.total + ng
    reports = reports + [rf] + g_reports
    return SchauderReport(num, den, reports), u


def first_layer_weighted_hessian(u):
    """Max of |x_d D^2 u| on the audited part of the first height layer
    above the boundary."""
    grid = u.grid
    d = grid.d
    mask = grid.audited_mask()
    layer = [slice(None)] * d
    layer[-1] = 1
    layer_mask = np.zeros(grid.shape, dtype=bool)
    layer_mask[tuple(layer)] = True
    layer_mask &= mask
    best = 0.0
    for i in range(d):
        for j in range(i, d):
            w = u.second_derivative(i, j).weighted_by_height()
            best = max(best, float(np.max(np.abs(w.values[:, layer_mask]))))
    return best


def boundary_vanishing_check(field, g, levels):
    """First-layer weighted Hessian must decrease across graded refinements.

    Solves L u = 0, u(0) = g on [-3, 3]^(d-1) x [0, 2] x [0, 0.5] at each
    of levels, a list of (n_lateral, n_height, n_slices) with increasing
    height resolution; the quadratically graded axis halves the first
    node height per doubling, so the weighted Hessian at that layer must
    not grow for smooth solutions.
    """
    vals = []
    prob = CauchyProblem(field, None, g)
    for (n_lat, n_h, n_sl) in levels:
        grid = Grid.build(field.d, 3.0, 2.0, n_lat, n_h, 0.5, n_sl)
        u, _ = solve_cauchy(prob, grid)
        vals.append(first_layer_weighted_hessian(u))
    monotone = all(vals[k + 1] <= vals[k] for k in range(len(vals) - 1))
    return CheckResult("boundary-degeneration(levels=%d)" % len(levels),
                       "boundary-degeneration", vals[-1], vals[0], 1.0,
                       monotone, "layer values: " +
                       ", ".join("%.6g" % v for v in vals)), vals


# ---------------------------------------------------------------------------
# reduction round trip

def reduction_round_trip(field, kind="inner_bump", grid=None):
    """Solve directly and through the model form; compare on the audit set.

    grid defaults to Grid.build(d, 2.0, 2.0, 33, 33, 0.5, 25).  The
    transformed problem lives on the bounding box of the image of the
    grid's box, with the image of the grid's height nodes as its height
    axis, so that mapped height nodes coincide exactly.  Pass criterion:
    the sup discrepancy between the two solutions after t = 0 is at most
    3 times the direct manufactured error at the same resolution.
    """
    plan = build_reduction_plan(field)
    if grid is None:
        grid = Grid.build(field.d, 2.0, 2.0, 33, 33, 0.5, 25)
    problem = manufactured_problem(field, kind, grid.axes[0][-1],
                                   grid.axes[-1][-1])
    u_direct, _ = solve_cauchy(problem, grid, boundary="exact",
                               certify=False)

    corners = list(itertools.product(*[(a[0], a[-1]) for a in grid.axes]))
    z_corners = plan.forward_points(corners)
    d = field.d
    axes = [np.linspace(np.min(z_corners[:, i]), np.max(z_corners[:, i]),
                        len(grid.axes[i])) for i in range(d - 1)]
    axes.append(plan.forward[-1, -1] * grid.axes[-1])
    z_grid = Grid(axes, grid.times)

    # the model data are the direct data transformed, e^{-ct} f(t, B z),
    # so a model field that is not the direct one's reduction fails
    u_bar = plan.transform_analytic(problem.exact)
    model_prob = CauchyProblem(plan.model_field(),
                               plan.transform_analytic(problem.f),
                               u_bar.at_time(0.0), exact=u_bar)
    w_bar, _ = solve_cauchy(model_prob, z_grid, boundary="exact",
                            certify=True)
    u_round = plan.recover_grid_function(w_bar, grid)

    mask = grid.audited_mask()
    exact = problem.exact.on_grid(grid.times, grid).reshape(
        u_direct.values.shape)
    err_direct = float(np.max(np.abs(u_direct.values - exact)[:, mask]))
    # t = 0 compares g with g_bar interpolated back, not two solves
    discrepancy = float(np.max(np.abs(u_direct.values
                                      - u_round.values)[1:, mask]))
    res = CheckResult("reduction-round-trip(%s)" % field.name,
                      "reduction-round-trip", discrepancy, 3.0 * err_direct,
                      1.0, discrepancy <= 3.0 * err_direct,
                      "direct error %.6g" % err_direct)
    return res, plan
