"""Maximum-principle bounds, barriers, interpolation fits and ratios."""

import numpy as np
import pytest
import sympy as sp

from conftest import from_sympy, symbols
from degenpde.fields import (constant_field, from_expressions, heston,
                             homogeneous_drift)
from degenpde.grid import Grid, GridFunction
from degenpde.reduction import ReductionPlan
from degenpde.solver import (
    CauchyProblem,
    manufactured_problem,
    operator_apply,
    solve_cauchy,
)
from degenpde.verification import (
    CHECK_CSV_COLUMNS,
    Barrier,
    absolute_bound_suite,
    boundary_vanishing_check,
    check_barrier,
    check_quadratic_supersolution,
    check_sup_bound,
    check_weighted_bound,
    checks_to_csv,
    comparison_check,
    data_sups,
    first_layer_weighted_hessian,
    fit_interpolation_constants,
    growth_constant_on_grid,
    interpolation_cases,
    interpolation_check,
    maximum_principle_suite,
    nonpositivity_check,
    reduction_round_trip,
    schauder_ratio,
    weighted_bound_suite,
)


def solve_pair(seed=0):
    """Two certified solves with ordered data on a shared grid."""
    field = homogeneous_drift(1.0)
    grid = Grid.build(2, 3.0, 3.0, 11, 11, 0.5, 8)
    t_sym, *syms = symbols(2)
    prof = sp.exp(-(syms[0] ** 2) - (syms[1] - sp.Rational(1, 2)) ** 2)
    g1, f1 = -1 - prof, -sp.exp(-t_sym) * prof - sp.Float(0.2)
    p1 = CauchyProblem(field, from_sympy(2, f1), from_sympy(2, g1))
    g2 = from_sympy(2, g1 + prof / 2 + sp.Rational(1, 10))
    f2 = from_sympy(2, f1 + sp.Rational(1, 10))
    p2 = CauchyProblem(field, f2, g2)
    u1, _ = solve_cauchy(p1, grid)
    u2, _ = solve_cauchy(p2, grid)
    return field, grid, p1, u1, p2, u2


class TestSupersolutions:
    @pytest.mark.parametrize("field", [
        homogeneous_drift(1.0), heston(2.0, 0.25, 1.0, 0.3)])
    def test_quadratic_supersolution_holds(self, field):
        res = check_quadratic_supersolution(field, seed=1)
        assert res.passed, res.line()
        assert res.lhs >= 0.0

    def test_quadratic_supersolution_needs_large_rate(self):
        # c = 5 exceeds the rate 3K of the declared K = 1
        field = from_expressions(2, [["1", "0"], ["0", "1"]], ["0", "1"],
                                 "5", delta=1, K=1, nu=1)
        res = check_quadratic_supersolution(field, seed=1)
        assert not res.passed
        assert res.lhs < 0.0

    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_weighted_supersolution_dominates_itself(self, q):
        # (L v2) >= v2 pointwise once the rate is 1 + q(q+4)K with K the
        # growth constant measured on the sampling box
        field = heston(2.0, 0.25, 1.0, 0.0)
        grid = Grid.build(2, 3.0, 3.0, 14, 14, 0.5, 12)
        K = growth_constant_on_grid(field, grid)
        lam = 1.0 + q * (q + 4.0) * K
        t_sym, x1, x2 = symbols(2)
        # v2 = e^{lambda t} / (1+|x|^2)^{q/2}
        v2 = from_sympy(2, sp.exp(sp.Float(lam) * t_sym)
                        / (1 + x1 ** 2 + x2 ** 2) ** (sp.Float(q) / 2))
        lv2 = operator_apply(field, v2)
        rng = np.random.default_rng(3)
        t = rng.uniform(0.0, 0.5, 2000)
        x = rng.uniform(-3.0, 3.0, (2000, 2))
        x[:, 1] = rng.uniform(0.0, 3.0, 2000)
        gap = lv2.value(t, x) - v2.value(t, x)
        assert float(np.min(gap)) >= -1e-10


class TestSupBounds:
    def test_equality_case_is_sharp(self):
        field = homogeneous_drift(1.0)
        problem = manufactured_problem(field, "constant")
        grid = Grid.build(2, 3.0, 3.0, 11, 11, 0.5, 8)
        u, _ = solve_cauchy(problem, grid)
        res = check_sup_bound(u, problem, K=0.0)
        assert res.passed
        assert abs(res.lhs / res.rhs - 1.0) <= 1e-8

    def test_audited_region_excludes_margin(self):
        field = homogeneous_drift(1.0)
        problem = manufactured_problem(field, "constant")
        grid = Grid.build(2, 3.0, 3.0, 11, 11, 0.5, 8)
        u, _ = solve_cauchy(problem, grid)
        outside = np.unravel_index(
            int(np.argmax(~grid.audited_mask().ravel())), grid.shape)
        spiked = GridFunction(grid, u.values.copy())
        spiked.values[(1,) + outside] = 50.0
        assert check_sup_bound(spiked, problem, K=0.0).passed
        inside = np.unravel_index(
            int(np.argmax(grid.audited_mask().ravel())), grid.shape)
        spiked.values[(1,) + inside] = 50.0
        assert not check_sup_bound(spiked, problem, K=0.0).passed

    def test_data_sups(self):
        field = homogeneous_drift(1.0)
        problem = manufactured_problem(field, "affine_height")
        grid = Grid.build(2, 1.0, 2.0, 7, 7, 0.5, 4)
        f_sup, g_sup = data_sups(problem, grid)
        assert abs(g_sup - 3.0) <= 1e-12  # 1 + height at the top
        nodes = grid.nodes()
        by_hand = max(float(np.max(np.abs(problem.f.value(t, nodes))))
                      for t in grid.times)
        assert f_sup == by_hand

    def test_weighted_bound_passes_and_scales(self):
        field = homogeneous_drift(1.0)
        problem = manufactured_problem(field, "inner_bump", x_extent=3.0,
                                       height=3.0)
        grid = Grid.build(2, 3.0, 3.0, 11, 11, 0.5, 8)
        u, _ = solve_cauchy(problem, grid)
        K = growth_constant_on_grid(field, grid)
        for q in (1.0, 2.0):
            res = check_weighted_bound(u, problem, K, q)
            assert res.passed, res.line()
            assert res.rhs >= res.lhs > 0

    def test_growth_constant_over_all_slices(self):
        # one evaluation over every slice equals the maximum over the
        # slices taken one at a time; the constant grows with t here
        from degenpde.fields import from_expressions
        field = from_expressions(
            2, [["1 + t", "0.2*t"], ["0.2*t", "1"]], ["x1*t", "1 + 3*t"],
            "-t", delta=0.5, K=8.0, nu=1.0, name="growing")
        grid = Grid.build(2, 3.0, 3.0, 9, 9, 0.5, 6)
        nodes = grid.nodes()

        def one_slice(t):
            t_arr = np.full(len(nodes), t)
            a = np.abs(field.a(t_arr, nodes)).reshape(len(nodes), -1)
            num = (nodes[:, -1] * a.sum(axis=1)
                   + np.abs(np.sum(nodes * field.b(t_arr, nodes), axis=1)))
            return max(float(np.max(num / (1.0 + np.sum(nodes ** 2,
                                                          axis=1)))),
                       float(np.max(field.c(t_arr, nodes))))

        per_slice = [one_slice(t) for t in grid.times]
        assert per_slice[-1] > per_slice[0]
        assert growth_constant_on_grid(field, grid) == max(per_slice)


class TestComparison:
    def test_ordered_solutions_compare(self):
        field, grid, p1, u1, p2, u2 = solve_pair()
        res = comparison_check(u1, u2, field)
        assert res.passed and "not-applicable" not in res.check

    def test_reversed_premises_not_applicable(self):
        field, grid, p1, u1, p2, u2 = solve_pair()
        res = comparison_check(u2, u1, field)
        assert res.passed and "not-applicable" in res.check

    def test_conclusion_branch_can_fail(self):
        # premises hold; an impossible conclusion tolerance must flip the
        # verdict rather than fall back to not-applicable
        field, grid, p1, u1, p2, u2 = solve_pair()
        res = comparison_check(u1, u2, field, conclusion_tol=-1e6)
        assert not res.passed and "not-applicable" not in res.check

    def test_absolute_form_takes_magnitudes(self):
        # u1 <= 0: v = -u1 = |u1| meets every premise with equality and
        # leaves no gap; lowering L v by 0.1 below |L u1| (but not below
        # L u1) makes the premises fail
        field, grid, p1, u1, p2, u2 = solve_pair()
        mirror = GridFunction(grid, -u1.values)
        res = comparison_check(u1, mirror, field, absolute=True)
        assert res.passed and "not-applicable" not in res.check
        assert abs(res.lhs) <= 1e-12
        falling = 0.1 * (grid.t_final - grid.times)[:, None, None]
        lowered = GridFunction(grid, -u1.values + falling)
        res = comparison_check(u1, lowered, field, absolute=True)
        assert res.passed and "not-applicable" in res.check

    def test_grid_mismatch_rejected(self):
        field, grid, p1, u1, p2, u2 = solve_pair()
        other = Grid.build(2, 3.0, 3.0, 9, 9, 0.5, 8)
        w = GridFunction(other, np.zeros((8, 9, 9)))
        with pytest.raises(ValueError):
            comparison_check(u1, w, field)

    def test_nonpositivity_verdicts(self):
        field, grid, p1, u1, p2, u2 = solve_pair()
        res = nonpositivity_check(u1, p1)
        assert res.passed and "not-applicable" not in res.check
        assert float(np.max(u1.values)) <= 1e-8
        pos = CauchyProblem(field, p1.f, -1.0 * p1.g)
        res2 = nonpositivity_check(u1, pos)
        assert res2.passed and "not-applicable" in res2.check
        # nonpositive data with a positive u: the conclusion row fails
        flipped = GridFunction(grid, 1.0 - u1.values)
        res3 = nonpositivity_check(flipped, p1)
        assert not res3.passed and "not-applicable" not in res3.check
        assert res3.lhs == float(np.max(flipped.values)) > 1.0


class TestSuites:
    def test_maximum_principle_suite(self):
        results = maximum_principle_suite(n_problems=6, seed=10)
        assert len(results) == 12
        assert all(r.passed for r in results)
        assert not any("not-applicable" in r.check for r in results)

    def test_absolute_bound_suite(self):
        results = absolute_bound_suite(n_problems=4, seed=11)
        assert len(results) == 8
        assert all(r.passed for r in results)
        kinds = {r.check.split("[")[0].split("(")[0] for r in results}
        assert kinds == {"absolute-bound", "sup-bound"}

    def test_weighted_bound_suite(self):
        results = weighted_bound_suite(n_problems=4, seed=12)
        assert len(results) == 8
        assert all(r.passed for r in results)
        assert any("heston" in r.check for r in results)

    @pytest.mark.parametrize("suite", [maximum_principle_suite,
                                       absolute_bound_suite,
                                       weighted_bound_suite])
    def test_one_grid_per_suite(self, suite, monkeypatch):
        built = []
        real = Grid.build.__func__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(Grid, "build", classmethod(counting))
        results = suite(n_problems=3)
        assert len(results) == 6
        assert built == [(2, 3.0, 3.0, 14, 14, 0.5, 12)]

    @pytest.mark.parametrize("suite", [maximum_principle_suite,
                                       absolute_bound_suite,
                                       weighted_bound_suite])
    def test_row_names_unique(self, suite):
        # each row names its problem, so a failing row can be told apart
        names = [r.check for r in suite(n_problems=3)]
        assert len(set(names)) == len(names) == 6


def sympy_profile(rng, d):
    """Reference: one random profile as a sympy expression, drawing the
    same numbers in the same order as _random_nonneg_profile."""
    syms = symbols(d)[1:]
    c0 = float(rng.uniform(0.05, 0.5))
    c1 = float(rng.uniform(0.2, 1.5))
    width = rng.uniform(0.5, 2.0, d)
    center = rng.uniform(-1.5, 1.5, d)
    center[-1] = rng.uniform(0.0, 1.5)
    g = sp.Integer(1)
    for i in range(d):
        g *= sp.exp(-((syms[i] - sp.Float(center[i]))
                      / sp.Float(width[i])) ** 2)
    return sp.Float(c0) + sp.Float(c1) * g


class TestRandomData:
    @pytest.mark.parametrize("d", [2, 3])
    def test_agrees_with_sympy(self, d):
        # the numpy data equal the sympy reference: one profile, a sum
        # and a profile scaled by k e^{-r t}
        from degenpde.verification import _decay, _random_nonneg_profile
        t_sym = symbols(d)[0]
        draws = [np.random.default_rng(20 + d) for _ in range(2)]
        p, q = (_random_nonneg_profile(draws[0], d) for _ in range(2))
        p_expr, q_expr = (sympy_profile(draws[1], d) for _ in range(2))
        pairs = [(p, p_expr),
                 (p * _decay(-1.0, 0.7) + -2.0 * q,
                  -sp.exp(-sp.Float(0.7) * t_sym) * p_expr - 2 * q_expr),
                 (q * _decay(0.5, 1.0), sp.exp(-t_sym) * q_expr / 2)]
        rng = np.random.default_rng(7)
        t = rng.uniform(0.0, 0.5, 300)
        x = rng.uniform(-3.0, 3.0, (300, d))
        x[:, -1] = rng.uniform(0.0, 3.0, 300)
        grid = Grid.build(d, 3.0, 2.5, 6, 9, 0.5, 4, grading="quadratic")
        for fn, expr in pairs:
            ref = from_sympy(d, expr)
            want = ref.value(t, x)
            assert np.allclose(fn.value(t, x), want, rtol=1e-13, atol=0)
            for ts in grid.times:
                want = ref.value(ts, grid.nodes())
                got = fn.on_grid(ts, grid)
                assert got.shape == want.shape
                assert np.allclose(got, want, rtol=1e-13, atol=0)
            # all slices in one call, bit for bit
            assert np.array_equal(fn.on_grid(grid.times, grid), np.stack(
                [fn.on_grid(ts, grid) for ts in grid.times]))

    def test_same_problems_for_a_seed(self):
        # check ids and values frozen for these seeds; a reordered random
        # draw changes the fields or the data
        fields = ["random-diag", "random-diag", "heston", "heston",
                  "heston", "random-diag"]
        lhs = [-0.43802587230125123, -0.20019400552370298,
               -0.3717094142673638, -0.08111824604376316,
               -0.35370298559748936, -0.24226530911285604,
               -0.2219733778846921, -0.42357257596157344,
               -0.47527626006840323, -0.3569271741848434,
               -0.4299147202104888, -0.3114723446773247]
        results = maximum_principle_suite(n_problems=6, seed=10)
        assert [r.check for r in results] == [
            "%s[%d:%s]" % (kind, k, fld) for k, fld in enumerate(fields)
            for kind in ("nonpositivity", "comparison")]
        assert np.allclose([r.lhs for r in results], lhs, rtol=1e-9,
                           atol=0)
        sup_lhs = [0.5126885602669733, 1.054092930936728,
                   0.8568475037111303, 0.876110331947412]
        sup_rhs = [1.0928261398296957, 1.3470872460518006,
                   1.0667382896926205, 1.5055871640587948]
        results = absolute_bound_suite(n_problems=4, seed=11)
        assert [r.check for r in results] == [
            name for k in range(4)
            for name in ("absolute-bound[%d:homogeneous-drift]" % k,
                         "sup-bound(K=0)[%d:homogeneous-drift]" % k)]
        assert np.allclose([r.lhs for r in results[1::2]], sup_lhs,
                           rtol=1e-9, atol=0)
        assert np.allclose([r.rhs for r in results[1::2]], sup_rhs,
                           rtol=1e-9, atol=0)
        # problems 0 and 4 are the suite's own Heston draws
        fields = [(0.819, "heston"), (1.4, "heston"),
                  (1.65, "homogeneous-drift"), (2.54, "random-diag"),
                  (0.753, "heston")]
        lhs = [3.1154792360995303, 9.312341321351203, 3.9458507120597237,
               12.79366091736126, 1.66282725906689, 5.675409238411111,
               3.3262494271115224, 9.155121215712251, 3.037686974404069,
               9.09357478745116]
        rhs = [53.01471211266513, 2695.033523423381, 334.75649538366775,
               176241.38887918342, 512.0416371814385, 555350.7185691167,
               6779.67586311312, 156536827.1264733, 47.4833701908287,
               2442.551024327147]
        results = weighted_bound_suite(n_problems=5, seed=12)
        assert [r.check for r in results] == [
            "weighted-bound(q=%d,K=%.3g)[%d:%s]" % (q, K, k, fld)
            for k, (K, fld) in enumerate(fields) for q in (1, 2)]
        assert np.allclose([r.lhs for r in results], lhs, rtol=1e-9, atol=0)
        assert np.allclose([r.rhs for r in results], rhs, rtol=1e-9, atol=0)

    def test_data_are_not_lambdified(self, monkeypatch):
        # neither the random data nor the preset fields compile anything
        calls = []
        monkeypatch.setattr(sp, "lambdify", lambda *a, **k: calls.append(a))
        maximum_principle_suite(n_problems=2)
        assert calls == []


class TestBarrier:
    def test_piece_identities(self):
        # time and space derivatives of each traveling piece close over
        # powers of the piece itself
        bar = Barrier(2.0)
        rng = np.random.default_rng(4)
        t = rng.uniform(0.0, bar.window, 500)
        x = rng.uniform(-0.2, 0.2, (500, 2))
        x[:, 1] = rng.uniform(0.0, 3.0, 500)
        keep = bar.in_window(t, x)
        t, x = t[keep], x[keep]
        b = bar.speed
        for piece, sign in ((bar.plus, -1.0), (bar.minus, 1.0)):
            vals = piece.value(t, x)
            assert np.allclose(piece.dt(t, x), 2 * b * vals ** 1.5,
                               rtol=1e-10, atol=1e-10)
            assert np.allclose(piece.dx(0, t, x), 2 * sign * vals ** 1.5,
                               rtol=1e-10, atol=1e-10)
            assert np.allclose(piece.dxx(0, 0, t, x), 6 * vals ** 2,
                               rtol=1e-10, atol=1e-10)
            assert np.allclose(piece.dx(1, t, x), 0.0, rtol=0, atol=1e-12)

    def test_model_operator_closed_form(self):
        drift = -2.0
        bar = Barrier(drift)
        rng = np.random.default_rng(5)
        t = rng.uniform(0.0, bar.window, 400)
        x = rng.uniform(-0.2, 0.2, (400, 2))
        x[:, 1] = rng.uniform(0.0, 3.0, 400)
        keep = bar.in_window(t, x)
        t, x = t[keep], x[keep]
        b = bar.speed
        p = bar.plus.value(t, x)
        m = bar.minus.value(t, x)
        want = (2 * (b + drift) * p ** 1.5 + 2 * (b - drift) * m ** 1.5
                - 6 * x[:, 1] * (p ** 2 + m ** 2))
        got = bar.model_operator(t, x)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("gamma", [1.0, 0.0, 1.5, -1.0])
    def test_gamma_outside_unit_interval_rejected(self, gamma):
        # gamma >= 1 leaves an empty window, where sampling never ends
        with pytest.raises(ValueError, match="gamma"):
            Barrier(0.0, gamma=gamma)

    def test_window_geometry(self):
        bar = Barrier(2.0, gamma=0.5)
        assert bar.speed == 3.0
        assert abs(bar.window - 0.9 * 0.5 / 3.0) <= 1e-15
        inside = bar.in_window(np.array([0.0]), np.array([[0.0, 1.0]]))
        assert bool(inside[0])
        late = bar.in_window(np.array([bar.window * 1.01]),
                             np.array([[0.0, 1.0]]))
        assert not bool(late[0])

    @pytest.mark.parametrize("drift", [-2.0, 0.0, 2.0])
    def test_residual_strictly_positive(self, drift):
        res = check_barrier(drift, n_points=1500, seed=6)
        assert res.passed, res.line()
        assert res.lhs > 0.0


class TestInterpolation:
    def test_fit_oracle_single_case(self):
        lhs = {k: 1.0 for k in ("c-alpha", "gradient-sup",
                                "weighted-gradient", "weighted-hessian")}
        fits = fit_interpolation_constants([(lhs, 1.0, 1.0)], (0.5,))
        for fit in fits.values():
            # need(m) = (1 - 0.5) * 0.5^m strictly decreases, best at m = 6
            assert fit.exponent == 6.0
            assert abs(fit.constant - 0.5 * 0.5 ** 6.0) <= 1e-15

    def test_fit_prefers_smallest_exponent(self):
        lhs = {k: 0.2 for k in ("c-alpha", "gradient-sup",
                                "weighted-gradient", "weighted-hessian")}
        fits = fit_interpolation_constants([(lhs, 1.0, 1.0)], (0.5, 0.25))
        for fit in fits.values():
            assert fit.constant == 0.0
            assert fit.exponent == 0.0

    def test_default_functions_fit(self):
        fits, cases, results = interpolation_check()
        assert len(fits) == 4 and len(cases) == 5
        assert all(fit.feasible() for fit in fits.values())
        assert all(r.passed for r in results)

    def test_non_finite_case_fails_the_fit(self):
        # a NaN left side fails its own inequality and leaves the others
        lhs = {k: 0.2 for k in ("c-alpha", "gradient-sup",
                                "weighted-gradient", "weighted-hessian")}
        finite = fit_interpolation_constants([(lhs, 1.0, 1.0)], (0.5, 0.25))
        nan_case = (dict(lhs, **{"gradient-sup": np.nan}), 1.0, 1.0)
        fits = fit_interpolation_constants([(lhs, 1.0, 1.0), nan_case],
                                           (0.5, 0.25))
        assert fits["gradient-sup"].constant == np.inf
        assert not fits["gradient-sup"].feasible()
        for key in ("c-alpha", "weighted-gradient", "weighted-hessian"):
            assert (fits[key].constant, fits[key].exponent) \
                == (finite[key].constant, finite[key].exponent)
        # a function that is NaN everywhere fails every row
        from degenpde.verification import default_interpolation_functions
        x1 = symbols(2)[1]
        functions = [default_interpolation_functions(2)[0],
                     from_sympy(2, sp.sqrt(x1 - 5))]
        with np.errstate(invalid="ignore"):
            fits, _, results = interpolation_check(functions=functions)
        assert not any(fit.feasible() for fit in fits.values())
        assert not any(r.passed for r in results)

    def test_cases_match_direct_evaluation(self):
        # the left-hand sides reuse the norm's constituent arrays; they
        # equal a fresh evaluation of u and its derivatives bit for bit
        from degenpde.metrics import PointSet, holder_norm
        from degenpde.verification import default_interpolation_functions
        u = default_interpolation_functions(2)[4]
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.3, 1.3, (60, 2))
        x[:, 1] = rng.uniform(0.0, 1.3, 60)
        points = PointSet(rng.uniform(0.0, 1.0, 60), x, seed=4)
        t, h = points.t, x[:, 1]
        lhs, full, sup = interpolation_cases(u, points, 0.5)

        def norm(v):
            return holder_norm(v, points, 0.5, "s").total

        assert lhs["c-alpha"] == norm(u.value(t, x))
        assert lhs["gradient-sup"] == max(
            float(np.max(np.abs(u.dx(i, t, x)))) for i in range(2))
        assert lhs["weighted-gradient"] == max(
            norm(h * u.dx(i, t, x)) for i in range(2))
        assert lhs["weighted-hessian"] == max(
            float(np.max(np.abs(h * u.dxx(i, j, t, x))))
            for i in range(2) for j in range(i, 2))
        assert sup == float(np.max(np.abs(u.value(t, x))))
        assert full >= lhs["c-alpha"] + norm(u.dt(t, x))

    def test_homogeneity(self):
        from degenpde.verification import default_interpolation_functions
        base = default_interpolation_functions(2)
        doubled = [2 * u for u in base]
        f1, _, _ = interpolation_check(functions=base)
        f2, _, _ = interpolation_check(functions=doubled)
        for key in f1:
            assert f1[key].constant == f2[key].constant
            assert f1[key].exponent == f2[key].exponent


class TestSchauderAndBoundary:
    def test_ratio_finite_and_deterministic(self):
        field = homogeneous_drift(1.0)
        problem = manufactured_problem(field, "inner_bump")
        grid = Grid.build(2, 2.0, 2.0, 13, 13, 0.5, 9)
        rep1, u1 = schauder_ratio(problem, grid, n_points=400)
        rep2, u2 = schauder_ratio(problem, grid, n_points=400)
        assert 0 < rep1.ratio < np.inf
        assert rep1.ratio == rep2.ratio
        assert len(rep1.reports) >= 6

    def test_first_layer_weighted_hessian_oracle(self, sample):
        grid = Grid.build(2, 2.0, 2.0, 9, 9, 0.5, 4)
        gf = sample(grid, "x2**2")
        got = first_layer_weighted_hessian(gf)
        assert abs(got - 2.0 * grid.axes[1][1]) <= 1e-9

    def test_boundary_vanishing_two_levels(self):
        field = homogeneous_drift(1.0)
        g = manufactured_problem(field, "inner_bump", x_extent=3.0,
                                 height=2.0).g
        res, vals = boundary_vanishing_check(field, g,
                                             [(9, 9, 5), (9, 17, 5)])
        assert len(vals) == 2
        assert res.passed
        assert vals[1] < vals[0]
        # frozen from the version whose box and slack were arguments
        assert np.allclose(vals, [0.1699295311833513, 0.043344855402374094],
                           rtol=1e-12, atol=0)


class TestRoundTrip:
    def test_unit_corner_field(self):
        f = constant_field([[2.0, 1.0], [1.0, 1.0]], [1.0, 2.0], -0.5,
                           name="unit-corner")
        grid = Grid.build(2, 2.0, 2.0, 17, 17, 0.5, 9, grading="quadratic")
        res, plan = reduction_round_trip(f, grid=grid)
        assert res.passed, res.line()
        assert plan.certificates["model_diffusion"] <= 1e-12
        assert res.lhs <= res.rhs

    def test_discrepancy_after_initial_slice(self):
        # at t = 0 the round trip holds g_bar interpolated back, not a
        # solve; with that slice the maximum was 0.28629526688983176,
        # at t = 0, x = (0, 0)
        f = constant_field([[2.0, 1.0], [1.0, 1.0]], [1.0, 2.0], -0.5,
                           name="unit-corner")
        grid = Grid.build(2, 2.0, 2.0, 9, 9, 0.5, 5)
        res, _ = reduction_round_trip(f, grid=grid)
        assert np.isclose(res.lhs, 0.22967727326536846, rtol=1e-9, atol=0)
        assert np.isclose(res.rhs, 0.3353567293646569, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("wrong", ["diffusion", "drift"])
    def test_wrong_model_field_shows(self, monkeypatch, wrong):
        # the model data are the direct data transformed, not L_model of
        # the transformed solution, so a model field that is not the
        # direct field's reduction moves the recovered solution away
        f = constant_field([[2.0, 1.0], [1.0, 1.0]], [1.0, 2.0], -0.5,
                           name="unit-corner")
        grid = Grid.build(2, 2.0, 2.0, 33, 33, 0.5, 25, grading="quadratic")
        right, _ = reduction_round_trip(f, grid=grid)

        def model_field(plan):
            a, b = np.eye(2), plan.b_bar.copy()
            if wrong == "diffusion":
                a[0, 0] = 2.0
            else:
                b[0] += 1.0
            return constant_field(a, b, 0.0, name="model-form")

        monkeypatch.setattr(ReductionPlan, "model_field", model_field)
        res, _ = reduction_round_trip(f, grid=grid)
        assert res.lhs > 2.5 * right.lhs, (res.line(), right.line())
        if wrong == "drift":
            assert not res.passed, res.line()


def test_check_csv_format():
    field = homogeneous_drift(1.0)
    res = check_quadratic_supersolution(field, seed=1)
    text = checks_to_csv([res])
    header, row = text.strip().split("\n")
    assert header == ",".join(CHECK_CSV_COLUMNS)
    assert row.endswith(",pass")
    assert "[pass]" in res.line()
