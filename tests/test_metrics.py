"""Distances and Holder-norm estimators."""

import csv
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympy as sp

from conftest import from_sympy, symbols
from degenpde import metrics
from degenpde.grid import Grid, SpaceTimePoint
from degenpde.metrics import (
    HOLDER_CSV_COLUMNS,
    PointSet,
    SeminormEstimate,
    analytic_constituents,
    cycloidal_distance,
    cycloidal_distance_arrays,
    gather,
    grid_constituents,
    grid_point_set,
    holder_norm,
    holder_reports_to_csv,
    order2_norm,
    parabolic_distance,
    parabolic_distance_arrays,
    seminorm,
    slab_equivalence_constants,
    split_holder_norm,
    weight,
)
from degenpde.verification import interpolation_cases


def brute_seminorm(values, pts, alpha, dist_fn):
    # plain double loop, the oracle the fast path must reproduce
    best = 0.0
    m = len(values)
    for i in range(m):
        for j in range(i + 1, m):
            dist = dist_fn(pts.point(i), pts.point(j))
            if dist > 0:
                best = max(best, abs(values[i] - values[j]) / dist ** alpha)
    return best


def random_points(rng, m, d=2, height_lo=0.0, height_hi=4.0):
    x = rng.uniform(-4.0, 4.0, (m, d))
    x[:, -1] = rng.uniform(height_lo, height_hi, m)
    return PointSet(rng.uniform(0.0, 2.0, m), x)


class TestWorkedDistances:
    def test_identity(self):
        p = SpaceTimePoint(0.3, (1.0, 0.5))
        assert cycloidal_distance(p, p) == 0.0
        assert parabolic_distance(p, p) == 0.0

    def test_pure_height_offset(self):
        p1 = SpaceTimePoint(0.0, (0.0, 1.0))
        p2 = SpaceTimePoint(0.0, (0.0, 4.0))
        assert abs(cycloidal_distance(p1, p2) - 1.0) <= 1e-12

    def test_lateral_offset_on_boundary(self):
        p1 = SpaceTimePoint(0.0, (0.0, 0.0))
        p2 = SpaceTimePoint(0.0, (3.0, 0.0))
        assert abs(cycloidal_distance(p1, p2) - math.sqrt(3.0)) <= 1e-12

    def test_pure_time_gap(self):
        p1 = SpaceTimePoint(0.0, (0.2, 0.7))
        p2 = SpaceTimePoint(9.0, (0.2, 0.7))
        assert abs(cycloidal_distance(p1, p2) - 3.0) <= 1e-12

    def test_parabolic_values(self):
        p1 = SpaceTimePoint(0.0, (0.0, 1.0))
        p2 = SpaceTimePoint(4.0, (1.0, 2.0))
        assert abs(parabolic_distance(p1, p2) - 4.0) <= 1e-12
        q1 = SpaceTimePoint(0.0, (0.0, 1.0))
        q2 = SpaceTimePoint(0.25, (0.0, 1.0))
        assert abs(parabolic_distance(q1, q2) - 0.5) <= 1e-12

    def test_boundary_zero_over_zero(self):
        # equal lateral parts, both heights 0: spatial term defined as 0
        p1 = SpaceTimePoint(0.0, (0.5, 0.0))
        p2 = SpaceTimePoint(1.0, (0.5, 0.0))
        assert cycloidal_distance(p1, p2) == 1.0


_time = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
_lat = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
_height = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)


@st.composite
def space_time_points(draw, height_lo=0.0):
    h = draw(st.floats(min_value=height_lo, max_value=4.0, allow_nan=False))
    return SpaceTimePoint(draw(_time), (draw(_lat), h))


@settings(deadline=None)
@given(space_time_points(), space_time_points())
def test_distance_symmetry(p1, p2):
    assert cycloidal_distance(p1, p2) == cycloidal_distance(p2, p1)
    assert parabolic_distance(p1, p2) == parabolic_distance(p2, p1)


@settings(deadline=None)
@given(space_time_points(), space_time_points())
def test_distance_separates_points(p1, p2):
    s = cycloidal_distance(p1, p2)
    assert s >= 0.0 and np.isfinite(s)
    if (p1.t, p1.x) != (p2.t, p2.x):
        assert s > 0.0


@settings(deadline=None)
@given(space_time_points(height_lo=1.0), space_time_points(height_lo=1.0))
def test_cycloidal_below_parabolic_on_slab(p1, p2):
    # heights >= 1 make the denominator >= 2
    assert cycloidal_distance(p1, p2) <= parabolic_distance(p1, p2) + 1e-12


class TestSlabEquivalence:
    def test_two_sided_bounds_hold(self):
        lo, hi, ok = slab_equivalence_constants(2, 1.0, 4.0, 10_000, seed=3)
        assert ok
        assert 0.0 < lo <= 1.0 <= hi

    def test_deterministic(self):
        a = slab_equivalence_constants(2, 1.0, 4.0, 5_000, seed=7)
        b = slab_equivalence_constants(2, 1.0, 4.0, 5_000, seed=7)
        assert a == b

    def test_rejects_degenerate_slab(self):
        with pytest.raises(ValueError):
            slab_equivalence_constants(2, 0.0, 4.0, 100, seed=0)
        with pytest.raises(ValueError):
            slab_equivalence_constants(2, 2.0, 1.0, 100, seed=0)


class TestSeminorm:
    @pytest.mark.parametrize("metric,dist_fn", [
        ("s", cycloidal_distance), ("rho", parabolic_distance)])
    def test_matches_brute_force(self, metric, dist_fn):
        rng = np.random.default_rng(11)
        pts = random_points(rng, 30)
        values = rng.normal(size=30)
        est = seminorm(values, pts, 0.5, metric)
        assert est.n_pairs == 30 * 29 // 2
        oracle = brute_seminorm(values, pts, 0.5, dist_fn)
        assert abs(est.value - oracle) <= 1e-12 * max(1.0, oracle)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("metric,dist_fn", [
        ("s", cycloidal_distance), ("rho", parabolic_distance)])
    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    def test_equals_all_pairs_oracle_bit_for_bit(self, d, metric, dist_fn,
                                                 alpha):
        # every pair by the scalar distance, in triu order, powered as
        # one array; coincident points and points on the degenerate
        # boundary with equal lateral parts are among them
        rng = np.random.default_rng(30 + d)
        pts = random_points(rng, 36, d=d)
        pts.x[:6, -1] = 0.0
        pts.x[3:6, :-1] = pts.x[:3, :-1]
        pts.t[6:12], pts.x[6:12] = pts.t[12:18], pts.x[12:18]
        values = rng.normal(size=36)
        pairs = list(itertools.combinations(range(36), 2))
        dist = np.array([dist_fn(pts.point(i), pts.point(j))
                         for i, j in pairs])
        assert np.count_nonzero(dist == 0.0) == 6
        powered = dist ** alpha
        quot = [abs(values[i] - values[j]) / p if p > 0 else 0.0
                for (i, j), p in zip(pairs, powered)]
        k = int(np.argmax(quot))
        est = seminorm(values, pts, alpha, metric)
        assert est.value == quot[k] and est.n_pairs == len(pairs)
        assert (est.argmax_p1, est.argmax_p2) == (pts.point(pairs[k][0]),
                                                  pts.point(pairs[k][1]))

    def test_rejects_values_of_another_length(self):
        pts = random_points(np.random.default_rng(9), 10)
        with pytest.raises(ValueError, match="one number per point"):
            seminorm(np.zeros(9), pts, 0.5, "s")

    def test_argmax_pair_attains_value(self):
        rng = np.random.default_rng(5)
        pts = random_points(rng, 25)
        values = rng.normal(size=25)
        est = seminorm(values, pts, 0.3, "s")
        i = np.flatnonzero((pts.t == est.argmax_p1.t)
                           & (pts.x == est.argmax_p1.x).all(axis=1))[0]
        j = np.flatnonzero((pts.t == est.argmax_p2.t)
                           & (pts.x == est.argmax_p2.x).all(axis=1))[0]
        dist = cycloidal_distance(pts.point(i), pts.point(j))
        assert abs(abs(values[i] - values[j]) / dist ** 0.3
                   - est.value) <= 1e-12

    def test_monotone_in_point_set(self):
        rng = np.random.default_rng(2)
        pts = random_points(rng, 40)
        values = rng.normal(size=40)
        full = seminorm(values, pts, 0.5, "s").value
        mask = np.zeros(40, dtype=bool)
        mask[::2] = True
        sub = seminorm(values[mask], pts.subset(mask), 0.5, "s").value
        assert sub <= full + 1e-15

    def test_subadditive(self):
        rng = np.random.default_rng(3)
        pts = random_points(rng, 30)
        u, v = rng.normal(size=30), rng.normal(size=30)
        su = seminorm(u, pts, 0.5, "rho").value
        sv = seminorm(v, pts, 0.5, "rho").value
        suv = seminorm(u + v, pts, 0.5, "rho").value
        assert suv <= su + sv + 1e-12

    def test_doubling_is_exact(self):
        rng = np.random.default_rng(4)
        pts = random_points(rng, 20)
        u = rng.normal(size=20)
        assert seminorm(2 * u, pts, 0.5, "s").value \
            == 2 * seminorm(u, pts, 0.5, "s").value

    def test_constant_and_tiny_sets(self):
        rng = np.random.default_rng(6)
        pts = random_points(rng, 10)
        assert seminorm(np.full(10, 3.7), pts, 0.5, "s").value == 0.0
        assert seminorm(np.array([1.0]), PointSet(
            np.array([0.0]), np.array([[0.0, 1.0]])), 0.5, "s").value == 0.0

    def test_sampled_regime_is_lower_bound(self, monkeypatch):
        rng = np.random.default_rng(8)
        pts = random_points(rng, 60)
        u = rng.normal(size=60)
        full = seminorm(u, pts, 0.5, "s").value
        set_budget(monkeypatch, 800)
        sampled = seminorm(u, fresh(pts, seed=1), 0.5, "s")
        again = seminorm(u, fresh(pts, seed=1), 0.5, "s")
        assert sampled.n_pairs == 800
        assert sampled.value <= full + 1e-15
        assert sampled.value == again.value

    def test_root_height_profile(self):
        # pure-height pairs: s = |sqrt(h1) - sqrt(h2)|, so the 1/2-Holder
        # quotient of sqrt(h) is |sqrt(h1)-sqrt(h2)|^(1/2), maximal at the
        # ends of [0, 4]
        h = np.linspace(0.0, 4.0, 50)
        pts = PointSet(np.zeros(50), np.column_stack([np.zeros(50), h]))
        est = seminorm(np.sqrt(h), pts, 0.5, "s")
        assert abs(est.value - math.sqrt(2.0)) <= 1e-9

    def test_rejects_bad_arguments(self):
        pts = PointSet(np.zeros(2), np.array([[0.0, 1.0], [0.0, 2.0]]))
        with pytest.raises(ValueError):
            seminorm(np.zeros(2), pts, 0.5, "euclid")
        with pytest.raises(ValueError):
            seminorm(np.zeros(2), pts, 1.0, "s")


class TestNorms:
    def test_weight_values(self):
        pts = PointSet(np.zeros(2), np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert np.array_equal(weight(pts, 0), [1.0, 1.0])
        assert np.allclose(weight(pts, 2), [1.0, 36.0], rtol=0, atol=1e-12)

    def test_weighted_norm_weights_before_estimating(self):
        # above height 1 the split norm is the parabolic norm, taken of
        # the weighted function (1+|x|)^q u
        rng = np.random.default_rng(9)
        pts = random_points(rng, 25, height_lo=1.5)
        u = rng.normal(size=25)
        rep = split_holder_norm(u, pts, 0.5, q=2.0)
        wu = weight(pts, 2.0) * u
        assert rep.sup == float(np.max(np.abs(wu)))
        oracle = brute_seminorm(wu, pts, 0.5, parabolic_distance)
        assert abs(rep.seminorm - oracle) <= 1e-12 * max(1.0, oracle)
        assert rep.total == rep.sup + rep.seminorm

    def test_split_norm_against_pieces(self):
        rng = np.random.default_rng(10)
        pts = random_points(rng, 40)
        u = rng.normal(size=40)
        rep = split_holder_norm(u, pts, 0.5, q=1.0)
        wu = weight(pts, 1.0) * u
        low = pts.x[:, -1] <= 1.0 + 1e-12
        high = pts.x[:, -1] >= 1.0 - 1e-12
        semi = (brute_seminorm(wu[low], pts.subset(low), 0.5,
                               cycloidal_distance)
                + brute_seminorm(wu[high], pts.subset(high), 0.5,
                                 parabolic_distance))
        assert abs(rep.seminorm - semi) <= 1e-12 * max(1.0, semi)
        assert rep.sup == float(np.max(np.abs(wu)))

    def test_split_norm_reduces_to_single_metric(self):
        rng = np.random.default_rng(12)
        low_pts = random_points(rng, 20, height_hi=0.9)
        u = rng.normal(size=20)
        rep = split_holder_norm(u, low_pts, 0.5)
        assert rep.seminorm == seminorm(u, low_pts, 0.5, "s").value
        high_pts = random_points(rng, 20, height_lo=1.1)
        v = rng.normal(size=20)
        rep2 = split_holder_norm(v, high_pts, 0.5)
        assert rep2.seminorm == seminorm(v, high_pts, 0.5, "rho").value

    def test_analytic_constituents_closed_form(self):
        t_sym, *syms = symbols(2)
        u = from_sympy(2, t_sym + syms[0] ** 2 + syms[1] ** 3)
        rng = np.random.default_rng(13)
        pts = random_points(rng, 30)
        vals, dt, du, wdd = analytic_constituents(u, pts)
        x, h = pts.x, pts.x[:, -1]
        assert np.allclose(vals, pts.t + x[:, 0] ** 2 + h ** 3,
                           rtol=0, atol=1e-12)
        assert np.allclose(dt, 1.0, rtol=0, atol=1e-12)
        assert np.allclose(du[0], 2 * x[:, 0], rtol=0, atol=1e-12)
        assert np.allclose(du[1], 3 * h ** 2, rtol=0, atol=1e-12)
        # ordered (0,0), (0,1), (1,1); each weighted by the height
        assert np.allclose(wdd[0], 2 * h, rtol=0, atol=1e-12)
        assert np.allclose(wdd[1], 0.0, rtol=0, atol=1e-12)
        assert np.allclose(wdd[2], 6 * h * h, rtol=0, atol=1e-11)

    def test_grid_constituents_match_analytic(self, sample):
        # space-quadratic, time-quadratic: every stencil is exact
        t_sym, *syms = symbols(2)
        u = from_sympy(
            2, (1 + t_sym ** 2) * (1 + syms[0] ** 2 + 0.5 * syms[1] ** 2))
        grid = Grid.build(2, x_extent=2.0, height=2.0, n_lateral=9,
                          n_height=9, t_final=1.0, n_slices=6)
        gf = sample(grid, u)
        pts, ti, si = grid_point_set(grid)
        got = grid_constituents(gf, ti, si)
        want = analytic_constituents(u, pts)
        for a, b in zip(got, (want[0], want[1])):
            assert np.allclose(a, b, rtol=0, atol=1e-9)
        for a, b in zip(got[2], want[2]):
            assert np.allclose(a, b, rtol=0, atol=1e-9)
        for a, b in zip(got[3], want[3]):
            assert np.allclose(a, b, rtol=0, atol=1e-9)

    def test_order2_norm_totals(self):
        rng = np.random.default_rng(14)
        pts = random_points(rng, 25)
        syms = symbols(2)[1:]
        u = from_sympy(2, sp.sin(syms[0]) * (1 + syms[1] ** 2))
        cons = analytic_constituents(u, pts)
        total, reports = order2_norm(cons, pts, 0.5, q=1.0)
        assert len(reports) == 4
        assert abs(total - sum(r.total for r in reports)) <= 1e-12 * total
        assert all(r.q == 1.0 for r in reports)


def reference_seminorm(values, pts, alpha, metric, budget=200_000, seed=0):
    # the estimate written out from its formula, with no pair table:
    # all pairs i < j within the budget, else budget seeded pairs i != j
    m = pts.size
    if m < 2:
        return SeminormEstimate(0.0, 0)
    if m * (m - 1) // 2 <= budget:
        i, j = np.triu_indices(m, k=1)
    else:
        rng = np.random.default_rng(seed)
        i = rng.integers(0, m, size=budget)
        j = rng.integers(0, m - 1, size=budget)
        j = j + (j >= i)
    dist_fn = {"s": cycloidal_distance_arrays,
               "rho": parabolic_distance_arrays}[metric]
    dist = dist_fn(pts.t[i], pts.x[i], pts.t[j], pts.x[j])
    diff = np.abs(values[i] - values[j])
    quot = np.divide(diff, dist ** alpha, out=np.zeros_like(diff),
                     where=dist > 0)
    k = int(np.argmax(quot))
    if quot[k] == 0.0:
        return SeminormEstimate(0.0, len(quot))
    return SeminormEstimate(float(quot[k]), len(quot), pts.point(i[k]),
                            pts.point(j[k]))


def fresh(pts, seed=0):
    # an equal point set with no tables of its own
    return PointSet(pts.t.copy(), pts.x.copy(), seed)


def set_budget(monkeypatch, budget):
    # the pair budget is a module constant, outside the pair tables' key
    monkeypatch.setattr(metrics, "PAIR_BUDGET", budget)


class TestPairTables:
    # (metric, alpha): one point set sees every key in turn, so a table
    # reused under a key that misses either field returns the pairs or
    # distances of another key.  Each pair budget (all 780 pairs within
    # it, else that many pairs drawn with the point set's seed) and seed
    # takes a fresh point set.
    KEYS = [(metric, alpha) for metric in ("s", "rho") for alpha in (0.3, 0.7)]
    BUDGETS = [200_000, 700]

    def test_tabled_estimate_matches_reference(self, monkeypatch):
        rng = np.random.default_rng(21)
        base = random_points(rng, 40)
        values = (rng.normal(size=40), rng.normal(size=40))
        for budget, seed in itertools.product(self.BUDGETS, (1, 2)):
            set_budget(monkeypatch, budget)
            pts = fresh(base, seed)
            for u in values:
                for metric, alpha in self.KEYS:
                    got = seminorm(u, pts, alpha, metric)
                    want = reference_seminorm(u, fresh(pts), alpha, metric,
                                              budget, seed)
                    assert got == want
                    assert got.n_pairs == min(40 * 39 // 2, budget)
                    assert got.argmax_p1 is not None

    def test_split_norm_matches_reference(self, monkeypatch):
        rng = np.random.default_rng(22)
        base = random_points(rng, 60, height_hi=2.0)
        u = rng.normal(size=60)
        # the low subset has 630 pairs and the high one 276, so at a
        # budget of 500 one is sampled, with the seed its subset keeps, and
        # the other exhaustive
        for budget, seeds in ((200_000, (0,)), (500, (3, 4))):
            set_budget(monkeypatch, budget)
            point_sets = {seed: fresh(base, seed) for seed in seeds}
            for seed, q in itertools.product(seeds, (0.0, 1.0)):
                pts = point_sets[seed]
                kw = dict(budget=budget, seed=seed)
                rep = split_holder_norm(u, pts, 0.5, q=q)
                wu = weight(pts, q) * u
                low = pts.x[:, -1] <= 1.0 + 1e-12
                high = pts.x[:, -1] >= 1.0 - 1e-12
                est_s = reference_seminorm(wu[low], fresh(pts).subset(low),
                                           0.5, "s", **kw)
                est_r = reference_seminorm(wu[high],
                                           fresh(pts).subset(high), 0.5,
                                           "rho", **kw)
                best = est_s if est_s.value >= est_r.value else est_r
                assert rep.seminorm == est_s.value + est_r.value
                assert rep.n_pairs == est_s.n_pairs + est_r.n_pairs
                assert (rep.argmax_p1, rep.argmax_p2) \
                    == (best.argmax_p1, best.argmax_p2)
                assert rep.argmax_p1 is not None

    @pytest.fixture
    def distance_calls(self, monkeypatch):
        calls = []

        def counting(metric, fn):
            def wrapped(*args):
                calls.append(metric)
                return fn(*args)
            return wrapped

        monkeypatch.setattr(metrics, "_METRICS", {
            k: counting(k, fn) for k, fn in metrics._METRICS.items()})
        return calls

    def test_order2_norm_computes_each_distance_once(self, distance_calls):
        rng = np.random.default_rng(23)
        pts = random_points(rng, 80, height_hi=2.0)
        syms = symbols(2)[1:]
        u = from_sympy(2, sp.sin(syms[0]) * (1 + syms[1] ** 2))
        cons = analytic_constituents(u, pts)
        for q in (0.0, 1.0):
            order2_norm(cons, pts, 0.5, q=q)
        # 7 constituents x 2 weights, each split over a low (s) and a high
        # (rho) subset, yet one distance computation per (subset, metric)
        assert sorted(distance_calls) == ["rho", "s"]

    def test_interpolation_cases_compute_distances_once(self,
                                                        distance_calls):
        rng = np.random.default_rng(24)
        pts = random_points(rng, 60, height_hi=1.3)
        syms = symbols(2)[1:]
        u = from_sympy(2, sp.cos(syms[0]) * syms[1] ** 2)
        interpolation_cases(u, pts, 0.5)
        assert distance_calls == ["s"]
        # a second point set pays for its own table
        interpolation_cases(u, fresh(pts), 0.5)
        assert distance_calls == ["s", "s"]


class TestPointSets:
    def test_exhaustive_below_cap(self):
        grid = Grid.build(2, 1.0, 1.0, 5, 5, 0.5, 4)
        pts, ti, si = grid_point_set(grid, n_max=4000)
        assert pts.size == 4 * 25
        assert np.array_equal(pts.t, grid.times[ti])

    def test_subsample_deterministic_and_masked(self):
        grid = Grid.build(2, 1.0, 1.0, 9, 9, 0.5, 6)
        mask = grid.audited_mask()
        a = grid_point_set(grid, mask, n_max=100, seed=3)[0]
        b = grid_point_set(grid, mask, n_max=100, seed=3)[0]
        assert np.array_equal(a.t, b.t) and np.array_equal(a.x, b.x)
        assert a.size == 100
        # margin_frac 0.25 keeps |x1| <= 0.75 and heights <= 0.75
        assert np.all(np.abs(a.x[:, 0]) <= 0.75 + 1e-12)
        assert np.all(a.x[:, 1] <= 0.75 + 1e-12)

    def test_gather_matches_nodes(self, sample):
        grid = Grid.build(2, 1.0, 1.0, 5, 5, 0.5, 4)
        gf = sample(grid, "t + x1 + 2*x2")
        pts, ti, si = grid_point_set(grid)
        vals = gather(gf, ti, si)
        assert np.allclose(vals, pts.t + pts.x[:, 0] + 2 * pts.x[:, 1],
                           rtol=0, atol=1e-12)


class TestCsv:
    def test_header_and_roundtrip(self):
        rng = np.random.default_rng(15)
        pts = random_points(rng, 20)
        u = rng.normal(size=20)
        reports = [holder_norm(u, pts, 0.5, "s"),
                   split_holder_norm(u, pts, 0.5, q=2.0)]
        text = holder_reports_to_csv(reports)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert tuple(rows[0].keys()) == HOLDER_CSV_COLUMNS
        assert len(rows) == 2
        assert float(rows[0]["total"]) == reports[0].total
        assert rows[1]["metric"] == "split"
        assert int(rows[0]["n_pairs"]) == reports[0].n_pairs

