"""Change of variables to the model form and its certificates."""

import numpy as np
import pytest

from degenpde.analytic import affine, constant, profile
from degenpde.fields import constant_field, heston
from degenpde.grid import Grid, GridFunction
from degenpde.reduction import (
    ReductionPlan,
    build_reduction_plan,
    pullback_grid_function,
    shear_transform,
)
from degenpde.solver import operator_apply


def random_spd(rng, n, spread=2.0):
    M = rng.normal(size=(n, n))
    return M @ M.T + spread * np.eye(n)


def lateral_block(a):
    """Schur complement of the height entry, the block the plan rotates."""
    a = np.asarray(a, dtype=float)
    return a[:-1, :-1] - np.outer(a[:-1, -1], a[:-1, -1]) / a[-1, -1]


def plan_for(a):
    b = np.zeros(len(a))
    b[-1] = 1.0
    return build_reduction_plan(constant_field(a, b, 0.0))


class TestJacobi:
    """Eigenbasis of the lateral block: ReductionPlan.eigvals and P."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_matches_reference_eigensolver(self, n):
        rng = np.random.default_rng(n)
        a = random_spd(rng, n + 1, spread=0.5)
        plan = plan_for(a)
        lat = lateral_block(a)
        w, V = plan.eigvals, plan.P
        assert np.allclose(w, np.linalg.eigvalsh(lat), rtol=1e-12,
                           atol=1e-12)
        assert np.allclose(V @ V.T, np.eye(n), rtol=0, atol=1e-12)
        assert np.allclose(lat @ V, V @ np.diag(w), rtol=0, atol=1e-11)

    def test_ascending_and_sign_convention(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            plan = plan_for(random_spd(rng, 5, spread=0.1))
            assert np.all(np.diff(plan.eigvals) >= 0)
            for k in range(4):
                lead = np.flatnonzero(np.abs(plan.P[:, k]) > 1e-12)[0]
                assert plan.P[lead, k] > 0

    def test_deterministic(self):
        a = [[3.0, 1.0, 0.5, 0.2], [1.0, 2.0, 0.25, 0.1],
             [0.5, 0.25, 1.0, 0.3], [0.2, 0.1, 0.3, 1.0]]
        p1, p2 = plan_for(a), plan_for(a)
        assert np.array_equal(p1.eigvals, p2.eigvals)
        assert np.array_equal(p1.P, p2.P)

    def test_diagonal_input_unchanged(self):
        plan = plan_for(np.diag([2.0, 1.0, 3.0, 1.0]))
        assert np.array_equal(plan.eigvals, [1.0, 2.0, 3.0])
        assert np.array_equal(plan.P, np.eye(3)[:, [1, 0, 2]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            plan_for([[1.0, 2.0], [0.0, 1.0]])


class TestShear:
    def test_worked_example(self):
        # the lateral block becomes the Schur complement 2 - 1*1/1 = 1,
        # not the original entry
        alpha, S, sheared = shear_transform([[2.0, 1.0], [1.0, 1.0]])
        assert np.allclose(alpha, [-1.0], rtol=0, atol=1e-15)
        assert np.allclose(sheared, np.eye(2), rtol=0, atol=1e-15)

    def test_block_structure(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_spd(rng, 3)
            alpha, S, sheared = shear_transform(a)
            assert np.allclose(sheared[:-1, -1], 0.0, rtol=0, atol=1e-12)
            assert abs(sheared[-1, -1] - a[-1, -1]) <= 1e-12
            schur = a[:-1, :-1] - np.outer(a[:-1, -1], a[:-1, -1]) / a[-1, -1]
            assert np.allclose(sheared[:-1, :-1], schur, rtol=0, atol=1e-12)

    def test_rejects_nonpositive_corner(self):
        with pytest.raises(ValueError):
            shear_transform([[1.0, 0.0], [0.0, -1.0]])


class TestPlan:
    def test_worked_unit_corner_field(self):
        f = constant_field([[2.0, 1.0], [1.0, 1.0]], [1.0, 2.0], -0.5)
        plan = build_reduction_plan(f)
        for value in plan.certificates.values():
            assert np.isfinite(value)
        assert plan.certificates["orthogonality"] <= 1e-12
        assert plan.certificates["shear_offdiagonal"] <= 1e-12
        assert plan.certificates["model_diffusion"] <= 1e-12
        assert plan.certificates["inverse"] <= 1e-12
        # a^dd = 1: model drift keeps the height component b^d exactly
        assert abs(plan.b_bar[-1] - 2.0) <= 1e-12
        assert abs(plan.certificates["model_drift_height"] - 2.0) <= 1e-12
        assert plan.c == -0.5

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_certificates_random_fields(self, seed):
        rng = np.random.default_rng(seed)
        d = 2 + seed % 2
        a = random_spd(rng, d)
        b = rng.normal(size=d)
        b[-1] = abs(b[-1]) + 0.5
        f = constant_field(a, b, -float(rng.uniform(0, 1)))
        plan = build_reduction_plan(f)
        for key in ("orthogonality", "shear_offdiagonal",
                    "model_diffusion", "inverse"):
            assert plan.certificates[key] <= 1e-12, (key, plan.certificates)
        # height drift transforms by 1/a^dd
        assert abs(plan.b_bar[-1] - b[-1] / a[-1, -1]) <= 1e-12
        assert plan.b_bar[-1] > 0
        z = rng.normal(size=(50, d))
        assert np.allclose(plan.forward_points(z @ plan.backward.T), z,
                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_operator_equivalence(self, seed):
        # w = exp(-ct) u(t, B z) must satisfy the model equation with the
        # transformed right side: the full algebra in one identity
        rng = np.random.default_rng(seed)
        a = random_spd(rng, 2)
        b = rng.normal(size=2)
        b[-1] = abs(b[-1]) + 0.5
        f = constant_field(a, b, float(rng.uniform(-1, 1)))
        plan = build_reduction_plan(f)

        # u = sin(x1) (1 + x2^2) + t x1 / 10 + cos(t)
        u = (profile("cos", [0.0, 1.0, 0.0], -np.pi / 2)
             * (constant(2, 1.0) + profile("power", [0.0, 0.0, 1.0],
                                           param=2))
             + 0.1 * affine([1.0, 0.0, 0.0]) * affine([0.0, 1.0, 0.0])
             + profile("cos", [1.0, 0.0, 0.0]))
        rhs = operator_apply(f, u)

        w = plan.transform_analytic(u)
        model_rhs = operator_apply(plan.model_field(), w)

        t = rng.uniform(0.0, 1.0, 200)
        z = rng.uniform(-2.0, 2.0, (200, 2))
        z[:, -1] = rng.uniform(0.05, 2.0, 200)
        got = model_rhs.value(t, z)
        # e^{-ct} (L u)(t, B z)
        want = plan.multiplier(-t) * rhs.value(t, z @ plan.backward.T)
        scale = float(np.max(np.abs(want))) + 1.0
        assert np.allclose(got, want, rtol=0, atol=1e-9 * scale)

    def test_multiplier_and_pullbacks(self):
        f = constant_field(np.eye(2), [0.0, 1.0], -0.5)
        plan = build_reduction_plan(f)
        assert abs(plan.multiplier(2.0) - np.exp(-1.0)) <= 1e-15
        u = affine([0.0, 1.0, 1.0])  # x1 + x2
        rng = np.random.default_rng(8)
        t, z = rng.uniform(0.0, 1.0, 20), rng.normal(size=(20, 2))
        pulled = u.affine_pullback(plan.backward)
        assert np.array_equal(pulled.value(t, z),
                              u.value(t, z @ plan.backward.T))
        assert np.allclose(plan.transform_analytic(u).value(t, z),
                           np.exp(0.5 * t) * pulled.value(t, z),
                           rtol=1e-15, atol=0)
        # with c = 0 there is no multiplier to carry
        plain = build_reduction_plan(constant_field(np.eye(2), [0.0, 1.0],
                                                    0.0))
        assert not plain.transform_analytic(u).depends(0)

    def test_model_field_form(self):
        f = constant_field([[1.0, 0.25], [0.25, 0.5]], [0.3, 0.7], 0.0)
        model = build_reduction_plan(f).model_field()
        a, b, c = model.constant_parts()
        assert np.array_equal(a, np.eye(2))
        assert c == 0.0
        assert b[-1] > 0

    def test_requires_constant_coefficients(self):
        with pytest.raises(ValueError):
            build_reduction_plan(heston(2.0, 0.25, 1.0, 0.3))

    def test_describe_mentions_certificates(self):
        f = constant_field(np.eye(2), [0.0, 1.0], 0.0)
        text = build_reduction_plan(f).describe()
        assert "model_diffusion" in text and "forward matrix" in text


class TestInterpolation:
    """pullback_grid_function: multilinear sampling of a grid function."""

    def test_exact_for_multilinear(self, sample):
        source = Grid((np.array([-1.0, 0.0, 2.0]),
                       np.array([0.0, 0.5, 1.25, 2.0])), [0.0, 0.5, 1.0])
        gf = sample(source, "(1 + t)*(2 + 3*x1 - x2 + x1*x2/2)")
        target = Grid.build(2, 1.0, 2.0, 7, 9, 1.0, 3)
        M = np.array([[0.5, 0.2], [0.0, 0.7]])
        got = pullback_grid_function(gf, target, M)
        Z1, Z2 = target.meshes()
        X1, X2 = 0.5 * Z1 + 0.2 * Z2, 0.7 * Z2
        want = ((1 + target.times[:, None, None])
                * (2.0 + 3.0 * X1 - X2 + 0.5 * X1 * X2))
        assert np.allclose(got.values, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("grading", ["uniform", "quadratic"])
    def test_matches_regular_grid_interpolator(self, d, grading):
        # scipy's interpolator, which the pullback replaced, is the
        # reference; the shears keep every point inside the source box
        from scipy.interpolate import RegularGridInterpolator

        rng = np.random.default_rng(d)
        for _ in range(15):
            source, target = (
                Grid.build(d, extent, extent, *rng.integers(3, 12, 2), 0.5,
                           3, grading=grading) for extent in (2.0, 1.0))
            M = np.eye(d)
            M[:-1, -1] = rng.uniform(-0.5, 0.5, d - 1)
            M[:-1, :-1] += rng.uniform(-0.2, 0.2, (d - 1, d - 1))
            vals = rng.normal(size=(3,) + source.shape)
            got = pullback_grid_function(GridFunction(source, vals), target,
                                         M).values
            want = RegularGridInterpolator(
                source.axes, np.moveaxis(vals, 0, -1))(target.nodes() @ M.T)
            want = want.T.reshape(got.shape)
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())

    def test_hits_nodes_exactly(self):
        grid = Grid((np.array([-1.0, 0.5, 3.0]), np.array([0.0, 1.0, 3.0])),
                    [0.0, 1.0])
        vals = np.random.default_rng(3).normal(size=(2, 3, 3))
        got = pullback_grid_function(GridFunction(grid, vals), grid,
                                     np.eye(2))
        assert np.array_equal(got.values, vals)

    def test_refuses_extrapolation(self):
        grid = Grid.build(2, 1.0, 1.0, 5, 5, 1.0, 3)
        gf = GridFunction(grid, np.zeros((3, 5, 5)))
        with pytest.raises(ValueError, match="refusing to extrapolate"):
            pullback_grid_function(gf, grid, 1.5 * np.eye(2))

    def test_clips_points_within_tolerance(self, sample):
        # a point 1e-12 of the span outside an axis is taken as the end node
        source = Grid.build(2, 1.0, 1.0, 5, 5, 1.0, 3)
        gf = sample(source, "t + x1 + x2**2")
        pad = 1e-12 * 2.0
        target = Grid((source.axes[0] + np.linspace(-pad, pad, 5),
                       source.axes[1]), source.times)
        got = pullback_grid_function(gf, target, np.eye(2))
        assert np.allclose(got.values, gf.values, rtol=0, atol=1e-11)

    def test_pullback_identity(self, sample):
        grid = Grid.build(2, 1.0, 1.0, 5, 5, 1.0, 3)
        gf = sample(grid, "sin(x1) + x2")
        back = pullback_grid_function(gf, grid, np.eye(2))
        assert np.allclose(back.values, gf.values, rtol=0, atol=1e-12)

    def test_pullback_requires_matching_times(self):
        g1 = Grid.build(2, 1.0, 1.0, 5, 5, 1.0, 3)
        g2 = Grid.build(2, 1.0, 1.0, 5, 5, 1.0, 4)
        gf = GridFunction(g1, np.zeros((3, 5, 5)))
        with pytest.raises(ValueError):
            pullback_grid_function(gf, g2, np.eye(2))


def test_linear_solution_round_trips_exactly(sample):
    # multilinear interpolation reproduces affine functions, so a full
    # map-solve-free round trip of an affine profile is exact
    f = constant_field([[2.0, 1.0], [1.0, 1.0]], [1.0, 2.0], -0.5)
    plan = build_reduction_plan(f)
    source = Grid.build(2, 1.0, 1.0, 7, 7, 0.5, 4)
    u = affine([0.0, 1.0, 2.0], 1.0)  # 1 + x1 + 2 x2
    w_analytic = plan.transform_analytic(u)

    corners = plan.forward_points(
        np.array([[sx, sy] for sx in (-1.0, 1.0) for sy in (0.0, 1.0)]))
    m = float(np.max(np.abs(corners[:, 0]))) * 1.01
    top = float(np.max(corners[:, 1])) * 1.01
    model_grid = Grid((np.linspace(-m, m, 9),
                       np.linspace(0.0, top, 9)), source.times)
    back = plan.recover_grid_function(sample(model_grid, w_analytic), source)
    assert np.allclose(back.values, sample(source, u).values, rtol=0,
                       atol=1e-12)
