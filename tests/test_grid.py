"""Grids, finite-difference derivatives and grid functions."""

import numpy as np
import pytest

from degenpde.grid import Grid, GridFunction, Region, SpaceTimePoint


def along_axis(x, values, axis=0, n_t=3):
    """Grid function varying only along one spatial axis, with nodes x."""
    other = np.array([0.0, 0.5, 1.0])
    axes = [other, other]
    axes[axis] = np.asarray(x, dtype=float)
    shape = [1, 1, 1]
    shape[1 + axis] = len(x)
    grid = Grid(axes, np.linspace(0.0, 1.0, n_t))
    vals = np.broadcast_to(np.reshape(values, shape),
                           (n_t,) + grid.shape)
    return GridFunction(grid, vals)


def profile(gf, axis=0):
    """Values along one spatial axis at the first slice and node."""
    return gf.values[0, :, 0] if axis == 0 else gf.values[0, 0, :]


class TestWeights:
    """Stencil weights, seen through the derivatives of a GridFunction."""

    def test_uniform_three_point(self):
        u = np.array([0.3, -1.2, 2.5])
        gf = along_axis([-1.0, 0.0, 1.0], u)
        d1 = profile(gf.derivative(0))[1]
        d2 = profile(gf.second_derivative(0, 0))[1]
        assert abs(d1 - 0.5 * (u[2] - u[0])) <= 1e-14
        assert abs(d2 - (u[0] - 2.0 * u[1] + u[2])) <= 1e-14

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_on_polynomials(self, seed):
        # 3-point first and second derivatives are exact for quadratics
        # on any spacing; the 4-node end rows also for cubics
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(-1.0, 2.0, 6))
        for k in range(4):
            gf = along_axis(x, x ** k)
            d1 = profile(gf.derivative(0))
            d2 = profile(gf.second_derivative(0, 0))
            want1 = k * x ** (k - 1) if k else 0 * x
            want2 = k * (k - 1) * x ** (k - 2) if k > 1 else 0 * x
            tol = 1e-10 * max(1.0, np.max(np.abs(want2)))
            if k < 3:
                assert np.allclose(d1, want1, rtol=0, atol=tol)
                assert np.allclose(d2, want2, rtol=0, atol=tol)
            else:
                assert np.allclose(d2[[0, -1]], want2[[0, -1]],
                                   rtol=0, atol=tol)

    def test_needs_enough_nodes(self):
        # second-order end rows need three slices on the time axis
        grid = Grid.build(2, 1.0, 1.0, 3, 3, 1.0, 2)
        gf = GridFunction(grid, np.zeros((2, 3, 3)))
        with pytest.raises(ValueError):
            gf.time_derivative()


class TestDiffMatrix:
    """Differentiation along one axis of a GridFunction."""

    def test_exact_for_quadratics_nonuniform(self):
        x = np.array([0.0, 0.1, 0.35, 0.7, 1.2, 2.0])
        for axis in (0, 1):
            gf = along_axis(x, 3.0 - 2.0 * x + 0.5 * x ** 2, axis)
            d1 = profile(gf.derivative(axis), axis)
            d2 = profile(gf.second_derivative(axis, axis), axis)
            assert np.allclose(d1, -2.0 + x, rtol=0, atol=1e-12)
            assert np.allclose(d2, 1.0, rtol=0, atol=1e-12)

    def test_second_derivative_edges_use_four_nodes(self):
        x = np.linspace(0.0, 1.0, 7)
        d2 = profile(along_axis(x, x ** 3).second_derivative(0, 0))
        # 4-node one-sided rows are exact for cubics at the ends
        assert abs(d2[0] - 6 * x[0]) <= 1e-10
        assert abs(d2[-1] - 6 * x[-1]) <= 1e-10
        # a 3-node axis falls back to 3-node rows, exact for quadratics
        x3 = np.array([0.0, 0.2, 1.0])
        d2 = profile(along_axis(x3, x3 ** 2).second_derivative(0, 0))
        assert np.allclose(d2, 2.0, rtol=0, atol=1e-12)

    def test_apply_along_axis(self):
        # each derivative acts along its own axis only
        x = np.linspace(0.0, 1.0, 5)
        gf = along_axis(x, x ** 2)
        assert np.allclose(gf.derivative(0).values,
                           2 * x[None, :, None] * np.ones((3, 5, 3)),
                           rtol=0, atol=1e-12)
        assert np.array_equal(gf.derivative(1).values, np.zeros((3, 5, 3)))
        assert np.array_equal(gf.time_derivative().values,
                              np.zeros((3, 5, 3)))


class TestGrid:
    def test_build_quadratic_grading(self):
        grid = Grid.build(2, x_extent=3.0, height=2.0, n_lateral=7,
                          n_height=5, t_final=1.0, n_slices=11)
        assert grid.shape == (7, 5)
        assert grid.n_t == 11
        assert grid.axes[-1][0] == 0.0
        j = np.arange(5) / 4.0
        assert np.allclose(grid.axes[-1], 2.0 * j ** 2, rtol=0, atol=1e-15)
        assert np.allclose(grid.axes[0], np.linspace(-3, 3, 7),
                           rtol=0, atol=1e-15)
        assert grid.times[0] == 0.0 and grid.t_final == 1.0

    def test_build_uniform_grading(self):
        grid = Grid.build(2, 1.0, 2.0, 5, 5, 0.5, 3, grading="uniform")
        assert np.allclose(np.diff(grid.axes[-1]), 0.5, rtol=0, atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid.build(1, 1.0, 1.0, 5, 5, 1.0, 3)
        with pytest.raises(ValueError):
            Grid.build(2, 1.0, 1.0, 5, 5, 1.0, 3, grading="cubic")
        with pytest.raises(ValueError):
            Grid(([0.0, 1.0, 0.5], [0.0, 0.5, 1.0]), [0.0, 1.0])
        with pytest.raises(ValueError):
            Grid(([-1.0, 0.0, 1.0], [0.5, 1.0, 1.5]), [0.0, 1.0])
        with pytest.raises(ValueError):
            Grid(([-1.0, 0.0, 1.0], [0.0, 0.5, 1.0]), [0.5, 1.0])
        for t_final in (0.0, -0.5):
            with pytest.raises(ValueError, match="increase strictly"):
                Grid.build(2, 1.0, 1.0, 5, 5, t_final, 3)

    def test_dirichlet_mask_layout(self):
        grid = Grid.build(2, 1.0, 1.0, 5, 4, 1.0, 3)
        mask = grid.dirichlet_mask()
        assert mask.shape == (5, 4)
        assert mask[0].all() and mask[-1].all()      # lateral faces
        assert mask[:, -1].all()                     # top face
        assert not mask[1:-1, 0].any()               # open degenerate bottom
        assert int(mask.sum()) == 2 * 4 + 5 - 2

    def test_audited_mask_margin(self):
        grid = Grid.build(2, 2.0, 2.0, 9, 9, 1.0, 3, grading="uniform")
        mask = grid.audited_mask()
        mesh = grid.meshes()
        inside = (np.abs(mesh[0]) <= 1.5 + 1e-12) & (mesh[1] <= 1.5 + 1e-12)
        assert np.array_equal(mask, inside)

    def test_nodes_row_major(self):
        grid = Grid.build(2, 1.0, 1.0, 3, 3, 1.0, 3)
        nodes = grid.nodes()
        assert nodes.shape == (9, 2)
        assert np.array_equal(nodes[0], [-1.0, 0.0])
        assert np.array_equal(nodes[1], [-1.0, grid.axes[1][1]])

    def test_equality(self):
        a = Grid.build(2, 1.0, 1.0, 5, 5, 1.0, 3)
        b = Grid.build(2, 1.0, 1.0, 5, 5, 1.0, 3)
        c = Grid.build(2, 1.0, 1.0, 5, 5, 1.0, 4)
        assert a == b and a != c


class TestRegion:
    def test_sampling_stays_inside(self):
        region = Region(0.0, 2.0, (-1.0, 0.0), (1.0, 3.0))
        rng = np.random.default_rng(1)
        t, x = region.sample(rng, 500)
        assert t.shape == (500,) and x.shape == (500, 2)
        assert t.min() >= 0.0 and t.max() <= 2.0
        assert x[:, 0].min() >= -1.0 and x[:, 1].max() <= 3.0

    def test_sampling_box(self):
        box = Region.sampling_box(3)
        assert (box.t_lo, box.t_hi) == (0.0, 1.0)
        assert box.x_lo == (-4.0, -4.0, 0.0) and box.x_hi == (4.0,) * 3

    def test_negative_height_rejected(self):
        with pytest.raises(ValueError):
            Region(0.0, 1.0, (-1.0, -0.5), (1.0, 1.0))


class TestGridFunction:
    def test_shape_checked(self):
        grid = Grid.build(2, 1.0, 1.0, 3, 3, 1.0, 3)
        with pytest.raises(ValueError):
            GridFunction(grid, np.zeros((2, 3, 3)))

    def test_sup_with_mask(self, sample):
        grid = Grid.build(2, 1.0, 1.0, 5, 5, 1.0, 3)
        gf = sample(grid, "x1")
        assert gf.sup() == 1.0
        inner = ~grid.dirichlet_mask()
        assert gf.sup(inner) < 1.0

    def test_time_derivative_exact_for_quadratic(self, sample):
        grid = Grid.build(2, 1.0, 1.0, 3, 3, 2.0, 9)
        gf = sample(grid, "t**2")
        dt = gf.time_derivative()
        want = 2.0 * grid.times[:, None, None] * np.ones(grid.shape)
        assert np.allclose(dt.values, want, rtol=0, atol=1e-11)

    def test_mixed_derivative_symmetry(self, sample):
        grid = Grid.build(2, 1.0, 1.0, 7, 7, 1.0, 3)
        gf = sample(grid, "sin(x1)*x2**2")
        d01 = gf.second_derivative(0, 1).values
        d10 = gf.second_derivative(1, 0).values
        assert np.allclose(d01, d10, rtol=0, atol=1e-12)

    def test_weighted_by_height(self, sample):
        grid = Grid.build(2, 1.0, 1.0, 3, 4, 1.0, 3)
        gf = sample(grid, "1")
        w = gf.weighted_by_height()
        assert np.allclose(w.values[0, 0, :], grid.axes[1], rtol=0,
                           atol=1e-15)
        assert w.values[:, :, 0].max() == 0.0


def test_space_time_point_is_frozen():
    p = SpaceTimePoint(0.5, (1.0, 2.0))
    assert p.height == 2.0
    with pytest.raises(Exception):
        p.t = 1.0
