"""Space-time grids on the truncated half-space slab.

The spatial domain is the box [-X, X]^(d-1) x [0, Y]: the last coordinate
is the degenerate direction and its axis starts exactly at 0.  Lateral axes
are uniform; the height axis is either uniform or quadratically graded
toward the bottom so that nodes cluster near the degenerate boundary.
Time is a uniform axis on [0, T].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Height-axis gradings: name -> node placement of j in [0, 1].
GRADINGS = {"quadratic": np.square, "uniform": lambda j: j}


def _second_difference(values, x, axis):
    """Second derivative of values along one axis with nodes x.

    Three-point stencils on the non-uniform slices inside; at each end a
    one-sided row over four nodes (three when the axis has only three),
    exact for polynomials of degree one less than its node count.
    """
    u = np.moveaxis(values, axis, 0)
    col = (-1,) + (1,) * (u.ndim - 1)
    h0, h1 = np.diff(x)[:-1].reshape(col), np.diff(x)[1:].reshape(col)
    out = np.empty_like(u)
    out[1:-1] = 2.0 * (u[:-2] / (h0 * (h0 + h1)) - u[1:-1] / (h0 * h1)
                       + u[2:] / (h1 * (h0 + h1)))
    m = min(4, len(x))
    rhs = np.zeros(m)
    rhs[2] = 2.0
    for end, rows in ((0, slice(0, m)), (-1, slice(-m, None))):
        # sum_j w_j (x_j - x_end)^k = d^2/dx^2 (x - x_end)^k at x_end
        w = np.linalg.solve(np.vander(x[rows] - x[end], increasing=True).T,
                            rhs)
        out[end] = np.tensordot(w, u[rows], axes=1)
    return np.moveaxis(out, 0, axis)


@dataclass(frozen=True)
class SpaceTimePoint:
    """A point (t, x) of the closed slab, x[-1] >= 0."""

    t: float
    x: tuple

    @property
    def height(self):
        return self.x[-1]


@dataclass(frozen=True)
class Region:
    """Axis-aligned space-time box used for sampling and audits."""

    t_lo: float
    t_hi: float
    x_lo: tuple
    x_hi: tuple

    def __post_init__(self):
        if len(self.x_lo) != len(self.x_hi):
            raise ValueError("bound dimension mismatch")
        if self.x_lo[-1] < 0:
            raise ValueError("height bound must be nonnegative")

    @classmethod
    def sampling_box(cls, d):
        """[0, 1] x [-4, 4]^(d-1) x [0, 4]: where coefficient assumptions
        and supersolutions are sampled."""
        return cls(0.0, 1.0, (-4.0,) * (d - 1) + (0.0,), (4.0,) * d)

    @property
    def d(self):
        return len(self.x_lo)

    def sample(self, rng, n):
        """Uniform points: (t array of shape (n,), x array of shape (n, d))."""
        t = rng.uniform(self.t_lo, self.t_hi, size=n)
        x = rng.uniform(self.x_lo, self.x_hi, size=(n, self.d))
        return t, x


class Grid:
    """Tensor-product space-time grid.

    Attributes
    ----------
    axes : tuple of 1-d arrays, one per spatial coordinate.  The last axis
        starts at exactly 0.
    times : 1-d array of time slices, times[0] == 0.
    """

    def __init__(self, axes, times):
        axes = tuple(np.asarray(a, dtype=float) for a in axes)
        times = np.asarray(times, dtype=float)
        for a in axes:
            if len(a) < 3:
                raise ValueError("every spatial axis needs at least 3 nodes")
            if np.any(np.diff(a) <= 0):
                raise ValueError("axis nodes must increase strictly")
        if axes[-1][0] != 0.0:
            raise ValueError("height axis must start at 0")
        if len(times) < 2 or times[0] != 0.0 or np.any(np.diff(times) <= 0):
            raise ValueError("time axis must start at 0 and increase "
                             "strictly over >= 2 slices")
        self.axes = axes
        self.times = times
        # the solver's stencil plan, built on first use; axes are never
        # mutated after construction, or it would go stale
        self._stencil = None

    @classmethod
    def build(cls, d, x_extent, height, n_lateral, n_height, t_final,
              n_slices, grading="quadratic"):
        """Standard truncated box [-X, X]^(d-1) x [0, Y] x [0, T].

        grading 'quadratic' places height nodes at Y*(j/(n-1))^2, which
        clusters them near the degenerate boundary; 'uniform' is the
        evenly spaced alternative.
        """
        if d < 2:
            raise ValueError("spatial dimension must be >= 2")
        if grading not in GRADINGS:
            raise ValueError("unknown grading %r" % (grading,))
        if min(n_lateral, n_height) < 3:  # before dividing by n_height - 1
            raise ValueError("every spatial axis needs at least 3 nodes")
        lateral = np.linspace(-x_extent, x_extent, n_lateral)
        j = np.arange(n_height, dtype=float) / (n_height - 1)
        vert = height * GRADINGS[grading](j)
        axes = tuple([lateral.copy() for _ in range(d - 1)] + [vert])
        times = np.linspace(0.0, t_final, n_slices)
        return cls(axes, times)

    @property
    def d(self):
        return len(self.axes)

    @property
    def shape(self):
        return tuple(len(a) for a in self.axes)

    @property
    def n_t(self):
        return len(self.times)

    @property
    def dt(self):
        return self.times[1] - self.times[0]

    @property
    def t_final(self):
        return float(self.times[-1])

    def meshes(self, sparse=False):
        """List of d arrays of the spatial shape holding node coordinates.

        With sparse=True each array keeps only its own axis and has
        length 1 along the others; they broadcast to the spatial shape.
        """
        return list(np.meshgrid(*self.axes, indexing="ij", sparse=sparse))

    def nodes(self):
        """All spatial nodes as an (N, d) array in row-major node order."""
        mesh = self.meshes()
        return np.stack([m.ravel() for m in mesh], axis=1)

    def dirichlet_mask(self):
        """True at truncation nodes: lateral faces and the top face.

        The degenerate boundary (height 0) carries no condition.
        """
        mask = np.zeros(self.shape, dtype=bool)
        for i in range(self.d - 1):
            idx_lo = [slice(None)] * self.d
            idx_lo[i] = 0
            mask[tuple(idx_lo)] = True
            idx_hi = [slice(None)] * self.d
            idx_hi[i] = -1
            mask[tuple(idx_hi)] = True
        idx_top = [slice(None)] * self.d
        idx_top[-1] = -1
        mask[tuple(idx_top)] = True
        return mask

    def audited_mask(self):
        """True on the audited subregion away from the truncation faces.

        Lateral coordinates within 0.75 X of the center and heights below
        0.75 Y are kept; the outer quarter absorbs artificial-boundary
        error.
        """
        mask = np.ones(self.shape, dtype=bool)
        mesh = self.meshes()
        for i in range(self.d - 1):
            ext = np.max(np.abs(self.axes[i]))
            mask &= np.abs(mesh[i]) <= 0.75 * ext + 1e-12
        top = self.axes[-1][-1]
        mask &= mesh[-1] <= 0.75 * top + 1e-12
        return mask

    def max_spacing(self):
        return max(float(np.max(np.diff(a))) for a in self.axes)

    def __eq__(self, other):
        if not isinstance(other, Grid):
            return NotImplemented
        return (len(self.axes) == len(other.axes)
                and all(np.array_equal(a, b)
                        for a, b in zip(self.axes, other.axes))
                and np.array_equal(self.times, other.times))


@dataclass
class GridFunction:
    """Scalar values on every (time slice, spatial node) of a grid."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        expect = (self.grid.n_t,) + self.grid.shape
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != expect:
            raise ValueError("value shape %s does not match grid %s"
                             % (self.values.shape, expect))

    def sup(self, mask=None):
        """Max of |values|, optionally restricted by a spatial mask."""
        if mask is None:
            return float(np.max(np.abs(self.values)))
        return float(np.max(np.abs(self.values[:, mask])))

    def time_derivative(self):
        return GridFunction(self.grid, np.gradient(
            self.values, self.grid.times, axis=0, edge_order=2))

    def derivative(self, i):
        """First spatial derivative along coordinate i (0-based)."""
        return GridFunction(self.grid, np.gradient(
            self.values, self.grid.axes[i], axis=1 + i, edge_order=2))

    def second_derivative(self, i, j):
        """Second spatial derivative; pure 3-point stencil when i == j."""
        if i == j:
            return GridFunction(self.grid, _second_difference(
                self.values, self.grid.axes[i], 1 + i))
        return self.derivative(i).derivative(j)

    def weighted_by_height(self):
        """Multiply nodewise by the height coordinate x_d."""
        mesh = self.grid.meshes()
        return GridFunction(self.grid, self.values * mesh[-1])
