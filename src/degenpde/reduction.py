"""Reduction of a constant-coefficient operator to its model form.

Three exact steps take L u = u_t - x_d a:D^2 u - b.grad u - c u to the
normal form  w_t - z_d Lap w - bbar.grad w  on the same half-space:

1. remove the zeroth-order term with the substitution w = exp(-c t) u;
2. shear  y_i = x_i + alpha_i x_d  with alpha_i = -a^id / a^dd, which
   zeroes the mixed row/column of the diffusion matrix and replaces the
   lateral block by its Schur complement  a^ik - a^id a^kd / a^dd;
3. diagonalize the lateral block with an orthogonal rotation and scale,
   z' = (a^dd)^(-1/2) D^(-1/2) P^T y',  z_d = y_d / a^dd,

after which the diffusion part is exactly z_d times the identity and the
drift becomes bbar = G b with the composed linear map G; in particular
bbar^d = b^d / a^dd, positive whenever the inward-drift assumption holds.
Every step is affine with a closed-form inverse, so grid data can be
pushed back and forth without losing more than interpolation error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .analytic import axis_weights, profile
from .fields import constant_field
from .grid import GridFunction

SIGN_TOL = 1e-12


def pullback_grid_function(u, target_grid, matrix):
    """v(t, z) := u(t, matrix @ z) sampled on target_grid.

    Multilinear interpolation over all time slices at once: the sum over
    the 2^d corners of each point's cell, in the order and arithmetic of
    scipy's RegularGridInterpolator, which the tests compare against.  A
    point more than 1e-9 of an axis span outside that axis raises rather
    than extrapolates; one inside that tolerance is clipped onto the axis.
    """
    if not np.array_equal(u.grid.times, target_grid.times):
        raise ValueError("time axes must agree")
    xs = target_grid.nodes() @ np.asarray(matrix, dtype=float).T
    corners = []  # per axis: (lower node, its weight), (upper node, ...)
    for i, ax in enumerate(u.grid.axes):
        tol = 1e-9 * (ax[-1] - ax[0])
        coords = xs[:, i]
        bad = coords[(coords < ax[0] - tol) | (coords > ax[-1] + tol)]
        if len(bad):
            raise ValueError("point coordinate %.17g outside axis [%g, %g]; "
                             "refusing to extrapolate"
                             % (bad[0], ax[0], ax[-1]))
        coords = np.clip(coords, ax[0], ax[-1])
        j = np.clip(np.searchsorted(ax, coords, "right") - 1, 0, len(ax) - 2)
        frac = (coords - ax[j]) / (ax[j + 1] - ax[j])
        corners.append(((j, 1 - frac), (j + 1, frac)))
    vals = 0.0
    for corner in itertools.product(*corners):
        index, weights = zip(*corner)
        vals = vals + u.values[(slice(None),) + index] * math.prod(weights)
    return GridFunction(target_grid, vals.reshape(
        (target_grid.n_t,) + target_grid.shape))


@dataclass
class ReductionPlan:
    """Affine change of variables taking a field to model form."""

    d: int
    c: float
    alpha: np.ndarray
    eigvals: np.ndarray
    P: np.ndarray
    forward: np.ndarray = dc_field(repr=False)
    backward: np.ndarray = dc_field(repr=False)
    b_bar: np.ndarray = dc_field(repr=False)
    certificates: dict = dc_field(repr=False, default_factory=dict)

    def forward_points(self, x):
        """Map source coordinates to model coordinates, z = F x."""
        return np.asarray(x, dtype=float) @ self.forward.T

    def multiplier(self, t):
        """Recovery factor exp(c t): u = multiplier * (w mapped back)."""
        return np.exp(self.c * np.asarray(t, dtype=float))

    def model_field(self):
        return constant_field(np.eye(self.d), self.b_bar, 0.0,
                              name="model-form")

    def transform_analytic(self, fn):
        """Pull an analytic function of (t, x) back to model coordinates.

        Returns fbar(t, z) = exp(-c t) * fn(t, backward @ z); the
        multiplier implements the zeroth-order elimination.
        """
        out = fn.affine_pullback(self.backward)
        if self.c != 0.0:
            out = out * profile("exp", axis_weights(self.d, 0, -self.c))
        return out

    def recover_grid_function(self, w, source_grid):
        """Map a model-form solution back: u(t, x) = e^{ct} w(t, F x)."""
        u = pullback_grid_function(w, source_grid, self.forward)
        mult = self.multiplier(source_grid.times)
        return GridFunction(source_grid,
                            u.values * mult[(slice(None),)
                                            + (None,) * source_grid.d])

    def describe(self):
        fmt = lambda M: "\n".join("    " + "  ".join("%.17g" % v for v in row)
                                  for row in np.atleast_2d(M))
        lines = ["reduction plan (d=%d)" % self.d,
                 "  zeroth-order rate c = %.17g" % self.c,
                 "  shear alpha =\n%s" % fmt(self.alpha),
                 "  lateral eigenvalues =\n%s" % fmt(self.eigvals),
                 "  rotation P =\n%s" % fmt(self.P),
                 "  forward matrix =\n%s" % fmt(self.forward),
                 "  backward matrix =\n%s" % fmt(self.backward),
                 "  model drift =\n%s" % fmt(self.b_bar),
                 "  certificates:"]
        for k, v in sorted(self.certificates.items()):
            lines.append("    %-24s %.17g" % (k, v))
        return "\n".join(lines)


def shear_transform(a):
    """Shear alpha and the sheared diffusion matrix.

    y' = x' + alpha x_d leaves the height alone and produces
    blockdiag(schur(a), a^dd) where schur(a) is the lateral Schur
    complement a' - a_cross a_cross^T / a^dd.
    """
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    add = a[d - 1, d - 1]
    if add <= 0:
        raise ValueError("a^dd must be positive")
    alpha = -a[:d - 1, d - 1] / add
    S = np.eye(d)
    S[:d - 1, d - 1] = alpha
    a_sheared = S @ a @ S.T
    return alpha, S, a_sheared


def build_reduction_plan(field):
    """Compose elimination, shear and diagonal scaling; certify each step."""
    if not field.is_constant():
        raise ValueError("reduction requires constant coefficients")
    a, b, c = field.constant_parts()
    d = field.d
    add = a[d - 1, d - 1]
    alpha, S, a_sheared = shear_transform(a)
    lateral = a_sheared[:d - 1, :d - 1]
    eigvals, P = np.linalg.eigh(lateral)
    # deterministic basis: the first entry of each eigenvector column
    # larger than SIGN_TOL in magnitude is made positive
    lead = np.argmax(np.abs(P) > SIGN_TOL, axis=0)
    P = P * np.where(P[lead, np.arange(d - 1)] < 0, -1.0, 1.0)
    if np.min(eigvals) <= 0:
        raise ValueError("lateral diffusion block is not positive definite")
    G = np.zeros((d, d))
    G[:d - 1, :d - 1] = (P / np.sqrt(eigvals)).T / np.sqrt(add)
    G[d - 1, d - 1] = 1.0 / add
    forward = G @ S
    # closed-form inverse: S^{-1} flips the sign of alpha, G^{-1} is
    # blockdiag(sqrt(add) P D^{1/2}, add)
    Ginv = np.zeros((d, d))
    Ginv[:d - 1, :d - 1] = np.sqrt(add) * (P * np.sqrt(eigvals))
    Ginv[d - 1, d - 1] = add
    Sinv = np.eye(d)
    Sinv[:d - 1, d - 1] = -alpha
    backward = Sinv @ Ginv
    b_bar = forward @ b
    certs = {
        "orthogonality": float(np.max(np.abs(P @ P.T - np.eye(d - 1)))),
        "shear_offdiagonal": float(
            np.max(np.abs(a_sheared[:d - 1, d - 1]))),
    }
    certs["model_diffusion"] = float(
        np.max(np.abs(add * (forward @ a @ forward.T) - np.eye(d))))
    certs["inverse"] = float(np.max(np.abs(forward @ backward - np.eye(d))))
    certs["model_drift_height"] = float(b_bar[-1])
    return ReductionPlan(d, c, alpha, eigvals, P, forward, backward, b_bar,
                         certs)
