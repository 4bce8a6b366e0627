"""Coefficient families of the degenerate operator and their validation.

A field supplies the data (a, b, c) of the operator

    L u = u_t - x_d * sum_ij a^ij u_{x_i x_j} - sum_i b^i u_{x_i} - c u

on the upper half-space {x_d > 0}.  The diffusion matrix is multiplied by
the height coordinate, so ellipticity degenerates linearly at the bottom
boundary; wellposedness without a boundary condition there rests on the
inward drift b^d >= nu > 0 at height 0.

A field holds each entry of (a, b, c) as an AnalyticFunction; the
solver's assembly and operator_apply read the entries, and the sampled
audits read them stacked by CoefficientField.a, b and c.  The heston,
constant and homogeneous-drift presets give a, c and a constant drift
as numbers, and each entry of Heston's affine drift b0 + B1 x as one
factor, the tree of an affine form (analytic.affine).  The expressions
preset gives text (analytic.text_function): each entry, a polynomial
such as the time-dependent Heston drift 2*(0.25*(1 + t) - x2) as much as
sqrt, exp, Max or x1/x2, is one tree factor, evaluated by numpy's
ufuncs, or a number.  An entry depends on each variable it names, so
the field is time-dependent where an entry names t.

Declared metadata (delta, K, nu) are the constants of the standing
assumption: uniform ellipticity of a on low heights and of x_d * a on
high heights, coefficient bounds and Holder constants up to K, inward
drift at least nu, and linear coefficient growth.  validate_assumptions
estimates each quantity by seeded sampling and compares against the
declaration with a slack factor; sampling can only underestimate suprema,
so the slack guards the comparison direction.
"""

from __future__ import annotations

import numpy as np

from .analytic import (AnalyticFunction, affine, axis_weights, constant,
                       text_function)
from .grid import Region
from .metrics import cycloidal_distance_arrays, parabolic_distance_arrays

# Factor by which a sampled estimate may miss its declared constant.
ASSUMPTION_SLACK = 1.05


class CoefficientField:
    """Coefficients (a, b, c) as entries, and stacked for sampling.

    a (d x d), b (d) and c take numbers or AnalyticFunctions; a must be
    symmetric, entry by entry.
    """

    def __init__(self, d, a, b, c, delta, K, nu, name="custom"):
        def entry(v):
            return v if isinstance(v, AnalyticFunction) else constant(d, v)

        if [len(row) for row in a] != [d] * d or len(b) != d:
            raise ValueError("coefficient shapes do not match dimension")
        self.d = d
        self.a_fns = [[entry(v) for v in row] for row in a]
        self.b_fns = [entry(v) for v in b]
        self.c_fn = entry(c)
        if any(self.a_fns[i][j].terms != self.a_fns[j][i].terms
               for i in range(d) for j in range(i)):
            raise ValueError("diffusion matrix must be symmetric")
        entries = [e for row in self.a_fns for e in row] + self.b_fns \
            + [self.c_fn]
        self.time_dependent = any(e.depends(0) for e in entries)
        self._constant = not any(e.depends(k) for e in entries
                                 for k in range(d + 1))
        self.delta, self.K, self.nu = float(delta), float(K), float(nu)
        self.name = name

    @staticmethod
    def _stack(entries, t, x):
        return np.stack([e.value(t, x) for e in entries], axis=-1)

    def a(self, t, x):
        """Diffusion matrix at (t, x); shape (..., d, d)."""
        return np.stack([self._stack(row, t, x) for row in self.a_fns], -2)

    def b(self, t, x):
        return self._stack(self.b_fns, t, x)

    def c(self, t, x):
        return self.c_fn.value(t, x)

    def is_constant(self):
        return self._constant

    def constant_parts(self):
        """(a, b, c) as plain arrays; only for constant-coefficient fields."""
        if not self.is_constant():
            raise ValueError("field has nonconstant coefficients")
        origin = np.zeros(self.d)
        a, b, c = self.a(0.0, origin), self.b(0.0, origin), self.c(0.0, origin)
        return a, b, float(c)

    def __repr__(self):
        return ("CoefficientField(%s, d=%d, delta=%g, K=%g, nu=%g)"
                % (self.name, self.d, self.delta, self.K, self.nu))


def heston(kappa, theta, sigma, rho, r=0.0, q=0.0):
    """Stochastic-volatility pricing coefficients in two variables.

    x1 is log-price, x2 the variance; the variance process has reversion
    speed kappa toward level theta with vol-of-vol sigma and correlation
    rho.  The inward drift at zero variance is kappa * theta and the
    diffusion matrix is constant with determinant sigma^2 (1-rho^2) / 4,
    so |rho| = 1 is rejected as degenerate.
    """
    if kappa <= 0 or theta <= 0 or sigma <= 0:
        raise ValueError("kappa, theta, sigma must be positive")
    if abs(rho) >= 1:
        raise ValueError("correlation must satisfy |rho| < 1; the diffusion "
                         "matrix is singular at |rho| = 1")
    amat = np.array([[0.5, rho * sigma / 2],
                     [rho * sigma / 2, sigma ** 2 / 2]])
    delta = float(np.linalg.eigvalsh(amat)[0])
    a_abs = float(np.sum(np.abs(amat)))
    K = max(float(np.max(np.abs(amat))),
            abs(r - q) + 1.0, kappa * (theta + 2.0), abs(r),
            6.0 * max(0.5, kappa),
            a_abs + abs(r - q) + kappa * (theta + 1.0) + abs(r) + 1.0)
    # b = (r - q - x2 / 2, kappa (theta - x2))
    drift = [affine(axis_weights(2, 2, slope), level)
             for level, slope in ((r - q, -0.5), (kappa * theta, -kappa))]
    return CoefficientField(2, amat, drift, -r, delta, K, kappa * theta,
                            name="heston")


def homogeneous_drift(nu, d=2):
    """Unit diffusion, constant inward drift nu > 0, no zeroth order."""
    if nu <= 0:
        raise ValueError("inward drift must be positive")
    if d < 2:
        raise ValueError("dimension must be >= 2")
    # growth constant: sup (x_d tr(a) + nu) / (1 + |x|) = max(d, nu)
    return CoefficientField(d, np.eye(d), [0.0] * (d - 1) + [nu], 0.0, 1.0,
                            max(float(d), nu, 1.0), nu,
                            name="homogeneous-drift")


def constant_field(a, b, c, name="constant"):
    """Field with constant (a, b, c); a must be symmetric positive definite."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = len(b)
    if a.shape != (d, d) or not np.allclose(a, a.T, atol=1e-12):
        raise ValueError("diffusion matrix must be symmetric, shape (d, d)")
    lams = np.linalg.eigvalsh(a)
    if lams[0] <= 0:
        raise ValueError("diffusion matrix must be positive definite")
    K = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), abs(float(c)),
            float(np.sum(np.abs(a))) + float(np.sum(np.abs(b)))
            + abs(float(c)), 1.0)
    return CoefficientField(d, a, b, c, float(lams[0]), K, float(b[-1]),
                            name=name)


def from_expressions(d, a_texts, b_texts, c_text, delta, K, nu,
                     name="custom"):
    """Field from elementary-function expression strings in t, x1..xd
    (analytic.text_function)."""
    if [len(row) for row in a_texts] != [d] * d:
        raise ValueError("a must be %d x %d" % (d, d))

    def fn(text):
        return text_function(text, d)

    return CoefficientField(d, [[fn(s) for s in row] for row in a_texts],
                            [fn(s) for s in b_texts], fn(c_text), delta, K,
                            nu, name=name)


def _holder_quotients(field, t1, x1, t2, x2, dist, alpha, weight_a=None):
    """Max Holder quotient over all coefficient entries for given pairs."""
    keep = (dist > 0) & (dist <= 1.0)
    if not np.any(keep):
        return 0.0
    t1, x1, t2, x2 = t1[keep], x1[keep], t2[keep], x2[keep]
    dist = dist[keep]
    best = 0.0
    a1, a2 = field.a(t1, x1), field.a(t2, x2)
    if weight_a is not None:
        a1 = a1 * weight_a(x1)[..., None, None]
        a2 = a2 * weight_a(x2)[..., None, None]
    diff_a = np.abs(a1 - a2).reshape(len(dist), -1)
    best = max(best, float(np.max(diff_a / dist[:, None] ** alpha)))
    diff_b = np.abs(field.b(t1, x1) - field.b(t2, x2))
    best = max(best, float(np.max(diff_b / dist[:, None] ** alpha)))
    diff_c = np.abs(field.c(t1, x1) - field.c(t2, x2))
    best = max(best, float(np.max(diff_c / dist ** alpha)))
    return best


def _paired_samples(rng, region, n, height_lo, height_hi):
    """Base points in a height band plus nearby perturbed partners."""
    d = region.d
    t1 = rng.uniform(region.t_lo, region.t_hi, n)
    x1 = rng.uniform(region.x_lo, region.x_hi, (n, d))
    x1[:, -1] = rng.uniform(height_lo, height_hi, n)
    scale = rng.uniform(0.0, 0.4, (n, 1)) * rng.uniform(0, 1, (n, d))
    x2 = x1 + scale * rng.choice([-1.0, 1.0], (n, d))
    x2[:, -1] = np.clip(x2[:, -1], height_lo, height_hi)
    for i in range(d - 1):
        x2[:, i] = np.clip(x2[:, i], region.x_lo[i], region.x_hi[i])
    t2 = np.clip(t1 + rng.uniform(-0.2, 0.2, n), region.t_lo, region.t_hi)
    return t1, x1, t2, x2


def validate_assumptions(field, n_samples=2000, seed=0, alpha=0.5):
    """Estimate the assumption constants by sampling and compare: rows
    of (name, estimate, declared constant, passed).

    Samples come from Region.sampling_box, whose top height 4 lies above
    the split height 2 of the low and high ellipticity checks.
    Lower-bound constants (delta, nu) must be met up to 1/ASSUMPTION_SLACK,
    suprema (K and the Holder/growth constants) up to a factor
    ASSUMPTION_SLACK.  Holder quotients are taken over perturbed pairs at
    metric distance <= 1, the range the assumption constrains.
    """
    region = Region.sampling_box(field.d)
    rng = np.random.default_rng(seed)
    top = region.x_hi[-1]

    t_low, x_low = region.sample(rng, n_samples)
    x_low[:, -1] = rng.uniform(0.0, 2.0, n_samples)
    a_low = field.a(t_low, x_low)
    a_low = 0.5 * (a_low + np.swapaxes(a_low, -1, -2))
    delta_hat = float(np.min(np.linalg.eigvalsh(a_low)[..., 0]))
    K_hat = max(float(np.max(np.abs(a_low))),
                float(np.max(np.abs(field.b(t_low, x_low)))),
                float(np.max(np.abs(field.c(t_low, x_low)))))

    t_bd, x_bd = region.sample(rng, n_samples)
    x_bd[:, -1] = 0.0
    nu_hat = float(np.min(field.b(t_bd, x_bd)[:, -1]))

    t_hi, x_hi = region.sample(rng, n_samples)
    x_hi[:, -1] = rng.uniform(2.0, top, n_samples)
    a_hi = field.a(t_hi, x_hi) * x_hi[:, -1, None, None]
    a_hi = 0.5 * (a_hi + np.swapaxes(a_hi, -1, -2))
    delta_interior_hat = float(np.min(np.linalg.eigvalsh(a_hi)[..., 0]))

    t_all, x_all = region.sample(rng, n_samples)
    a_all = np.abs(field.a(t_all, x_all)) * x_all[:, -1, None, None]
    num = (a_all.reshape(n_samples, -1).sum(axis=1)
           + np.abs(field.b(t_all, x_all)).sum(axis=1)
           + np.abs(field.c(t_all, x_all)))
    growth_hat = float(np.max(num / (1.0 + np.linalg.norm(x_all, axis=1))))
    c_max_hat = float(np.max(field.c(t_all, x_all)))

    t1, x1, t2, x2 = _paired_samples(rng, region, n_samples, 0.0, 2.0)
    holder_s_hat = _holder_quotients(
        field, t1, x1, t2, x2,
        cycloidal_distance_arrays(t1, x1, t2, x2), alpha)
    t1, x1, t2, x2 = _paired_samples(rng, region, n_samples, 2.0, top)
    holder_rho_hat = _holder_quotients(
        field, t1, x1, t2, x2,
        parabolic_distance_arrays(t1, x1, t2, x2), alpha,
        weight_a=lambda x: x[:, -1])

    slack, tol = ASSUMPTION_SLACK, 1e-12
    low = field.delta / slack - tol
    return [("delta_hat", delta_hat, field.delta, delta_hat >= low),
            ("delta_interior_hat", delta_interior_hat, field.delta,
             delta_interior_hat >= low),
            ("nu_hat", nu_hat, field.nu,
             nu_hat >= field.nu / slack - tol and nu_hat > 0)] + [
        (name, value, field.K, value <= field.K * slack + tol)
        for name, value in (
            ("K_hat", K_hat), ("c_max_hat", c_max_hat),
            ("holder_s_hat", holder_s_hat),
            ("holder_rho_hat", holder_rho_hat), ("growth_hat", growth_hat))]
