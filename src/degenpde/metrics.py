"""Cycloidal and parabolic distances and the Holder norms built on them.

The cycloidal distance between P1 = (t1, x1) and P2 = (t2, x2) is

    s(P1, P2) = sum_i |dx_i| / (sqrt(h1) + sqrt(h2) + sqrt(sum_lat |dx_i|))
                + sqrt(|dt|),

where h1, h2 are the heights (last coordinates) and the inner square root
runs over the lateral offsets only.  When both points sit on the
degenerate boundary with equal lateral parts the spatial term is 0.  The
parabolic distance drops the denominator: rho = sum_i |dx_i| + sqrt(|dt|).
Near the boundary s stretches spatial offsets like |dx| / sqrt(height),
which is what makes the weighted Holder norms below see boundary behavior
that the parabolic norms miss.

Seminorm estimation takes all pairs of a point set with at most
PAIR_BUDGET pairs, else PAIR_BUDGET seeded pairs, so every reported value
is a certified lower bound of the true supremum over the sampled region.  The
pairs and their powered distances depend only on the points, so each
point set builds one pair table per (metric, alpha), drawn with the point
set's seed, and every seminorm on it reuses that table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import SpaceTimePoint
from .gridio import csv_text

# Point pairs: every pair of a point set with at most PAIR_BUDGET of
# them, else PAIR_BUDGET seeded pairs.
PAIR_BUDGET = 200_000


def _unpack(p):
    if isinstance(p, SpaceTimePoint):
        return float(p.t), np.asarray(p.x, dtype=float)
    t, x = p
    return float(t), np.asarray(x, dtype=float)


def cycloidal_distance_arrays(t1, x1, t2, x2):
    """Vectorized cycloidal distance; x arrays have shape (..., d)."""
    dx = np.abs(np.asarray(x1, dtype=float) - np.asarray(x2, dtype=float))
    num = dx.sum(axis=-1)
    lateral = dx[..., :-1].sum(axis=-1)
    den = (np.sqrt(np.asarray(x1, dtype=float)[..., -1])
           + np.sqrt(np.asarray(x2, dtype=float)[..., -1])
           + np.sqrt(lateral))
    # num > 0 forces den > 0; the 0/0 case is defined as 0
    space = np.divide(num, den, out=np.zeros_like(num), where=num > 0)
    return space + np.sqrt(np.abs(np.asarray(t1, dtype=float)
                                  - np.asarray(t2, dtype=float)))


def parabolic_distance_arrays(t1, x1, t2, x2):
    dx = np.abs(np.asarray(x1, dtype=float) - np.asarray(x2, dtype=float))
    return dx.sum(axis=-1) + np.sqrt(np.abs(np.asarray(t1, dtype=float)
                                            - np.asarray(t2, dtype=float)))


def cycloidal_distance(p1, p2):
    t1, x1 = _unpack(p1)
    t2, x2 = _unpack(p2)
    return float(cycloidal_distance_arrays(t1, x1, t2, x2))


def parabolic_distance(p1, p2):
    t1, x1 = _unpack(p1)
    t2, x2 = _unpack(p2)
    return float(parabolic_distance_arrays(t1, x1, t2, x2))


_METRICS = {"s": cycloidal_distance_arrays, "rho": parabolic_distance_arrays}


def slab_equivalence_constants(d, y0, y1, n_pairs, seed):
    """Empirical two-sided comparison of s and rho on a height slab.

    Samples pairs at times in [0, 1], lateral coordinates in [-4, 4] and
    heights in [y0, y1] (y0 > 0), plus a handful of
    pure-time pairs whose ratio is exactly 1, and returns
    (c_lower, c_upper, all_hold) where the constants are the extreme
    observed ratios s/rho and all_hold confirms every sampled pair
    satisfies c_lower * rho <= s <= c_upper * rho.
    """
    if y0 <= 0 or y1 <= y0:
        raise ValueError("need 0 < y0 < y1")
    rng = np.random.default_rng(seed)
    m = int(n_pairs)
    t1 = rng.uniform(0.0, 1.0, m)
    t2 = rng.uniform(0.0, 1.0, m)
    x1 = rng.uniform(-4.0, 4.0, (m, d))
    x2 = rng.uniform(-4.0, 4.0, (m, d))
    x1[:, -1] = rng.uniform(y0, y1, m)
    x2[:, -1] = rng.uniform(y0, y1, m)
    n_time = max(2, m // 1000)
    x2[:n_time] = x1[:n_time]
    t2[:n_time] = np.minimum(t1[:n_time] + 0.1, 1.1)
    s = cycloidal_distance_arrays(t1, x1, t2, x2)
    rho = parabolic_distance_arrays(t1, x1, t2, x2)
    keep = rho > 0
    ratio = s[keep] / rho[keep]
    c_lower = float(np.min(ratio))
    c_upper = float(np.max(ratio))
    all_hold = bool(np.all(c_lower * rho[keep] <= s[keep] + 1e-15)
                    and np.all(s[keep] <= c_upper * rho[keep] + 1e-15))
    return c_lower, c_upper, all_hold


@dataclass
class SeminormEstimate:
    """Lower bound of a Holder seminorm with the maximizing pair."""

    value: float
    n_pairs: int
    argmax_p1: SpaceTimePoint | None = None
    argmax_p2: SpaceTimePoint | None = None


@dataclass
class PointSet:
    """Evaluation points for norm estimation; seed draws the pairs of a
    set with more than PAIR_BUDGET of them, and a subset keeps it.

    t and x are never mutated after construction: the point set memoizes
    its subsets and pair tables in `_tables`, which would go stale.
    """

    t: np.ndarray
    x: np.ndarray
    seed: int = 0
    _tables: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    @property
    def size(self):
        return len(self.t)

    def subset(self, mask):
        mask = np.asarray(mask)
        key = ("subset", mask.dtype.str, mask.tobytes())
        if key not in self._tables:
            self._tables[key] = PointSet(self.t[mask], self.x[mask], self.seed)
        return self._tables[key]

    def point(self, k):
        return SpaceTimePoint(float(self.t[k]), tuple(self.x[k]))


def grid_point_set(grid, mask=None, n_max=4000, seed=0):
    """Points drawn from (time slice, spatial node) combinations.

    Returns (PointSet, time indices, flat spatial indices); the indices
    let callers gather values of several grid functions at identical
    points. The seed draws the subsample beyond n_max and, kept by the
    point set, its pairs.
    """
    if mask is None:
        mask = np.ones(grid.shape, dtype=bool)
    flat = np.flatnonzero(mask.ravel())
    n_t = grid.n_t
    total = n_t * len(flat)
    nodes = grid.nodes()
    if total <= n_max:
        ti = np.repeat(np.arange(n_t), len(flat))
        si = np.tile(flat, n_t)
    else:
        rng = np.random.default_rng(seed)
        pick = rng.choice(total, size=n_max, replace=False)
        pick.sort()
        ti, pos = np.divmod(pick, len(flat))
        si = flat[pos]
    return (PointSet(grid.times[ti], nodes[si], seed), ti, si)


def gather(gridfn, ti, si):
    """Values of a grid function at (time index, flat node index) pairs."""
    return gridfn.values.reshape(gridfn.grid.n_t, -1)[ti, si]


def _pair_table(points, metric, alpha):
    """(i, j, dist ** alpha, dist > 0) of every pair within the budget, of
    seeded pairs i != j beyond it; built once per point set and key."""
    key = (metric, alpha)
    if key not in points._tables:
        m = points.size
        if m * (m - 1) // 2 <= PAIR_BUDGET:
            i, j = np.triu_indices(m, k=1)
        else:
            rng = np.random.default_rng(points.seed)
            i = rng.integers(0, m, size=PAIR_BUDGET)
            j = rng.integers(0, m - 1, size=PAIR_BUDGET)
            j = j + (j >= i)
        dist = _METRICS[metric](points.t[i], points.x[i],
                                points.t[j], points.x[j])
        points._tables[key] = (i, j, dist ** alpha, dist > 0)
    return points._tables[key]


def seminorm(values, points, alpha, metric):
    """Holder seminorm estimate sup |u(P1)-u(P2)| / dist(P1,P2)^alpha."""
    if metric not in _METRICS:
        raise ValueError("metric must be 's' or 'rho'")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    m = points.size
    if m < 2:
        return SeminormEstimate(0.0, 0)
    values = np.asarray(values, dtype=float)
    i, j, powered, apart = _pair_table(points, metric, alpha)
    diff = np.abs(values[i] - values[j])
    quot = np.divide(diff, powered, out=np.zeros_like(diff), where=apart)
    k = int(np.argmax(quot)) if len(quot) else 0
    if len(quot) == 0 or quot[k] == 0.0:
        return SeminormEstimate(0.0, len(quot))
    return SeminormEstimate(float(quot[k]), len(quot),
                            points.point(i[k]), points.point(j[k]))


def weight(points, q):
    """(1 + |x|)^q with the Euclidean spatial norm."""
    if q == 0:
        return np.ones(points.size)
    return (1.0 + np.linalg.norm(points.x, axis=1)) ** q


@dataclass
class HolderReport:
    """One norm estimate; maps to a single CSV row."""

    metric: str
    alpha: float
    q: float
    sup: float
    seminorm: float
    total: float
    n_pairs: int
    argmax_p1: SpaceTimePoint | None = None
    argmax_p2: SpaceTimePoint | None = None


def _fmt_point(p):
    if p is None:
        return ""
    coords = ",".join("%.17g" % c for c in p.x)
    return "t=%.17g;x=(%s)" % (p.t, coords)


HOLDER_CSV_COLUMNS = ("metric", "alpha", "q", "sup", "seminorm", "total",
                      "n_pairs", "argmax_p1", "argmax_p2")


def holder_reports_to_csv(reports):
    return csv_text(HOLDER_CSV_COLUMNS, [
        (r.metric, float(r.alpha), float(r.q), r.sup, r.seminorm, r.total,
         r.n_pairs, _fmt_point(r.argmax_p1), _fmt_point(r.argmax_p2))
        for r in reports])


def holder_norm(values, points, alpha, metric):
    """Plain single-metric norm, unweighted: sup + seminorm."""
    values = np.asarray(values, dtype=float)
    sup = float(np.max(np.abs(values))) if points.size else 0.0
    est = seminorm(values, points, alpha, metric)
    return HolderReport(metric, alpha, 0.0, sup, est.value, sup + est.value,
                        est.n_pairs, est.argmax_p1, est.argmax_p2)


def split_holder_norm(values, points, alpha, q=0.0):
    """Weighted norm of order alpha on the split region.

    Cycloidal seminorm where the height is <= 1, parabolic seminorm where
    it is >= 1 (the interface belongs to both),
    plus the weighted sup.  This is the norm the solution theory is
    phrased in; q = 0 recovers the unweighted version.
    """
    w = weight(points, q)
    wv = w * np.asarray(values, dtype=float)
    sup = float(np.max(np.abs(wv))) if points.size else 0.0
    h = points.x[:, -1]
    low = h <= 1.0 + 1e-12
    high = h >= 1.0 - 1e-12
    est_s = seminorm(wv[low], points.subset(low), alpha, "s")
    est_r = seminorm(wv[high], points.subset(high), alpha, "rho")
    semi = est_s.value + est_r.value
    best = est_s if est_s.value >= est_r.value else est_r
    return HolderReport("split", alpha, q, sup, semi, sup + semi,
                        est_s.n_pairs + est_r.n_pairs,
                        best.argmax_p1, best.argmax_p2)


def analytic_constituents(u, points):
    """Value arrays of u, u_t, grad u and height * D^2 u at the points.

    Returns (vals, dt_vals, [du_i], [h * ddu_ij]) using exact derivative
    closures; the height weight multiplies every second derivative.
    """
    d = u.d
    t, x = points.t, points.x
    h = x[:, -1]
    vals = u.value(t, x)
    dt_vals = u.dt(t, x)
    du = [u.dx(i, t, x) for i in range(d)]
    wdd = [h * u.dxx(i, j, t, x) for i in range(d) for j in range(i, d)]
    return vals, dt_vals, du, wdd


def grid_constituents(u, ti, si):
    """Same constituents as analytic_constituents but finite-differenced."""
    d = u.grid.d
    vals = gather(u, ti, si)
    dt_vals = gather(u.time_derivative(), ti, si)
    du = [gather(u.derivative(i), ti, si) for i in range(d)]
    wdd = [gather(u.second_derivative(i, j).weighted_by_height(), ti, si)
           for i in range(d) for j in range(i, d)]
    return vals, dt_vals, du, wdd


def order2_norm(constituents, points, alpha, q=0.0):
    """Weighted norm of order 2+alpha from precomputed constituents.

    Sum of the split norms of u, u_t, the worst first derivative and the
    worst height-weighted second derivative; returns (total, reports)
    where reports holds those four split norms, in that order.
    """
    vals, dt_vals, du, wdd = constituents
    r_u = split_holder_norm(vals, points, alpha, q)
    r_t = split_holder_norm(dt_vals, points, alpha, q)
    best_du = max((split_holder_norm(v, points, alpha, q) for v in du),
                  key=lambda r: r.total)
    best_dd = max((split_holder_norm(v, points, alpha, q) for v in wdd),
                  key=lambda r: r.total)
    reports = [r_u, r_t, best_du, best_dd]
    return sum(r.total for r in reports), reports
