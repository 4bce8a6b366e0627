"""Correctness checks on the files a workload iteration wrote.

Each check is one operation: (name, ok, detail).  They read the outputs
only, after the timed region:

- every `checks.csv` row must say `pass`;
- every `solution.dgph` must load through `gridio` against its grid and
  lie within the step's tolerance of the manufactured exact solution,
  which is evaluated here in numpy, independently of the program's
  sympy code;
- the largest step residual in `solve_report.csv` must be at most
  10 x rtol.  The program's own `linear-solver` row always passes, so the
  benchmark checks the residual itself.
"""

from __future__ import annotations

import glob
import hashlib
import os

import numpy as np


def checks_csv_ops(root, sub):
    """One operation per row of every checks.csv under root/sub."""
    ops = []
    for path in sorted(glob.glob(os.path.join(root, sub, "**", "checks.csv"),
                                 recursive=True)):
        rel = os.path.relpath(path, root)
        with open(path) as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != "check,anchor,lhs,rhs,slack,pass":
            ops.append(("checks.csv:" + rel, False, "bad header"))
            continue
        for row in lines[1:]:
            verdict = row.rsplit(",", 1)[-1]
            ops.append(("row:%s:%s" % (rel, row.split(",", 1)[0]),
                        verdict == "pass", row))
    return ops


def checks_digest(out_dir):
    """sha256 over every checks.csv under out_dir, in path order."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(out_dir, "**", "checks.csv"),
                                 recursive=True)):
        h.update(os.path.relpath(path, out_dir).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def inner_bump_exact(t, x1, x2, x_extent, height):
    """u = 1 + e^-t (1 - s1^2)^4 (1 - s2^2)^4 with s_i the scaled offsets.

    The bump is centred at the origin with half-widths 0.6 x_extent and
    0.6 height and vanishes for |s_i| >= 1; the program's manufactured
    'inner_bump' solution is this function.
    """
    def factor(s):
        return np.where(np.abs(s) < 1.0, (1.0 - s * s) ** 4, 0.0)

    return 1.0 + np.exp(-t) * factor(x1 / (0.6 * x_extent)) \
        * factor(x2 / (0.6 * height))


def solution_error(path, spec):
    """Sup error over the audited region and every slice of one solution.

    Raises gridio.FormatError (a ValueError) or OSError when the file does
    not load against the grid.
    """
    from degenpde import gridio
    from degenpde.grid import Grid

    grid = Grid.build(2, spec["x_extent"], spec["height"], spec["n"],
                      spec["n"], spec["t_final"], spec["n_slices"])
    u = gridio.load_grid_function(path, grid)
    x1, x2 = grid.meshes()
    exact = np.stack([inner_bump_exact(t, x1, x2, spec["x_extent"],
                                       spec["height"]) for t in grid.times])
    err = np.abs(u.values - exact)[:, grid.audited_mask()]
    return float(np.max(err))


def solve_report(path):
    """(total iterations, max iterations per step, max residual)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "step,iterations,residual" or \
            len(lines) < 2:
        raise ValueError("malformed solve report")
    iters, res = [], []
    for row in lines[1:]:
        _, it, r = row.split(",")
        iters.append(int(it))
        res.append(float(r))
    return sum(iters), max(iters), max(res)


def solution_ops(out_dir, spec):
    """Operations for one solve output; also returns error and iterations."""
    base = os.path.join(out_dir, spec["dir"])
    ops, err, iters = [], None, None
    name = spec["dir"]
    try:
        err = solution_error(os.path.join(base, "solution.dgph"), spec)
    except (ValueError, OSError) as exc:
        ops.append(("solution:" + name, False, repr(exc)))
    else:
        ok = bool(np.isfinite(err)) and err <= spec["tol"]
        ops.append(("solution:" + name, ok,
                    "mms error %.6g, tolerance %.3g" % (err, spec["tol"])))
    try:
        total, most, res = solve_report(os.path.join(base,
                                                     "solve_report.csv"))
    except (ValueError, OSError) as exc:
        ops.append(("residual:" + name, False, repr(exc)))
    else:
        iters = (total, most)
        bound = 10.0 * spec["rtol"]
        ops.append(("residual:" + name, res <= bound,
                    "max step residual %.3g, bound %.3g" % (res, bound)))
    return ops, err, iters
