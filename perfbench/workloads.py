"""The benchmark's workloads: the configs they use and the CLI calls they make.

A workload is a list of steps.  Each step is one `degenpde` CLI call on
one config, run in-process through `degenpde.cli.main` by the worker.
Sizes are fixed here; the seed only reaches the program as `--seed`.

Why these three:

- heston-ladder: a field that does not depend on time, so one matrix
  serves every step and the linear solve dominates the 257^2 rung.  A
  factor-once solver must show here, and the ladder shows how each layer
  scales with n.
- heston-timedep: the same Heston problem with a time-dependent mean
  level, so the solver reassembles and recertifies the matrix every
  step.  A change that helps heston-ladder by factoring per matrix would
  pay that cost 32 times here.
- readme-run: the user-facing verification batch on the README config.
  Most of its time is sympy tree building, lambdify and Hoelder
  seminorms; it is the only workload that exercises grid, metrics and
  reduction.

`size="tiny"` shrinks every grid and suite so the smoke test runs in
seconds; the benchmark itself always runs `size="full"`.

This module imports only the standard library, so the worker can import
it before timing `import degenpde`.
"""

from __future__ import annotations

import copy

NAMES = ("heston-ladder", "heston-timedep", "readme-run")

# The README Heston field (rho = 0) and its time-dependent variant, whose
# mean level is theta(t) = 0.25 (1 + t); delta, K and nu are the values
# the heston preset declares for the constant field.
HESTON_FIELD = {"preset": "heston", "kappa": 2.0, "theta": 0.25,
                "sigma": 1.0, "rho": 0.0, "r": 0.05}
TIMEDEP_FIELD = {"preset": "expressions", "d": 2,
                 "a": [["0.5", "0"], ["0", "0.5"]],
                 "b": ["0.05 - x2/2", "2*(0.25*(1 + t) - x2)"],
                 "c": "-0.05", "delta": 0.5, "K": 12.0, "nu": 0.5}
# Correlated constant field of acceptance criterion 6.
CORRELATED_FIELD = {"preset": "constant", "a": [[2.0, 1.0], [1.0, 1.0]],
                    "b": [1.0, 2.0], "c": -0.5}

README_EXPERIMENTS = ["solve", "validate-coeffs", "norms", "verify-maxprin",
                      "verify-barriers", "verify-interp", "verify-schauder",
                      "convergence"]

# The README example config without its "threads" key.
README_CONFIG = {
    "seed": 0,
    "experiments": ["solve", "verify-barriers", "reduce"],
    "field": HESTON_FIELD,
    "grid": {"x_extent": 2.0, "height": 2.0, "n_lateral": 33,
             "n_height": 33, "n_slices": 16, "t_final": 0.5,
             "grading": "quadratic"},
    "data": {"manufactured": "inner_bump"},
    "solve": {"theta": 1.0, "boundary": "frozen"},
}

# Sections that shrink the readme-run suites for size="tiny".
_TINY_SUITES = {
    "validate": {"n_samples": 200},
    "norms": {"n_points": 120},
    "maxprin": {"n_problems": 2, "n_absolute": 2, "n_weighted": 2},
    "barriers": {"n_points": 200},
    "schauder": {"ladder": [[9, 9, 5], [13, 13, 7], [17, 17, 9]],
                 "n_points": 150},
    "convergence": {"ladder": [[9, 9, 4], [17, 17, 10], [33, 33, 28]]},
}

# Known defect kept as its own operation: `reduce` on the README Heston
# config raises this ValueError (the field is not constant).
HESTON_REDUCE_ERROR = "reduction requires constant coefficients"


def _solve_config(field, n, n_slices):
    cfg = copy.deepcopy(README_CONFIG)
    del cfg["experiments"]
    cfg["field"] = copy.deepcopy(field)
    cfg["grid"].update(n_lateral=n, n_height=n, n_slices=n_slices)
    return cfg


def _solution(out, n, n_slices, tol, primary=False):
    """Expected solve output: grid size and the sup-error tolerance.

    Tolerances are about twice the errors measured at the first version
    of this benchmark (0.0076, 0.0042 and 0.0025 on the ladder, 0.0022
    time-dependent, 0.015 on the 33^2 README grid).
    """
    return {"dir": out, "n": n, "n_slices": n_slices, "x_extent": 2.0,
            "height": 2.0, "t_final": 0.5, "tol": tol, "rtol": 1e-10,
            "primary": primary}


def build(name, size="full"):
    """Return (configs, steps) for a workload.

    configs maps a file name to a config dict.  Each step has the CLI
    command, its config, its output directory (relative to the iteration
    directory), the solution files it writes, and, for the known defect,
    the error message it is expected to raise.
    """
    if name not in NAMES:
        raise ValueError("unknown workload %r" % (name,))
    tiny = size == "tiny"
    configs, steps = {}, []
    if name == "heston-ladder":
        slices = 5 if tiny else 33
        ladder = ((9, 0.1), (13, 0.1), (17, 0.1)) if tiny else \
            ((65, 0.015), (129, 0.008), (257, 0.005))
        for k, (n, tol) in enumerate(ladder):
            cfg_name = "ladder-n%d.json" % n
            configs[cfg_name] = _solve_config(HESTON_FIELD, n, slices)
            out = "ladder-n%d" % n
            steps.append({"name": "solve-n%d" % n, "command": "solve",
                          "config": cfg_name, "out": out,
                          "solutions": [_solution(
                              out + "/solve", n, slices, tol,
                              primary=k == len(ladder) - 1)]})
    elif name == "heston-timedep":
        n, slices, tol = (17, 5, 0.1) if tiny else (257, 33, 0.005)
        configs["timedep.json"] = _solve_config(TIMEDEP_FIELD, n, slices)
        steps.append({"name": "solve-timedep", "command": "solve",
                      "config": "timedep.json", "out": "timedep",
                      "solutions": [_solution("timedep/solve", n, slices,
                                              tol, primary=True)]})
    else:
        readme = copy.deepcopy(README_CONFIG)
        readme["experiments"] = list(README_EXPERIMENTS)
        corr = {"seed": 0, "field": CORRELATED_FIELD,
                "grid": {"x_extent": 2.0, "height": 2.0, "n_lateral": 33,
                         "n_height": 33, "n_slices": 25, "t_final": 0.5},
                "reduce": {"round_trip": True, "kind": "inner_bump"}}
        if tiny:
            readme.update(copy.deepcopy(_TINY_SUITES))
            readme["grid"].update(n_lateral=13, n_height=13, n_slices=6)
            corr["grid"].update(n_lateral=13, n_height=13, n_slices=6)
        configs["readme.json"] = readme
        configs["correlated.json"] = corr
        configs["readme-heston.json"] = copy.deepcopy(README_CONFIG)
        g = readme["grid"]
        steps.append({"name": "run-readme", "command": "run",
                      "config": "readme.json", "out": "readme",
                      "solutions": [_solution(
                          "readme/solve", g["n_lateral"], g["n_slices"],
                          0.1 if tiny else 0.03, primary=True)]})
        steps.append({"name": "reduce-correlated", "command": "reduce",
                      "config": "correlated.json", "out": "correlated",
                      "solutions": []})
        steps.append({"name": "reduce-readme-heston", "command": "reduce",
                      "config": "readme-heston.json", "out": "readme-heston",
                      "solutions": [], "known_error": HESTON_REDUCE_ERROR})
    return configs, steps
