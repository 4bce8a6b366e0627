"""Command-line driver: the config table, validation and experiment dispatch.

`CONFIG` and `PRESETS` give every config key with its type and default.
`load_config` checks a whole config against them before any experiment
runs, so a misspelled option or a value of the wrong type is an error,
never a silent default; `section` fills in the defaults.  Every command
takes --config and --out plus an optional --seed override; `run` runs the
experiments listed under "experiments", each at most once.  More than one
experiment runs on a fork process pool with one worker per experiment, up
to the CPUs this process may use; the printed lines, `summary.txt` and the
manifest keep config order.  Exit status is 0 when every emitted check
passes, 1 when any fails, 2 for unusable configs or arguments, and 3 when
the solver fails at run time (a SolverError, such as a failed
monotonicity certificate), reported in one line.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import gridio
from .analytic import text_function
from .fields import (ASSUMPTION_SLACK, constant_field, from_expressions,
                     heston, homogeneous_drift, validate_assumptions)
from .grid import GRADINGS, Grid
from .metrics import grid_constituents, grid_point_set, holder_reports_to_csv, \
    order2_norm
from .solver import (BOUNDARIES, CONVERGENCE_MODES, MANUFACTURED_KINDS, RTOL,
                     CauchyProblem, SolverError, convergence_study,
                     manufactured_problem, solve_cauchy)
from .verification import (CheckResult, absolute_bound_suite, check_barrier,
                           check_quadratic_supersolution, checks_to_csv,
                           interpolation_check, maximum_principle_suite,
                           reduction_round_trip, schauder_ratio,
                           weighted_bound_suite)
from .reduction import build_reduction_plan


# Exit status of `main`: every check passed, a check failed, unusable
# config or arguments (argparse also exits 2), a runtime failure.
EXIT_PASS, EXIT_CHECK_FAILED, EXIT_CONFIG_ERROR, EXIT_RUNTIME_ERROR = range(4)


class ConfigError(ValueError):
    pass


def _list_of(what, test, min_len=0):
    return ("a list of " + what, lambda v: type(v) is list
            and len(v) >= min_len and all(map(test, v)))


def _one_of(names):
    return ("one of " + ", ".join(map(json.dumps, names)),
            lambda v: type(v) is str and v in names)


# A key's type: its name in messages, and a test on type(v) (true is no int,
# and NaN and the infinities, which json.load accepts, are no number).
NUM = ("a number", lambda v: type(v) is int
       or type(v) is float and math.isfinite(v))
INT = ("an integer", lambda v: type(v) is int)
BOOL = ("true or false", lambda v: type(v) is bool)
STR = ("a string", lambda v: type(v) is str)
FRACTION = ("a number in (0, 1)", lambda v: NUM[1](v) and 0 < v < 1)
UNIT = ("a number in [0, 1]", lambda v: NUM[1](v) and 0 <= v <= 1)
COUNT = ("an integer >= 1", lambda v: INT[1](v) and v >= 1)
NATURAL = ("an integer >= 0", lambda v: INT[1](v) and v >= 0)
NUMS, STRS = _list_of("numbers", NUM[1]), _list_of("strings", STR[1])
KIND = _one_of(MANUFACTURED_KINDS)
LADDER = _list_of("at least two [n_lateral, n_height, n_slices] rungs",
                  lambda r: type(r) is list and len(r) == 3
                  and all(map(INT[1], r)), min_len=2)
REQUIRED = object()  # default of a preset key the field must give

# Every top-level key and section: key -> (type, default).  alpha is the
# one Holder exponent of the coefficients, the data and the solution.
CONFIG = {
    "seed": (NATURAL, 0), "alpha": (FRACTION, 0.5),
    "experiments": (STRS, None),
    "grid": {"x_extent": (NUM, 2.0), "height": (NUM, 2.0),
             "n_lateral": (INT, 33), "n_height": (INT, 33),
             "n_slices": (INT, 25), "t_final": (NUM, 0.5),
             "grading": (_one_of(GRADINGS), "quadratic")},
    "data": {"f": (STR, None), "g": (STR, None), "manufactured": (KIND, None)},
    "solve": {"theta": (UNIT, 1.0), "certify": (BOOL, None),
              "boundary": (_one_of(BOUNDARIES), "frozen")},
    "norms": {"q": (NUMS, [0.0]), "n_points": (COUNT, 1500)},
    "validate": {"n_samples": (COUNT, 2000)},
    "maxprin": {"n_problems": (NATURAL, 50), "n_absolute": (NATURAL, 20),
                "n_weighted": (NATURAL, 20)},
    "barriers": {"n_points": (COUNT, 2000)},
    "schauder": {"ladder": (LADDER, [[17, 17, 9], [25, 25, 13], [33, 33, 17]]),
                 "n_points": (COUNT, 1200)},
    "convergence": {"kind": (KIND, "inner_bump"),
                    "mode": (_one_of(CONVERGENCE_MODES), "space"),
                    "ladder": (LADDER, [[9, 9, 4], [17, 17, 10],
                                        [33, 33, 28]])},
    "reduce": {"round_trip": (BOOL, False), "kind": (KIND, "inner_bump")},
}

# Check bounds, fixed as in the acceptance gate: the Schauder ratio's change
# between the finest rungs, the least space order, the band in time.
SCHAUDER_THRESHOLD, MIN_SPACE_ORDER, TIME_ORDER_BAND = 0.25, 0.9, 0.3
# Check parameters, fixed as in the acceptance gate: the barriers' lateral
# drifts, the weights q of the weighted sup bounds, the interpolation
# epsilons.
BARRIER_DRIFTS = (-2.0, 0.0, 2.0)
BOUND_WEIGHTS = (1.0, 2.0)
INTERP_EPS = (0.5, 0.25, 0.1)

# Field presets: name -> (constructor, its keys in its argument order).
PRESETS = {
    "heston": (heston, {"kappa": (NUM, REQUIRED), "theta": (NUM, REQUIRED),
                        "sigma": (NUM, REQUIRED), "rho": (NUM, REQUIRED),
                        "r": (NUM, 0.0), "q": (NUM, 0.0)}),
    "homogeneous-drift": (homogeneous_drift, {"nu": (NUM, REQUIRED),
                                              "d": (INT, 2)}),
    "constant": (constant_field, {
        "a": (_list_of("lists of numbers", NUMS[1]), REQUIRED),
        "b": (NUMS, REQUIRED), "c": (NUM, REQUIRED)}),
    "expressions": (from_expressions, {
        "d": (INT, REQUIRED),
        "a": (_list_of("lists of strings", STRS[1]), REQUIRED),
        "b": (STRS, REQUIRED), "c": (STR, REQUIRED), "delta": (NUM, REQUIRED),
        "K": (NUM, REQUIRED), "nu": (NUM, REQUIRED)}),
}


def _check_value(name, value, spec):
    (what, test), default = spec
    if not (test(value) or value is None and default is None):
        raise ConfigError("%s must be %s, not %s"
                          % (name, what, json.dumps(value)))


def validate_config(cfg):
    """Check a whole config against CONFIG and PRESETS; return it as is."""
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    for key, sub in cfg.items():
        spec = PRESETS if key == "field" else CONFIG.get(key)
        if spec is None:
            raise ConfigError("unknown config section %r" % key)
        if isinstance(spec, tuple):
            _check_value(key, sub, spec)
            continue
        if not isinstance(sub, dict):
            raise ConfigError("section %r must be an object" % key)
        if key == "field":
            preset = sub.get("preset")
            if not isinstance(preset, str) or preset not in PRESETS:
                raise ConfigError("field.preset must be one of %s"
                                  % sorted(PRESETS))
            spec = dict(PRESETS[preset][1], preset=(STR, REQUIRED))
        extra = sorted(set(sub) - set(spec))
        if extra:
            raise ConfigError(
                "unknown field keys %s for preset %r" % (extra, preset)
                if key == "field" else
                "unknown keys %s in section %r" % (extra, key))
        for name, name_spec in spec.items():
            if name in sub:
                _check_value(key + "." + name, sub[name], name_spec)
            elif name_spec[1] is REQUIRED:
                raise ConfigError("field preset %r needs key %r"
                                  % (preset, name))
    return cfg


def load_config(path):
    """Read and validate a config, build its field (the expressions
    preset's a, b and c) and, where no manufactured solution replaces
    them, data.f and data.g.  Each entry of a, b and c, and f, must be
    finite on the grid section's grid at every slice, g at t = 0.  Text
    that does not parse (analytic.text_function, which parses each text
    once per process) or is not finite on the grid, or a value the
    field's preset rejects, is a ConfigError before any experiment runs."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise ConfigError("config is not valid JSON: %s" % exc)
    validate_config(cfg)
    if "field" not in cfg:
        return cfg  # no field: nothing builds a problem
    field, data = build_field(cfg), cfg.get("data", {})
    checked = [("field.a[%d][%d]" % (i, j), e, None)
               for i, row in enumerate(field.a_fns) for j, e in enumerate(row)]
    checked += [("field.b[%d]" % i, e, None) for i, e in enumerate(field.b_fns)]
    checked.append(("field.c", field.c_fn, None))
    if data.get("manufactured") is None:
        for key in ("f", "g"):
            if data.get(key) is not None:
                try:
                    checked.append(("data." + key, text_function(
                        data[key], field.d), data[key]))
                except ValueError as exc:
                    raise ConfigError("data: %s" % exc)
    grid = build_grid(cfg, field.d, _counts(section(cfg, "grid")))
    # on the sparse axes, with the times along a leading axis
    mesh = [m[None] for m in grid.meshes(sparse=True)]
    for name, fn, text in checked:
        times = grid.times[:1] if name == "data.g" else grid.times
        with np.errstate(all="ignore"):
            finite = np.isfinite(fn.raw(
                times.reshape((-1,) + (1,) * field.d), mesh)).all()
        if not finite:
            raise ConfigError("%s%s is not finite on the grid" % (
                name, "" if text is None else ": expression %r" % text))
    return cfg


def _check_schauder_data(cfg):
    """A ConfigError unless data.g, given as text, has the bounded first
    and second space derivatives whose norm verify-schauder takes: no
    Abs, Min or Max, whose kinks have deltas for second derivatives, and
    derivatives finite on the grid section's grid at t = 0."""
    data = cfg.get("data", {})
    if ("field" not in cfg or data.get("manufactured") is not None
            or data.get("g") is None):
        return
    g = text_function(data["g"], build_field(cfg).d)
    grid = build_grid(cfg, g.d, _counts(section(cfg, "grid")))
    if g.holds("Abs", "Min", "Max"):
        raise ConfigError("verify-schauder needs bounded second derivatives "
                          "of data.g, and %r holds Abs, Min or Max, whose "
                          "second derivatives are deltas" % data["g"])
    with np.errstate(all="ignore"):
        if not all(np.isfinite(g.derivative(axes).on_grid(0.0, grid)).all()
                   for i in range(1, g.d + 1) for j in range(i, g.d + 1)
                   for axes in ((i,), (i, j))):
            raise ConfigError("verify-schauder needs bounded first and "
                              "second derivatives of data.g, and those of "
                              "%r are not finite on the grid at t = 0"
                              % data["g"])


def setting(cfg, key):
    """Top-level key of a validated config, or its default."""
    return cfg.get(key, CONFIG[key][1])


def section(cfg, name, required=False):
    """Section `name` of a validated config with its missing keys filled
    in from CONFIG; a ConfigError if it is required and absent."""
    if name not in cfg and required:
        raise ConfigError("this command needs a %r section" % name)
    given = cfg.get(name, {})
    return {key: given.get(key, default)
            for key, (_, default) in CONFIG[name].items()}


def build_field(cfg):
    """The configured field; a value its preset rejects is a ConfigError."""
    fld = cfg.get("field")
    if fld is None:
        raise ConfigError("this command needs a 'field' section")
    make, spec = PRESETS[fld["preset"]]
    try:
        return make(*[fld.get(k, d) for k, (_, d) in spec.items()])
    except ValueError as exc:
        raise ConfigError("field preset %r: %s" % (fld["preset"], exc))


def build_grid(cfg, d, rung=None):
    """The grid section's box in d dimensions; a ladder rung (n_lateral,
    n_height, n_slices) replaces its node counts and its need to exist.
    Sizes the grid rejects are a ConfigError."""
    g = section(cfg, "grid", required=rung is None)
    n_lat, n_h, n_sl = rung or _counts(g)
    try:
        return Grid.build(d, g["x_extent"], g["height"], n_lat, n_h,
                          g["t_final"], n_sl, grading=g["grading"])
    except ValueError as exc:
        raise ConfigError("grid: %s" % exc)


def _counts(g):
    """(n_lateral, n_height, n_slices) of a filled-in grid section."""
    return [g[k] for k in ("n_lateral", "n_height", "n_slices")]


def _three_slices(grid, command):
    """grid, or a ConfigError if it has fewer than the 3 slices that the
    time derivative in a norm of order 2+alpha needs."""
    if grid.n_t < 3:
        raise ConfigError("%s: a norm of order 2+alpha needs at least 3 "
                          "time slices, not %d" % (command, grid.n_t))
    return grid


def build_problem(cfg, field):
    """The data section's Cauchy problem.  load_config has checked that
    its text parses and is finite on the grid section's grid."""
    data, g_sec = section(cfg, "data", required=True), section(cfg, "grid")
    if data["manufactured"] is not None:
        return manufactured_problem(field, data["manufactured"],
                                    g_sec["x_extent"], g_sec["height"])
    if data["g"] is None:
        raise ConfigError("data needs 'g' (or 'manufactured')")
    if section(cfg, "solve")["boundary"] == "exact":
        raise ConfigError('solve.boundary "exact" needs data.manufactured, '
                          "whose exact solution gives the face values")
    try:
        f, g = [None if text is None else text_function(text, field.d)
                for text in (data["f"], data["g"])]
        return CauchyProblem(field, f, g)
    except ValueError as exc:
        raise ConfigError("data: %s" % exc)


def _write(out, name, text):
    with open(os.path.join(out, name), "w") as fh:
        fh.write(text)


# --------------------------------------------------------------------------
# experiment implementations

def exp_solve(cfg, out, seed):
    field = build_field(cfg)
    grid = build_grid(cfg, field.d)
    u, report = solve_cauchy(build_problem(cfg, field), grid,
                             **section(cfg, "solve"))
    gridio.save_grid_function(os.path.join(out, "solution.dgph"), u)
    _write(out, "solve_report.csv", gridio.solve_report_csv(report))
    residual, bound = report.max_residual(), RTOL * 10
    results = [CheckResult("linear-solver", "theta-scheme", residual, bound,
                           1.0, residual <= bound, "max step residual")]
    if report.certificate is not None:
        c = report.certificate
        results.append(CheckResult("monotonicity-certificate",
                                   "m-matrix", c.offdiag_max, 0.0, 1.0,
                                   c.passed, c.detail))
    return results


def exp_validate_coeffs(cfg, out, seed):
    field = build_field(cfg)
    rows = validate_assumptions(field, section(cfg, "validate")["n_samples"],
                                seed=seed, alpha=setting(cfg, "alpha"))
    return [CheckResult("assumption-" + name, "coefficient-assumptions",
                        value, declared, ASSUMPTION_SLACK, ok)
            for name, value, declared, ok in rows]


def exp_norms(cfg, out, seed):
    field = build_field(cfg)
    grid = _three_slices(build_grid(cfg, field.d), "norms")
    u, _ = solve_cauchy(build_problem(cfg, field), grid,
                        **section(cfg, "solve"))
    n, alpha = section(cfg, "norms"), setting(cfg, "alpha")
    points, ti, si = grid_point_set(grid, grid.audited_mask(),
                                    n_max=n["n_points"], seed=seed)
    cons = grid_constituents(u, ti, si)
    reports = [r for q in n["q"]
               for r in order2_norm(cons, points, alpha, q=q)[1]]
    _write(out, "holder.csv", holder_reports_to_csv(reports))
    return []


def exp_maxprin(cfg, out, seed):
    m = section(cfg, "maxprin")
    results = maximum_principle_suite(m["n_problems"], seed=seed)
    results += absolute_bound_suite(m["n_absolute"], seed=seed + 1)
    results += weighted_bound_suite(m["n_weighted"], BOUND_WEIGHTS,
                                    seed=seed + 2)
    fld = build_field(cfg) if cfg.get("field") else homogeneous_drift(1.0)
    return results + [check_quadratic_supersolution(fld, seed=seed)]


def exp_barriers(cfg, out, seed):
    n_points = section(cfg, "barriers")["n_points"]
    return [check_barrier(drift, n_points=n_points, seed=seed)
            for drift in BARRIER_DRIFTS]


def exp_interp(cfg, out, seed):
    fits, cases, results = interpolation_check(
        alpha=setting(cfg, "alpha"), eps_ladder=INTERP_EPS, seed=seed)
    _write(out, "interpolation.csv", gridio.csv_text(
        ("inequality", "C", "m", "n_cases"),
        [(k, f.constant, f.exponent, f.n_cases) for k, f in fits.items()]))
    return results


def exp_schauder(cfg, out, seed):
    s = section(cfg, "schauder")
    field = build_field(cfg)
    problem = build_problem(cfg, field)
    grids = [_three_slices(build_grid(cfg, field.d, rung), "verify-schauder")
             for rung in s["ladder"]]
    results = []
    for rung, grid in zip(s["ladder"], grids):
        rep, _ = schauder_ratio(problem, grid, alpha=setting(cfg, "alpha"),
                                n_points=s["n_points"], seed=seed,
                                **section(cfg, "solve"))
        if not rep.denominator > 0:
            raise ConfigError("verify-schauder: the data f and g have norm "
                              "0, so the Schauder ratio is undefined")
        results.append(CheckResult(
            "schauder-ratio(n=%d)" % rung[0], "schauder-ratio", rep.ratio,
            float("inf"), 1.0, np.isfinite(rep.ratio),
            "num=%.6g den=%.6g" % (rep.numerator, rep.denominator)))
    variation = abs(results[-1].lhs - results[-2].lhs) / abs(results[-2].lhs)
    results.append(CheckResult("schauder-stability", "schauder-ratio",
                               variation, SCHAUDER_THRESHOLD, 1.0,
                               variation <= SCHAUDER_THRESHOLD,
                               "relative change between finest grids"))
    return results


def exp_reduce(cfg, out, seed):
    field = build_field(cfg)
    plan = build_reduction_plan(field)
    _write(out, "plan.txt", plan.describe() + "\n")
    tol = 1e-12
    results = [CheckResult("reduction-" + name, "reduction-certificates",
                           plan.certificates[name], tol, 1.0,
                           plan.certificates[name] <= tol)
               for name in ("orthogonality", "shear_offdiagonal",
                            "model_diffusion", "inverse")]
    bd = plan.certificates["model_drift_height"]
    results.append(CheckResult("reduction-inward-drift",
                               "reduction-certificates", bd, 0.0, 1.0,
                               bd > 0.0, "model drift height component"))
    r = section(cfg, "reduce")
    if r["round_trip"]:
        grid = build_grid(cfg, field.d, _counts(section(cfg, "grid")))
        results.append(reduction_round_trip(field, r["kind"], grid)[0])
    return results


def exp_convergence(cfg, out, seed):
    c, solve = section(cfg, "convergence"), section(cfg, "solve")
    field = build_field(cfg)
    # a rung Grid rejects is a ConfigError, and so is a ladder that does
    # not refine: two rungs with one spacing (or one dt) fit no order
    space = c["mode"] == "space"
    grids = [build_grid(cfg, field.d, rung) for rung in c["ladder"]]
    steps = [grid.max_spacing() if space else grid.dt for grid in grids]
    if len(set(steps)) < len(steps):
        raise ConfigError("convergence.ladder: two rungs share one %s, so "
                          "the ladder does not refine in %s"
                          % ("largest spacing" if space else "time step",
                             c["mode"]))
    g = section(cfg, "grid")
    study = convergence_study(
        field, c["kind"], c["ladder"], x_extent=g["x_extent"],
        height=g["height"], t_final=g["t_final"], mode=c["mode"],
        grading=g["grading"], **solve)
    _write(out, "convergence.csv", gridio.convergence_csv(study))
    if study.order is None:
        return [CheckResult("convergence-order", "theta-scheme", 0.0, 0.0,
                            1.0, True, "errors at machine precision")]
    if c["mode"] == "space":
        return [CheckResult("convergence-order(space)", "theta-scheme",
                            study.order, MIN_SPACE_ORDER, 1.0,
                            study.order >= MIN_SPACE_ORDER, "fit vs minimum")]
    # the theta-scheme is second order in time at theta = 1/2, else first
    order, name = (2.0, "second") if solve["theta"] == 0.5 else (1.0, "first")
    return [CheckResult("convergence-order(time)", "theta-scheme",
                        study.order, order, 1.0,
                        abs(study.order - order) <= TIME_ORDER_BAND,
                        "fit vs %s order, band %.3g"
                        % (name, TIME_ORDER_BAND))]


# Longest first, as measured on the README config: the pool starts them in
# this order, so the longest is never left to run alone at the end.
EXPERIMENTS = {
    "verify-maxprin": exp_maxprin,
    "verify-interp": exp_interp,
    "verify-schauder": exp_schauder,
    "solve": exp_solve,
    "norms": exp_norms,
    "verify-barriers": exp_barriers,
    "convergence": exp_convergence,
    "reduce": exp_reduce,
    "validate-coeffs": exp_validate_coeffs,
}


def run_experiment(kind, cfg, out_root, seed):
    """Run one experiment into the directory out_root/kind, which must
    exist; (its results, wall seconds)."""
    start = time.perf_counter()
    out = os.path.join(out_root, kind)
    results = EXPERIMENTS[kind](cfg, out, seed)
    _write(out, "checks.csv", checks_to_csv(results))
    _write(out, "summary.txt",
           "\n".join(r.line() for r in results) + "\n" if results
           else "no checks emitted\n")
    return results, time.perf_counter() - start


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without sched_getaffinity
        return os.cpu_count() or 1


def run_experiments(kinds, cfg, out_root, seed):
    """run_experiment for each of `kinds`, returned in that order.

    Two or more run on a pool of min(len(kinds), usable CPUs) workers,
    submitted in EXPERIMENTS order.  The workers are forked, so they
    inherit the imported modules and the parsed text; a fresh
    interpreter would import degenpde again.  With one worker, or
    no fork start method, they run in this process.  The first failing
    experiment in `kinds` order raises its exception here, after the
    experiments not yet started are cancelled; a worker that dies raises
    BrokenProcessPool, where a multiprocessing.Pool would hang.
    """
    workers = min(len(kinds), _usable_cpus())
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [run_experiment(k, cfg, out_root, seed) for k in kinds]
    pool = ProcessPoolExecutor(workers,
                               mp_context=multiprocessing.get_context("fork"))
    try:
        futures = {k: pool.submit(run_experiment, k, cfg, out_root, seed)
                   for k in sorted(kinds, key=list(EXPERIMENTS).index)}
        return [futures[k].result() for k in kinds]
    finally:
        pool.shutdown(cancel_futures=True)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="degenpde", description=(
        "Degenerate-parabolic half-space solver and verification toolkit"))
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in list(EXPERIMENTS) + ["run"]:
        p = sub.add_parser(kind)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            _check_value("--seed", args.seed, (NATURAL, 0))
        kinds = cfg.get("experiments") if args.command == "run" \
            else [args.command]
        if not kinds:
            raise ConfigError("'run' needs an 'experiments' list")
        bad = [k for k in kinds if k not in EXPERIMENTS]
        if bad:
            raise ConfigError("unknown experiments %s" % bad)
        # each experiment writes into its own directory out/<name>
        repeated = sorted({k for k in kinds if kinds.count(k) > 1})
        if repeated:
            raise ConfigError("experiments listed more than once: %s"
                              % repeated)
        if "verify-schauder" in kinds:
            _check_schauder_data(cfg)
        for kind in kinds:
            os.makedirs(os.path.join(args.out, kind), exist_ok=True)
    except (ConfigError, OSError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG_ERROR
    seed = args.seed if args.seed is not None else setting(cfg, "seed")
    try:
        runs = run_experiments(kinds, cfg, args.out, seed)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except SolverError as exc:
        print("runtime error: %s" % exc, file=sys.stderr)
        return EXIT_RUNTIME_ERROR

    gridio.write_manifest(os.path.join(args.out, "manifest.json"),
                          cfg, args.command, seed,
                          [(k, wall_s) for k, (_, wall_s) in zip(kinds, runs)])
    results = [r for run_results, _ in runs for r in run_results]
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print("%d checks, %d failed" % (len(results), len(failed)))
    return EXIT_CHECK_FAILED if failed else EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
