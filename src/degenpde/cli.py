"""Command-line driver: config validation and experiment dispatch.

Configs are JSON with a strict schema: unknown sections or keys are hard
errors, so a misspelled option can never silently fall back to a
default.  Every command takes --config and --out plus an optional --seed
override; the `run` command runs the experiment kinds listed under
"experiments" one after another.  Exit status is 0 when every emitted
check passes, 1 when any fails, 2 for unusable configs or arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import gridio
from .analytic import AnalyticFunction
from .fields import (constant_field, from_expressions, heston,
                     homogeneous_drift, validate_assumptions)
from .grid import Grid
from .metrics import grid_constituents, grid_point_set, holder_reports_to_csv, \
    order2_norm, split_holder_norm, gather
from .solver import (CauchyProblem, convergence_study, manufactured_problem,
                     solve_cauchy)
from .verification import (CheckResult, absolute_bound_suite, check_barrier,
                           check_quadratic_supersolution, checks_to_csv,
                           interpolation_check, maximum_principle_suite,
                           reduction_round_trip, schauder_ratio,
                           weighted_bound_suite)
from .reduction import build_reduction_plan


class ConfigError(ValueError):
    pass


_FIELD_KEYS = {
    "heston": {"preset", "kappa", "theta", "sigma", "rho", "r", "q"},
    "homogeneous-drift": {"preset", "nu", "d"},
    "constant": {"preset", "a", "b", "c"},
    "expressions": {"preset", "d", "a", "b", "c", "delta", "K", "nu"},
}

_SCHEMA = {
    "seed": None,
    "experiments": None,
    "field": None,  # validated per preset
    "grid": {"x_extent", "height", "n_lateral", "n_height", "n_slices",
             "t_final", "grading"},
    "data": {"f", "g", "manufactured"},
    "solve": {"theta", "certify", "boundary", "rtol"},
    "norms": {"alpha", "q", "n_points"},
    "validate": {"n_samples", "slack", "alpha", "seed"},
    "maxprin": {"n_problems", "n_absolute", "sup_slack", "weighted_q",
                "weighted_slack", "n_weighted"},
    "barriers": {"drifts", "gamma", "big_c", "small_c", "n_points",
                 "height_max"},
    "interp": {"alpha", "eps"},
    "schauder": {"alpha", "p", "ladder", "threshold", "n_points"},
    "convergence": {"kind", "ladder", "mode", "min_order", "order_band",
                    "boundary", "theta"},
    "reduce": {"round_trip", "kind"},
}


def validate_config(cfg):
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    for key, sub in cfg.items():
        if key not in _SCHEMA:
            raise ConfigError("unknown config section %r" % key)
        allowed = _SCHEMA[key]
        if allowed is None:
            continue
        if not isinstance(sub, dict):
            raise ConfigError("section %r must be an object" % key)
        extra = set(sub) - allowed
        if extra:
            raise ConfigError("unknown keys %s in section %r"
                              % (sorted(extra), key))
    fld = cfg.get("field")
    if fld is not None:
        preset = fld.get("preset")
        if preset not in _FIELD_KEYS:
            raise ConfigError("field.preset must be one of %s"
                              % sorted(_FIELD_KEYS))
        extra = set(fld) - _FIELD_KEYS[preset]
        if extra:
            raise ConfigError("unknown field keys %s for preset %r"
                              % (sorted(extra), preset))
    return cfg


def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("config is not valid JSON: %s" % exc)
    return validate_config(cfg)


def build_field(cfg):
    """The field section's preset; a missing key or a value the preset
    rejects is a ConfigError."""
    fld = cfg.get("field")
    if fld is None:
        raise ConfigError("this command needs a 'field' section")
    preset = fld.get("preset")
    try:
        if preset == "heston":
            return heston(fld["kappa"], fld["theta"], fld["sigma"],
                          fld["rho"], r=fld.get("r", 0.0),
                          q=fld.get("q", 0.0))
        if preset == "homogeneous-drift":
            return homogeneous_drift(fld["nu"], fld.get("d", 2))
        if preset == "constant":
            return constant_field(fld["a"], fld["b"], fld["c"])
        return from_expressions(fld["d"], fld["a"], fld["b"], fld["c"],
                                fld["delta"], fld["K"], fld["nu"])
    except KeyError as exc:
        raise ConfigError("field preset %r needs key %s" % (preset, exc))
    except ValueError as exc:
        raise ConfigError("field preset %r: %s" % (preset, exc))


def build_grid(cfg):
    g = cfg.get("grid")
    if g is None:
        raise ConfigError("this command needs a 'grid' section")
    field = cfg.get("field") or {}
    d = field.get("d", 2)
    return Grid.build(d, g["x_extent"], g["height"], g["n_lateral"],
                      g["n_height"], g["t_final"], g["n_slices"],
                      grading=g.get("grading", "quadratic"))


def build_problem(cfg, field):
    data = cfg.get("data")
    if data is None:
        raise ConfigError("this command needs a 'data' section")
    if "manufactured" in data:
        g = cfg.get("grid", {})
        return manufactured_problem(field, data["manufactured"],
                                    x_extent=g.get("x_extent", 2.0),
                                    height=g.get("height", 2.0))
    if "g" not in data:
        raise ConfigError("data needs 'g' (or 'manufactured')")
    g = AnalyticFunction.from_text(data["g"], field.d)
    f = None
    if data.get("f") is not None:
        f = AnalyticFunction.from_text(data["f"], field.d)
    return CauchyProblem(field, f, g, name="configured")


def _solve_options(cfg):
    s = cfg.get("solve", {})
    return dict(theta=s.get("theta", 1.0), certify=s.get("certify"),
                boundary=s.get("boundary", "frozen"),
                rtol=s.get("rtol", 1e-10))


def _write(out, name, text):
    with open(os.path.join(out, name), "w") as fh:
        fh.write(text)


# --------------------------------------------------------------------------
# experiment implementations

def exp_solve(cfg, out, seed):
    field = build_field(cfg)
    grid = build_grid(cfg)
    problem = build_problem(cfg, field)
    u, report = solve_cauchy(problem, grid, **_solve_options(cfg))
    gridio.save_grid_function(os.path.join(out, "solution.dgph"), u)
    _write(out, "solve_report.csv", gridio.solve_report_csv(report))
    residual, bound = report.max_residual(), report.rtol * 10
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
    v = cfg.get("validate", {})
    report = validate_assumptions(field,
                                  n_samples=v.get("n_samples", 2000),
                                  seed=v.get("seed", seed),
                                  slack=v.get("slack", 1.05),
                                  alpha=v.get("alpha", 0.5))
    _write(out, "assumptions.csv", gridio.assumption_report_csv(report))
    _write(out, "assumptions.txt", report.summary() + "\n")
    declared = {"delta_hat": field.delta, "delta_interior_hat": field.delta,
                "nu_hat": field.nu}
    results = []
    for name, value, ok in report.as_rows():
        results.append(CheckResult("assumption-" + name,
                                   "coefficient-assumptions", value,
                                   declared.get(name, field.K),
                                   report.slack, ok))
    return results


def exp_norms(cfg, out, seed):
    field = build_field(cfg)
    grid = build_grid(cfg)
    problem = build_problem(cfg, field)
    u, _ = solve_cauchy(problem, grid, **_solve_options(cfg))
    n = cfg.get("norms", {})
    alpha = n.get("alpha", 0.5)
    qs = n.get("q", [0.0])
    points, ti, si = grid_point_set(grid, grid.audited_mask(),
                                    n_max=n.get("n_points", 1500),
                                    seed=seed)
    cons = grid_constituents(u, ti, si)
    reports = []
    for q in qs:
        reports.append(split_holder_norm(gather(u, ti, si), points, alpha,
                                         q=q, seed=seed))
        total, parts = order2_norm(cons, points, alpha, q=q, seed=seed)
        reports.extend(parts)
    _write(out, "holder.csv", holder_reports_to_csv(reports))
    return []


def exp_maxprin(cfg, out, seed):
    m = cfg.get("maxprin", {})
    results = maximum_principle_suite(m.get("n_problems", 50), seed=seed)
    results += absolute_bound_suite(m.get("n_absolute", 20), seed=seed + 1,
                                    slack=m.get("sup_slack", 1.02))
    results += weighted_bound_suite(m.get("n_weighted", 20),
                                    tuple(m.get("weighted_q", [1.0, 2.0])),
                                    seed=seed + 2,
                                    slack=m.get("weighted_slack", 1.05))
    fld = build_field(cfg) if cfg.get("field") else homogeneous_drift(1.0)
    results.append(check_quadratic_supersolution(fld, seed=seed))
    return results


def exp_barriers(cfg, out, seed):
    b = cfg.get("barriers", {})
    results = []
    for drift in b.get("drifts", [-2.0, 0.0, 2.0]):
        results.append(check_barrier(
            drift, gamma=b.get("gamma", 0.5), big_c=b.get("big_c", 6.0),
            small_c=b.get("small_c", 0.5), n_points=b.get("n_points", 2000),
            seed=seed, height_max=b.get("height_max", 3.0)))
    return results


def exp_interp(cfg, out, seed):
    icfg = cfg.get("interp", {})
    fits, cases, results = interpolation_check(
        alpha=icfg.get("alpha", 0.5),
        eps_ladder=tuple(icfg.get("eps", [0.5, 0.25, 0.1])), seed=seed)
    lines = ["inequality,C,m,n_cases"]
    for k, f in fits.items():
        lines.append("%s,%.17g,%.17g,%d" % (k, f.constant, f.exponent,
                                            f.n_cases))
    _write(out, "interpolation.csv", "\n".join(lines) + "\n")
    return results


def exp_schauder(cfg, out, seed):
    s = cfg.get("schauder", {})
    field = build_field(cfg)
    ladder = s.get("ladder", [[17, 17, 9], [25, 25, 13], [33, 33, 17]])
    alpha, p = s.get("alpha", 0.5), s.get("p", 0.0)
    gcfg = cfg.get("grid", {})
    results = []
    ratios = []
    for (n_lat, n_h, n_sl) in ladder:
        grid = Grid.build(field.d, gcfg.get("x_extent", 2.0),
                          gcfg.get("height", 2.0), n_lat, n_h,
                          gcfg.get("t_final", 0.5), n_sl,
                          grading=gcfg.get("grading", "quadratic"))
        problem = build_problem(cfg, field)
        rep, _ = schauder_ratio(problem, grid, alpha=alpha, p=p,
                                n_points=s.get("n_points", 1200),
                                seed=seed,
                                certify=cfg.get("solve", {}).get("certify"))
        ratios.append(rep.ratio)
        results.append(CheckResult(
            "schauder-ratio(n=%d)" % n_lat, "schauder-ratio", rep.ratio,
            float("inf"), 1.0, np.isfinite(rep.ratio),
            "num=%.6g den=%.6g" % (rep.numerator, rep.denominator)))
    thr = s.get("threshold", 0.25)
    variation = abs(ratios[-1] - ratios[-2]) / abs(ratios[-2])
    results.append(CheckResult("schauder-stability", "schauder-ratio",
                               variation, thr, 1.0, variation <= thr,
                               "relative change between finest grids"))
    return results


def exp_reduce(cfg, out, seed):
    field = build_field(cfg)
    plan = build_reduction_plan(field)
    _write(out, "plan.txt", plan.describe() + "\n")
    tol = 1e-12
    results = []
    for name in ("orthogonality", "shear_offdiagonal", "model_diffusion",
                 "inverse"):
        val = plan.certificates[name]
        results.append(CheckResult("reduction-" + name,
                                   "reduction-certificates", val, tol, 1.0,
                                   val <= tol))
    bd = plan.certificates["model_drift_height"]
    results.append(CheckResult("reduction-inward-drift",
                               "reduction-certificates", bd, 0.0, 1.0,
                               bd > 0.0, "model drift height component"))
    r = cfg.get("reduce", {})
    if r.get("round_trip", False):
        g = cfg.get("grid", {})
        res, _ = reduction_round_trip(
            field, kind=r.get("kind", "inner_bump"),
            x_extent=g.get("x_extent", 2.0), height=g.get("height", 2.0),
            n_lateral=g.get("n_lateral", 33), n_height=g.get("n_height", 33),
            n_slices=g.get("n_slices", 25), t_final=g.get("t_final", 0.5))
        results.append(res)
    return results


def exp_convergence(cfg, out, seed):
    c = cfg.get("convergence", {})
    field = build_field(cfg)
    g = cfg.get("grid", {})
    study = convergence_study(
        field, c.get("kind", "inner_bump"),
        c.get("ladder", [[9, 9, 4], [17, 17, 10], [33, 33, 28]]),
        x_extent=g.get("x_extent", 2.0), height=g.get("height", 2.0),
        t_final=g.get("t_final", 0.5), theta=c.get("theta", 1.0),
        mode=c.get("mode", "space"), boundary=c.get("boundary", "frozen"),
        grading=g.get("grading", "quadratic"),
        certify=cfg.get("solve", {}).get("certify"))
    _write(out, "convergence.csv", gridio.convergence_csv(study))
    _write(out, "convergence.txt", study.summary() + "\n")
    if study.order is None:
        return [CheckResult("convergence-order", "theta-scheme", 0.0, 0.0,
                            1.0, True, "errors at machine precision")]
    if c.get("mode", "space") == "space":
        min_order = c.get("min_order", 0.9)
        return [CheckResult("convergence-order(space)", "theta-scheme",
                            study.order, min_order, 1.0,
                            study.order >= min_order, "fit vs minimum")]
    band = c.get("order_band", 0.3)
    return [CheckResult("convergence-order(time)", "theta-scheme",
                        study.order, 1.0, 1.0,
                        abs(study.order - 1.0) <= band,
                        "fit vs first order, band %.3g" % band)]


EXPERIMENTS = {
    "solve": exp_solve,
    "validate-coeffs": exp_validate_coeffs,
    "norms": exp_norms,
    "verify-maxprin": exp_maxprin,
    "verify-barriers": exp_barriers,
    "verify-interp": exp_interp,
    "verify-schauder": exp_schauder,
    "reduce": exp_reduce,
    "convergence": exp_convergence,
}


def run_experiment(kind, cfg, out_root, seed):
    out = os.path.join(out_root, kind)
    os.makedirs(out, exist_ok=True)
    results = EXPERIMENTS[kind](cfg, out, seed)
    _write(out, "checks.csv", checks_to_csv(results))
    _write(out, "summary.txt",
           "\n".join(r.line() for r in results) + "\n" if results
           else "no checks emitted\n")
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="degenpde",
        description="Degenerate-parabolic half-space solver and "
                    "verification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in list(EXPERIMENTS) + ["run"]:
        p = sub.add_parser(kind)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    os.makedirs(args.out, exist_ok=True)

    try:
        if args.command == "run":
            kinds = cfg.get("experiments")
            if not kinds:
                raise ConfigError("'run' needs an 'experiments' list")
            bad = [k for k in kinds if k not in EXPERIMENTS]
            if bad:
                raise ConfigError("unknown experiments %s" % bad)
            results = []
            for k in kinds:
                results.extend(run_experiment(k, cfg, args.out, seed))
        else:
            results = run_experiment(args.command, cfg, args.out, seed)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2

    gridio.write_manifest(os.path.join(args.out, "manifest.json"),
                          cfg, args.command, seed)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print("%d checks, %d failed" % (len(results), len(failed)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
