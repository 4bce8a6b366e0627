"""Benchmark of degenpde: time to solution, per-layer traces, output checks.

Run from the repository root:

    python3 perfbench/run.py --workload heston-ladder --seed 1 \
        --seconds 40 --trace 0

Workloads are defined in workloads.py.  Every iteration of a workload is
one fresh interpreter (worker.py) with BLAS and OpenMP pinned to one
thread, running the workload's `degenpde` CLI calls in-process.  The run
first starts a few interpreters that only set up, then repeats the
workload until --seconds is used up, and reports medians.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced iterations and prints the per-layer metrics, which come from
the traced iterations only; `trace.overhead_s` is the difference of the
two medians of run_s.

The outputs of every iteration are checked (checks.py); each check, CLI
call and checks.csv row is one operation.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it holds the run's provenance.  Without
`src/degenpde` beside this directory the run exits with status 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Interpreters that only set up, after one uncounted warm-up start; their
# setup_s and that of every iteration give the median.
SETUP_SAMPLES = 3
# The whole run must end well within the 180 s a run may take.
HARD_LIMIT_S = 165.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# (name, unit): printed with --trace 0.
END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("mms_error", "1")]

EXPERIMENT_KINDS = ("solve", "validate-coeffs", "norms", "verify-maxprin",
                    "verify-barriers", "verify-interp", "verify-schauder",
                    "convergence", "reduce")

# (name, unit): printed with --trace 1.
PER_LAYER = (
    [("import.degenpde_s", "s")]
    + [("cli.%s_s" % k, "s") for k in EXPERIMENT_KINDS]
    + [("analytic.lambdify_calls", "count"), ("analytic.lambdify_s", "s"),
       ("analytic.eval_calls", "count"), ("analytic.eval_s", "s"),
       ("analytic.symbolic_s", "s"),
       ("fields.coeff_eval_calls", "count"), ("fields.coeff_eval_s", "s"),
       ("solver.assemble_calls", "count"), ("solver.assemble_s", "s"),
       ("solver.certify_calls", "count"), ("solver.certify_s", "s")]
    + [("solver.linear_self_s.n%d" % n, "s") for n in tracing.LADDER]
    + [("solver.iterations.n%d" % n, "count") for n in tracing.LADDER]
    + [("solver.iterations_max.n%d" % n, "count") for n in tracing.LADDER]
    + [("solver.nnz.n%d" % n, "count") for n in tracing.LADDER]
    + [("solver.solve_calls", "count"), ("solver.solve_p50_ms", "ms"),
       ("solver.solve_p90_ms", "ms"),
       ("solver.apply_operator_calls", "count"),
       ("solver.apply_operator_s", "s"),
       ("grid.fd_calls", "count"), ("grid.fd_s", "s"),
       ("metrics.seminorm_calls", "count"),
       ("metrics.seminorm_pairs", "count"), ("metrics.seminorm_s", "s"),
       ("reduction.plan_s", "s"), ("reduction.transform_s", "s"),
       ("reduction.recover_s", "s"),
       ("verification.suite_self_s", "s"),
       ("gridio.save_s", "s"), ("gridio.bytes_written", "B"),
       ("process.cpu_s", "s"), ("process.peak_rss_mb", "MB"),
       ("trace.overhead_s", "s"), ("ops.known_failures", "count")])


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class Runner:
    """Starts worker interpreters for one benchmark run."""

    def __init__(self, args, work):
        self.args = args
        self.work = work
        self.env = worker_env()
        self.start = time.monotonic()
        self.count = 0

    def spawn(self, mode, traced=False):
        """Run one worker; returns (result dict or None, error text)."""
        self.count += 1
        out = os.path.join(self.work, "it%02d-%s%s" % (
            self.count, mode, "-traced" if traced else ""))
        timeout = HARD_LIMIT_S - (time.monotonic() - self.start)
        if timeout <= 0:
            return None, "no time left in the run"
        t0 = time.monotonic()
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--size", self.args.size,
               "--config-dir", os.path.join(self.work, "configs"),
               "--out", out, "--t0", repr(t0), "--mode", mode,
               "--trace", "1" if traced else "0"]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, "worker timed out after %.0f s" % timeout
        wall = time.monotonic() - t0
        path = os.path.join(out, "result.json")
        if proc.returncode != 0 or not os.path.exists(path):
            return None, "worker exited %d: %s" % (
                proc.returncode, proc.stderr.strip()[-2000:])
        with open(path) as fh:
            result = json.load(fh)
        if not result["degenpde_file"].startswith(SRC + os.sep):
            return None, "imported degenpde from %s, not from %s" % (
                result["degenpde_file"], SRC)
        result.update(wall_s=wall, out=out, traced=traced)
        return result, ""


def git_commit():
    """Commit of a git checkout at ROOT, read from .git; None otherwise."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args, versions):
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "size": args.size,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), "git_commit": git_commit(),
            "threads": {v: "1" for v in THREAD_VARS}, **versions}


def run_iterations(runner, args):
    """Setup-only starts, then iterations until --seconds is used up."""
    ops, setups, iterations = [], [], []
    warm, err = runner.spawn("setup")
    if warm is None:
        return None, [("worker:setup-warmup", False, err)], [], []
    for _ in range(SETUP_SAMPLES):
        res, err = runner.spawn("setup")
        ops.append(("worker:setup", res is not None, err))
        if res is not None:
            setups.append(res)
    deadline = runner.start + args.seconds
    walls = []
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        res, err = runner.spawn("run", traced)
        k += 1
        ops.append(("worker:run-%d" % k, res is not None, err))
        if res is None:
            break
        iterations.append(res)
        walls.append(res["wall_s"])
        if k < (2 if args.trace else 1):
            continue
        left = deadline - time.monotonic()
        if left < statistics.median(walls):
            break
    return warm, ops, setups, iterations


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", default="full", choices=("full", "tiny"),
                   help="tiny shrinks every grid; used by the smoke test")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "degenpde", "__init__.py")):
        print("perfbench: %s has no degenpde package; run from a checkout "
              "of the repository" % SRC, file=sys.stderr)
        return 2

    work = os.path.join(HERE, "_work", "%s-s%d-t%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    os.makedirs(os.path.join(work, "configs"))
    try:
        return report(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(args, work):
    configs, _ = workloads.build(args.workload, args.size)
    for name, cfg in configs.items():
        with open(os.path.join(work, "configs", name), "w") as fh:
            json.dump(cfg, fh, indent=1)

    runner = Runner(args, work)
    warm, ops, setups, iterations = run_iterations(runner, args)
    for it in iterations:
        ops.extend(tuple(op) for op in it["ops"])
    digests = {it["digest"] for it in iterations}
    ops.append(("checks.csv identical across iterations", len(digests) <= 1,
                "%d distinct digests" % len(digests)))
    for name, ok, detail in ops:
        if not ok:
            print("FAILED %s: %s" % (name, detail), file=sys.stderr)
    known = {d["detail"] for it in iterations for d in it["steps"]
             if d["status"] == "known"}
    for detail in sorted(known):
        print("known defect (counted in ops.known_failures): " + detail,
              file=sys.stderr)
    for name in sorted({m for it in iterations
                        for m in it.get("trace_missing", [])}):
        print("perfbench: %s not found; its layer metrics read 0" % name,
              file=sys.stderr)

    plain = [it for it in iterations if not it["traced"]]
    traced = [it for it in iterations if it["traced"]]
    errors = [it["mms_error"] for it in plain if it["mms_error"] is not None]
    if warm is None or not errors or (args.trace and not traced):
        print("perfbench: no complete iteration; no metrics", file=sys.stderr)
        return 1

    if args.trace:
        values = trace_metrics(plain, traced, setups)
        keep = _keep_trace(args, traced[-1])
        print("perfbench: spans of the last traced iteration in " + keep,
              file=sys.stderr)
    else:
        values = {
            "setup_s": statistics.median(
                r["setup_s"] for r in setups + iterations),
            "run_s": statistics.median(it["run_s"] for it in plain),
            "mms_error": statistics.median(errors),
        }
    units = dict(PER_LAYER if args.trace else END_TO_END)
    prov = provenance(args, warm["provenance"])
    prov["iterations"] = {"untraced": len(plain), "traced": len(traced),
                          "setup_only": len(setups)}
    prov["samples"] = {
        "setup_s": [r["setup_s"] for r in setups + iterations],
        "run_s": [it["run_s"] for it in plain],
        "traced_run_s": [it["run_s"] for it in traced]}
    print(json.dumps({"provenance": prov}))
    failed = sum(1 for _, ok, _ in ops if not ok)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


def trace_metrics(plain, traced, setups):
    per_it = []
    for it in traced:
        spans = tracing.read_spans(os.path.join(it["out"], "spans.jsonl"))
        m = tracing.per_layer(spans, EXPERIMENT_KINDS)
        for n in tracing.LADDER:
            total, most = it["iterations"].get("n%d" % n, (0, 0))
            m["solver.iterations.n%d" % n] = total
            m["solver.iterations_max.n%d" % n] = most
        m["ops.known_failures"] = it["known_failures"]
        per_it.append(m)
    values = tracing.median_metrics(per_it)
    values["import.degenpde_s"] = statistics.median(
        r["import_s"] for r in setups + plain + traced)
    values["process.cpu_s"] = statistics.median(it["cpu_s"] for it in plain)
    values["process.peak_rss_mb"] = statistics.median(
        it["peak_rss_mb"] for it in plain)
    values["trace.overhead_s"] = (
        statistics.median(it["run_s"] for it in traced)
        - statistics.median(it["run_s"] for it in plain))
    return values


def _keep_trace(args, it):
    """Keep the last traced iteration's spans after the work dir goes."""
    keep_dir = os.path.join(HERE, "_work", "traces")
    os.makedirs(keep_dir, exist_ok=True)
    keep = os.path.join(keep_dir, "%s-s%d.jsonl" % (args.workload,
                                                   args.seed))
    shutil.copyfile(os.path.join(it["out"], "spans.jsonl"), keep)
    return keep


if __name__ == "__main__":
    sys.exit(main())
