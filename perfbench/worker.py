"""One iteration of a workload, in a fresh interpreter.

Started by run.py, never by hand:

    python3 perfbench/worker.py --workload NAME --seed N --size full
        --config-dir DIR --out DIR --t0 MONOTONIC --mode run|setup
        --trace 0|1

It imports degenpde (timed), loads the workload's configs through
`degenpde.cli.load_config`, and reports `setup_s` measured from --t0, the
parent's `time.monotonic()` just before it started this interpreter
(CLOCK_MONOTONIC on Linux, shared by all processes).  In `run` mode it
then makes the workload's CLI calls in-process (timed as `run_s`), checks
the outputs, and writes `result.json` into --out.  With --trace 1 the
calls run under the wrappers of tracing.py and the spans go to
`spans.jsonl`.

Only the standard library is imported before `import degenpde`, so that
import is timed in full.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import workloads


def run_steps(cli, steps, args, tracer):
    """Make the CLI calls; returns (run_s, per-step records)."""
    records = []
    start = time.perf_counter()
    for step in steps:
        argv = [step["command"],
                "--config", os.path.join(args.config_dir, step["config"]),
                "--out", os.path.join(args.out, step["out"]),
                "--seed", str(args.seed)]
        t = time.perf_counter()
        status, detail = "ok", ""
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.step(step["name"], cli.main, argv)
            if code != 0:
                status, detail = "failed", "exit status %s" % code
        except Exception as exc:
            known = step.get("known_error")
            if known and isinstance(exc, ValueError) and known in str(exc):
                status, detail = "known", "%s: %s" % (type(exc).__name__,
                                                      exc)
            else:
                status = "failed"
                detail = traceback.format_exc()
        records.append({"name": step["name"],
                        "seconds": time.perf_counter() - t,
                        "status": status, "detail": detail})
    return time.perf_counter() - start, records


def check_outputs(args, steps, records):
    import checks

    ops, mms_error, iterations = [], None, {}
    for step, rec in zip(steps, records):
        ops.append(("cli:" + step["name"], rec["status"] != "failed",
                    rec["status"] + (": " + rec["detail"] if rec["detail"]
                                     else "")))
        if rec["status"] == "known":
            continue
        ops.extend(checks.checks_csv_ops(args.out, step["out"]))
        for spec in step["solutions"]:
            sops, err, iters = checks.solution_ops(args.out, spec)
            ops.extend(sops)
            if spec["primary"]:
                mms_error = err
            if iters is not None:
                iterations["n%d" % spec["n"]] = iters
    return ops, mms_error, iterations, checks.checks_digest(args.out)


def versions():
    """Library versions for the run's provenance."""
    import platform

    import numpy
    import scipy
    import sympy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "sympy": sympy.__version__,
            "blas": blas}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full", choices=("full", "tiny"))
    p.add_argument("--config-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--mode", choices=("run", "setup"), default="run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    t = time.perf_counter()
    import degenpde.cli as cli
    import_s = time.perf_counter() - t
    _, steps = workloads.build(args.workload, args.size)
    for name in sorted({s["config"] for s in steps}):
        cli.load_config(os.path.join(args.config_dir, name))
    setup_s = time.monotonic() - args.t0

    result = {"import_s": import_s, "setup_s": setup_s,
              "degenpde_file": os.path.abspath(sys.modules["degenpde"]
                                               .__file__)}
    os.makedirs(args.out, exist_ok=True)
    if args.mode == "setup":
        result["provenance"] = versions()
    else:
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer(os.path.basename(args.out))
            tracing.install(tracer)
        run_s, records = run_steps(cli, steps, args, tracer)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        if tracer is not None:
            tracer.write(os.path.join(args.out, "spans.jsonl"))
            result["trace_missing"] = tracer.missing
        ops, mms_error, iterations, digest = check_outputs(args, steps,
                                                           records)
        result.update(run_s=run_s, steps=records, ops=ops,
                      mms_error=mms_error, iterations=iterations,
                      digest=digest,
                      known_failures=sum(r["status"] == "known"
                                         for r in records),
                      cpu_s=usage.ru_utime + usage.ru_stime,
                      peak_rss_mb=usage.ru_maxrss / 1024.0)
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
