"""Smoke test of the benchmark at tiny sizes; not part of the tier-1 suite.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every metric BENCHMARK.json declares is printed with its
unit, and that a corrupted solution file or a failing checks.csv row is
counted as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    bench = _declared()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    declared = bench["per_layer" if trace else "end_to_end"]
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]


def test_corrupt_solution_and_failing_row_are_counted(tmp_path):
    import degenpde.cli as cli

    configs, steps = workloads.build("heston-ladder", "tiny")
    for name, cfg in configs.items():
        (tmp_path / name).write_text(json.dumps(cfg))
    (tmp_path / "out").mkdir()
    args = argparse.Namespace(config_dir=str(tmp_path),
                              out=str(tmp_path / "out"), seed=3)
    _, records = worker.run_steps(cli, steps, args, None)

    def failed():
        ops = worker.check_outputs(args, steps, records)[0]
        return sorted(name for name, ok, _ in ops if not ok)

    assert failed() == []

    solution = tmp_path / "out" / "ladder-n9" / "solve" / "solution.dgph"
    solution.write_bytes(solution.read_bytes()[:-8])
    rows = tmp_path / "out" / "ladder-n13" / "solve" / "checks.csv"
    lines = rows.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",fail"
    rows.write_text("\n".join(lines) + "\n")
    assert failed() == ["row:ladder-n13/solve/checks.csv:linear-solver",
                        "solution:ladder-n9/solve"]


def test_exact_solution_matches_the_program(tmp_path):
    import numpy as np
    from degenpde.fields import heston
    from degenpde.grid import Grid
    from degenpde.solver import manufactured_problem

    problem = manufactured_problem(heston(2.0, 0.25, 1.0, 0.0, r=0.05),
                                   "inner_bump")
    grid = Grid.build(2, 2.0, 2.0, 17, 17, 0.5, 4)
    x1, x2 = grid.meshes()
    for t in grid.times:
        ours = checks.inner_bump_exact(t, x1, x2, 2.0, 2.0)
        theirs = problem.exact.grid_callable()(t, x1, x2)
        assert np.allclose(ours, theirs, rtol=0, atol=1e-14)
