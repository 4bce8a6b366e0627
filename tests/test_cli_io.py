"""Config schema, binary grid-function files, CSV reports, CLI exit codes."""

import csv
import importlib.util
import inspect
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import degenpde
from degenpde import cli, gridio
from degenpde.fields import homogeneous_drift
from degenpde.grid import Grid
from degenpde.solver import (RTOL, CertificateError, convergence_study,
                             manufactured_problem, solve_cauchy)
from degenpde.verification import CHECK_CSV_COLUMNS, schauder_ratio


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


EXPRESSIONS_FIELD = {"preset": "expressions", "d": 2,
                     "a": [["1", "0"], ["0", "1"]], "b": ["0", "1"],
                     "c": "0", "delta": 1.0, "K": 4.0, "nu": 1.0}

BASE_CFG = {
    "field": {"preset": "homogeneous-drift", "nu": 1.0},
    "grid": {"x_extent": 2.0, "height": 2.0, "n_lateral": 7,
             "n_height": 7, "n_slices": 4, "t_final": 0.5},
    "data": {"manufactured": "inner_bump"},
}


class TestConfigValidation:
    def test_valid_config_passes(self):
        assert cli.validate_config(dict(BASE_CFG)) == BASE_CFG

    def test_unknown_section(self):
        with pytest.raises(cli.ConfigError, match="unknown config section"):
            cli.validate_config({"gird": {}})

    def test_unknown_key_in_section(self):
        with pytest.raises(cli.ConfigError, match="unknown keys"):
            cli.validate_config({"grid": {"x_extent": 1.0, "spacing": 0.1}})

    def test_section_must_be_object(self):
        with pytest.raises(cli.ConfigError, match="must be an object"):
            cli.validate_config({"grid": 3})

    def test_bad_preset(self):
        with pytest.raises(cli.ConfigError, match="field.preset"):
            cli.validate_config({"field": {"preset": "cir"}})

    def test_unknown_field_key_for_preset(self):
        cfg = {"field": {"preset": "homogeneous-drift", "nu": 1.0,
                         "kappa": 2.0}}
        with pytest.raises(cli.ConfigError, match="unknown field keys"):
            cli.validate_config(cfg)

    def test_root_must_be_object(self):
        with pytest.raises(cli.ConfigError, match="root"):
            cli.validate_config([1, 2])

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(cli.ConfigError, match="not valid JSON"):
            cli.load_config(str(path))

    def test_build_field_requires_section(self):
        with pytest.raises(cli.ConfigError, match="'field' section"):
            cli.build_field({})

    def test_data_needs_g_or_manufactured(self):
        field = homogeneous_drift(1.0)
        with pytest.raises(cli.ConfigError, match="'g'"):
            cli.build_problem({"data": {"f": "0"}}, field)


class TestConfigTable:
    def test_readme_example_config_validates(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir,
                              "README.md")
        with open(readme) as fh:
            text = fh.read()
        block = text.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = json.loads(block)
        assert cli.validate_config(cfg) == cfg

    @pytest.mark.parametrize("workload", ["heston-ladder", "heston-timedep",
                                          "readme-run"])
    @pytest.mark.parametrize("size", ["tiny", "full"])
    def test_benchmark_configs_validate(self, workload, size):
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "perfbench", "workloads.py")
        spec = importlib.util.spec_from_file_location("workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        configs, _ = workloads.build(workload, size)
        for cfg in configs.values():
            assert cli.validate_config(cfg) == cfg

    def test_readme_names_only_keys_of_the_table(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir,
                              "README.md")
        with open(readme) as fh:
            named = re.findall(r"`(\w+)\.(\w+)`", fh.read())
        # output files such as `convergence.csv` are no keys
        keys = [(sec, key) for sec, key in named
                if isinstance(cli.CONFIG.get(sec), dict)
                and key not in ("csv", "txt", "dgph", "json")]
        assert len(keys) >= 10
        for sec, key in keys:
            assert key in cli.CONFIG[sec], "%s.%s" % (sec, key)

    def test_solve_section_is_the_signature_of_solve_cauchy(self):
        # the solve section holds exactly the keywords of solve_cauchy,
        # with its defaults; the studies that solve forward the section
        # and declare none of its keys themselves
        keywords = {name: p.default for name, p in
                    inspect.signature(solve_cauchy).parameters.items()
                    if p.default is not p.empty}
        assert keywords == {key: default for key, (_, default)
                            in cli.CONFIG["solve"].items()}
        for fn in (convergence_study, schauder_ratio):
            params = inspect.signature(fn).parameters
            assert not set(params) & set(keywords), fn.__name__
            assert params["solve"].kind is inspect.Parameter.VAR_KEYWORD

    def test_partial_section_filled_from_table(self):
        cfg = {"grid": {"height": 1.0, "n_lateral": 9}}
        grid = cli.section(cli.validate_config(cfg), "grid")
        assert grid == {"x_extent": 2.0, "height": 1.0, "n_lateral": 9,
                        "n_height": 33, "n_slices": 25, "t_final": 0.5,
                        "grading": "quadratic"}
        assert cfg == {"grid": {"height": 1.0, "n_lateral": 9}}

    def test_every_section_has_typed_defaults(self):
        for name, spec in cli.CONFIG.items():
            keys = spec if isinstance(spec, dict) else {name: spec}
            for key, ((what, test), default) in keys.items():
                assert default is not cli.REQUIRED, (name, key)
                assert default is None or test(default), (name, key)
        for preset, (make, spec) in cli.PRESETS.items():
            for key, ((what, test), default) in spec.items():
                assert default in (None, cli.REQUIRED) or test(default)

    @pytest.mark.parametrize("cfg", [
        {"grid": {"x_extent": 2}},
        {"solve": {"certify": None, "theta": 0.5}},
        {"data": {"f": None, "g": "x1"}},
        {"field": {"preset": "heston", "kappa": 2, "theta": 1,
                   "sigma": 1, "rho": 0}},
    ], ids=["integer-for-number", "null-certify", "null-f", "integer-heston"])
    def test_accepted_values(self, cfg):
        assert cli.validate_config(cfg) == cfg

    @pytest.mark.parametrize("cfg,message", [
        ({"solve": {"theta": True}}, "solve.theta must be a number"),
        ({"grid": {"n_lateral": 33.0}}, "grid.n_lateral must be an integer"),
        ({"reduce": {"round_trip": 1}}, "reduce.round_trip must be true or"),
        ({"seed": None}, "seed must be an integer"),
        # the barrier drifts are fixed, as in the acceptance gate
        ({"barriers": {"drifts": [0.0, "1"]}},
         "unknown keys \\['drifts'\\] in section 'barriers'"),
        ({"convergence": {"ladder": [[9, 9]]}}, "convergence.ladder must"),
        ({"field": {"preset": "constant", "a": [[1.0]], "b": [1.0],
                    "c": "0"}}, "field.c must be a number"),
        ({"field": {"preset": ["heston"]}}, "field.preset"),
        # the solve section alone says how every solve steps
        ({"convergence": {"boundary": "edge"}},
         "unknown keys \\['boundary'\\] in section 'convergence'"),
        ({"grid": {"grading": ["uniform"]}}, "grid.grading must be one of"),
    ], ids=["bool-theta", "float-count", "int-flag", "null-seed",
            "string-drift", "short-rung", "string-c", "list-preset",
            "convergence-boundary", "list-grading"])
    def test_rejected_values(self, cfg, message):
        with pytest.raises(cli.ConfigError, match=message):
            cli.validate_config(cfg)


class TestGridFunctionFiles:
    @pytest.fixture
    def small(self, sample):
        grid = Grid.build(2, 1.0, 1.0, 5, 6, 0.25, 3)
        return grid, sample(grid, "sin(x1) + t*x2")

    def test_round_trip_bit_exact(self, tmp_path, small):
        grid, gf = small
        path = str(tmp_path / "u.dgph")
        gridio.save_grid_function(path, gf)
        back = gridio.load_grid_function(path, grid)
        assert back.values.dtype == np.float64
        assert np.array_equal(back.values, gf.values)
        # resaving reproduces the file byte for byte
        path2 = str(tmp_path / "u2.dgph")
        gridio.save_grid_function(path2, back)
        assert pathlib.Path(path).read_bytes() \
            == pathlib.Path(path2).read_bytes()

    @pytest.mark.parametrize("mangle,msg", [
        (lambda raw: b"XXXXX" + raw[5:], "bad magic"),
        (lambda raw: raw[:8], "truncated header"),
        (lambda raw: raw[:-4], "payload length"),
        (lambda raw: raw + b"\x00", "payload length"),
    ])
    def test_corrupt_files_rejected(self, tmp_path, mangle, msg, small):
        grid, gf = small
        path = str(tmp_path / "u.dgph")
        gridio.save_grid_function(path, gf)
        raw = pathlib.Path(path).read_bytes()
        bad = str(tmp_path / "bad.dgph")
        with open(bad, "wb") as fh:
            fh.write(mangle(raw))
        with pytest.raises(gridio.FormatError, match=msg):
            gridio.load_grid_function(bad, grid)

    def test_grid_mismatch_rejected(self, tmp_path, small):
        grid, gf = small
        path = str(tmp_path / "u.dgph")
        gridio.save_grid_function(path, gf)
        other = Grid.build(2, 1.0, 1.0, 5, 7, 0.25, 3)
        with pytest.raises(gridio.FormatError, match="does not match grid"):
            gridio.load_grid_function(path, other)


class TestCsvWriters:
    def test_solve_report_csv(self):
        field = homogeneous_drift(1.0)
        problem = manufactured_problem(field, "inner_bump")
        grid = Grid.build(2, 2.0, 2.0, 7, 7, 0.5, 4)
        _, report = solve_cauchy(problem, grid)
        text = gridio.solve_report_csv(report)
        lines = text.strip().split("\n")
        assert lines[0] == "step,iterations,residual"
        assert len(lines) == 1 + grid.n_t - 1
        step, iters, res = lines[1].split(",")
        assert int(step) == 1 and float(res) < 1e-8

    def test_csv_text_cells(self):
        text = gridio.csv_text(("x", "n", "s"),
                               [(0.1, 3, "pass"), (np.float64(1 / 3), 10, "a")])
        lines = text.split("\n")
        assert lines[0] == "x,n,s" and lines[-1] == ""
        assert lines[1] == "0.10000000000000001,3,pass"
        cells = lines[2].split(",")
        assert float(cells[0]) == 1 / 3 and cells[1:] == ["10", "a"]

    def test_csv_text_quotes_text_cells(self):
        # RFC 4180: a text cell with a comma, a double quote or a line
        # break is quoted, with its double quotes doubled
        cells = ["barrier(drift=-2,C=6,c=0.5)", 'say "hi"', "two\nlines",
                 "plain", ""]
        text = gridio.csv_text(("a", "b", "c", "d", "e"), [cells])
        assert text.split("\n")[1] == \
            '"barrier(drift=-2,C=6,c=0.5)","say ""hi""","two'
        assert list(csv.reader(io.StringIO(text)))[1] == cells

    def test_assumption_csv_deterministic(self, tmp_path):
        # the assumption rows are written once, as rows of checks.csv
        cfg = write_cfg(tmp_path, {"field": BASE_CFG["field"],
                                   "validate": {"n_samples": 300}})
        texts = []
        for name in ("first", "again"):
            out = tmp_path / name
            cli.main(["validate-coeffs", "--config", cfg, "--out", str(out),
                      "--seed", "5"])
            texts.append((out / "validate-coeffs" / "checks.csv").read_text())
        assert texts[0] == texts[1]
        assert texts[0].startswith("check,anchor,lhs,rhs,slack,pass\n"
                                   "assumption-delta_hat,")


class TestMainExitCodes:
    def test_config_error_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"unknown-section": {}})
        code = cli.main(["solve", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"seed": 0, "x": "\xff\xfe"}')
        code = cli.main(["solve", "--config", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: config is not valid JSON: "
                                 "'utf-8' codec can't decode byte 0xff")

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = cli.main(["solve", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "out")])
        assert code == 2

    def test_threads_section_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, dict(BASE_CFG, threads=2,
                                       experiments=["verify-barriers"]))
        code = cli.main(["run", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "unknown config section 'threads'" in capsys.readouterr().err

    @pytest.mark.parametrize("field,message", [
        ({"preset": "heston", "theta": 0.25, "sigma": 1.0, "rho": 0.0},
         "needs key 'kappa'"),
        ({"preset": "heston", "kappa": -1.0, "theta": 0.25, "sigma": 1.0,
          "rho": 0.0}, "kappa, theta, sigma must be positive"),
        ({"preset": "constant", "a": [[1.0, 0.0], [0.0, 1.0]],
          "b": [0.0, 1.0]}, "needs key 'c'"),
    ], ids=["missing-kappa", "negative-kappa", "constant-without-c"])
    def test_bad_field_exits_2(self, tmp_path, capsys, field, message):
        cfg = write_cfg(tmp_path, dict(BASE_CFG, field=field))
        code = cli.main(["solve", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error:") and message in err[0]

    @pytest.mark.parametrize("change,message", [
        ({"field": [1, 2]}, "section 'field' must be an object"),
        ({"grid": dict(BASE_CFG["grid"], n_lateral="x")},
         "grid.n_lateral must be an integer"),
        ({"experiments": "solve"}, "experiments must be a list of strings"),
        ({"solve": {"certify": "yes"}}, "solve.certify must be true or false"),
        ({"field": {"preset": "heston", "theta": 0.25, "sigma": 1.0,
                    "rho": 0.0}}, "needs key 'kappa'"),
        ({"data": {"g": "x1 +"}}, "cannot parse expression 'x1 +'"),
        ({"data": {"g": "x1", "f": "x1 +"}}, "cannot parse expression"),
        ({"data": {"manufactured": "wave"}},
         'data.manufactured must be one of "constant", "affine_height", '
         '"inner_bump", not "wave"'),
        ({"experiments": ["verify-schauder"],
          "schauder": {"ladder": [[9, 9, 5]]}},
         "schauder.ladder must be a list of at least two"),
        ({"grid": dict(BASE_CFG["grid"], grading="cubic")},
         'grid.grading must be one of "quadratic", "uniform", not "cubic"'),
        ({"solve": {"boundary": "edge"}}, "solve.boundary must be one of"),
        ({"convergence": {"mode": "spcae"}},
         'convergence.mode must be one of "space", "time", not "spcae"'),
        ({"grid": dict(BASE_CFG["grid"], n_lateral=2)},
         "grid: every spatial axis needs at least 3 nodes"),
        ({"grid": dict(BASE_CFG["grid"], n_height=1)},
         "grid: every spatial axis needs at least 3 nodes"),
        ({"field": dict(EXPRESSIONS_FIELD, a=[["1"]])}, "a must be 2 x 2"),
        ({"field": dict(EXPRESSIONS_FIELD, a=[["1", "0", "0"],
                                              ["0", "1", "0"],
                                              ["0", "0", "1"]])},
         "a must be 2 x 2"),
        # alpha is one top-level key, not a key of each section
        ({"norms": {"alpha": 1.5}}, "unknown keys ['alpha'] in section "
         "'norms'"),
        ({"validate": {"alpha": -0.5}}, "unknown keys ['alpha'] in section "
         "'validate'"),
        ({"interp": {"alpha": 0}}, "unknown config section 'interp'"),
        ({"schauder": {"alpha": 1}}, "unknown keys ['alpha'] in section "
         "'schauder'"),
        ({"alpha": 0}, "alpha must be a number in (0, 1), not 0"),
        ({"alpha": 1}, "alpha must be a number in (0, 1), not 1"),
        ({"experiments": ["convergence"], "convergence": {"kind": "wave"}},
         "convergence.kind must be one of"),
        ({"experiments": ["reduce"],
          "reduce": {"round_trip": True, "kind": "wave"}},
         'reduce.kind must be one of "constant", "affine_height", '
         '"inner_bump", not "wave"'),
        ({"experiments": ["convergence"],
          "convergence": {"ladder": [[2, 7, 3], [9, 9, 4]]}},
         "grid: every spatial axis needs at least 3 nodes"),
        # the epsilons, barrier parameters and weights are fixed, as in
        # the acceptance gate
        ({"experiments": ["verify-interp"], "interp": {"eps": []}},
         "unknown config section 'interp'"),
        ({"interp": {"eps": [0.5, 1.0]}}, "unknown config section 'interp'"),
        ({"data": {"g": "sqrt(-1)*x1"}},
         "expression 'sqrt(-1)*x1' must have finite real values"),
        ({"data": {"g": "1/0"}}, "must have finite real values"),
        ({"data": {"g": "log(0)"}}, "must have finite real values"),
        ({"data": {"g": "nan"}}, "must have finite real values"),
        ({"field": dict(EXPRESSIONS_FIELD, c="nan")},
         "must have finite real values"),
        ({"field": dict(EXPRESSIONS_FIELD, c="1/0")},
         "must have finite real values"),
        ({"experiments": ["reduce"], "reduce": {"round_trip": True},
          "grid": dict(BASE_CFG["grid"], n_lateral=2)},
         "grid: every spatial axis needs at least 3 nodes"),
        ({"barriers": {"gamma": 1.0}},
         "unknown keys ['gamma'] in section 'barriers'"),
        ({"barriers": {"gamma": 0.0}},
         "unknown keys ['gamma'] in section 'barriers'"),
        ({"grid": dict(BASE_CFG["grid"], t_final=0)},
         "grid: time axis must start at 0 and increase strictly"),
        ({"grid": dict(BASE_CFG["grid"], t_final=-0.5)},
         "grid: time axis must start at 0 and increase strictly"),
        ({"solve": {"theta": 2.0}},
         "solve.theta must be a number in [0, 1], not 2.0"),
        ({"solve": {"theta": -1.0}}, "solve.theta must be a number in [0, 1]"),
        ({"convergence": {"theta": 1.5}},
         "unknown keys ['theta'] in section 'convergence'"),
        # the solve tolerance is fixed, solver.RTOL
        ({"solve": {"rtol": 1e-10}},
         "unknown keys ['rtol'] in section 'solve'"),
        # the check bounds are fixed, as in the acceptance gate
        ({"validate": {"slack": 0}}, "unknown keys ['slack'] in section "
         "'validate'"),
        ({"maxprin": {"sup_slack": 0}}, "unknown keys ['sup_slack'] in "
         "section 'maxprin'"),
        ({"maxprin": {"weighted_slack": -1.0}},
         "unknown keys ['weighted_slack'] in section 'maxprin'"),
        ({"schauder": {"threshold": 0.5}}, "unknown keys ['threshold'] in "
         "section 'schauder'"),
        ({"convergence": {"min_order": 0.5, "order_band": 1.0}},
         "unknown keys ['min_order', 'order_band'] in section "
         "'convergence'"),
        ({"validate": {"n_samples": 0}},
         "validate.n_samples must be an integer >= 1, not 0"),
        ({"barriers": {"n_points": 0}},
         "barriers.n_points must be an integer >= 1"),
        ({"schauder": {"n_points": 0}},
         "schauder.n_points must be an integer >= 1"),
        ({"norms": {"n_points": 0}}, "norms.n_points must be an integer >= 1"),
        ({"maxprin": {"n_problems": -1}},
         "maxprin.n_problems must be an integer >= 0, not -1"),
        ({"maxprin": {"n_absolute": -1}},
         "maxprin.n_absolute must be an integer >= 0"),
        ({"maxprin": {"n_weighted": -1}},
         "maxprin.n_weighted must be an integer >= 0"),
        ({"seed": -1}, "seed must be an integer >= 0, not -1"),
        ({"validate": {"seed": -1}}, "unknown keys ['seed'] in section "
         "'validate'"),
        ({"data": {"g": "sqrt(x1 - 5)"}},
         "data.g: expression 'sqrt(x1 - 5)' is not finite on the grid"),
        ({"data": {"g": "x1", "f": "log(t)"}},
         "data.f: expression 'log(t)' is not finite on the grid"),
        ({"data": {"g": "exp(-x1**2)"}, "solve": {"boundary": "exact"}},
         'solve.boundary "exact" needs data.manufactured'),
        ({"experiments": ["norms"], "data": {"g": "exp(-x1**2)"},
          "solve": {"boundary": "exact"}},
         'solve.boundary "exact" needs data.manufactured'),
        ({"barriers": {"height_max": -1.0}},
         "unknown keys ['height_max'] in section 'barriers'"),
        ({"barriers": {"height_max": 0}},
         "unknown keys ['height_max'] in section 'barriers'"),
        ({"barriers": {"big_c": float("nan")}},
         "unknown keys ['big_c'] in section 'barriers'"),
        ({"schauder": {"p": float("nan")}},
         "unknown keys ['p'] in section 'schauder'"),
        ({"barriers": {"small_c": 0.5, "n_points": 10}},
         "unknown keys ['small_c'] in section 'barriers'"),
        ({"experiments": ["verify-maxprin"],
          "maxprin": {"weighted_q": [1.0, 2.0]}},
         "unknown keys ['weighted_q'] in section 'maxprin'"),
        ({"field": {"preset": "heston", "kappa": 2.0, "theta": 0.25,
                    "sigma": 1.0, "rho": float("nan")}},
         "field.rho must be a number, not NaN"),
        ({"maxprin": {"sup_slack": float("inf")}},
         "unknown keys ['sup_slack'] in section 'maxprin'"),
        ({"grid": dict(BASE_CFG["grid"], x_extent=float("-inf"))},
         "grid.x_extent must be a number, not -Infinity"),
        ({"norms": {"q": [0.0, float("-inf")]}},
         "norms.q must be a list of numbers, not [0.0, -Infinity]"),
        # the time derivative in a norm of order 2+alpha takes 3 slices
        ({"experiments": ["norms"],
          "grid": dict(BASE_CFG["grid"], n_slices=2)},
         "norms: a norm of order 2+alpha needs at least 3 time slices, "
         "not 2"),
        # a ladder that does not refine fits a meaningless order
        ({"experiments": ["convergence"],
          "convergence": {"ladder": [[9, 9, 4], [9, 9, 4]]}},
         "convergence.ladder: two rungs share one largest spacing, so the "
         "ladder does not refine in space"),
        ({"experiments": ["convergence"],
          "convergence": {"mode": "time", "kind": "affine_height",
                          "ladder": [[9, 9, 5], [11, 11, 5]]},
          "solve": {"boundary": "exact"}},
         "convergence.ladder: two rungs share one time step, so the ladder "
         "does not refine in time"),
    ], ids=["field-list", "string-n-lateral", "experiments-string",
            "string-certify", "heston-without-kappa", "unparsable-g",
            "unparsable-f", "unknown-manufactured", "one-rung-ladder",
            "cubic-grading", "edge-boundary", "misspelled-mode",
            "two-node-axis", "one-node-height", "expressions-a-1x1",
            "expressions-a-3x3",
            "norms-alpha-1.5", "validate-alpha-negative", "interp-alpha-0",
            "schauder-alpha-1", "alpha-0", "alpha-1",
            "unknown-convergence-kind",
            "unknown-reduce-kind", "two-node-rung", "empty-eps",
            "eps-one", "imaginary-g", "g-divides-by-zero", "g-log-zero",
            "g-nan", "expressions-c-nan", "expressions-c-divides-by-zero",
            "round-trip-two-node-axis", "barrier-gamma-1", "barrier-gamma-0",
            "t-final-0", "t-final-negative", "solve-theta-2",
            "solve-theta-negative", "convergence-theta-1.5", "solve-rtol",
            "validate-slack-0", "sup-slack-0", "weighted-slack-negative",
            "schauder-threshold", "convergence-order-bounds",
            "validate-n-samples-0", "barriers-n-points-0",
            "schauder-n-points-0", "norms-n-points-0", "n-problems-negative",
            "n-absolute-negative", "n-weighted-negative", "seed-negative",
            "validate-seed-negative", "g-not-finite-on-grid",
            "f-not-finite-at-t-0", "exact-boundary-solve",
            "exact-boundary-norms", "height-max-negative", "height-max-0",
            "big-c-nan", "schauder-p-nan", "small-c-given",
            "maxprin-weighted-q", "heston-rho-nan",
            "sup-slack-infinity", "x-extent-minus-infinity",
            "norms-q-minus-infinity", "norms-two-slices",
            "non-refining-space-ladder", "non-refining-time-ladder"])
    def test_bad_config_exits_2(self, tmp_path, capsys, change, message):
        cfg = write_cfg(tmp_path, {**BASE_CFG, "experiments": ["solve"],
                                   **change})
        out = tmp_path / "out"
        code = cli.main(["run", "--config", cfg, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error:") and message in err[0]
        assert not (out / "verify-schauder").exists()

    def test_negative_seed_option_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, dict(BASE_CFG))
        code = cli.main(["solve", "--config", cfg, "--out",
                         str(tmp_path / "out"), "--seed", "-1"])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["config error: --seed must be an integer >= 0, "
                       "not -1"]
        assert not (tmp_path / "out").exists()

    def test_bad_config_stops_run_before_any_experiment(self, tmp_path,
                                                        capsys):
        cfg = write_cfg(tmp_path, dict(
            BASE_CFG, experiments=["verify-barriers", "solve"],
            solve={"theta": "1"}))
        out = tmp_path / "out"
        code = cli.main(["run", "--config", cfg, "--out", str(out)])
        assert code == 2
        assert "solve.theta must be a number" in capsys.readouterr().err
        assert not (out / "verify-barriers").exists()

    @pytest.mark.parametrize("change,message", [
        ({"data": {"g": "exp(-x1"}}, "data: cannot parse expression "
         "'exp(-x1'"),
        ({"field": dict(EXPRESSIONS_FIELD, a=[["foo(x1)", "0"], ["0", "1"]]),
          "data": {"g": "x1"}},
         "field preset 'expressions': expression 'foo(x1)' uses unknown "
         "functions ['foo']"),
        ({"field": {"preset": "homogeneous-drift", "nu": -1.0}},
         "field preset 'homogeneous-drift': inward drift must be positive"),
        ({"data": {"g": "sqrt(x1 - 5)"}},
         "data.g: expression 'sqrt(x1 - 5)' is not finite on the grid"),
        ({"data": {"g": "x1", "f": "log(t)"}},
         "data.f: expression 'log(t)' is not finite on the grid"),
        ({"field": dict(EXPRESSIONS_FIELD, a=[["1", "x1"], ["x2", "1"]])},
         "field preset 'expressions': diffusion matrix must be symmetric"),
        ({"field": dict(EXPRESSIONS_FIELD, b=["0", "1/x2"])},
         "config error: field.b[1] is not finite on the grid"),
        ({"field": dict(EXPRESSIONS_FIELD,
                        a=[["1", "0"], ["0", "sqrt(x2 - 1)"]])},
         "config error: field.a[1][1] is not finite on the grid"),
        ({"field": dict(EXPRESSIONS_FIELD, c="log(x2)")},
         "config error: field.c is not finite on the grid"),
        ({"data": {"g": "True"}},
         "data: expression 'True' is not number-valued"),
        ({"data": {"g": "x1", "f": "False"}},
         "data: expression 'False' is not number-valued"),
        ({"field": dict(EXPRESSIONS_FIELD, c="x1 > 0")},
         "field preset 'expressions': expression 'x1 > 0' is not "
         "number-valued"),
        ({"data": {"g": "Integral(x1, x1)"}},
         "data: expression 'Integral(x1, x1)' uses unknown functions "
         "['Integral']"),
        ({"data": {"g": "lambda: 1"}},
         "data: cannot parse expression 'lambda: 1': Lambda 'lambda: 1' "
         "is not allowed"),
        ({"data": {"g": "x1", "f": "x1 if x2 else 0"}},
         "IfExp 'x1 if x2 else 0' is not allowed"),
        ({"field": dict(EXPRESSIONS_FIELD, c="floor(x1)")},
         "field preset 'expressions': expression 'floor(x1)' uses unknown "
         "functions ['floor']"),
        ({"data": {"g": "x1.real"}}, "Attribute 'x1.real' is not allowed"),
        ({"data": {"g": "x1[0]"}}, "Subscript 'x1[0]' is not allowed"),
        ({"data": {"g": "exp(x=x1)"}}, "keyword 'x=x1' is not allowed"),
        # refused before the integer is built, which would take seconds
        # for 10**10**7
        ({"data": {"g": "x1*10**10**6"}},
         "data: cannot parse expression 'x1*10**10**6': power '10**10**6' "
         "exceeds the range of a double"),
        ({"data": {"g": "x1", "f": "10**10**7"}},
         "power '10**10**7' exceeds the range of a double"),
    ], ids=["unclosed-g", "unknown-function-in-a", "preset-rejects-value",
            "g-not-finite-on-grid", "f-not-finite-at-t-0", "asymmetric-a",
            "b-not-finite-on-grid", "a-not-finite-on-grid",
            "c-not-finite-on-grid",
            "g-true", "f-false", "c-relational", "g-integral", "g-lambda",
            "f-conditional", "c-floor", "g-attribute", "g-subscript",
            "g-keyword", "g-huge-power", "f-huger-power"])
    def test_bad_expression_stops_run_before_any_experiment(
            self, tmp_path, capsys, change, message):
        # the field is built, and every expression parsed and evaluated
        # on the grid, at load, so a bad one ends the run before an
        # experiment writes anything
        cfg = write_cfg(tmp_path, dict(
            BASE_CFG, experiments=["solve", "validate-coeffs"], **change))
        out = tmp_path / "out"
        code = cli.main(["run", "--config", cfg, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert message in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("a12, a21", [
        ("0.1*x2*sin(x1)", "0.1*sin(x1)*x2"),
        ("sin(x1) + x2**3", "x2**3 + sin(x1)")])
    def test_reordered_symmetric_text_loads(self, tmp_path, a12, a21):
        field = dict(EXPRESSIONS_FIELD, a=[["1", a12], [a21, "1"]])
        cfg = write_cfg(tmp_path, dict(BASE_CFG, field=field))
        assert cli.load_config(cfg)["field"] == field

    def test_experiment_directory_that_is_a_file_exits_2(self, tmp_path,
                                                           capsys):
        # every experiment's directory is made before any experiment runs
        cfg = write_cfg(tmp_path, dict(
            BASE_CFG, experiments=["verify-barriers", "solve"]))
        out = tmp_path / "out"
        out.mkdir()
        (out / "solve").write_text("")
        code = cli.main(["run", "--config", cfg, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert "solve" in err[0]
        assert list((out / "verify-barriers").iterdir()) == []

    # the README's Heston field with a put payoff, whose kink at x1 = 0
    # has a delta for its second derivative
    KINK_CFG = dict(BASE_CFG, data={"g": "Max(1 - exp(x1), 0)"},
                    field={"preset": "heston", "kappa": 2.0, "theta": 0.25,
                           "sigma": 1.0, "rho": 0.0, "r": 0.05})

    @pytest.mark.parametrize("command", ["run", "verify-schauder"])
    def test_schauder_refuses_g_without_second_derivatives(
            self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, dict(self.KINK_CFG,
                                       experiments=["verify-schauder"]))
        out = tmp_path / "out"
        code = cli.main([command, "--config", cfg, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["config error: verify-schauder needs bounded second "
                       "derivatives of data.g, and 'Max(1 - exp(x1), 0)' "
                       "holds Abs, Min or Max, whose second derivatives "
                       "are deltas"]
        assert not out.exists()

    @pytest.mark.parametrize("g", ["Abs(x1)", "Min(x1, 1)", "Abs(x1)**3"])
    def test_schauder_refuses_g_with_a_kink(self, tmp_path, capsys, g):
        cfg = write_cfg(tmp_path, dict(self.KINK_CFG, data={"g": g},
                                       experiments=["verify-schauder"]))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert "%r holds Abs, Min or Max" % g in err[0]
        assert not out.exists()

    # the README's Heston field at 9^2 x 4 with g = sqrt(x2) exp(-x1^2),
    # whose derivative in x2 is infinite on the bottom row x2 = 0
    ROOT_CFG = dict(KINK_CFG, data={"g": "sqrt(x2)*exp(-x1**2)"},
                    grid=dict(BASE_CFG["grid"], n_lateral=9, n_height=9))

    def test_schauder_refuses_g_with_unbounded_derivatives(self, tmp_path,
                                                            capsys):
        cfg = write_cfg(tmp_path, dict(self.ROOT_CFG,
                                       experiments=["verify-schauder"]))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning either
            code = cli.main(["run", "--config", cfg, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["config error: verify-schauder needs bounded first "
                       "and second derivatives of data.g, and those of "
                       "'sqrt(x2)*exp(-x1**2)' are not finite on the grid "
                       "at t = 0"]
        assert not out.exists()

    def test_g_without_second_derivatives_solves(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, dict(self.KINK_CFG, experiments=["solve"]))
        code = cli.main(["run", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_g_with_unbounded_derivatives_solves(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, dict(self.ROOT_CFG, experiments=["solve"]))
        code = cli.main(["run", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_schauder_takes_piecewise_g(self, tmp_path, capsys):
        # Piecewise is differentiated branch by branch, as before: the
        # experiment runs and writes its rows
        cfg = write_cfg(tmp_path, dict(
            self.KINK_CFG, data={"g": "Piecewise((1, x1 < 0), (0, True))"},
            experiments=["verify-schauder"]))
        out = tmp_path / "out"
        code = cli.main(["run", "--config", cfg, "--out", str(out)])
        assert code in (cli.EXIT_PASS, cli.EXIT_CHECK_FAILED)
        assert capsys.readouterr().err == ""
        assert (out / "verify-schauder" / "checks.csv").exists()

    def test_config_text_is_never_run(self, tmp_path, capsys):
        sentinel = tmp_path / "sentinel"
        cfg = write_cfg(tmp_path, dict(BASE_CFG, data={
            "g": '__import__("pathlib").Path(%r).touch() or x1'
                 % str(sentinel)}))
        code = cli.main(["solve", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(
            "config error: data: cannot parse expression")
        assert not sentinel.exists() and not (tmp_path / "out").exists()

    def test_partial_grid_section_solves(self, tmp_path, capsys):
        grid = {k: v for k, v in BASE_CFG["grid"].items() if k != "height"}
        cfg = write_cfg(tmp_path, dict(BASE_CFG, grid=grid))
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
        full = dict(BASE_CFG, grid=dict(grid, height=2.0))
        u = gridio.load_grid_function(str(out / "solve" / "solution.dgph"),
                                      cli.build_grid(full, 2))
        assert np.all(np.isfinite(u.values))

    def test_constant_field_in_three_dimensions_solves(self, tmp_path,
                                                       capsys):
        cfg = dict(
            BASE_CFG,
            field={"preset": "constant", "c": 0.0, "b": [0.0, 0.0, 1.0],
                   "a": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
            grid={"n_lateral": 5, "n_height": 5, "n_slices": 3})
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", write_cfg(tmp_path, cfg),
                         "--out", str(out)]) == 0
        u = gridio.load_grid_function(str(out / "solve" / "solution.dgph"),
                                      cli.build_grid(cfg, 3))
        assert u.values.shape == (3, 5, 5, 5)
        assert np.all(np.isfinite(u.values))

    def test_run_without_experiments_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, dict(BASE_CFG))
        code = cli.main(["run", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert code == 2

    def test_run_unknown_experiment_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, dict(BASE_CFG, experiments=["warp"]))
        code = cli.main(["run", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_run_repeated_experiment_exits_2(self, tmp_path, capsys):
        # both would write out/solve/; no experiment runs
        cfg = write_cfg(tmp_path, dict(
            BASE_CFG, experiments=["solve", "verify-barriers", "solve"]))
        out = tmp_path / "out"
        code = cli.main(["run", "--config", cfg, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["config error: experiments listed more than once: "
                       "['solve']"]
        assert not (out / "solve").exists()

    def test_solve_experiment_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, dict(BASE_CFG))
        out = tmp_path / "out"
        code = cli.main(["solve", "--config", cfg, "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "0 failed" in printed
        sol = out / "solve" / "solution.dgph"
        grid = cli.build_grid(BASE_CFG, 2)
        u = gridio.load_grid_function(str(sol), grid)
        assert np.all(np.isfinite(u.values))
        checks = (out / "solve" / "checks.csv").read_text()
        assert checks.splitlines()[0] == ",".join(CHECK_CSV_COLUMNS)
        assert "linear-solver" in checks
        assert "monotonicity-certificate" in checks
        assert (out / "solve" / "summary.txt").exists()

    def test_linear_solver_residual_can_fail(self, tmp_path, capsys,
                                             monkeypatch):
        real = cli.solve_cauchy

        def loose(problem, grid, **kw):
            u, report = real(problem, grid, **kw)
            report.steps.append((len(report.steps) + 1, 1, 1e3 * RTOL))
            return u, report

        monkeypatch.setattr(cli, "solve_cauchy", loose)
        cfg = write_cfg(tmp_path, dict(BASE_CFG))
        out = tmp_path / "out"
        code = cli.main(["solve", "--config", cfg, "--out", str(out)])
        assert code == 1
        assert "[FAIL] linear-solver" in capsys.readouterr().out
        rows = (out / "solve" / "checks.csv").read_text().splitlines()
        assert [r for r in rows if r.startswith("linear-solver,")][0] \
            .endswith(",fail")

    def test_failing_check_exits_1(self, tmp_path, capsys):
        # identity diffusion has smallest eigenvalue 1; declaring 5 must fail
        cfg = write_cfg(tmp_path, {
            "field": {"preset": "expressions", "d": 2,
                      "a": [["1", "0"], ["0", "1"]], "b": ["0", "1"],
                      "c": "0", "delta": 5.0, "K": 3.0, "nu": 1.0},
            "validate": {"n_samples": 400},
        })
        out = tmp_path / "out"
        code = cli.main(["validate-coeffs", "--config", cfg,
                         "--out", str(out)])
        assert code == 1
        assert "[FAIL]" in capsys.readouterr().out
        rows = (out / "validate-coeffs" / "checks.csv").read_text()
        assert [r for r in rows.splitlines()
                if r.startswith("assumption-delta_hat,")][0].endswith(",fail")

    def test_schauder_on_zero_data_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, dict(
            BASE_CFG, data={"g": "0"},
            schauder={"ladder": [[7, 7, 4], [9, 9, 5]], "n_points": 100}))
        out = tmp_path / "out"
        code = cli.main(["verify-schauder", "--config", cfg,
                         "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["config error: verify-schauder: the data f and g "
                       "have norm 0, so the Schauder ratio is undefined"]

    def test_schauder_rung_of_two_slices_exits_2(self, tmp_path, capsys):
        # every rung is checked before the first one is solved
        cfg = write_cfg(tmp_path, dict(
            BASE_CFG, schauder={"ladder": [[9, 9, 3], [11, 11, 2]]}))
        out = tmp_path / "out"
        code = cli.main(["verify-schauder", "--config", cfg,
                         "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["config error: verify-schauder: a norm of order "
                       "2+alpha needs at least 3 time slices, not 2"]

    def test_solve_on_two_slices_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, dict(
            BASE_CFG, grid=dict(BASE_CFG["grid"], n_slices=2)))
        code = cli.main(["solve", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert code == 0, capsys.readouterr().out

    def test_validate_coeffs_passes_for_heston(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "field": {"preset": "heston", "kappa": 2.0, "theta": 0.25,
                      "sigma": 1.0, "rho": 0.3},
            "validate": {"n_samples": 600},
        })
        out = tmp_path / "out"
        code = cli.main(["validate-coeffs", "--config", cfg,
                         "--out", str(out)])
        assert code == 0
        lines = (out / "validate-coeffs" / "summary.txt").read_text() \
            .splitlines()
        assert len(lines) == 8
        assert all(r.startswith("[pass] assumption-") for r in lines)


    @pytest.mark.parametrize("field", [
        {"preset": "heston", "kappa": 2.0, "theta": 0.25, "sigma": 1.0,
         "rho": 0.3},
        {"preset": "expressions", "d": 2, "a": [["1", "0"], ["0", "1"]],
         "b": ["0", "0"], "c": "10", "delta": 5.0, "K": 3.0, "nu": 1.0},
    ], ids=["heston", "overstated"])
    def test_validate_coeffs_rows_carry_declared_bounds(self, tmp_path,
                                                        field):
        cfg = {"field": field, "validate": {"n_samples": 400}}
        out = tmp_path / "out"
        cli.main(["validate-coeffs", "--config", write_cfg(tmp_path, cfg),
                  "--out", str(out)])
        declared = cli.build_field(cfg)
        lower = {"delta_hat": declared.delta,
                 "delta_interior_hat": declared.delta, "nu_hat": declared.nu}
        text = (out / "validate-coeffs" / "checks.csv").read_text()
        rows = [r.split(",") for r in text.splitlines()[1:]]
        assert len(rows) == 8
        for check, _, lhs, rhs, slack, verdict in rows:
            name = check[len("assumption-"):]
            lhs, rhs, slack = float(lhs), float(rhs), float(slack)
            assert slack == 1.05
            if name in lower:
                assert rhs == lower[name]
                ok = lhs >= rhs / slack - 1e-12 and (name != "nu_hat"
                                                     or lhs > 0)
            else:
                assert rhs == declared.K
                ok = lhs <= rhs * slack + 1e-12
            assert verdict == ("pass" if ok else "fail"), check
        if field["preset"] == "expressions":
            assert {r[-1] for r in rows} == {"pass", "fail"}


class TestExperiments:
    def test_run_dispatches_every_experiment(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "field": {"preset": "constant", "a": [[2.0, 1.0], [1.0, 1.0]],
                      "b": [1.0, 2.0], "c": -0.5},
            "experiments": ["verify-barriers", "reduce"],
            "barriers": {"n_points": 400},
        })
        out = tmp_path / "out"
        code = cli.main(["run", "--config", cfg, "--out", str(out)])
        assert code == 0
        for kind in ("verify-barriers", "reduce"):
            assert (out / kind / "checks.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "run"
        assert set(manifest["versions"]) == {"numpy", "scipy"}

    def test_seed_override_recorded(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(BASE_CFG, seed=3))
        out = tmp_path / "out"
        code = cli.main(["verify-barriers", "--config", cfg,
                         "--out", str(out), "--seed", "4"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 4
        assert manifest["config"]["seed"] == 3

    def test_norms_experiment_writes_holder_csv(self, tmp_path):
        q = [0.0, 1.0]
        cfg = write_cfg(tmp_path, dict(BASE_CFG, alpha=0.3,
                                       norms={"n_points": 150, "q": q}))
        out = tmp_path / "out"
        code = cli.main(["norms", "--config", cfg, "--out", str(out)])
        assert code == 0
        text = (out / "norms" / "holder.csv").read_text()
        lines = text.splitlines()
        assert lines[0].startswith("metric,")
        # one row per constituent (u, u_t, grad u, x_d D^2 u) for each q
        assert len(lines) == 1 + 4 * len(q)
        assert len(set(lines)) == len(lines)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert {float(r["alpha"]) for r in rows} == {0.3}
        assert [float(r["q"]) for r in rows] == [0.0] * 4 + [1.0] * 4
        summary = (out / "norms" / "summary.txt").read_text()
        assert "no checks emitted" in summary

    def test_top_level_alpha_reaches_every_holder_experiment(self, tmp_path):
        kinds = ["validate-coeffs", "norms", "verify-interp",
                 "verify-schauder"]
        base = dict(BASE_CFG, experiments=kinds,
                    field={"preset": "heston", "kappa": 2.0, "theta": 0.25,
                           "sigma": 1.0, "rho": 0.0},
                    validate={"n_samples": 200}, norms={"n_points": 120},
                    schauder={"ladder": [[7, 7, 4], [9, 9, 5]],
                              "n_points": 120})
        outputs = []
        for alpha in (None, 0.5, 0.3):
            cfg = base if alpha is None else dict(base, alpha=alpha)
            out = tmp_path / str(alpha)
            assert cli.main(["run", "--config", write_cfg(tmp_path, cfg),
                             "--out", str(out)]) == 0
            holder = list(csv.DictReader(io.StringIO(
                (out / "norms" / "holder.csv").read_text())))
            assumptions = (out / "validate-coeffs" /
                           "checks.csv").read_text()
            outputs.append((
                {float(r["alpha"]) for r in holder},
                [r for r in assumptions.splitlines()
                 if r.startswith("assumption-holder_s_hat,")],
                (out / "verify-interp" / "interpolation.csv").read_text(),
                (out / "verify-schauder" / "checks.csv").read_text()))
        default, half, third = outputs
        assert default == half and default[0] == {0.5}
        assert third[0] == {0.3}
        for got, before in zip(third[1:], default[1:]):
            assert got and got != before

    def test_reduce_experiment_certificates(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "field": {"preset": "constant", "a": [[2.0, 1.0], [1.0, 1.0]],
                      "b": [1.0, 2.0], "c": -0.5}})
        out = tmp_path / "out"
        code = cli.main(["reduce", "--config", cfg, "--out", str(out)])
        assert code == 0
        checks = (out / "reduce" / "checks.csv").read_text()
        for name in ("orthogonality", "shear_offdiagonal",
                     "model_diffusion", "inverse", "inward-drift"):
            assert name in checks
        assert (out / "reduce" / "plan.txt").exists()

    @pytest.mark.parametrize("grading", ["uniform", "quadratic"])
    def test_reduce_round_trip_uses_configured_grid(self, tmp_path,
                                                    monkeypatch, grading):
        seen = []
        round_trip = cli.reduction_round_trip

        def spy(field, kind, grid):
            seen.append(grid)
            return round_trip(field, kind, grid)

        monkeypatch.setattr(cli, "reduction_round_trip", spy)
        cfg = {"field": {"preset": "constant",
                         "a": [[2.0, 1.0], [1.0, 1.0]], "b": [1.0, 2.0],
                         "c": -0.5},
               "grid": {"n_lateral": 9, "n_height": 9, "n_slices": 5,
                        "grading": grading},
               "reduce": {"round_trip": True}}
        cli.main(["reduce", "--config", write_cfg(tmp_path, cfg),
                  "--out", str(tmp_path / "out")])
        assert seen == [cli.build_grid(cfg, 2)]
        heights = seen[0].axes[-1]
        assert np.allclose(np.diff(heights), heights[1], rtol=1e-12) \
            == (grading == "uniform")

    def test_convergence_experiment_constant_kind(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, dict(
            BASE_CFG,
            convergence={"kind": "constant",
                         "ladder": [[7, 7, 4], [9, 9, 5]]}))
        out = tmp_path / "out"
        code = cli.main(["convergence", "--config", cfg, "--out", str(out)])
        assert code == 0
        text = (out / "convergence" / "convergence.csv").read_text()
        assert text.splitlines()[0] == "h,dt,sup_error"
        assert "errors at machine precision" in (
            out / "convergence" / "summary.txt").read_text()

    @pytest.mark.parametrize("theta,order", [(0.5, 2.0), (1.0, 1.0)],
                             ids=["crank-nicolson", "implicit-euler"])
    def test_time_order_compared_with_theta_scheme_order(
            self, tmp_path, capsys, theta, order):
        cfg = write_cfg(tmp_path, {
            "field": {"preset": "heston", "kappa": 2.0, "theta": 0.25,
                      "sigma": 1.0, "rho": 0.0},
            "grid": {"n_lateral": 33, "n_height": 33, "t_final": 0.5},
            "solve": {"theta": theta, "boundary": "exact"},
            "convergence": {"mode": "time", "kind": "affine_height",
                            "ladder": [[9, 9, 3], [9, 9, 5], [9, 9, 9],
                                       [9, 9, 17]]}})
        out = tmp_path / "out"
        code = cli.main(["convergence", "--config", cfg, "--out", str(out)])
        assert code == 0, capsys.readouterr().out
        rows = (out / "convergence" / "checks.csv").read_text().splitlines()
        check, _, lhs, rhs, _, verdict = rows[1].split(",")
        assert check == "convergence-order(time)" and verdict == "pass"
        assert float(rhs) == order and abs(float(lhs) - order) <= 0.3

    def test_schauder_steps_with_the_solve_section(self, tmp_path):
        checks = []
        for theta in (1.0, 0.5):
            cfg = write_cfg(tmp_path, dict(
                BASE_CFG, solve={"theta": theta, "certify": False},
                schauder={"ladder": [[9, 9, 5], [11, 11, 6]]}))
            out = tmp_path / ("theta-%g" % theta)
            assert cli.main(["verify-schauder", "--config", cfg,
                             "--out", str(out)]) == 0
            checks.append(
                (out / "verify-schauder" / "checks.csv").read_text())
        assert checks[0] != checks[1]

    def test_crank_nicolson_certificate_checks_explicit_matrix(
            self, tmp_path, capsys):
        # at theta = 1/2 and this time step the implicit matrix is an
        # M-matrix, but the explicit one has negative diagonal entries,
        # and the uncertified solve of data g >= 0 goes negative; the
        # failed certificate is a runtime failure, one line and exit 3
        cfg = {"field": {"preset": "heston", "kappa": 2.0, "theta": 0.25,
                         "sigma": 1.0, "rho": 0.0, "r": 0.05},
               "grid": {"n_lateral": 65, "n_height": 65, "n_slices": 3},
               "data": {"g": "Max(0, 1 - 8*Abs(x1))"
                             "*Max(0, 1 - 4*Abs(x2 - 1))"},
               "solve": {"theta": 0.5, "certify": True}}
        code = cli.main(["solve", "--config", write_cfg(tmp_path, cfg),
                         "--out", str(tmp_path / "out")])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert re.match(r"runtime error: monotonicity certificate failed "
                        r"at node \(1, 63\) \(negative explicit entry "
                        r"-134\)", err[0])
        field = cli.build_field(cfg)
        u, _ = solve_cauchy(cli.build_problem(cfg, field),
                            cli.build_grid(cfg, field.d),
                            **dict(cli.section(cfg, "solve"), certify=False))
        assert np.min(u.values) < -0.7

    @pytest.mark.parametrize("data", [
        {"g": "Piecewise((1, (x1 < 0.2) & (x2 < 1)), (0, True))"},
        {"g": "exp(-x1**2)",
         "f": "Piecewise((1, (x1 < 0.2) | (x2 < 1) | (t > 0.25)), "
              "(0, True))"},
    ], ids=["and", "or-with-t"])
    def test_joint_piecewise_condition_solves(self, tmp_path, data):
        cfg = write_cfg(tmp_path, dict(BASE_CFG, data=data))
        assert cli.main(["solve", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 0

    def test_checks_csv_deterministic_across_runs(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(BASE_CFG))
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert cli.main(["verify-barriers", "--config", cfg,
                             "--out", str(out)]) == 0
            outs.append(
                (out / "verify-barriers" / "checks.csv").read_bytes())
        assert outs[0] == outs[1]


def set_cpus(monkeypatch, n):
    """Make n CPUs usable, so that a run of two or more experiments takes
    the pool on any host (n >= 2) or runs in process (n = 1)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


class TestPool:
    """`run` with more than one experiment, on the fork process pool."""

    # config order differs from EXPERIMENTS order, in which they start
    CFG = dict(BASE_CFG, field={"preset": "constant",
                                "a": [[2.0, 0.0], [0.0, 1.0]],
                                "b": [1.0, 2.0], "c": -0.5},
               experiments=["validate-coeffs", "reduce", "verify-barriers",
                            "solve"],
               validate={"n_samples": 200}, barriers={"n_points": 200})

    def _run(self, tmp_path, capsys, monkeypatch, cpus, name):
        set_cpus(monkeypatch, cpus)
        out = tmp_path / name
        code = cli.main(["run", "--config", write_cfg(tmp_path, self.CFG),
                         "--out", str(out)])
        files = {p.relative_to(out): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()
                 and p.name != "manifest.json"}
        return code, capsys.readouterr().out, files, \
            json.loads((out / "manifest.json").read_text())

    def test_same_outputs_as_in_process(self, tmp_path, capsys,
                                        monkeypatch):
        pooled = self._run(tmp_path, capsys, monkeypatch, 2, "pool")
        alone = self._run(tmp_path, capsys, monkeypatch, 1, "alone")
        assert pooled[0] == alone[0] == 0
        assert pooled[1:3] == alone[1:3]
        assert {p.parts[0] for p in pooled[2]} == set(self.CFG["experiments"])

    def test_printed_lines_and_manifest_in_config_order(
            self, tmp_path, capsys, monkeypatch):
        _, printed, files, manifest = self._run(tmp_path, capsys,
                                                monkeypatch, 2, "out")
        kinds = self.CFG["experiments"]
        summaries = b"".join(files[pathlib.Path(k, "summary.txt")]
                             for k in kinds)
        assert printed.splitlines()[:-1] == \
            summaries.decode().splitlines()
        assert [e["name"] for e in manifest["experiments"]] == kinds
        assert all(e["wall_s"] > 0 for e in manifest["experiments"])
        assert manifest["cpu_s"] > 0 and manifest["peak_rss_mb"] > 0

    @pytest.mark.parametrize("cpus,workers", [(2, 2), (8, 4)])
    def test_workers_bounded_by_cpus_and_experiments(
            self, tmp_path, capsys, monkeypatch, cpus, workers):
        seen = []

        class Spy(cli.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                seen.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Spy)
        assert self._run(tmp_path, capsys, monkeypatch, cpus, "out")[0] == 0
        assert seen == [workers]

    @pytest.mark.parametrize("command,cpus", [
        ("solve", 2), ("run", 1)], ids=["one-experiment", "one-cpu"])
    def test_runs_in_process_without_a_pool(self, tmp_path, capsys,
                                            monkeypatch, command, cpus):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was built")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        set_cpus(monkeypatch, cpus)
        code = cli.main([command, "--config", write_cfg(tmp_path, self.CFG),
                         "--out", str(tmp_path / "out")])
        assert code == 0

    def test_config_error_in_second_experiment_exits_2(
            self, tmp_path, capsys, monkeypatch):
        set_cpus(monkeypatch, 2)
        cfg = write_cfg(tmp_path, dict(
            BASE_CFG, data={"g": "0"},
            experiments=["verify-barriers", "verify-schauder"],
            schauder={"ladder": [[7, 7, 4], [9, 9, 5]], "n_points": 100}))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == [
            "config error: verify-schauder: the data f and g have norm 0, "
            "so the Schauder ratio is undefined"]
        assert captured.out == ""
        assert (out / "verify-barriers" / "checks.csv").exists()
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("cpus", [2, 1], ids=["pool", "in-process"])
    def test_runtime_error_propagates(self, tmp_path, capsys, monkeypatch,
                                      cpus):
        def crash(cfg, out, seed):
            raise RuntimeError("experiment crashed")

        monkeypatch.setitem(cli.EXPERIMENTS, "reduce", crash)
        set_cpus(monkeypatch, cpus)
        with pytest.raises(RuntimeError, match="experiment crashed"):
            cli.main(["run", "--config", write_cfg(tmp_path, self.CFG),
                      "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("cpus", [2, 1], ids=["pool", "in-process"])
    def test_solver_error_exits_3(self, tmp_path, capsys, monkeypatch, cpus):
        # a certificate that fails inside one experiment of a run is a
        # runtime failure, not a failed check
        def fail(cfg, out, seed):
            raise CertificateError("certificate failed at node (1, 2)")

        monkeypatch.setitem(cli.EXPERIMENTS, "reduce", fail)
        set_cpus(monkeypatch, cpus)
        code = cli.main(["run", "--config", write_cfg(tmp_path, self.CFG),
                         "--out", str(tmp_path / "out")])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "runtime error: certificate failed at node (1, 2)"]


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """Output directory of `run` over every experiment on small sizes."""
    tmp_path = tmp_path_factory.mktemp("full-run")
    cfg = write_cfg(tmp_path, dict(
        BASE_CFG, experiments=sorted(cli.EXPERIMENTS),
        validate={"n_samples": 200}, norms={"n_points": 120},
        maxprin={"n_problems": 1, "n_absolute": 1, "n_weighted": 1},
        barriers={"n_points": 200},
        schauder={"ladder": [[9, 9, 5], [13, 13, 7], [17, 17, 9]],
                  "n_points": 150},
        convergence={"ladder": [[9, 9, 4], [17, 17, 10]]}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    return out


def test_every_run_csv_parses_to_its_header_width(full_run):
    # check names such as barrier(drift=-2,C=6,c=0.5) hold commas; a
    # '#' line is the fitted-order comment of convergence.csv
    paths = sorted(full_run.rglob("*.csv"))
    assert {p.parent.name for p in paths} == set(cli.EXPERIMENTS)
    for path in paths:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
        assert {len(r) for r in rows} == {len(rows[0])}, path


def test_each_experiment_writes_its_rows_once(full_run):
    # every check row is in checks.csv and summary.txt; an experiment's
    # own file holds only data that checks.csv lacks
    own = {"solve": {"solution.dgph", "solve_report.csv"},
           "norms": {"holder.csv"}, "verify-interp": {"interpolation.csv"},
           "convergence": {"convergence.csv"}, "reduce": {"plan.txt"}}
    files = {}
    for p in full_run.rglob("*"):
        if p.is_file():
            files.setdefault(p.parent.name, set()).add(p.name)
    assert files == dict({kind: {"checks.csv", "summary.txt"}
                          | own.get(kind, set())
                          for kind in cli.EXPERIMENTS},
                         out={"manifest.json"})


def _fresh_interpreter(code, tmp_path):
    """Run code in a new interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(degenpde.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          cwd=str(tmp_path), capture_output=True, text=True)


@pytest.mark.parametrize("case", ["out-is-a-file", "one-node-height"])
def test_bad_out_or_grid_is_one_stderr_line(tmp_path, case):
    # in a fresh interpreter, where a numpy warning would reach stderr
    cfg = dict(BASE_CFG, grid=dict(BASE_CFG["grid"], n_height=1)) \
        if case == "one-node-height" else BASE_CFG
    out = tmp_path / "out"
    if case == "out-is-a-file":
        out.write_text("")
    result = _fresh_interpreter(
        "import sys, degenpde.cli as cli; sys.exit(cli.main(['solve', "
        "'--config', %r, '--out', %r]))" % (write_cfg(tmp_path, cfg),
                                            str(out)), tmp_path)
    assert result.returncode == 2
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("config error: ")


# Runs (kind, config) steps in one fresh interpreter and prints, after
# the import and after each step, its exit code and whether sympy is loaded.
_SYMPY_STEPS = """
import sys
import degenpde.cli as cli
def step(name, code=None):
    print(name, code, "sympy" in sys.modules)
step("import")
for kind, cfg in {steps!r}:
    step(kind, cli.load_config(cfg) and None if kind == "load"
         else cli.main([kind, "--config", cfg, "--out", kind]))
"""


def _sympy_steps(steps, tmp_path):
    """[(step, exit code, whether sympy is loaded)] of _SYMPY_STEPS."""
    proc = _fresh_interpreter(_SYMPY_STEPS.format(steps=steps), tmp_path)
    assert proc.returncode == 0, proc.stderr
    return [line.split() for line in proc.stdout.splitlines()
            if line.split()[-1] in ("True", "False")]


def _workloads():
    """perfbench/workloads.py, the benchmark's configs."""
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_builtin_runs_leave_sympy_unloaded(tmp_path):
    # the README batch and a round trip on the correlated constant field
    # build every function and field in numpy: sympy is not imported
    root = pathlib.Path(__file__).resolve().parents[1]
    text = (root / "README.md").read_text()
    readme = json.loads(text.split("```json\n", 1)[1].split("```", 1)[0])
    workloads = _workloads()
    # the README field and data on the benchmark's small grid and suites
    configs = workloads.build("readme-run", "tiny")[0]
    small = dict(configs["readme.json"], field=readme["field"],
                 data=readme["data"])
    corr = configs["correlated.json"]
    assert corr["reduce"]["round_trip"] is True
    steps = [("load", write_cfg(tmp_path, readme, "readme.json"))]
    steps += [(kind, write_cfg(tmp_path, small, "small.json"))
              for kind in workloads.README_EXPERIMENTS]
    steps.append(("reduce", write_cfg(tmp_path, corr, "corr.json")))
    lines = _sympy_steps(steps, tmp_path)
    assert [line[0] for line in lines] == [
        "import", "load"] + workloads.README_EXPERIMENTS + ["reduce"]
    assert all(line[1] in ("None", "0") for line in lines), lines
    assert all(line[2] == "False" for line in lines), lines


# Blocks sympy before degenpde is imported, so that any import of it
# raises ImportError, and runs one command.
_WITHOUT_SYMPY = """
import sys
sys.modules["sympy"] = None
import degenpde.cli as cli
sys.exit(cli.main(["run", "--config", {cfg!r}, "--out", "out"]))
"""


@pytest.mark.parametrize("where", ["field", "data"])
def test_non_polynomial_text_runs_without_sympy(tmp_path, where):
    # sympy is a test dependency only: text of every kind in the
    # expressions field or in the data is built, solved and measured
    if where == "field":
        field = dict(EXPRESSIONS_FIELD, a=[["1 + exp(-x1**2)/2", "0"],
                                           ["0", "sqrt(1 + x2)"]],
                     b=["0", "1 + Max(0, -x1)/4"],
                     c="-Piecewise((0.1, t < 0.2), (0.2, True))", K=10.0)
        cfg = dict(BASE_CFG, field=field, experiments=["solve", "norms"])
    else:
        cfg = dict(BASE_CFG, field=EXPRESSIONS_FIELD,
                   experiments=["solve", "norms"],
                   data={"g": "exp(-x1**2)*sqrt(1 + x2)",
                         "f": "Max(0, 1 - x2)*Piecewise((1, t < 0.2), "
                              "(0, True))"})
    proc = _fresh_interpreter(_WITHOUT_SYMPY.format(
        cfg=write_cfg(tmp_path, cfg)), tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "sympy" not in proc.stderr
    assert (tmp_path / "out" / "solve" / "solution.dgph").exists()


def test_import_leaves_scipy_interpolate_unloaded(tmp_path):
    # scipy.interpolate adds a noticeable share of the start-up time, and
    # the reduction's multilinear pullback does not need it
    src = os.path.dirname(os.path.dirname(degenpde.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg = write_cfg(tmp_path, {
        "field": {"preset": "constant", "a": [[2.0, 1.0], [1.0, 1.0]],
                  "b": [1.0, 2.0], "c": -0.5},
        "grid": {"n_lateral": 9, "n_height": 9, "n_slices": 5},
        "reduce": {"round_trip": True}})
    code = ("import sys, degenpde.cli as cli; "
            "loaded = lambda: 'scipy.interpolate' in sys.modules; "
            "print('import loads it:', loaded()); "
            "code = cli.main(['reduce', '--config', %r, '--out', %r]); "
            "print('reduce loads it:', loaded()); sys.exit(code)"
            % (cfg, str(tmp_path / "out")))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "import loads it: False" in lines
    assert "reduce loads it: False" in lines
    assert any(line.startswith("[pass] reduction-round-trip")
               for line in lines)
