"""Config schema, binary grid-function files, CSV reports, CLI exit codes."""

import csv
import importlib.util
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import degenpde
from degenpde import cli, gridio
from degenpde.fields import homogeneous_drift
from degenpde.grid import Grid, GridFunction
from degenpde.solver import manufactured_problem, solve_cauchy
from degenpde.verification import CHECK_CSV_COLUMNS


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
        ({"barriers": {"drifts": [0.0, "1"]}}, "barriers.drifts must be a "
         "list of numbers"),
        ({"convergence": {"ladder": [[9, 9]]}}, "convergence.ladder must"),
        ({"field": {"preset": "constant", "a": [[1.0]], "b": [1.0],
                    "c": "0"}}, "field.c must be a number"),
        ({"field": {"preset": ["heston"]}}, "field.preset"),
        ({"convergence": {"boundary": "edge"}},
         "convergence.boundary must be one of"),
        ({"grid": {"grading": ["uniform"]}}, "grid.grading must be one of"),
    ], ids=["bool-theta", "float-count", "int-flag", "null-seed",
            "string-drift", "short-rung", "string-c", "list-preset",
            "convergence-boundary", "list-grading"])
    def test_rejected_values(self, cfg, message):
        with pytest.raises(cli.ConfigError, match=message):
            cli.validate_config(cfg)


class TestGridFunctionFiles:
    def small(self):
        grid = Grid.build(2, 1.0, 1.0, 5, 6, 0.25, 3)
        gf = GridFunction.from_callable(
            grid, lambda t, x1, x2: np.sin(x1) + t * x2)
        return grid, gf

    def test_round_trip_bit_exact(self, tmp_path):
        grid, gf = self.small()
        path = str(tmp_path / "u.dgph")
        gridio.save_grid_function(path, gf)
        back = gridio.load_grid_function(path, grid)
        assert back.values.dtype == np.float64
        assert np.array_equal(back.values, gf.values)
        # resaving reproduces the file byte for byte
        path2 = str(tmp_path / "u2.dgph")
        gridio.save_grid_function(path2, back)
        assert open(path, "rb").read() == open(path2, "rb").read()

    def test_headers_without_grid(self, tmp_path):
        grid, gf = self.small()
        path = str(tmp_path / "u.dgph")
        gridio.save_grid_function(path, gf)
        d, n_t, shape, values = gridio.load_grid_function(path)
        assert (d, n_t, shape) == (2, 3, (5, 6))
        assert np.array_equal(values, gf.values)

    @pytest.mark.parametrize("mangle,msg", [
        (lambda raw: b"XXXXX" + raw[5:], "bad magic"),
        (lambda raw: raw[:8], "truncated header"),
        (lambda raw: raw[:-4], "payload length"),
        (lambda raw: raw + b"\x00", "payload length"),
    ])
    def test_corrupt_files_rejected(self, tmp_path, mangle, msg):
        grid, gf = self.small()
        path = str(tmp_path / "u.dgph")
        gridio.save_grid_function(path, gf)
        raw = open(path, "rb").read()
        bad = str(tmp_path / "bad.dgph")
        with open(bad, "wb") as fh:
            fh.write(mangle(raw))
        with pytest.raises(gridio.FormatError, match=msg):
            gridio.load_grid_function(bad, grid)

    def test_grid_mismatch_rejected(self, tmp_path):
        grid, gf = self.small()
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

    def test_assumption_csv_deterministic(self):
        from degenpde.fields import validate_assumptions
        from degenpde.gridio import assumption_report_csv
        field = homogeneous_drift(1.0)
        r1 = validate_assumptions(field, n_samples=300, seed=5)
        r2 = validate_assumptions(field, n_samples=300, seed=5)
        assert assumption_report_csv(r1) == assumption_report_csv(r2)
        assert assumption_report_csv(r1).startswith("quantity,value,pass")


class TestMainExitCodes:
    def test_config_error_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"unknown-section": {}})
        code = cli.main(["solve", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

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
        ({"field": dict(EXPRESSIONS_FIELD, a=[["1"]])}, "a must be 2 x 2"),
        ({"field": dict(EXPRESSIONS_FIELD, a=[["1", "0", "0"],
                                              ["0", "1", "0"],
                                              ["0", "0", "1"]])},
         "a must be 2 x 2"),
        ({"norms": {"alpha": 1.5}},
         "norms.alpha must be a number in (0, 1), not 1.5"),
        ({"validate": {"alpha": -0.5}}, "validate.alpha must be a number"),
        ({"interp": {"alpha": 0}}, "interp.alpha must be a number in (0, 1)"),
        ({"schauder": {"alpha": 1}},
         "schauder.alpha must be a number in (0, 1), not 1"),
        ({"experiments": ["convergence"], "convergence": {"kind": "wave"}},
         "convergence.kind must be one of"),
        ({"experiments": ["reduce"],
          "reduce": {"round_trip": True, "kind": "wave"}},
         'reduce.kind must be one of "constant", "affine_height", '
         '"inner_bump", not "wave"'),
        ({"experiments": ["convergence"],
          "convergence": {"ladder": [[2, 7, 3], [9, 9, 4]]}},
         "grid: every spatial axis needs at least 3 nodes"),
        ({"experiments": ["verify-interp"], "interp": {"eps": []}},
         "interp.eps must be a list of at least one number in (0, 1)"),
        ({"interp": {"eps": [0.5, 1.0]}}, "interp.eps must be a list"),
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
         "barriers.gamma must be a number in (0, 1), not 1.0"),
        ({"barriers": {"gamma": 0.0}}, "barriers.gamma must be a number"),
        ({"grid": dict(BASE_CFG["grid"], t_final=0)},
         "grid: time axis must start at 0 and increase strictly"),
        ({"grid": dict(BASE_CFG["grid"], t_final=-0.5)},
         "grid: time axis must start at 0 and increase strictly"),
        ({"solve": {"theta": 2.0}},
         "solve.theta must be a number in [0, 1], not 2.0"),
        ({"solve": {"theta": -1.0}}, "solve.theta must be a number in [0, 1]"),
        ({"convergence": {"theta": 1.5}},
         "convergence.theta must be a number in [0, 1]"),
        ({"solve": {"rtol": 0}}, "solve.rtol must be a number > 0, not 0"),
        ({"validate": {"slack": 0}}, "validate.slack must be a number > 0"),
        ({"maxprin": {"sup_slack": 0}}, "maxprin.sup_slack must be a number"),
        ({"maxprin": {"weighted_slack": -1.0}},
         "maxprin.weighted_slack must be a number > 0"),
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
        ({"validate": {"seed": -1}}, "validate.seed must be an integer >= 0"),
        ({"data": {"g": "sqrt(x1 - 5)"}},
         "data.g: expression 'sqrt(x1 - 5)' is not finite on the grid"),
        ({"data": {"g": "x1", "f": "log(t)"}},
         "data.f: expression 'log(t)' is not finite on the grid"),
        ({"barriers": {"height_max": -1.0}},
         "barriers.height_max must be a number > 0, not -1.0"),
        ({"barriers": {"height_max": 0}},
         "barriers.height_max must be a number > 0, not 0"),
        ({"barriers": {"big_c": float("nan")}},
         "barriers.big_c must be a number, not NaN"),
        ({"schauder": {"p": float("nan")}},
         "schauder.p must be a number, not NaN"),
        ({"field": {"preset": "heston", "kappa": 2.0, "theta": 0.25,
                    "sigma": 1.0, "rho": float("nan")}},
         "field.rho must be a number, not NaN"),
        ({"solve": {"rtol": float("inf")}},
         "solve.rtol must be a number > 0, not Infinity"),
        ({"maxprin": {"sup_slack": float("inf")}},
         "maxprin.sup_slack must be a number > 0, not Infinity"),
        ({"grid": dict(BASE_CFG["grid"], x_extent=float("-inf"))},
         "grid.x_extent must be a number, not -Infinity"),
        ({"norms": {"q": [0.0, float("-inf")]}},
         "norms.q must be a list of numbers, not [0.0, -Infinity]"),
    ], ids=["field-list", "string-n-lateral", "experiments-string",
            "string-certify", "heston-without-kappa", "unparsable-g",
            "unparsable-f", "unknown-manufactured", "one-rung-ladder",
            "cubic-grading", "edge-boundary", "misspelled-mode",
            "two-node-axis", "expressions-a-1x1", "expressions-a-3x3",
            "norms-alpha-1.5", "validate-alpha-negative", "interp-alpha-0",
            "schauder-alpha-1", "unknown-convergence-kind",
            "unknown-reduce-kind", "two-node-rung", "empty-eps",
            "eps-one", "imaginary-g", "g-divides-by-zero", "g-log-zero",
            "g-nan", "expressions-c-nan", "expressions-c-divides-by-zero",
            "round-trip-two-node-axis", "barrier-gamma-1", "barrier-gamma-0",
            "t-final-0", "t-final-negative", "solve-theta-2",
            "solve-theta-negative", "convergence-theta-1.5", "rtol-0",
            "validate-slack-0", "sup-slack-0", "weighted-slack-negative",
            "validate-n-samples-0", "barriers-n-points-0",
            "schauder-n-points-0", "norms-n-points-0", "n-problems-negative",
            "n-absolute-negative", "n-weighted-negative", "seed-negative",
            "validate-seed-negative", "g-not-finite-on-grid",
            "f-not-finite-at-t-0", "height-max-negative", "height-max-0",
            "big-c-nan", "schauder-p-nan", "heston-rho-nan", "rtol-infinity",
            "sup-slack-infinity", "x-extent-minus-infinity",
            "norms-q-minus-infinity"])
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
        cfg = write_cfg(tmp_path, dict(
            BASE_CFG,
            field={"preset": "constant", "c": 0.0, "b": [0.0, 0.0, 1.0],
                   "a": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
            grid={"n_lateral": 5, "n_height": 5, "n_slices": 3}))
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
        d, n_t, shape, values = gridio.load_grid_function(
            str(out / "solve" / "solution.dgph"))
        assert (d, n_t, shape) == (3, 3, (5, 5, 5))
        assert np.all(np.isfinite(values))

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
            report.steps.append((len(report.steps) + 1, 1,
                                 1e3 * report.rtol))
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
        text = (out / "validate-coeffs" / "assumptions.csv").read_text()
        assert "fail" in text

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
        assert (out / "validate-coeffs" / "assumptions.txt").exists()


    @pytest.mark.parametrize("field", [
        {"preset": "heston", "kappa": 2.0, "theta": 0.25, "sigma": 1.0,
         "rho": 0.3},
        {"preset": "expressions", "d": 2, "a": [["1", "0"], ["0", "1"]],
         "b": ["0", "0"], "c": "10", "delta": 5.0, "K": 3.0, "nu": 1.0},
    ], ids=["heston", "overstated"])
    def test_validate_coeffs_rows_carry_declared_bounds(self, tmp_path,
                                                        field):
        cfg = {"field": field, "validate": {"n_samples": 400, "slack": 1.1}}
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
            assert slack == 1.1
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
        assert set(manifest["versions"]) == {"numpy", "scipy", "sympy"}

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
        cfg = write_cfg(tmp_path, dict(
            BASE_CFG, norms={"alpha": 0.5, "n_points": 150}))
        out = tmp_path / "out"
        code = cli.main(["norms", "--config", cfg, "--out", str(out)])
        assert code == 0
        text = (out / "norms" / "holder.csv").read_text()
        assert text.splitlines()[0].startswith("metric,")
        assert len(text.splitlines()) >= 6
        summary = (out / "norms" / "summary.txt").read_text()
        assert "no checks emitted" in summary

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
        assert "machine precision" in (
            out / "convergence" / "convergence.txt").read_text()

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


def test_every_run_csv_parses_to_its_header_width(tmp_path):
    # check names such as barrier(drift=-2,C=6,c=0.5) hold commas; a
    # '#' line is the fitted-order comment of convergence.csv
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
    paths = sorted(out.rglob("*.csv"))
    assert {p.parent.name for p in paths} == set(cli.EXPERIMENTS)
    for path in paths:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
        assert {len(r) for r in rows} == {len(rows[0])}, path


def test_import_leaves_scipy_interpolate_unloaded():
    # scipy.interpolate adds a noticeable share of the start-up time;
    # only pullback_grid_function needs it, and it imports it itself
    src = os.path.dirname(os.path.dirname(degenpde.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, degenpde.cli; "
            "sys.exit('scipy.interpolate' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "scipy.interpolate loaded"
