import ast
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import piglm as pg
from piglm import cli
from piglm.cli import MAX_N_ITER, MAX_N_SIM, MAX_RESOLUTION, MIN_N_SIM, MIN_RESOLUTION, main
from piglm.numerics import MIN_MIXTURE_SAMPLES
from piglm.io import format_float, to_json_text


GOOD_CSV = """study,outcome,arm,treat,events,exposure,arm_size
S1,primary,drug,1,10,100.5,50
S1,primary,placebo,0,20,101.5,50
"""


class TestParsing:
    def test_roundtrip(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text(GOOD_CSV)
        recs = pg.parse_trial_csv(f)
        assert len(recs) == 2
        assert recs[0].treat == 1 and recs[0].events == 10
        assert recs[0].exposure == pytest.approx(100.5)
        assert not recs[0].exposure_fallback

    def test_missing_column(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("study,outcome,arm,treat,events\nS,o,a,1,3\n")
        with pytest.raises(pg.ParseError, match="exposure"):
            pg.parse_trial_csv(f)

    def test_bad_row_reports_row_number(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text(GOOD_CSV + "S1,primary,third,2,5,10,\n")
        with pytest.raises(pg.ParseError) as err:
            pg.parse_trial_csv(f)
        assert err.value.row == 4

    def test_missing_exposure_and_arm_size(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("study,outcome,arm,treat,events,exposure,arm_size\nS,o,a,1,3,,\n")
        with pytest.raises(pg.ParseError):
            pg.parse_trial_csv(f)

    @pytest.mark.parametrize("exposure,arm_size,column", [
        ("", "-50", "arm_size"), ("", "0", "arm_size"), ("", "nan", "arm_size"),
        ("inf", "50", "exposure")])
    def test_size_must_be_finite_and_positive(self, tmp_path, capsys, exposure, arm_size,
                                              column):
        # such a size made the offset NaN or inf, and the fit failed as a boundary (exit 3)
        f = tmp_path / "t.csv"
        f.write_text("study,outcome,arm,treat,events,exposure,arm_size\n"
                     f"S1,primary,drug,1,10,{exposure},{arm_size}\n"
                     "S1,primary,placebo,0,20,101.5,50\n")
        with pytest.raises(pg.ParseError, match=f"{column} must be finite and > 0") as err:
            pg.parse_trial_csv(f)
        assert err.value.row == 2
        assert main(["fit", "--study", "S1", "--outcome", "primary", "--data", str(f)]) == 2
        assert "row 2" in capsys.readouterr().err

    def test_empty_file(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("")
        with pytest.raises(pg.ParseError):
            pg.parse_trial_csv(f)

    def test_bundled_dataset_loads(self, trial_records):
        assert len(trial_records) == 8
        assert {r.study for r in trial_records} == {"CREDENCE", "DAPA-CKD"}


class TestModelAssembly:
    def test_treated_row_first_with_scaled_offsets(self, trial_records):
        data, meta = pg.trial_model_data(trial_records, "CREDENCE", "primary")
        assert data.X[:, 1].tolist() == [1.0, 0.0]
        assert data.offset[0] == pytest.approx(math.log(5671.296 / 1000.0))
        assert not meta["exposure_fallback"]

    def test_arm_size_fallback_flagged(self, trial_records):
        data, meta = pg.trial_model_data(trial_records, "DAPA-CKD", "dka")
        assert meta["exposure_fallback"]
        assert data.offset[0] == pytest.approx(math.log(2149 / 1000.0))

    def test_unknown_selection(self, trial_records):
        with pytest.raises(pg.ParseError):
            pg.trial_model_data(trial_records, "NOPE", "primary")

    @pytest.mark.parametrize("scale", [0.0, -1000.0, math.nan, math.inf])
    def test_exposure_scale_must_be_finite_and_positive(self, trial_records, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # refused before np.log can warn
            with pytest.raises(pg.DomainError, match="exposure_scale"):
                pg.trial_model_data(trial_records, "CREDENCE", "primary", exposure_scale=scale)


class TestSerialization:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=100, deadline=None)
    def test_float_format_roundtrips_exactly(self, x):
        assert float(format_float(x)) == x

    def test_json_is_standard_and_deterministic(self):
        payload = {"a": np.array([1.5, 2.5]), "b": np.float64(0.1), "n": None,
                   "flag": True, "nested": {"k": [1, 2]}}
        t1, t2 = to_json_text(payload), to_json_text(payload)
        assert t1 == t2
        back = json.loads(t1)
        assert back["a"] == [1.5, 2.5]
        assert back["b"] == 0.1
        assert back["nested"]["k"] == [1, 2]

    def test_non_finite_floats(self):
        back = json.loads(to_json_text({"x": float("inf"), "y": float("nan")}))
        assert back["x"] == math.inf and math.isnan(back["y"])

    def test_plot_csv(self, tmp_path):
        f = tmp_path / "p.csv"
        pg.emit_plot_csv(f, ("x", "y"), [(0.1, 2.0), (0.2, 3.0)])
        lines = f.read_text().strip().splitlines()
        assert lines[0] == "x,y"
        assert lines[1].startswith("0.1")


class TestCli:
    def test_fit_success_and_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            code = main(["fit", "--study", "CREDENCE", "--outcome", "primary",
                         "--out", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        res = json.loads(out1.read_text())
        assert res["relative_risk"]["estimate"] == pytest.approx(0.7059, abs=1e-4)
        assert res["seed"] == 20260824

    def test_boundary_exit_code_and_waiver(self, tmp_path):
        out = tmp_path / "o.json"
        code = main(["fit", "--study", "DAPA-CKD", "--outcome", "dka",
                     "--out", str(out)])
        assert code == 3
        res = json.loads(out.read_text())
        assert res["boundary"] is True
        assert "p" not in res
        code = main(["fit", "--study", "DAPA-CKD", "--outcome", "dka",
                     "--allow-boundary", "--out", str(out)])
        assert code == 0
        res = json.loads(out.read_text())
        assert "boundary_warning" in res and "p" in res

    def test_usage_errors(self):
        assert main(["fit", "--study", "CREDENCE"]) == 64          # missing option
        assert main(["not-a-command"]) == 64
        assert main(["fit", "--study", "X", "--outcome", "y",
                     "--data", "/definitely/not/here.csv"]) == 64

    def test_replicate_takes_no_boundary_waiver(self, capsys):
        # replicate needs an interior fit, so it has no --allow-boundary to read
        args = ["replicate", "--study", "DAPA-CKD", "--outcome", "dka", "--n-sim", "100"]
        assert main(args + ["--allow-boundary"]) == 64
        assert "--allow-boundary" in capsys.readouterr().err
        assert main(args) == 3

    def test_parse_error_exit_code(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("study,outcome\nS,o\n")
        assert main(["fit", "--study", "S", "--outcome", "o", "--data", str(f)]) == 2

    def test_unknown_study_exit_code(self):
        assert main(["fit", "--study", "NOPE", "--outcome", "primary"]) == 2

    def test_decide_matches_library(self, tmp_path):
        out = tmp_path / "d.json"
        code = main(["decide", "--epsilon", "0.01", "--epsilon-loss", "0.5",
                     "--cost", "0.001", "--pi", "0.02", "--out", str(out)])
        assert code == 0
        res = json.loads(out.read_text())
        client = pg.ClientParams(epsilon=0.01, epsilon_loss=0.5, c=0.001)
        assert res["pi_critical"] == pytest.approx(pg.pi_critical(client), rel=1e-12)
        assert res["action"] == "act"

    def test_predict_pi(self, tmp_path):
        out = tmp_path / "p.json"
        assert main(["predict-pi", "--pi", "3.23e-5", "--out", str(out)]) == 0
        res = json.loads(out.read_text())
        assert res["pi_rep"] == pytest.approx(0.0164031, abs=1e-6)

    def test_rpd_curve_csv(self, tmp_path):
        out, curve = tmp_path / "r.json", tmp_path / "c.csv"
        assert main(["rpd", "--pi-init", "1e-4", "--resolution", "501",
                     "--out", str(out), "--curve-out", str(curve)]) == 0
        lines = curve.read_text().strip().splitlines()
        assert lines[0] == "x,pdf,cdf"
        assert len(lines) == 502

    def test_rpd_pi_init_whose_half_underflows(self, tmp_path, capsys):
        # 5e-324 / 2 rounds to 0; 1e-323 / 2 is still a subnormal
        assert main(["rpd", "--pi-init", "5e-324"]) == 2
        err = capsys.readouterr().err
        assert "pi_init" in err and "std_normal_quantile" not in err
        out = tmp_path / "r.json"
        assert main(["rpd", "--pi-init", "1e-323", "--out", str(out)]) == 0
        assert '"mean_log10": 323.43918692952639,' in out.read_text()

    def test_rpd_curve_past_the_underflow_of_ten_to_minus_x(self, tmp_path):
        # the tabulation reaches x = 400, where 10^-x is 0 in double precision
        out = tmp_path / "r.json"
        assert main(["rpd", "--pi-init", "1e-300", "--cap", "400", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["total_mass"] == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("args,option", [
        (["priors", "--kind", "test_fixed_sigma", "--sigma", "1", "--interval", "foo"],
         "--interval"),
        (["priors", "--kind", "explore_fixed_sigma", "--sigma", "1", "--bounds", "1"],
         "--bounds"),
        (["priors", "--kind", "test_uniform_sigma", "--sigma-bounds", "1,2,3"],
         "--sigma-bounds"),
        (["surface", "--study", "CREDENCE", "--outcome", "primary", "--anchor", "1,x"],
         "--anchor"),
    ])
    def test_bad_number_pair_is_a_usage_error_naming_the_option(self, args, option, capsys):
        assert main(args) == 64
        assert option in capsys.readouterr().err

    def test_predict_pi_whose_half_underflows(self, tmp_path, capsys):
        assert main(["predict-pi", "--pi", "5e-324"]) == 2
        err = capsys.readouterr().err
        assert "pi_init" in err and "std_normal_quantile" not in err
        out = tmp_path / "p.json"
        assert main(["predict-pi", "--pi", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["pi_rep"] == 1.0

    def test_surface_quadraticity(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["surface", "--study", "CREDENCE", "--outcome", "primary",
                     "--resolution", "41", "--out", str(out)]) == 0
        res = json.loads(out.read_text())
        assert res["quadraticity"]["pass"] is True

    def test_priors_grid(self, tmp_path):
        out, grid = tmp_path / "pr.json", tmp_path / "g.csv"
        assert main(["priors", "--kind", "test_fixed_sigma", "--sigma", "1000",
                     "--resolution", "101", "--out", str(out),
                     "--grid-out", str(grid)]) == 0
        res = json.loads(out.read_text())
        assert res["max_relative_deviation"] < 0.0025
        assert grid.read_text().startswith("beta,density")

    def test_posterior_laplace(self, tmp_path):
        out = tmp_path / "post.json"
        assert main(["posterior", "--study", "CREDENCE", "--outcome", "primary",
                     "--out", str(out)]) == 0
        res = json.loads(out.read_text())
        assert res["pi"] == pytest.approx(3.2345e-5, rel=1e-3)

    def test_replicate_small(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["replicate", "--study", "CREDENCE", "--outcome", "primary",
                     "--n-sim", "150", "--seed", "5", "--out", str(out)]) == 0
        res = json.loads(out.read_text())
        assert res["summaries"]["fraction_failed"] == 0.0
        assert res["summaries"]["ml_mean"][1] == pytest.approx(-0.348, abs=0.05)

    def test_grid_t2_prior_is_proper_and_flat_is_not(self, tmp_path):
        # a t_2 tail decays too slowly for the slope test at the grid edge, but
        # the prior is proper, so the posterior is too
        out = tmp_path / "g.json"
        base = ["posterior", "--study", "DAPA-CKD", "--outcome", "dka", "--method", "grid",
                "--out", str(out)]
        assert main(base + ["--prior", "student_t", "--prior-df", "2",
                            "--prior-scale", "2"]) == 0
        res = json.loads(out.read_text())
        assert res["proper"] is True and 0.0 < res["pi"] < 1.0
        assert main(base + ["--prior", "flat"]) == 3
        assert json.loads(out.read_text())["proper"] is False


class _Reached(Exception):
    """Raised in place of the first allocation after option parsing."""


_STUDY = ["--study", "CREDENCE", "--outcome", "primary"]
_SIZED = [
    pytest.param(["replicate", *_STUDY, "--n-sim"], MIN_N_SIM, MAX_N_SIM, id="replicate-n-sim"),
    pytest.param(["posterior", *_STUDY, "--method", "grid", "--resolution"], MIN_RESOLUTION,
                 MAX_RESOLUTION, id="posterior-resolution"),
    pytest.param(["surface", *_STUDY, "--resolution"], MIN_RESOLUTION, MAX_RESOLUTION,
                 id="surface-resolution"),
    pytest.param(["rpd", "--pi-init", "1e-4", "--resolution"], MIN_RESOLUTION, MAX_RESOLUTION,
                 id="rpd-resolution"),
    pytest.param(["priors", "--kind", "test_fixed_sigma", "--sigma", "1000", "--resolution"],
                 MIN_RESOLUTION, MAX_RESOLUTION, id="priors-resolution"),
    pytest.param(["posterior", *_STUDY, "--method", "metropolis", "--n-iter"],
                 MIN_MIXTURE_SAMPLES, MAX_N_ITER, id="posterior-n-iter"),
    pytest.param(["posterior", *_STUDY, "--method", "metropolis", "--burn-in"], 0, MAX_N_ITER,
                 id="posterior-burn-in"),
]


class TestSizeLimits:
    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def reached(*args, **kwargs):
            raise _Reached()

        for name in ("_load", "rpd_curve", "local_uniformity_check"):
            monkeypatch.setattr(cli, name, reached)

    @pytest.mark.parametrize("args,floor,limit", _SIZED)
    def test_over_the_limit_is_a_usage_error(self, args, floor, limit):
        assert main(args + [str(limit + 1)]) == 64

    @pytest.mark.parametrize("args,floor,limit", _SIZED)
    def test_the_limit_itself_is_accepted(self, args, floor, limit):
        with pytest.raises(_Reached):
            main(args + [str(limit)])

    @pytest.mark.parametrize("args,floor,limit", _SIZED)
    def test_under_the_floor_is_a_usage_error(self, args, floor, limit):
        # rejected while the options are parsed, before any work is done
        for value in sorted({floor - 1, floor - 2, -3, -5}):
            assert main(args + [str(value)]) == 64

    @pytest.mark.parametrize("args,floor,limit", _SIZED)
    def test_the_floor_itself_is_accepted(self, args, floor, limit):
        with pytest.raises(_Reached):
            main(args + [str(floor)])


@pytest.mark.parametrize("extra", [["--resolution", "2"],
                                   ["--resolution", "4", "--half-width", "100"]])
def test_surface_without_a_node_near_the_fit_is_a_domain_error(extra, capsys):
    assert main(["surface", *_STUDY, *extra]) == 2
    assert "Mahalanobis distance 2" in capsys.readouterr().err


_FIXED_SIGMA = ["priors", "--kind", "test_fixed_sigma", "--sigma", "1"]
_INVCHISQ = ["priors", "--kind", "test_invchisq"]
_DECIDE = ["decide", "--epsilon-loss", "0.5", "--cost", "0.001", "--pi", "0.02"]


@pytest.mark.parametrize("args,name", [
    pytest.param([*cmd, option, value], name, id=f"{cmd[0]}{option}={value}")
    for cmd, option, name, values in [
        (["surface", *_STUDY], "--half-width", "half-widths", ["0", "-2", "nan", "inf"]),
        (_FIXED_SIGMA, "--interval", "interval", ["nan,5", "5,-5", "-inf,5"]),
        (["rpd", "--pi-init", "0.05"], "--cap", "cap", ["nan", "0", "inf"]),
        (["fit", *_STUDY], "--exposure-scale", "exposure_scale", ["0", "nan"]),
        (_FIXED_SIGMA, "--beta0", "beta0", ["nan", "inf"]),
        (["priors", "--kind", "test_fixed_sigma"], "--sigma", "sigma", ["inf"]),
        (["priors", "--kind", "test_uniform_sigma"], "--sigma-bounds", "sigma_bounds",
         ["1,inf"]),
        ([*_INVCHISQ, "--scale-s", "1"], "--nu0", "nu0", ["inf"]),
        ([*_INVCHISQ, "--nu0", "2.5"], "--scale-s", "scale s", ["inf"]),
        (["priors", "--kind", "explore_fixed_sigma", "--sigma", "1"], "--bounds", "bounds",
         ["-inf,5", "-5,inf"]),
        (["posterior", *_STUDY, "--method", "grid", "--prior", "student_t"], "--prior-df",
         "nu0", ["inf"]),
        (_DECIDE, "--epsilon", "epsilon", ["inf"]),
        ([*_DECIDE, "--epsilon", "0.01"], "--analyst-capital", "capital", ["inf", "nan"]),
        ([*_DECIDE, "--epsilon", "0.01"], "--alpha", "alpha", ["inf"]),
    ]
    for value in values])
def test_out_of_range_value_is_a_domain_error_naming_it(args, name, capsys):
    assert main(args) == 2
    assert name in capsys.readouterr().err


class TestImportFloor:
    """scipy.integrate and scipy.optimize cost more to import than numpy, scipy.special
    and click together; no CLI call may pay for them."""

    def test_cli_import_leaves_integrate_and_optimize_out(self):
        src = os.path.dirname(os.path.dirname(pg.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        code = ("import sys, piglm, piglm.cli; print(' '.join(m for m in "
                "('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == ""

    def test_no_source_module_uses_them(self):
        for path in sorted(pathlib.Path(pg.__file__).parent.glob("*.py")):
            hits = [n for n, line in enumerate(path.read_text().splitlines(), 1)
                    if re.search("integrate|optimize", line)]
            assert hits == [], f"{path.name}: lines {hits}"


def _unused_imports(path):
    """Module-level imports of ``path`` that its code never reads. Names in
    ``__all__`` count as read, and so does every import of an ``__init__.py``
    without one: its imports are the package's namespace."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)]
    if exported:
        read.update(*exported)
    elif path.name == "__init__.py":
        read.update(imported)
    return {name: line for name, line in imported.items() if name not in read}


def test_no_source_module_has_an_unused_import():
    for path in sorted(pathlib.Path(pg.__file__).parent.glob("*.py")):
        assert _unused_imports(path) == {}, path.name


class TestFamilyDispatch:
    """Per-family behaviour lives on the FAMILIES entries; no module branches on a name."""

    def test_no_source_module_tests_a_family_by_name(self):
        for path in sorted(pathlib.Path(pg.__file__).parent.glob("*.py")):
            hits = [n for n, line in enumerate(path.read_text().splitlines(), 1)
                    if re.search(r"\bname\s*(==|!=|in\b|not in\b)|family\S*\s*(==|!=)", line)]
            assert hits == [], f"{path.name}: lines {hits}"
