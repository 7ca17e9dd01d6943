"""Byte-for-byte CLI JSON for fixed seeds, and the library replication harness's.

Each CLI case runs ``cli.main`` with ``--out`` and compares the file with
``tests/golden/<name>.json`` and the exit code with ``exit_codes.json``. A
case that writes no file has no golden JSON. Each replication case runs
``run_replication`` on a model that the CLI ``replicate`` cases do not reach
(an unknown scale, the events guard, a Bayes analysis) and compares the JSON of
its summaries and failure counts with ``tests/golden/<name>.json``. To rewrite
the golden files after an intended change, run
``PYTHONPATH=src python tests/test_cli_golden.py``, which prints each golden
file whose bytes changed and each changed exit code, and name every moved file
in CHANGES.md.
"""

import json
import pathlib

import numpy as np
import pytest

import piglm as pg
from piglm import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"
OUTCOMES = [("CREDENCE", "primary"), ("CREDENCE", "dka"),
            ("DAPA-CKD", "primary"), ("DAPA-CKD", "dka")]
STUDY_CASES = {
    "fit": ["fit"],
    "posterior_laplace": ["posterior", "--method", "laplace"],
    "posterior_grid_flat": ["posterior", "--method", "grid"],
    "posterior_grid_student_t": ["posterior", "--method", "grid", "--prior", "student_t"],
    "surface": ["surface"],
    "replicate": ["replicate", "--n-sim", "1000"],
}
CASES = {
    f"{name}_{study}_{outcome}".lower().replace("-", ""):
        args + ["--study", study, "--outcome", outcome]
    for study, outcome in OUTCOMES for name, args in STUDY_CASES.items()
}
CASES.update({
    "surface_anchor_dapackd_dka": ["surface", "--study", "DAPA-CKD", "--outcome", "dka",
                                   "--anchor", "-3.2,-1.5", "--allow-boundary"],
    "rpd_1e-4": ["rpd", "--pi-init", "1e-4"],
    "rpd_1e-100": ["rpd", "--pi-init", "1e-100"],
    "predict_pi": ["predict-pi", "--pi", "0.05"],
    "decide": ["decide", "--epsilon", "0.1", "--epsilon-loss", "0.05", "--cost", "0.02",
               "--pi", "0.01"],
    "priors_test_fixed_sigma": ["priors", "--kind", "test_fixed_sigma", "--sigma", "10"],
    "priors_explore_uniform_sigma": ["priors", "--kind", "explore_uniform_sigma",
                                     "--bounds", "-5,5", "--sigma-bounds", "1,20",
                                     "--interval", "-2,2"],
})
CASES.update({
    f"posterior_metropolis_credence_{outcome}": ["posterior", "--method", "metropolis",
                                                 "--n-iter", "2000", "--burn-in", "500",
                                                 "--study", "CREDENCE", "--outcome", outcome]
    for outcome in ("primary", "dka")
})


def _gaussian_model():
    """The benchmark's straight-line gaussian model with unknown scale, at its seed 7."""
    rng = np.random.default_rng([7, 0x6A55])
    x = rng.uniform(0.0, 10.0, 40)
    return pg.ModelData(y=1.0 + 0.5 * x + rng.standard_normal(40),
                        X=np.column_stack([np.ones(40), x]))


def _credence_dka():
    return pg.trial_model_data(pg.parse_trial_csv(pg.bundled_trials_path()), "CREDENCE", "dka")[0]


def _gamma_model():
    arm = np.repeat([1.0, 0.0], 8)
    return pg.ModelData(y=np.random.default_rng(4).gamma(4.0, (1.0 + arm) / 4.0),
                        X=np.column_stack([np.ones(16), arm]))


# name -> (family, link, model data, analyses); each runs 1000 replicates on RngStream(11)
REPLICATION_CASES = {
    "replication_gaussian": ("gaussian", "identity", _gaussian_model, ("ml",)),
    "replication_credence_dka": ("poisson", "log", _credence_dka, ("ml", "bayes_flat")),
    "replication_gamma_log": ("gamma", "log", _gamma_model, ("ml",)),
}


def _replication_text(name):
    family, link, model, analyses = REPLICATION_CASES[name]
    data = model()
    rep = pg.run_replication(pg.fit_irls(family, link, data), family, link, data,
                             pg.ReplicationConfig(n_sim=1000, seed=pg.RngStream(11),
                                                  analyses=analyses))
    return pg.to_json_text({"summaries": rep.summaries,
                            "failure_counts": rep.failure_counts}).encode()


def _run(name, out_dir):
    path = pathlib.Path(out_dir) / f"{name}.json"
    code = cli.main(CASES[name] + ["--out", str(path)])
    return code, (path.read_bytes() if path.exists() else None)


@pytest.fixture(scope="module")
def exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_json_is_byte_identical(name, exit_codes, tmp_path):
    code, text = _run(name, tmp_path)
    assert code == exit_codes[name]
    golden = GOLDEN / f"{name}.json"
    assert text == (golden.read_bytes() if golden.exists() else None)


@pytest.mark.parametrize("name", sorted(REPLICATION_CASES))
def test_replication_json_is_byte_identical(name):
    assert _replication_text(name) == (GOLDEN / f"{name}.json").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes_path = GOLDEN / "exit_codes.json"
    old_codes = json.loads(codes_path.read_text()) if codes_path.exists() else {}
    codes = {}
    for name in sorted(CASES):
        golden = GOLDEN / f"{name}.json"
        before = golden.read_bytes() if golden.exists() else None
        golden.unlink(missing_ok=True)
        codes[name], after = _run(name, GOLDEN)
        if after != before:
            print(f"moved: {golden.name}")
        if codes[name] != old_codes.get(name):
            print(f"exit code moved: {name} {old_codes.get(name)} -> {codes[name]}")
    codes_path.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
    for name in sorted(REPLICATION_CASES):
        golden = GOLDEN / f"{name}.json"
        before = golden.read_bytes() if golden.exists() else None
        after = _replication_text(name)
        golden.write_bytes(after)
        if after != before:
            print(f"moved: {golden.name}")
