"""End-to-end acceptance criteria.

Each test evaluates one published-results criterion, registers a PASS/FAIL
line (printed in the terminal summary), and then asserts. Published values
are compared at the precision they were printed with, and each failure
message names that precision:

- criterion 1: relative risks and interval limits rounded to 2 decimals;
- criterion 2: coefficients and standard errors read at 4 significant
  figures, i.e. to half a unit in the 4th significant digit;
- criterion 3: p-values to half a unit in their last printed digit.

Two sub-checks cannot be reproduced from the bundled data. They are asserted
as-is and fail rather than being weakened or skipped:

- criterion 1, CREDENCE/dka: the published 7.79 (1.48-41.09) implies a
  log-scale se of log(41.09/1.48)/(2*1.96) = 0.848. With a single placebo
  event se = sqrt(1/y1 + 1/y0) >= 1, and no pair of integer counts gives
  0.848. The row also contradicts criteria 2 and 3 for the same outcome:
  exp(2.399) = 11.01, and its implied p is 0.0155, not 0.022.
- criterion 2, DAPA-CKD/primary beta: the bundled exposures 4282.609 and
  4160.000 encode rates of exactly 4.6 and 7.5 per 100 patient-years, so
  beta = log(46/75) = -0.488847, which misses [-0.48895, -0.48885) by 3e-6.
  The published -0.4889 needs the trial's own person-years.
"""

import json
import math
import time
from decimal import Decimal

import numpy as np
import pytest
from scipy import integrate, stats

import piglm as pg
from conftest import record_criterion
from exact import two_arm_counts, two_arm_joint


SEED = 20260824


def _fit(records, study, outcome):
    data, _ = pg.trial_model_data(records, study, outcome)
    return data, pg.fit_irls("poisson", "log", data)


def _rr_ci(fit):
    se = fit.se(1.0)[1]
    b = fit.beta_hat[1]
    q = 1.959963984540054
    return math.exp(b), math.exp(b - q * se), math.exp(b + q * se)


def _half_unit_printed(printed):
    """Half a unit in the last printed digit of a published value."""
    return 0.5 * 10.0 ** Decimal(printed).as_tuple().exponent


def _half_unit_sig(value, digits=4):
    """Half a unit in the ``digits``-th significant digit of ``value``."""
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - digits + 1)


def _assert_criterion(number, name, checks):
    failed = record_criterion(number, name, checks)
    assert not failed, f"criterion {number}: " + "; ".join(failed)


def test_criterion_01_relative_risk_table(trial_records):
    t0 = time.time()
    targets = {
        ("CREDENCE", "primary"): (0.71, 0.60, 0.83),
        # Not a Wald interval on these counts (module docstring): its implied
        # se of 0.848 is below the floor of 1 that one placebo event sets.
        # Kept as published; this row fails.
        ("CREDENCE", "dka"): (7.79, 1.48, 41.09),
        ("DAPA-CKD", "primary"): (0.61, 0.51, 0.73),
    }
    checks = []
    for (study, outcome), (rr_t, lo_t, hi_t) in targets.items():
        data, fit = _fit(trial_records, study, outcome)
        rr, lo, hi = _rr_ci(fit)
        ok = (round(rr, 2) == rr_t and round(lo, 2) == lo_t and round(hi, 2) == hi_t)
        checks.append((f"{study}/{outcome} RR {rr:.2f} ({lo:.2f}-{hi:.2f}) "
                       f"vs {rr_t} ({lo_t}-{hi_t}) at 2 decimals", ok))
    data, fit = _fit(trial_records, "DAPA-CKD", "dka")
    checks.append(("DAPA-CKD/dka flagged boundary", fit.boundary))
    checks.append(("runtime < 1 s", time.time() - t0 < 1.0))
    _assert_criterion(1, "relative-risk table", checks)


def test_criterion_02_ml_coefficients(trial_records):
    # Read at 4 significant figures: the published CREDENCE/dka se 1.0440
    # cannot carry 4 decimals, since se = sqrt(1/y1 + 1/y0) for a two-arm
    # log-linear fit whatever the exposures, and no integer pair of counts
    # comes within 5e-5 of 1.0440 (1 and 11 give 1.044466).
    targets = {
        ("CREDENCE", "primary"): (-0.3483, 0.0838),
        ("CREDENCE", "dka"): (2.3990, 1.0440),
        # beta fails: the bundled exposures give log(46/75) = -0.488847
        # (module docstring); it passes once the trial's person-years are
        # bundled.
        ("DAPA-CKD", "primary"): (-0.4889, 0.0910),
    }
    checks = []
    for (study, outcome), (b_t, se_t) in targets.items():
        data, fit = _fit(trial_records, study, outcome)
        b, se = fit.beta_hat[1], fit.se(1.0)[1]
        tol_b, tol_se = _half_unit_sig(b_t), _half_unit_sig(se_t)
        checks.append((f"{study}/{outcome} beta {b:.6f} vs {b_t} at 4 s.f. (+-{tol_b:.0e})",
                       abs(b - b_t) < tol_b))
        checks.append((f"{study}/{outcome} se {se:.6f} vs {se_t} at 4 s.f. (+-{tol_se:.0e})",
                       abs(se - se_t) < tol_se))
    data, fit = _fit(trial_records, "DAPA-CKD", "dka")
    checks.append(("DAPA-CKD/dka returns boundary flag", fit.boundary))
    _assert_criterion(2, "ML estimates and standard errors", checks)


def test_criterion_03_ml_pvalues(trial_records, tmp_path):
    # published p-values as printed; each is matched to half a unit in its
    # last digit, the interval that rounds to it
    targets = {
        ("CREDENCE", "primary"): "3.23e-5",
        ("CREDENCE", "dka"): "0.022",
        ("DAPA-CKD", "primary"): "7.79e-8",
    }
    checks = []
    for (study, outcome), printed in targets.items():
        data, fit = _fit(trial_records, study, outcome)
        p = pg.wald_pvalue(fit, 1.0, 1).p_or_pi
        p_t, tol = float(printed), _half_unit_printed(printed)
        checks.append((f"{study}/{outcome} p {p:.5g} vs {printed} to half its last digit "
                       f"(+-{tol:.0e})", abs(p - p_t) < tol))
    # the boundary fit's ~1 p-value is only surfaced when explicitly waived
    from piglm.cli import main

    out = tmp_path / "dka.json"
    code = main(["fit", "--study", "DAPA-CKD", "--outcome", "dka", "--out", str(out)])
    blocked = code == 3 and "p" not in json.loads(out.read_text())
    code = main(["fit", "--study", "DAPA-CKD", "--outcome", "dka",
                 "--allow-boundary", "--out", str(out)])
    p_dka = json.loads(out.read_text())["p"][1]
    checks.append(("boundary p hidden without the waiver flag", blocked))
    checks.append((f"DAPA-CKD/dka p {p_dka:.4f} within 0.001 of 0.999",
                   code == 0 and abs(p_dka - 0.999) < 1e-3))
    _assert_criterion(3, "ML p-values", checks)


def test_criterion_04_predictive_pi():
    checks = [
        ("predictive_pi(3.23e-5) ~ 0.0164",
         abs(pg.predictive_pi(3.23e-5) - 0.0164) < 1e-4),
        ("predictive_pi(7.79e-8) ~ 0.0019",
         abs(pg.predictive_pi(7.79e-8) - 0.0019) < 1e-4),
    ]
    # bisect the largest initial value still mapping at or below 0.05
    lo, hi = 1e-6, 1e-2
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if pg.predictive_pi(mid) <= 0.05:
            lo = mid
        else:
            hi = mid
    checks.append((f"replication-threshold initial value {lo:.3e} in (5e-4, 7e-4)",
                   5e-4 < lo < 7e-4))
    _assert_criterion(4, "predictive replicate pi-values", checks)


def test_criterion_05_grid_pi_heavy_tailed_prior(trial_records):
    data, _ = pg.trial_model_data(trial_records, "DAPA-CKD", "dka")
    ll = pg.vectorized_loglik("poisson", "log", data)
    bounds = [(-25.0, 10.0), (-60.0, 20.0)]
    prior = pg.PriorSpec("test_invchisq", beta0=0.0, nu0=2.5, s=1.0)
    gp = pg.grid_posterior(ll, [None, prior], bounds, resolution=601)
    pi = pg.pi_value_from_grid(gp, 1).p_or_pi
    gp_flat = pg.grid_posterior(ll, [None, None], bounds, resolution=401)
    checks = [
        (f"pi {pi:.4f} within 0.334 +- 0.01", abs(pi - 0.334) < 0.01),
        ("informative-prior posterior is proper", gp.proper),
        ("flat-prior posterior flagged improper", not gp_flat.proper),
    ]
    _assert_criterion(5, "zero-event grid posterior", checks)


def test_criterion_06_replicate_density_properties():
    checks = []
    for pi0 in (0.5, 0.05, 1e-5):
        mass, _ = integrate.quad(lambda x: pg.rpd_pdf(x, pi0), 0.0, 60.0,
                                 limit=400, epsabs=1e-12)
        checks.append((f"mass at pi_init={pi0} is {mass:.9f}", abs(mass - 1.0) < 1e-6))
        checks.append((f"median identity at {pi0}", pg.rpd_median(pi0) == pi0))
    # fraction of replicates missing the 0.05 level, quadrature vs simulation
    analytic = pg.rpd_cdf(-math.log10(0.05), 1e-5)
    z0 = -stats.norm.ppf(1e-5 / 2)
    rng = np.random.default_rng(31)
    p_rep = 2 * stats.norm.sf(np.abs(rng.normal(z0, math.sqrt(2.0), 400000)))
    mc = float(np.mean(p_rep > 0.05))
    checks.append((f"P(p_rep > 0.05) analytic {analytic:.4f} in 0.041 +- 0.002",
                   abs(analytic - 0.041) < 0.002))
    checks.append((f"matches MC oracle {mc:.4f}", abs(analytic - mc) < 0.002))
    _assert_criterion(6, "replicate p-value density", checks)


def test_criterion_07_replication_harness(credence_primary):
    data, fit = credence_primary
    t0 = time.time()
    cfg = pg.ReplicationConfig(n_sim=5000, seed=pg.RngStream(SEED))
    rep = pg.run_replication(fit, "poisson", "log", data, cfg)
    elapsed = time.time() - t0
    good = [r for r in rep.records if not r["failed"]]
    est = np.array([r["ml_estimates"][1] for r in good])
    mcse = est.std(ddof=1) / math.sqrt(len(est))
    var_ratio = est.var(ddof=1) / (2.0 * fit.cov_unscaled[1, 1])
    logs = np.sort(-np.log10(np.array([r["ml_p"][1] for r in good])))
    emp_hi = np.arange(1, len(logs) + 1) / len(logs)
    theo = pg.rpd_cdf(logs, pg.wald_pvalue(fit, 1.0, 1).p_or_pi)
    ks = max(np.max(np.abs(emp_hi - theo)),
             np.max(np.abs(emp_hi - 1.0 / len(logs) - theo)))
    checks = [
        (f"mean {est.mean():.5f} within 3 MC-SE of -0.34831",
         abs(est.mean() - (-0.3483066)) < 3 * mcse),
        (f"variance ratio {var_ratio:.3f} within 10% of doubled dispersion",
         abs(var_ratio - 1.0) < 0.10),
        (f"KS distance {ks:.4f} < 0.02 against the closed-form cdf", ks < 0.02),
        (f"runtime {elapsed:.1f} s < 60 s", elapsed < 60.0),
    ]
    _assert_criterion(7, "replication harness", checks)


def test_criterion_08_scale_estimators():
    data = pg.ModelData(y=np.array([1.0, 2.0, 3.0]), X=np.ones((3, 1)))
    est = pg.fit_irls("gaussian", "identity", data).scale
    checks = [
        ("gaussian MOM exactly 1", abs(est.phi_mom - 1.0) < 1e-12),
        ("gaussian EQL exactly 2/3", abs(est.phi_eql - 2.0 / 3.0) < 1e-12),
        ("gaussian deviance estimate exactly 1", abs(est.phi_dev - 1.0) < 1e-12),
    ]
    rng = np.random.default_rng(7)
    n = 40
    X = np.column_stack([np.ones(n), np.linspace(-1, 1, n)])
    y = rng.gamma(10.0, 0.1 * np.exp(X @ np.array([1.0, 0.5])))
    g = pg.fit_irls("gamma", "log", pg.ModelData(y=y, X=X)).scale
    checks.append((f"gamma profile estimate {g.phi_mpl:.5f} within 5% of {g.phi_dev:.5f}",
                   abs(g.phi_mpl - g.phi_dev) / g.phi_dev < 0.05))
    ratio_ok = True
    for m, dataset in enumerate([data.y, y, np.array([0.4, 1.9, 2.2, 3.1, 0.8])]):
        d = pg.ModelData(y=dataset, X=np.column_stack(
            [np.ones(len(dataset)), np.linspace(0, 1, len(dataset))]))
        e = pg.fit_irls("gaussian", "identity", d).scale
        nn, pp = len(dataset), 2
        ratio_ok &= abs(e.phi_dev - e.phi_eql * nn / (nn - pp)) < 1e-12 * e.phi_dev
    checks.append(("deviance/EQL ratio identity n/(n-p) everywhere", ratio_ok))
    _assert_criterion(8, "scale estimators", checks)


def _tail_table(zs, dof):
    rows = [pg.tail_comparison(z, dof) for z in zs]
    return {key: np.array([row[key] for row in rows]) for key in rows[0]}


def _max_spread(table):
    vals = np.array(list(table.values()))
    return float(np.max(vals.max(axis=0) - vals.min(axis=0)))


def test_criterion_09_tail_variant_agreement():
    # At 30 residual dof the three references cannot agree to the 5e-3 once
    # asked of them here: the normal and t_30 two-sided tails alone differ by
    # up to 0.0105 (near z = 1.57), and the exact three-way spread is 0.0260.
    # PAPER.md holds only the abstract, so where the 5e-3 figure came from
    # cannot be checked. At 30 dof each tail area, and their spread, is
    # compared with its exact scipy reference instead; the uniform scale prior
    # gives t_28 at z * sqrt(28/30).
    zs = np.linspace(0.0, 4.0, 401)
    got = _tail_table(zs, 30)
    ref = {
        "p_normal": 2.0 * stats.norm.sf(zs),
        "p_t_jeffreys": 2.0 * stats.t.sf(zs, 30),
        "p_t_uniform": 2.0 * stats.t.sf(zs * math.sqrt(28.0 / 30.0), 28),
    }
    checks = []
    for key, exact in ref.items():
        err = float(np.max(np.abs(got[key] / exact - 1.0)))
        checks.append((f"{key} at 30 dof within rel 1e-10 of scipy (max {err:.1e})",
                       err < 1e-10))
    spread_30, spread_ref = _max_spread(got), _max_spread(ref)
    spread_big = _max_spread(_tail_table(zs, 10**6))
    checks += [
        (f"max spread {spread_30:.5f} at 30 dof equals the exact {spread_ref:.5f} to 1e-10",
         abs(spread_30 - spread_ref) < 1e-10),
        (f"max spread {spread_big:.2e} < 1e-6 at 1e6 residual dof", spread_big < 1e-6),
    ]
    _assert_criterion(9, "tail-reference agreement", checks)


def test_criterion_10_local_uniformity():
    bounds = (-200.0, 200.0)
    specs = {
        "fixed-sd center": pg.PriorSpec("test_fixed_sigma", sigma=1000.0),
        "fixed-sd spread": pg.PriorSpec("explore_fixed_sigma", bounds=bounds, sigma=1000.0),
        "sd-mixture center": pg.PriorSpec("test_uniform_sigma",
                                          sigma_bounds=(900.0, 1100.0)),
        "sd-mixture spread": pg.PriorSpec("explore_uniform_sigma", bounds=bounds,
                                          sigma_bounds=(900.0, 1100.0)),
        "heavy-tail center": pg.PriorSpec("test_invchisq", nu0=1.0, s=1000.0),
        "heavy-tail spread": pg.PriorSpec("explore_invchisq", bounds=bounds,
                                          nu0=1.0, s=1000.0),
    }
    checks = []
    for name, spec in specs.items():
        res = 201 if "spread" in name and "fixed" not in name else 1001
        dev = pg.local_uniformity_check(spec, (-50.0, 50.0), resolution=res)
        checks.append((f"{name} deviation {dev:.5f} < 0.25%", dev < 0.0025))
    _assert_criterion(10, "local prior uniformity", checks)


def test_criterion_11_sampler_cross_check(credence_primary):
    data, fit = credence_primary
    y, X, off = data.y, data.X, data.offset

    def log_post(b):
        eta = X @ b + off
        return float(y @ eta - np.exp(eta).sum())

    chain = pg.rw_metropolis(log_post, fit.beta_hat, fit.cov_unscaled,
                             60000, 10000, pg.RngStream(SEED, 7))
    mean = chain.draws[:, 1].mean()
    sd = chain.draws[:, 1].std(ddof=1)
    rep = pg.pi_value_from_samples(chain.draws[::3, 1], 0.0, method="mixture",
                                   stream=pg.RngStream(SEED, 107))
    checks = [
        (f"posterior mean {mean:.4f} within 0.005 of -0.3483", abs(mean + 0.3483) < 0.005),
        (f"posterior sd {sd:.4f} within 0.005 of 0.0835", abs(sd - 0.0835) < 0.005),
        (f"smoothed pi {rep.p_or_pi:.3g} within 30% of 3.05e-5",
         abs(rep.p_or_pi - 3.05e-5) < 0.3 * 3.05e-5),
    ]
    _assert_criterion(11, "sampler cross-check", checks)


def test_criterion_12_oracle_property_suite(credence_primary):
    checks = []
    rng = np.random.default_rng(12)
    # closed-form least squares
    X = np.column_stack([np.ones(25), rng.standard_normal(25)])
    yv = X @ np.array([0.5, -1.0]) + rng.standard_normal(25)
    fit_g = pg.fit_irls("gaussian", "identity", pg.ModelData(y=yv, X=X))
    beta_ls, *_ = np.linalg.lstsq(X, yv, rcond=None)
    checks.append(("least-squares agreement 1e-10",
                   float(np.max(np.abs(fit_g.beta_hat - beta_ls))) < 1e-10))
    # analytic score vs central differences
    pdata = pg.ModelData(y=rng.poisson(4.0, 20).astype(float) + 1.0,
                         X=np.column_stack([np.ones(20), np.linspace(-1, 1, 20)]))
    beta = np.array([0.8, 0.3])
    s = pg.score("poisson", "log", beta, 1.0, pdata)
    ok = True
    for j in range(2):
        e = np.zeros(2)
        e[j] = 1e-6
        fd = (pg.log_likelihood("poisson", "log", beta + e, 1.0, pdata)
              - pg.log_likelihood("poisson", "log", beta - e, 1.0, pdata)) / 2e-6
        ok &= abs(s[j] - fd) <= 1e-5 * max(abs(fd), 1.0)
    checks.append(("score matches finite differences rel 1e-5", ok))
    # density approximation error for small counts
    ok = all(
        abs(math.exp(pg.saddlepoint_logpdf("poisson", float(k), mu, 1.0))
            - stats.poisson.pmf(k, mu)) / stats.poisson.pmf(k, mu) < 0.03
        for mu in (2.0, 6.0) for k in range(4, 25)
    )
    checks.append(("count-density approximation < 3% for counts > 3", ok))
    # squared-residual/deviance ratio tends to one near the mean
    ok = True
    for fam, y0 in [("poisson", 5.0), ("binomial", 0.4), ("gamma", 2.0)]:
        F = pg.FAMILIES[fam]
        for eps, tol in ((1e-3, 1e-3), (1e-5, 1e-4)):
            yy = y0 + eps
            ratio = float((yy - y0) ** 2 / F.variance(np.asarray(y0))) / float(
                F.unit_deviance(np.asarray(yy), np.asarray(y0)))
            ok &= abs(ratio - 1.0) < tol
    checks.append(("squared-residual/deviance ratio -> 1 near the mean", ok))
    # normalized-likelihood density vs the exact flat-prior joint density
    data, fit = credence_primary
    se = fit.se(1.0)
    g0 = np.linspace(fit.beta_hat[0] - 6 * se[0], fit.beta_hat[0] + 6 * se[0], 201)
    g1 = np.linspace(fit.beta_hat[1] - 6 * se[1], fit.beta_hat[1] + 6 * se[1], 201)
    pf = pg.p_formula_density(fit, "poisson", "log", data, (g0, g1))
    exact = two_arm_joint(g0, g1, *two_arm_counts(data))
    sup = float(np.max(np.abs(exact - pf["renormalized"])))
    checks.append((f"renormalized density sup-distance {sup:.2e} < 1e-3", sup < 1e-3))
    _assert_criterion(12, "oracle and property suite", checks)
