import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special, stats

import piglm as pg
from piglm import replication
from piglm.glm import ModelData, fit_irls, fit_irls_batch
from piglm.replication import (
    ReplicationConfig,
    predictive_pi,
    rpd_cdf,
    rpd_curve,
    rpd_median,
    rpd_moments,
    rpd_pdf,
    run_replication,
)

from exact import harness_lattice, two_arm_counts


class TestPredictive:
    def test_frozen_mapping_values(self):
        assert predictive_pi(3.23e-5) == pytest.approx(0.016403054208182919, rel=1e-10)
        assert predictive_pi(7.79e-8) == pytest.approx(0.00192554, abs=1e-7)
        assert predictive_pi(1.0) == 1.0

    def test_shrinks_evidence(self):
        # the replicate's expected tail mass is always larger than the initial
        for p in (1e-8, 1e-4, 0.01, 0.3):
            assert predictive_pi(p) > p

    def test_validation(self):
        with pytest.raises(pg.DomainError):
            predictive_pi(0.0)


class TestReplicatePValueDensity:
    def test_pdf_is_cdf_derivative(self):
        for pi0 in (0.05, 1e-4):
            for x in (0.5, 1.3, 3.0, 6.0):
                h = 1e-6
                fd = (rpd_cdf(x + h, pi0) - rpd_cdf(x - h, pi0)) / (2 * h)
                assert rpd_pdf(x, pi0) == pytest.approx(fd, rel=1e-5, abs=1e-12)

    def test_c_of_x_stays_exact_past_the_underflow(self):
        # c(x) = Phi^{-1}(10^-x / 2) comes from log(10^-x / 2), so it holds on
        # beyond x = 308, where 10^-x underflows, and keeps the old value below
        x = np.linspace(0.0, 400.0, 801)
        c = replication._c_of_x(x)
        np.testing.assert_allclose(special.log_ndtr(c), -x * math.log(10.0) - math.log(2.0),
                                   rtol=1e-13)
        near = x <= 300.0
        np.testing.assert_allclose(c[near], special.ndtri(0.5 * 10.0 ** -x[near]),
                                   rtol=1e-15, atol=1e-15)

    def test_mass_one_by_quadrature(self):
        val, _ = integrate.quad(lambda x: rpd_pdf(x, 1e-3), 0, 60, limit=400)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_cdf_against_monte_carlo(self):
        pi0 = 1e-4
        z0 = -stats.norm.ppf(pi0 / 2)
        rng = np.random.default_rng(17)
        z = rng.normal(z0, math.sqrt(2.0), 200000)
        p_rep = 2 * stats.norm.sf(np.abs(z))
        for x in (1.0, 2.0, 4.0, 6.0):
            emp = float(np.mean(-np.log10(p_rep) <= x))
            assert rpd_cdf(x, pi0) == pytest.approx(emp, abs=0.005)

    def test_median_identity(self):
        for pi0 in (1e-8, 1e-5, 0.01):
            assert rpd_median(pi0) == pi0
        # for small initial values the second cdf term vanishes and the cdf at
        # the median is 1/2 to high accuracy; at 0.01 it is visibly below
        assert rpd_cdf(-math.log10(1e-5), 1e-5) == pytest.approx(0.5, abs=1e-7)
        assert rpd_cdf(-math.log10(0.01), 0.01) == pytest.approx(0.49987, abs=1e-4)

    def test_moment_relations(self):
        # oracle: 4e6 simulated replicates give mean 5.416, sd 2.908
        m = rpd_moments(1e-5)
        assert m["mean_log10"] == pytest.approx(5.416, abs=0.02)
        assert m["sd_raw"] > m["mean_raw"]       # heavy dispersion on the raw scale
        assert m["sd_log10"] == pytest.approx(2.908, abs=0.02)

    def test_curve_bundles_everything(self):
        c = rpd_curve(1e-4, cap=25.0, resolution=1001)
        assert c.grid[0] == 0.0 and c.grid[-1] == 25.0
        assert c.total_mass == pytest.approx(1.0, abs=1e-4)
        assert np.all(np.diff(c.cdf) >= -1e-12)

    def test_validation(self):
        for f in (rpd_pdf, rpd_cdf):
            for x in (-0.5, np.array([1.0, -0.5])):
                with pytest.raises(pg.DomainError, match="log10p"):
                    f(x, 0.01)
            with pytest.raises(pg.DomainError):
                f(1.0, 0.0)


def _rpd_moments_by_quad(pi0):
    """The four rpd moments by quad over the replicate z ~ N(z0, 2), split at 0 and z0.

    x(z) = -log10(2 Phi(-|z|)) comes from norm.logsf, so it stays exact far out;
    the second moments are central, each about its own quad mean.
    """
    z0 = stats.norm.isf(pi0 / 2.0)
    sd = math.sqrt(2.0)
    lo, hi = z0 - 30.0 * sd, z0 + 30.0 * sd

    def log_p(z):
        return math.log(2.0) + stats.norm.logsf(abs(z))

    def mom(f, peak=None):
        g = lambda z: f(z) * stats.norm.pdf(z, z0, sd)
        total = 0.0
        for a, b in ((lo, 0.0), (0.0, z0), (z0, hi)):
            pts = [peak] if peak is not None and a < peak < b else None
            total += integrate.quad(g, a, b, points=pts, limit=400, epsabs=0.0, epsrel=1e-12)[0]
        return total

    m_log = mom(lambda z: -log_p(z) / math.log(10.0))
    v_log = mom(lambda z: (-log_p(z) / math.log(10.0) - m_log) ** 2)
    # the raw integrand peaks near z0/3, a narrow bump far into (0, z0) for small pi0
    m_raw = mom(lambda z: math.exp(log_p(z)), peak=z0 / 3.0)
    v_raw = mom(lambda z: (math.exp(log_p(z)) - m_raw) ** 2, peak=z0 / 3.0)
    return {"mean_log10": m_log, "sd_log10": math.sqrt(v_log),
            "mean_raw": m_raw, "sd_raw": math.sqrt(v_raw)}


def _normal_orthant(h, k, rho):
    """P(X < h, Y < k) for a standard bivariate normal with correlation rho (Owen's T)."""
    r = math.sqrt(1.0 - rho * rho)
    beta = 0.0 if h * k > 0 or (h * k == 0 and h + k >= 0) else 0.5
    return (0.5 * special.ndtr(h) + 0.5 * special.ndtr(k) - beta
            - special.owens_t(h, (k - rho * h) / (h * r))
            - special.owens_t(k, (h - rho * k) / (k * r)))


class TestRpdMomentsOracle:
    @pytest.mark.parametrize("pi0", [0.33, 0.05, 1e-5, 1e-60, 1e-100, 1e-300])
    def test_matches_quadrature_over_replicate_z(self, pi0):
        got = rpd_moments(pi0)
        ref = _rpd_moments_by_quad(pi0)
        for key, val in ref.items():
            assert got[key] == pytest.approx(val, rel=1e-9), key

    def test_far_tail_centres_on_the_initial_evidence(self):
        # the replicate z is symmetric about z0, so E[-log10 p] sits just above
        # -log10 pi0, which the old truncation at x = 60 lost
        for pi0, mean, sd in ((1e-60, 60.433, 10.153), (1e-100, 100.433, 13.129),
                              (1e-300, 300.434, 22.790)):
            m = rpd_moments(pi0)
            assert m["mean_log10"] == pytest.approx(mean, abs=5e-4)
            assert m["sd_log10"] == pytest.approx(sd, abs=5e-4)

    @pytest.mark.parametrize("pi0", [0.9, 0.33, 0.05, 1e-3, 1e-5])
    def test_mean_raw_closed_form(self, pi0):
        # E[2 Phi(-Z)] over all z is predictive_pi; for z < 0 the p-value is
        # 2 Phi(Z) instead, and the difference is two orthant probabilities of
        # (W + Z, Z) and (W - Z, Z) with W ~ N(0, 1) independent of Z ~ N(z0, 2)
        z0 = stats.norm.isf(pi0 / 2.0)
        rho = 2.0 / math.sqrt(6.0)
        h, k = z0 / math.sqrt(3.0), -z0 / math.sqrt(2.0)
        correction = 2.0 * (_normal_orthant(-h, k, rho) - _normal_orthant(h, k, -rho))
        expected = predictive_pi(pi0) - correction
        assert rpd_moments(pi0)["mean_raw"] == pytest.approx(expected, rel=1e-12)

    def test_curve_cap_sets_the_tabulation_only(self):
        short, long = rpd_curve(1e-3, cap=10.0, resolution=101), rpd_curve(1e-3, cap=30.0)
        assert short.grid[-1] == 10.0
        assert (short.mean_log10, short.sd_log10, short.mean_raw, short.sd_raw) == (
            long.mean_log10, long.sd_log10, long.mean_raw, long.sd_raw)

    def test_validation(self):
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(pg.DomainError):
                rpd_moments(bad)


class TestHarness:
    def test_deterministic_given_seed(self, credence_primary):
        data, fit = credence_primary
        reports = []
        for _ in range(2):
            cfg = ReplicationConfig(n_sim=150, seed=pg.RngStream(77))
            reports.append(run_replication(fit, "poisson", "log", data, cfg))
        a, b = reports
        assert np.array_equal(a.summaries["ml_mean"], b.summaries["ml_mean"])
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra["ml_estimates"], rb["ml_estimates"])

    def test_estimator_dispersion_doubles(self, credence_primary):
        # marginal variance of the replicate estimator is twice the initial one
        data, fit = credence_primary
        cfg = ReplicationConfig(n_sim=2000, seed=pg.RngStream(5))
        rep = run_replication(fit, "poisson", "log", data, cfg)
        ratio = rep.summaries["ml_var"][1] / (2.0 * fit.cov_unscaled[1, 1])
        assert ratio == pytest.approx(1.0, abs=0.12)

    def test_weighted_poisson_replicates_have_twice_the_model_variance(self):
        # prior weights are exposures: a replicate count is Poisson(w mu) and
        # its rate y = count / w, so the replicate ML estimate varies as 2 se^2
        X = np.column_stack([np.ones(6), [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]])
        data = ModelData(y=np.array([3.0, 5.0, 4.0, 9.0, 7.0, 8.0]), X=X,
                         weights=np.full(6, 4.0))
        fit = fit_irls("poisson", "log", data)
        rep = run_replication(fit, "poisson", "log", data,
                              ReplicationConfig(n_sim=2000, seed=pg.RngStream(5)))
        est = np.array([r["ml_estimates"][1] for r in rep.records if not r["failed"]])
        var = est.var(ddof=1)
        m4 = np.mean((est - est.mean()) ** 4)
        target = 2.0 * fit.cov_unscaled[1, 1]
        assert abs(var - target) < 5.0 * math.sqrt((m4 - var ** 2) / len(est))

    @pytest.mark.parametrize("outcome", [("CREDENCE", "primary"), ("DAPA-CKD", "primary")])
    def test_replicate_p_matches_the_exact_lattice(self, trial_records, outcome):
        # oracle: the exact law of -log10 p_rep over the Poisson-lognormal count
        # pairs (tests/exact.py). Both step CDFs are flat between atoms, so the
        # KS distance is their largest gap at the midpoints; the bound is the DKW
        # band at level 1e-6, which holds for discrete laws too
        data, _ = pg.trial_model_data(trial_records, *outcome)
        fit = fit_irls("poisson", "log", data)
        rep = run_replication(fit, "poisson", "log", data,
                              ReplicationConfig(n_sim=100_000, seed=pg.RngStream(1)))
        x = np.sort([-math.log10(r["ml_p"][-1]) for r in rep.records if not r["failed"]])
        atoms, cdf, kept = harness_lattice(*two_arm_counts(data))
        assert rep.summaries["fraction_failed"] == pytest.approx(1.0 - kept, abs=1e-6)
        apart = np.diff(atoms) > 1e-9
        mids = (atoms[:-1] + atoms[1:])[apart] / 2.0
        ks = np.max(np.abs(cdf[:-1][apart] - np.searchsorted(x, mids, side="right") / x.size))
        assert ks < math.sqrt(math.log(2e6) / 2.0) / math.sqrt(x.size)

    def test_far_tail_quantiles_follow_each_replicate_z(self):
        # 3000 against 9000 events: every replicate p underflows past the
        # smallest normal double (-log10 p near 590). Oracle: each replicate's
        # counts, read back from its estimates, give its Wald z, and scipy's
        # log survival function its -log10 p
        e = 5000.0
        data = ModelData(y=np.array([3000.0, 9000.0]), X=np.array([[1.0, 1.0], [1.0, 0.0]]),
                         offset=np.full(2, math.log(e)))
        fit = fit_irls("poisson", "log", data)
        rep = run_replication(fit, "poisson", "log", data,
                              ReplicationConfig(n_sim=400, seed=pg.RngStream(3)))
        good = [r for r in rep.records if not r["failed"]]
        assert len(good) == 400 and all(r["ml_p"][1] < np.finfo(float).tiny for r in good)
        b = np.array([r["ml_estimates"] for r in good])
        y0, y1 = np.rint(e * np.exp(b[:, 0])), np.rint(e * np.exp(b[:, 0] + b[:, 1]))
        z = np.log(y1 / y0) / np.sqrt(1.0 / y1 + 1.0 / y0)
        x = -(math.log(2.0) + stats.norm.logsf(np.abs(z))) / math.log(10.0)
        for q, got in rep.summaries["neglog10_p_quantiles"].items():
            assert got == pytest.approx(np.quantile(x, q), rel=1e-9)
        assert rep.summaries["neglog10_p_quantiles"][0.05] > 500.0

    def test_records_are_built_once_on_first_read(self, credence_primary):
        data, fit = credence_primary
        rep = run_replication(fit, "poisson", "log", data,
                              ReplicationConfig(n_sim=150, seed=pg.RngStream(4)))
        assert "records" not in vars(rep)
        assert rep.records is rep.records
        r = next(r for r in rep.records if not r["failed"])
        r["ml_p"] = r["ml_p"] * 10.0
        r["note"] = "edited"
        again = rep.records[r["replicate"]]
        assert again["note"] == "edited" and np.array_equal(again["ml_p"], r["ml_p"])
        k = int(np.searchsorted(rep.kept, r["replicate"]))
        assert np.array_equal(rep.results["ml_p"][k] * 10.0, r["ml_p"])

    def test_report_keeps_no_per_replicate_objects(self, credence_primary):
        # one dict of numpy objects per replicate would hold about 72 MB at
        # this size; the arrays hold about 7 MB
        data, fit = credence_primary
        tracemalloc.start()
        try:
            rep = run_replication(fit, "poisson", "log", data,
                                  ReplicationConfig(n_sim=100_000, seed=pg.RngStream(7)))
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "records" not in vars(rep)
        assert retained < 15e6

    def test_event_guard_excludes_and_reports(self):
        # tiny rates: many replicates produce zero counts and must be excluded
        data = ModelData(y=np.array([2.0, 2.0]), X=np.array([[1.0, 1.0], [1.0, 0.0]]))
        fit = fit_irls("poisson", "log", data)
        cfg = ReplicationConfig(n_sim=300, seed=pg.RngStream(8))
        rep = run_replication(fit, "poisson", "log", data, cfg)
        assert rep.summaries["fraction_failed"] > 0.05
        excluded = [r for r in rep.records if r["failed"]]
        assert all(r["failure_reason"] for r in excluded)
        assert all("ml_p" not in r for r in excluded)

    def test_unknown_scale_uses_scale_marginal(self, rng):
        n = 30
        X = np.column_stack([np.ones(n), np.linspace(-1, 1, n)])
        y = X @ np.array([0.5, 1.0]) + rng.standard_normal(n) * 2.0
        data = ModelData(y=y, X=X)
        fit = fit_irls("gaussian", "identity", data)
        cfg = ReplicationConfig(n_sim=1000, seed=pg.RngStream(9))
        rep = run_replication(fit, "gaussian", "identity", data, cfg)
        # estimator dispersion doubles here too, now with the scale drawn
        # from its marginal each replicate
        ratio = rep.summaries["ml_var"][1] / (
            2.0 * (fit.deviance / (n - 2)) * fit.cov_unscaled[1, 1]
        )
        assert ratio == pytest.approx(1.0, abs=0.35)

    def test_uniform_scale_prior_rescales_marginal(self, rng):
        # scaled-inverse-chi-square(dof, D/dof) has mean D/(dof - 2); the
        # uniform scale prior gives laplace_posterior's dof = n-p-2, and the
        # scale must follow the dof
        n = 30
        X = np.column_stack([np.ones(n), np.linspace(-1, 1, n)])
        y = X @ np.array([0.5, 1.0]) + rng.standard_normal(n)
        data = ModelData(y=y, X=X)
        fit = fit_irls("gaussian", "identity", data)
        dof = n - 4
        prior = pg.ScalePriorSpec("uniform")
        cfg = ReplicationConfig(n_sim=2000, seed=pg.RngStream(10), scale_prior=prior)
        rep = run_replication(fit, "gaussian", "identity", data, cfg)
        phi = np.array([r["phi_g"] for r in rep.records])
        # relative Monte Carlo error of the mean is sqrt(2/(dof-4)/2000) ~ 0.7%
        assert phi.mean() == pytest.approx(fit.deviance / (dof - 2), rel=0.025)

    def test_bayes_analysis_route(self, credence_primary):
        data, fit = credence_primary
        cfg = ReplicationConfig(n_sim=100, seed=pg.RngStream(21),
                                analyses=("ml", "bayes_flat"))
        rep = run_replication(fit, "poisson", "log", data, cfg)
        med = rep.summaries["bayes_flat_pi_median"]
        assert 0.0 < med < 1.0
        # the two analysis routes see the same data: medians agree in order of magnitude
        ml_med = 10 ** (-rep.summaries["neglog10_p_quantiles"][0.5])
        assert abs(math.log10(med) - math.log10(ml_med)) < 1.0

    def test_bayes_runs_on_the_replicates_ml_kept(self, trial_records, monkeypatch):
        # CREDENCE/dka has one placebo event; without the events guard many
        # replicates have none and fit at the boundary. The one batch fit
        # keeps the same replicates whether or not 'ml' is asked for, and the
        # order of the analysis tags changes nothing.
        data, _ = pg.trial_model_data(trial_records, "CREDENCE", "dka")
        fit = fit_irls("poisson", "log", data)
        monkeypatch.setattr(replication, "MIN_EVENTS", 0)
        a, b, c = (run_replication(fit, "poisson", "log", data,
                                   ReplicationConfig(n_sim=100, seed=pg.RngStream(6),
                                                     analyses=an))
                   for an in (("bayes_flat", "ml"), ("ml", "bayes_flat"), ("bayes_flat",)))
        ml_failed = [r for r in a.records if r["failure_reason"] == "boundary"]
        assert ml_failed and not any("bayes_flat_pi" in r for r in ml_failed)
        assert all("bayes_flat_pi" in r for r in a.records if not r["failed"])
        assert pg.to_json_text(a.summaries) == pg.to_json_text(b.summaries)
        assert [r["failure_reason"] for r in c.records] == [r["failure_reason"] for r in a.records]
        assert [r.get("bayes_flat_pi") for r in c.records] == [
            r.get("bayes_flat_pi") for r in a.records]
        assert not any("ml_p" in r for r in c.records)
        assert c.summaries["fraction_failed"] == a.summaries["fraction_failed"]

    def test_bayes_pi_matches_wald_p_at_the_fitted_scale(self):
        # gaussian/identity with unknown scale (phi_hat = 32.6): under a flat
        # prior at a replicate's plug-in scale phi_r the posterior of beta is
        # N(beta_hat_r, phi_r (X'X)^-1), so its grid pi is its Wald p up to the
        # 201^2 grid's error; a grid at phi = 1 gives pi = 0 here
        n = 30
        X = np.column_stack([np.ones(n), np.linspace(-1, 1, n)])
        y = X @ np.array([0.5, 3.0]) + 5.0 * np.random.default_rng(3).standard_normal(n)
        data = ModelData(y=y, X=X)
        fit = fit_irls("gaussian", "identity", data)
        rep = run_replication(fit, "gaussian", "identity", data,
                              ReplicationConfig(n_sim=300, seed=pg.RngStream(3),
                                                analyses=("ml", "bayes_flat")))
        assert rep.summaries["fraction_failed"] == 0.0
        rel = np.array([abs(r["bayes_flat_pi"] / r["ml_p"][1] - 1.0) for r in rep.records])
        assert rel.max() < 0.2
        assert np.median(rel) < 0.02

    def test_student_t_prior_sits_on_the_target(self, credence_primary):
        # the treatment column first, so the target is not the last coefficient:
        # the harness's pi for a replicate is grid_posterior's with the t prior
        # on the target, and not the pi with the prior on the intercept
        data, _ = credence_primary
        data = dataclasses.replace(data, X=data.X[:, ::-1])
        fit = fit_irls("poisson", "log", data)
        cfg = ReplicationConfig(n_sim=100, seed=pg.RngStream(12), target_index=0,
                                analyses=(("bayes_student_t", 3.0, 0.5),))
        rep = run_replication(fit, "poisson", "log", data, cfg)
        r = next(r["replicate"] for r in rep.records if not r["failed"])
        _, _, y, _ = replication._simulate(pg.glm.FAMILIES["poisson"], pg.glm.LINKS["log"],
                                           data, fit, None, cfg)
        ll = pg.vectorized_loglik("poisson", "log", dataclasses.replace(data, y=y[r]))
        bounds = [(b - 8.0 * s, b + 8.0 * s) for b, s in zip(fit.beta_hat, fit.se())]
        prior = pg.PriorSpec("test_invchisq", beta0=0.0, nu0=3.0, s=0.5)
        on_target, on_intercept = (
            pg.pi_value_from_grid(pg.grid_posterior(ll, priors, bounds,
                                                    resolution=replication.BAYES_RESOLUTION),
                                  0).p_or_pi
            for priors in ([prior, None], [None, prior]))
        assert rep.records[r]["bayes_student_t_pi"] == on_target
        assert on_target != pytest.approx(on_intercept, rel=0.05)

    def test_failure_counts_sum_to_the_failed_fraction(self, trial_records, monkeypatch):
        # CREDENCE/dka without the events guard: boundary fits among others;
        # the counts sit beside the summaries, so the CLI JSON does not change
        data, _ = pg.trial_model_data(trial_records, "CREDENCE", "dka")
        fit = fit_irls("poisson", "log", data)
        monkeypatch.setattr(replication, "MIN_EVENTS", 0)
        rep = run_replication(fit, "poisson", "log", data,
                              ReplicationConfig(n_sim=400, seed=pg.RngStream(6)))
        counts = rep.failure_counts
        assert counts.get("boundary", 0) > 0 and "failure_counts" not in rep.summaries
        assert sum(counts.values()) == round(rep.summaries["fraction_failed"] * 400)
        for reason, count in counts.items():
            assert count == sum(r["failure_reason"] == reason for r in rep.records)

    def test_unknown_scale_needs_residual_dof(self, monkeypatch):
        # n == p leaves the scale marginal no dof: a specific error, raised
        # before any replicate is simulated
        data = ModelData(y=np.array([1.0, 3.0]), X=np.array([[1.0, 1.0], [1.0, 0.0]]))
        fit = fit_irls("gaussian", "identity", data)

        def no_simulation(*args, **kwargs):
            raise RuntimeError("replicate simulated")

        monkeypatch.setattr(replication, "_simulate", no_simulation)
        with pytest.raises(pg.DegreesOfFreedomError):
            run_replication(fit, "gaussian", "identity", data,
                            ReplicationConfig(n_sim=100, seed=pg.RngStream(1)))

    def test_boundary_initial_rejected(self, dapa_dka):
        data, fit = dapa_dka
        with pytest.raises(pg.BoundaryError):
            run_replication(fit, "poisson", "log", data,
                            ReplicationConfig(n_sim=100, seed=pg.RngStream(1)))

    def test_all_failures_raise(self, monkeypatch):
        data = ModelData(y=np.array([2.0, 3.0]), X=np.array([[1.0, 1.0], [1.0, 0.0]]))
        fit0 = fit_irls("poisson", "log", data)
        # a guard far above the attainable counts trips on every replicate
        monkeypatch.setattr(replication, "MIN_EVENTS", 1000)
        with pytest.raises(pg.HarnessError):
            run_replication(fit0, "poisson", "log", data,
                            ReplicationConfig(n_sim=100, seed=pg.RngStream(2)))

    def test_config_validation(self):
        with pytest.raises(pg.DomainError):
            ReplicationConfig(n_sim=50, seed=pg.RngStream(1))
        with pytest.raises(pg.DomainError):
            ReplicationConfig(n_sim=100, seed=pg.RngStream(1), analyses=())
        with pytest.raises(pg.DomainError):
            ReplicationConfig(n_sim=100, seed=pg.RngStream(1), n_workers=2)

    @pytest.mark.parametrize("analyses", [
        ("mle",),
        ("ml", "bayes_t"),
        (("bayes_student_t", 2.5),),
        (("bayes_student_t", 0.0, 1.0),),
        ("ml", ("bayes_student_t", 2.5, -1.0)),
    ])
    def test_unknown_analysis_rejected_by_the_config(self, analyses):
        # at construction, before any replicate is simulated
        with pytest.raises(pg.DomainError):
            ReplicationConfig(n_sim=100, seed=pg.RngStream(1), analyses=analyses)

    def test_known_analyses_accepted(self):
        cfg = ReplicationConfig(n_sim=100, seed=pg.RngStream(1),
                                analyses=("ml", "bayes_flat", ("bayes_student_t", 2.5, 1.0)))
        assert len(cfg.analyses) == 3

    @pytest.mark.parametrize("analyses", [("ml",), ("bayes_flat",)])
    def test_target_index_checked_before_simulation(self, credence_primary, monkeypatch,
                                                    analyses):
        data, fit = credence_primary

        def no_simulation(*args, **kwargs):
            raise RuntimeError("replicate simulated")

        monkeypatch.setattr(replication, "_simulate", no_simulation)
        for bad in (2, 5, -3):
            cfg = ReplicationConfig(n_sim=100, seed=pg.RngStream(4), analyses=analyses,
                                    target_index=bad)
            with pytest.raises(pg.DomainError, match="target_index"):
                run_replication(fit, "poisson", "log", data, cfg)
        # the flat grid sums the intercept (index -2) out; the test below covers that
        for good in (-2, 1) if analyses == ("ml",) else (-1, 1):
            cfg = ReplicationConfig(n_sim=100, seed=pg.RngStream(4), analyses=analyses,
                                    target_index=good)
            with pytest.raises(RuntimeError, match="replicate simulated"):
                run_replication(fit, "poisson", "log", data, cfg)

    @pytest.mark.parametrize("target_index", [0, -2])
    def test_summed_intercept_target_rejected_before_simulation(self, credence_primary,
                                                                 monkeypatch, target_index):
        # a flat Bayes grid on a poisson/log model sums its intercept out, so
        # that target has no pi-value: the config fails before any replicate is drawn
        data, fit = credence_primary

        def no_simulation(*args, **kwargs):
            raise RuntimeError("replicate simulated")

        monkeypatch.setattr(replication, "_simulate", no_simulation)
        cfg = ReplicationConfig(n_sim=100, seed=pg.RngStream(4), analyses=("ml", "bayes_flat"),
                                target_index=target_index)
        with pytest.raises(pg.DomainError, match="intercept"):
            run_replication(fit, "poisson", "log", data, cfg)
        # a proper prior on the target keeps the intercept on the grid
        for analyses in (("ml",), (("bayes_student_t", 2.5, 1.0),)):
            cfg = dataclasses.replace(cfg, analyses=analyses)
            with pytest.raises(RuntimeError, match="replicate simulated"):
                run_replication(fit, "poisson", "log", data, cfg)

    @pytest.mark.parametrize("family,link,weights", [
        ("binomial", "logit", np.full(16, 40.0)),
        ("gamma", "log", None),
    ])
    def test_estimator_dispersion_doubles_other_families(self, family, link, weights):
        # the replicate estimator is N(beta_init, 2 Sigma) marginally; the gamma
        # scale is drawn from its marginal each replicate, whose mean is D/(n-p-2)
        n, arm = 16, np.repeat([1.0, 0.0], 8)
        X = np.column_stack([np.ones(n), arm])
        gen = np.random.default_rng(4)
        if family == "binomial":
            y = gen.binomial(40, 0.3 + 0.2 * arm) / 40.0
        else:
            y = gen.gamma(4.0, (1.0 + arm) / 4.0)
        data = ModelData(y=y, X=X, weights=weights)
        fit = fit_irls(family, link, data)
        rep = run_replication(fit, family, link, data,
                              ReplicationConfig(n_sim=1000, seed=pg.RngStream(13)))
        assert rep.summaries["fraction_failed"] == 0.0
        phi = 1.0 if family == "binomial" else fit.deviance / (n - 2 - 2)
        ratio = rep.summaries["ml_var"][1] / (2.0 * phi * fit.cov_unscaled[1, 1])
        # over replicate seeds 10-19 the ratio spreads with sd near 0.05
        assert ratio == pytest.approx(1.0, abs=0.2)

    @pytest.mark.parametrize("family,link,weights,draw", [
        ("poisson", "identity", None, lambda gen, arm: gen.poisson(6.0 + 4.0 * arm)),
        ("binomial", "log", np.full(16, 40.0),
         lambda gen, arm: gen.binomial(40, 0.3 + 0.2 * arm) / 40.0),
        ("gaussian", "log", None,
         lambda gen, arm: np.exp(1.0 + 0.5 * arm) + 0.3 * gen.standard_normal(arm.size)),
        ("gamma", "identity", None, lambda gen, arm: gen.gamma(16.0, (1.0 + arm) / 16.0)),
    ])
    def test_replicates_follow_the_fitted_link(self, family, link, weights, draw,
                                               monkeypatch):
        # replicates simulated through the fitted link are fitted back on
        # target: the mean ML estimate sits on the mean generating beta. The
        # event guard is off, so no replicate is dropped for a zero count.
        n, arm = 16, np.repeat([1.0, 0.0], 8)
        X = np.column_stack([np.ones(n), arm])
        data = ModelData(y=draw(np.random.default_rng(4), arm).astype(float), X=X,
                         weights=weights)
        fit = fit_irls(family, link, data)
        monkeypatch.setattr(replication, "MIN_EVENTS", 0)
        rep = run_replication(fit, family, link, data,
                              ReplicationConfig(n_sim=1000, seed=pg.RngStream(13)))
        good = [r for r in rep.records if not r["failed"]]
        est = np.array([r["ml_estimates"] for r in good])
        beta_g = np.array([r["beta_g"] for r in good])
        mcse = est.std(axis=0, ddof=1) / math.sqrt(len(good))
        assert np.all(np.abs(est.mean(axis=0) - beta_g.mean(axis=0)) < 5.0 * mcse)
        assert rep.summaries["fraction_failed"] == 0.0

    def test_generating_mean_outside_the_domain_has_its_own_reason(self):
        # gamma/identity, shape 4: replicate 89 draws beta_g = (1.242, -1.519),
        # so the treated arm's generating mean is -0.276
        n, arm = 16, np.repeat([1.0, 0.0], 8)
        X = np.column_stack([np.ones(n), arm])
        data = ModelData(y=np.random.default_rng(4).gamma(4.0, (1.0 + arm) / 4.0), X=X)
        fit = fit_irls("gamma", "identity", data)
        rep = run_replication(fit, "gamma", "identity", data,
                              ReplicationConfig(n_sim=200, seed=pg.RngStream(16)))
        failed = [r for r in rep.records if r["failed"]]
        assert [r["replicate"] for r in failed] == [89]
        assert failed[0]["failure_reason"] == "mean outside family domain"
        assert failed[0]["beta_g"] == pytest.approx([1.2423, -1.5188], abs=1e-4)
        # a mean inside the domain that the sampler cannot draw from is overflow:
        # e^70 is past numpy's poisson limit, so Family.simulate returns NaN
        counts = ModelData(y=np.array([3.0, 5.0]), X=np.array([[1.0, 1.0], [1.0, 0.0]]))
        far = dataclasses.replace(fit_irls("poisson", "log", counts),
                                  beta_hat=np.array([70.0, 0.0]))
        _, _, y, reasons = replication._simulate(
            pg.glm.FAMILIES["poisson"], pg.glm.LINKS["log"], counts, far, None,
            ReplicationConfig(n_sim=100, seed=pg.RngStream(1)))
        assert np.isnan(y).all()
        assert set(reasons) == {"simulation overflow"}

    @pytest.mark.parametrize("family,link", [("poisson", "log"), ("gamma", "log")])
    def test_replicate_draws_do_not_depend_on_n_sim(self, trial_records, family, link):
        # each purpose draws one row per replicate from its own stream, so the
        # first 100 replicates of 300 are the replicates of a 100-replicate run
        if family == "poisson":
            # CREDENCE/dka: four in ten replicates have too few events
            data, _ = pg.trial_model_data(trial_records, "CREDENCE", "dka")
        else:
            arm = np.repeat([1.0, 0.0], 8)
            data = ModelData(y=np.random.default_rng(4).gamma(4.0, (1.0 + arm) / 4.0),
                             X=np.column_stack([np.ones(16), arm]))
        fit = fit_irls(family, link, data)
        short, long = (run_replication(fit, family, link, data,
                                       ReplicationConfig(n_sim=n_sim, seed=pg.RngStream(3))
                                       ).records
                       for n_sim in (100, 300))
        assert any(r["failed"] for r in short) == (family == "poisson")
        for a, b in zip(short, long):
            assert a["failure_reason"] == b["failure_reason"]
            assert np.array_equal(a["beta_g"], b["beta_g"]) and a["phi_g"] == b["phi_g"]
            assert ("ml_estimates" in a) == ("ml_estimates" in b) == (not a["failed"])
            if not a["failed"]:
                assert np.array_equal(a["ml_estimates"], b["ml_estimates"])

    def test_unrelated_errors_propagate(self, credence_primary, monkeypatch):
        data, fit = credence_primary

        def broken(*args, **kwargs):
            raise RuntimeError("not a fit outcome")

        monkeypatch.setattr(replication, "fit_irls_batch", broken)
        with pytest.raises(RuntimeError, match="not a fit outcome"):
            run_replication(fit, "poisson", "log", data,
                            ReplicationConfig(n_sim=100, seed=pg.RngStream(3)))

    def test_failure_reasons_follow_the_fit_outcome(self, monkeypatch):
        X = np.column_stack([np.ones(4), np.repeat([1.0, 0.0], 2)])
        Y = np.array([[3.0, 5.0, 7.0, 4.0],      # converges
                      [0.0, 0.0, 6.0, 4.0],      # diverges past the guard
                      [2.0, np.nan, 3.0, 2.0],   # no step possible
                      [9.0, 8.0, 4.0, 5.0]])
        bf = fit_irls_batch("poisson", "log", Y, X)
        assert list(replication._fit_failure_reasons(bf)) == ["", "boundary", "fit error", ""]
        monkeypatch.setattr(pg.glm, "IRLS_MAX_ITER", 4)
        bf = fit_irls_batch("poisson", "log", Y, X)
        assert list(replication._fit_failure_reasons(bf)) == [
            "", "non-convergence", "fit error", ""]
