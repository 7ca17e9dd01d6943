import math

import numpy as np
import pytest
from scipy import integrate, stats

import piglm as pg
from piglm.glm import ModelData, fit_irls
from piglm.replication import (
    ReplicationConfig,
    TranslationKernel,
    predictive_pi,
    predictive_posterior,
    rpd_cdf,
    rpd_curve,
    rpd_median,
    rpd_moments,
    rpd_pdf,
    run_replication,
)


class TestPredictive:
    def test_covariance_inflation_factors(self, credence_primary):
        data, fit = credence_primary
        out = predictive_posterior(fit)
        assert out["predictive"].cov == pytest.approx(3.0 * fit.cov_unscaled, rel=1e-12)
        assert out["replicate_estimator"].cov == pytest.approx(2.0 * fit.cov_unscaled, rel=1e-12)
        assert out["predictive"].mean == pytest.approx(fit.beta_hat)

    def test_boundary_rejected(self, dapa_dka):
        data, fit = dapa_dka
        with pytest.raises(pg.BoundaryError):
            predictive_posterior(fit)

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
        with pytest.raises(pg.DomainError):
            rpd_pdf(-0.5, 0.01)
        with pytest.raises(pg.DomainError):
            rpd_pdf(1.0, 0.0)


class TestKernel:
    def test_exact_passthrough(self):
        k = TranslationKernel()
        rng = np.random.default_rng(0)
        beta, phi = k.apply(np.array([1.0, 2.0]), 0.5, np.array([0.1, 0.1]), rng)
        assert beta == pytest.approx([1.0, 2.0])
        assert phi == 0.5

    def test_gaussian_bias_and_inflation(self):
        k = TranslationKernel(kind="gaussian", bias=np.array([10.0, 0.0]),
                              inflation=np.array([1.0, 2.0]))
        rng = np.random.default_rng(0)
        draws = np.array([
            k.apply(np.zeros(2), 1.0, np.ones(2), np.random.default_rng(i))[0]
            for i in range(4000)
        ])
        assert draws[:, 0].mean() == pytest.approx(10.0, abs=0.1)
        assert draws[:, 1].std() == pytest.approx(2.0, rel=0.05)

    def test_validation(self):
        with pytest.raises(pg.DomainError):
            TranslationKernel(kind="bootstrap")
        with pytest.raises(pg.DomainError):
            TranslationKernel(kind="gaussian", inflation=np.array([0.0]))


class TestHarness:
    def test_deterministic_and_worker_invariant(self, credence_primary):
        data, fit = credence_primary
        reports = []
        for workers in (1, 3):
            cfg = ReplicationConfig(n_sim=150, seed=pg.RngStream(77), n_workers=workers)
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

    def test_scale_dof_override_rescales_marginal(self, rng):
        # scaled-inverse-chi-square(dof, D/dof) has mean D/(dof - 2); with
        # dof = n-p-2 (uniform scale prior) the scale must follow the dof
        n = 30
        X = np.column_stack([np.ones(n), np.linspace(-1, 1, n)])
        y = X @ np.array([0.5, 1.0]) + rng.standard_normal(n)
        data = ModelData(y=y, X=X)
        fit = fit_irls("gaussian", "identity", data)
        dof = n - 4
        cfg = ReplicationConfig(n_sim=2000, seed=pg.RngStream(10), scale_dof=dof)
        rep = run_replication(fit, "gaussian", "identity", data, cfg)
        phi = np.array([r["phi_g"] for r in rep.records])
        # relative Monte Carlo error of the mean is sqrt(2/(dof-4)/2000) ~ 0.7%
        assert phi.mean() == pytest.approx(fit.deviance / (dof - 2), rel=0.025)

    def test_bayes_analysis_route(self, credence_primary):
        data, fit = credence_primary
        cfg = ReplicationConfig(n_sim=100, seed=pg.RngStream(21),
                                analyses=("ml", "bayes_flat"),
                                bayes_resolution=101)
        rep = run_replication(fit, "poisson", "log", data, cfg)
        med = rep.summaries["bayes_flat_pi_median"]
        assert 0.0 < med < 1.0
        # the two analysis routes see the same data: medians agree in order of magnitude
        ml_med = 10 ** (-rep.summaries["neglog10_p_quantiles"][0.5])
        assert abs(math.log10(med) - math.log10(ml_med)) < 1.0

    def test_boundary_initial_rejected(self, dapa_dka):
        data, fit = dapa_dka
        with pytest.raises(pg.BoundaryError):
            run_replication(fit, "poisson", "log", data,
                            ReplicationConfig(n_sim=100, seed=pg.RngStream(1)))

    def test_all_failures_raise(self):
        data = ModelData(y=np.array([2.0, 3.0]), X=np.array([[1.0, 1.0], [1.0, 0.0]]))
        fit0 = fit_irls("poisson", "log", data)
        # a guard far above the attainable counts trips on every replicate
        with pytest.raises(pg.HarnessError):
            run_replication(fit0, "poisson", "log", data,
                            ReplicationConfig(n_sim=100, seed=pg.RngStream(2),
                                              min_events_guard=1000))

    def test_config_validation(self):
        with pytest.raises(pg.DomainError):
            ReplicationConfig(n_sim=50, seed=pg.RngStream(1))
        with pytest.raises(pg.DomainError):
            ReplicationConfig(n_sim=100, seed=pg.RngStream(1), analyses=())
