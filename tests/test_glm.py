import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import piglm as pg
from scipy import linalg

from piglm.glm import (BOUNDARY_GUARD, FAMILIES, LINKS, ModelData,
                       fit_irls, fit_irls_batch, score)


def _poisson_2x2(y1, y0, e1, e0, scale=1000.0):
    data = ModelData(
        y=np.array([float(y1), float(y0)]),
        X=np.array([[1.0, 1.0], [1.0, 0.0]]),
        offset=np.log(np.array([e1, e0]) / scale),
    )
    return data


class TestFitClosedForms:
    def test_rate_ratio_closed_form(self, credence_primary):
        # saturated two-cell Poisson model: the MLE is the observed log rates,
        # derived by hand from the score equations
        data, fit = credence_primary
        b1 = math.log((245.0 / 5671.296) / (340.0 / 5555.556))
        b0 = math.log(340.0 / 5555.556 * 1000.0)
        assert fit.converged and not fit.boundary
        assert fit.beta_hat == pytest.approx([b0, b1], abs=1e-10)
        # Fisher information gives Var(b1) = 1/y1 + 1/y0 for this design
        assert fit.se(1.0)[1] == pytest.approx(math.sqrt(1 / 245 + 1 / 340), rel=1e-10)
        assert fit.deviance == pytest.approx(0.0, abs=1e-8)

    def test_gaussian_equals_least_squares(self, rng):
        X = np.column_stack([np.ones(30), rng.standard_normal(30), rng.uniform(-1, 1, 30)])
        y = X @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(30)
        fit = fit_irls("gaussian", "identity", ModelData(y=y, X=X))
        beta_ls, *_ = np.linalg.lstsq(X, y, rcond=None)
        assert fit.beta_hat == pytest.approx(beta_ls, abs=1e-10)
        assert fit.cov_unscaled == pytest.approx(np.linalg.inv(X.T @ X), abs=1e-10)

    def test_binomial_logit_matches_proportion(self):
        # single-cell fit: mu_hat must equal the observed proportion
        data = ModelData(y=np.array([0.3]), X=np.array([[1.0]]), weights=np.array([50.0]))
        fit = fit_irls("binomial", "logit", data)
        assert fit.beta_hat[0] == pytest.approx(math.log(0.3 / 0.7), abs=1e-10)

    def test_offset_shifts_intercept_only(self, rng):
        y = rng.poisson(5.0, 12).astype(float) + 1.0
        X = np.column_stack([np.ones(12), np.linspace(-1, 1, 12)])
        f0 = fit_irls("poisson", "log", ModelData(y=y, X=X))
        f1 = fit_irls("poisson", "log", ModelData(y=y, X=X, offset=np.full(12, 2.0)))
        assert f1.beta_hat[0] == pytest.approx(f0.beta_hat[0] - 2.0, abs=1e-8)
        assert f1.beta_hat[1] == pytest.approx(f0.beta_hat[1], abs=1e-8)


class TestScoreAndLikelihood:
    @pytest.mark.parametrize("family,link", [("poisson", "log"), ("gamma", "log"),
                                             ("binomial", "logit")])
    def test_score_matches_finite_differences(self, family, link, rng):
        n = 25
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        beta = np.array([0.3, -0.4])
        if family == "binomial":
            data = ModelData(y=rng.integers(1, 20, n) / 20.0, X=X,
                             weights=np.full(n, 20.0))
        elif family == "gamma":
            data = ModelData(y=rng.gamma(4.0, 0.5, n), X=X)
        else:
            data = ModelData(y=rng.poisson(3.0, n).astype(float), X=X)
        phi = 0.7 if family == "gamma" else 1.0
        s = score(family, link, beta, phi, data)
        h = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (pg.log_likelihood(family, link, beta + e, phi, data)
                  - pg.log_likelihood(family, link, beta - e, phi, data)) / (2 * h)
            assert s[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_score_zero_at_mle(self, credence_primary):
        data, fit = credence_primary
        s = score("poisson", "log", fit.beta_hat, 1.0, data)
        assert np.max(np.abs(s)) < 1e-8

    def test_weighted_poisson_score_is_the_loglik_gradient(self):
        # prior weights scale each log-likelihood term, as they scale the score
        X = np.column_stack([np.ones(6), [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]])
        data = ModelData(y=np.array([3.0, 5.0, 4.0, 9.0, 7.0, 8.0]), X=X,
                         weights=np.array([2.0, 1.0, 3.0, 0.5, 1.0, 0.25]))
        beta = fit_irls("poisson", "log", data).beta_hat
        s = score("poisson", "log", beta, 1.0, data)
        h = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (pg.log_likelihood("poisson", "log", beta + e, 1.0, data)
                  - pg.log_likelihood("poisson", "log", beta - e, 1.0, data)) / (2 * h)
            assert fd == pytest.approx(s[j], abs=1e-6)

    def test_poisson_loglik_is_exact_pmf(self):
        from scipy import stats

        data = ModelData(y=np.array([3.0, 7.0]), X=np.array([[1.0], [1.0]]))
        ll = pg.log_likelihood("poisson", "log", np.array([math.log(4.0)]), 1.0, data)
        assert ll == pytest.approx(stats.poisson.logpmf([3, 7], 4.0).sum(), abs=1e-12)

    def test_gamma_loglik_is_exact_density(self):
        from scipy import stats

        y = np.array([0.8, 2.5, 1.1])
        mu = 1.5
        phi = 0.4
        data = ModelData(y=y, X=np.ones((3, 1)))
        ll = pg.log_likelihood("gamma", "log", np.array([math.log(mu)]), phi, data)
        assert ll == pytest.approx(
            stats.gamma.logpdf(y, 1 / phi, scale=phi * mu).sum(), abs=1e-10
        )


class TestBoundary:
    def test_zero_events_flags_boundary(self, dapa_dka):
        data, fit = dapa_dka
        assert fit.boundary
        assert fit.scale is None

    def test_separation_flags_boundary(self):
        # perfectly separated logistic data
        data = ModelData(y=np.array([0.0, 0.0, 1.0, 1.0]),
                         X=np.column_stack([np.ones(4), [-2.0, -1.0, 1.0, 2.0]]),
                         weights=np.full(4, 1.0))
        fit = fit_irls("binomial", "logit", data)
        assert fit.boundary


class TestScaleEstimates:
    def test_gaussian_intercept_only_identities(self):
        data = ModelData(y=np.array([1.0, 2.0, 3.0]), X=np.ones((3, 1)))
        est = fit_irls("gaussian", "identity", data).scale
        assert est.phi_mom == pytest.approx(1.0, abs=1e-12)
        assert est.phi_eql == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert est.phi_dev == pytest.approx(1.0, abs=1e-12)

    def test_dev_eql_ratio_identity(self, rng):
        for n in (5, 12, 40):
            X = np.column_stack([np.ones(n), np.linspace(0, 1, n)])
            y = X @ np.array([1.0, 2.0]) + rng.standard_normal(n)
            data = ModelData(y=y, X=X)
            est = fit_irls("gaussian", "identity", data).scale
            assert est.phi_dev == pytest.approx(est.phi_eql * n / (n - 2), rel=1e-12)

    def test_gamma_profile_estimate_close_to_deviance_estimate(self):
        rng = np.random.default_rng(7)
        n = 40
        X = np.column_stack([np.ones(n), np.linspace(-1, 1, n)])
        y = rng.gamma(10.0, 0.1 * np.exp(X @ np.array([1.0, 0.5])))
        fit = fit_irls("gamma", "log", ModelData(y=y, X=X))
        # frozen oracle values for this seed, checked once by profiling the
        # exact gamma likelihood over phi with an independent golden-section search
        assert fit.scale.phi_dev == pytest.approx(0.098080, abs=1e-5)
        assert fit.scale.phi_mpl == pytest.approx(0.096450, abs=1e-5)
        assert abs(fit.scale.phi_mpl - fit.scale.phi_dev) / fit.scale.phi_dev < 0.05

    @pytest.mark.parametrize("shape,seed", [(10.0, 7), (0.8, 3), (40.0, 5)])
    def test_gamma_profile_estimate_oracle(self, shape, seed):
        from scipy import optimize

        gen = np.random.default_rng(seed)
        n = 40
        X = np.column_stack([np.ones(n), np.linspace(-1, 1, n)])
        y = gen.gamma(shape, np.exp(X @ np.array([1.0, 0.5])) / shape)
        data = ModelData(y=y, X=X)
        fit = fit_irls("gamma", "log", data)
        mu = np.exp(X @ fit.beta_hat)

        def profile(log_phi):
            # (p/2) log phi + l(phi) from the exact gamma log density
            return log_phi + float(np.sum(FAMILIES["gamma"].loglik(y, mu, math.exp(log_phi),
                                                                    data.weights)))

        lp = math.log(fit.scale.phi_mpl)
        # the score vanishes: the Newton step in log phi from central differences
        # is 1.6e-9 here, and 2.8e-8 for a phi off by 3e-8
        h = 1e-4
        d1 = (profile(lp + h) - profile(lp - h)) / (2.0 * h)
        d2 = (profile(lp + h) - 2.0 * profile(lp) + profile(lp - h)) / h**2
        assert d2 < 0.0
        assert abs(d1 / d2) < 5e-9
        # bounded Brent finds a flat maximum only to about
        # sqrt(eps |profile| / curvature), 3e-8 relative on these models
        res = optimize.minimize_scalar(lambda t: -profile(t), bounds=(lp - 5.0, lp + 5.0),
                                       method="bounded", options={"xatol": 1e-12})
        assert fit.scale.phi_mpl == pytest.approx(math.exp(res.x), rel=1e-7)

    @pytest.mark.parametrize("family,link", [("gaussian", "identity"), ("poisson", "log"),
                                             ("binomial", "logit")])
    def test_profile_estimate_closed_form(self, family, link):
        # (p-n)/2 log phi - D/(2 phi) peaks at D/(n-p)
        gen = np.random.default_rng(12)
        n = 30
        x = np.linspace(0.0, 2.0, n)
        X = np.column_stack([np.ones(n), x])
        w = gen.uniform(0.5, 2.0, n)
        if family == "gaussian":
            y = 1.0 + 0.5 * x + gen.standard_normal(n) / np.sqrt(w)
        elif family == "poisson":
            y, w = gen.poisson(np.exp(1.0 + 0.5 * x)).astype(float), None
        else:
            w = np.full(n, 20.0)
            y = gen.binomial(20, 0.3 + 0.1 * x) / 20.0
        data = ModelData(y=y, X=X, weights=w)
        est = fit_irls(family, link, data).scale
        assert est.phi_mpl == est.phi_dev

    def test_weighted_gamma_matches_scipy_density_and_profile(self):
        # prior weight w_i gives observation i shape w_i/phi and mean mu_i
        from scipy import optimize, stats

        gen = np.random.default_rng(31)
        n, phi = 400, 0.5
        X = np.column_stack([np.ones(n), np.linspace(-1, 1, n)])
        w = np.tile([4.0, 0.25], n // 2)
        mu0 = np.exp(X @ np.array([1.0, 0.5]))
        y = gen.gamma(w / phi, mu0 * phi / w)
        data = ModelData(y=y, X=X, weights=w)
        fit = fit_irls("gamma", "log", data)
        mu = np.exp(X @ fit.beta_hat)

        def oracle(phi):
            return float(np.sum(stats.gamma.logpdf(y, a=w / phi, scale=mu * phi / w)))

        for at in (0.3, 0.5, 1.7):
            ll = pg.log_likelihood("gamma", "log", fit.beta_hat, at, data)
            assert ll == pytest.approx(oracle(at), rel=1e-12)
        # maximize (p/2) log phi + l(phi) over log phi
        res = optimize.minimize_scalar(lambda t: -(t + oracle(math.exp(t))),
                                       bounds=(math.log(0.05), math.log(5.0)),
                                       method="bounded", options={"xatol": 1e-12})
        assert fit.scale.phi_mpl == pytest.approx(math.exp(res.x), rel=1e-7)
        assert fit.scale.phi_mpl == pytest.approx(phi, rel=0.1)

    def test_saturated_model_has_no_scale(self):
        data = ModelData(y=np.array([1.0, 2.0]), X=np.eye(2))
        assert fit_irls("gaussian", "identity", data).scale is None


class TestFamilySimulate:
    # two groups of means with their own prior weights (binomial trial counts,
    # poisson exposures)
    @pytest.mark.parametrize("family,mu,phi,weights", [
        ("gaussian", (-1.5, 3.0), 2.0, (4.0, 0.25)),
        ("poisson", (0.7, 25.0), 1.0, (4.0, 0.25)),
        ("binomial", (0.1, 0.55), 1.0, (5.0, 40.0)),
        ("gamma", (0.8, 6.0), 0.5, (4.0, 0.25)),
    ])
    def test_moments_match_mean_and_variance_function(self, family, mu, phi, weights):
        fam = FAMILIES[family]
        m = 100_000
        flat = fam.simulate(np.random.default_rng(19), np.repeat(mu, m), phi,
                            np.repeat(weights, m)).reshape(2, m)
        # replicates as rows: an (m, 2) mean array with an (m, 1) scale
        rows = fam.simulate(np.random.default_rng(19), np.tile(mu, (m, 1)), np.full((m, 1), phi),
                            np.array(weights))
        for y in (flat, rows.T):
            for yg, mu_g, w_g in zip(y, mu, weights):
                var = phi * float(fam.variance(np.array(mu_g))) / w_g
                assert abs(yg.mean() - mu_g) < 5.0 * math.sqrt(var / m)
                m4 = np.mean((yg - yg.mean()) ** 4)
                s2 = yg.var(ddof=1)
                assert abs(s2 - var) < 5.0 * math.sqrt((m4 - s2 ** 2) / m)

    def test_poisson_past_the_sampler_limit_is_nan(self):
        # numpy's poisson sampler takes means up to about 9.22e18
        mu = np.array([[3.0, 9.2e18], [9.3e18, np.inf]])
        y = FAMILIES["poisson"].simulate(np.random.default_rng(0), mu, 1.0, np.ones(2))
        assert np.isfinite(y[0]).all() and np.isnan(y[1]).all()
        # the limit is on w mu, the count's mean
        y = FAMILIES["poisson"].simulate(np.random.default_rng(0), mu[1, :1], 1.0,
                                         np.array([1e-3]))
        assert np.isfinite(y).all()

    def test_event_counts_only_for_discrete_families(self):
        y, w = np.array([0.25, 0.5]), np.array([4.0, 8.0])
        assert FAMILIES["gaussian"].event_counts is None
        assert FAMILIES["gamma"].event_counts is None
        assert np.array_equal(FAMILIES["poisson"].event_counts(y, w), [1.0, 4.0])
        assert np.array_equal(FAMILIES["binomial"].event_counts(y, w), [1.0, 4.0])

    @pytest.mark.parametrize("name", ["poisson", "binomial"])
    def test_event_counts_are_whole_where_the_product_falls_short(self, name):
        # the nine (k <= 5, w < 100) pairs where (k/w)*w lands below k, such as
        # (1/49)*49 = 0.9999999999999999: one event must still count as one
        k, w = np.array([(1, 49), (1, 98), (2, 49), (2, 98), (3, 47), (3, 94), (4, 49),
                         (4, 98), (5, 77)], dtype=float).T
        assert np.all(k / w * w < k)
        assert np.array_equal(FAMILIES[name].event_counts(k / w, w), k)


class TestSaddlepoint:
    def test_gaussian_exact(self):
        # the approximation is exact for the gaussian family
        for y, mu, phi in [(0.3, 0.0, 1.0), (2.0, 1.0, 0.5)]:
            exact = -0.5 * math.log(2 * math.pi * phi) - (y - mu) ** 2 / (2 * phi)
            assert pg.saddlepoint_logpdf("gaussian", y, mu, phi) == pytest.approx(exact, abs=1e-12)

    def test_poisson_relative_error_under_3_percent(self):
        from scipy import stats

        for mu in (2.0, 5.0, 12.0):
            for y in range(4, 31):
                approx = math.exp(pg.saddlepoint_logpdf("poisson", float(y), mu, 1.0))
                exact = stats.poisson.pmf(y, mu)
                assert abs(approx - exact) / exact < 0.03

    def test_zero_count_outside_support(self):
        with pytest.raises(pg.SupportError):
            pg.saddlepoint_logpdf("poisson", 0.0, 2.0, 1.0)


class TestSurface:
    def test_quadraticity_frozen_score(self, credence_primary):
        data, fit = credence_primary
        surf = pg.likelihood_surface("poisson", "log", data, fit)
        diag = pg.quadraticity_diagnostic(surf)
        # frozen deterministic value (grid +-3 SE, 101 points per axis)
        assert diag["score"] == pytest.approx(0.08735333493285324, rel=1e-9)
        assert diag["pass"]

    def test_quadratic_matches_at_center(self, credence_primary):
        data, fit = credence_primary
        surf = pg.likelihood_surface("poisson", "log", data, fit, resolution=51)
        i = j = 25  # center node
        assert surf.loglik[i, j] == pytest.approx(surf.loglik_quad[i, j], abs=1e-9)

    def test_boundary_needs_anchor(self, dapa_dka):
        data, fit = dapa_dka
        with pytest.raises(pg.DomainError):
            pg.likelihood_surface("poisson", "log", data, fit)
        surf = pg.likelihood_surface("poisson", "log", data, fit,
                                     anchor=np.array([0.0, -1.0]))
        assert surf.anchored
        with pytest.raises(pg.DomainError):
            pg.quadraticity_diagnostic(surf)


def _surface_by_loop(family, link, data, g0, g1, phi=1.0):
    """Per-node log likelihood, with an out-of-domain node mapped to -inf."""
    ll = np.empty((len(g0), len(g1)))
    for i, b0 in enumerate(g0):
        for j, b1 in enumerate(g1):
            try:
                ll[i, j] = pg.log_likelihood(family, link, np.array([b0, b1]), phi, data)
            except pg.DomainError:
                ll[i, j] = -np.inf
    return ll


class TestSurfaceAgainstNodeLoop:
    @pytest.mark.parametrize("study,outcome", [("CREDENCE", "primary"), ("CREDENCE", "dka"),
                                               ("DAPA-CKD", "primary"), ("DAPA-CKD", "dka")])
    def test_bundled_outcomes_bit_for_bit(self, trial_records, study, outcome):
        data, _ = pg.trial_model_data(trial_records, study, outcome)
        fit = fit_irls("poisson", "log", data)
        anchor = np.array([0.0, -1.0]) if fit.boundary else None
        surf = pg.likelihood_surface("poisson", "log", data, fit, resolution=61, anchor=anchor)
        ref = _surface_by_loop("poisson", "log", data, surf.beta0_grid, surf.beta1_grid)
        assert surf.anchored == fit.boundary
        assert np.array_equal(surf.loglik, ref)

    def test_out_of_domain_nodes_bit_for_bit(self):
        # identity-link means go negative within 3 SE of the MLE. The covariate
        # holds powers of two, so x * beta is exact and the surface's matrix
        # product and the loop's matrix-vector product agree in every bit.
        data = ModelData(y=np.array([2.0, 9.0, 5.0, 3.0, 7.0]),
                         X=np.column_stack([np.ones(5), [0.0, 2.0, 0.5, -1.0, 1.0]]),
                         offset=np.array([0.1, -0.4, 0.0, 0.25, 0.0]))
        fit = fit_irls("poisson", "identity", data)
        surf = pg.likelihood_surface("poisson", "identity", data, fit, resolution=41)
        ref = _surface_by_loop("poisson", "identity", data, surf.beta0_grid, surf.beta1_grid)
        assert np.isneginf(ref).any() and np.isfinite(ref).any()
        assert np.array_equal(surf.loglik, ref)


class TestValidation:
    def test_rank_deficient_design(self):
        with pytest.raises(pg.DesignError):
            ModelData(y=np.arange(3.0), X=np.column_stack([np.ones(3), np.ones(3)]))

    def test_length_mismatch(self):
        with pytest.raises(pg.DesignError):
            ModelData(y=np.arange(3.0), X=np.ones((4, 1)))

    def test_nonpositive_weights(self):
        with pytest.raises(pg.DesignError):
            ModelData(y=np.arange(3.0), X=np.ones((3, 1)), weights=np.array([1.0, 0.0, 1.0]))

    @pytest.mark.parametrize("field,bad", [
        ("y", np.nan), ("X", np.inf), ("offset", -np.inf), ("weights", np.nan)])
    def test_non_finite_field_is_named(self, field, bad):
        # a NaN y or an inf in X used to surface as a domain or rank error,
        # and a NaN weight passed the positivity test
        kw = dict(y=np.array([1.0, 2.0, 4.0]), X=np.column_stack([np.ones(3), [0.0, 1.0, 2.0]]),
                  offset=np.zeros(3), weights=np.ones(3))
        kw[field][(1, 1) if field == "X" else 1] = bad
        with pytest.raises(pg.DesignError, match=f"^{field} must be finite$"):
            ModelData(**kw)

    def test_unknown_family_or_link(self):
        data = ModelData(y=np.arange(1.0, 4.0), X=np.ones((3, 1)))
        with pytest.raises(pg.DomainError):
            fit_irls("weibull", "log", data)
        with pytest.raises(pg.DomainError):
            fit_irls("poisson", "probit", data)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_poisson_fit_recovers_observed_rates(seed):
    rng = np.random.default_rng(seed)
    y = rng.integers(1, 500, 2).astype(float)
    e = rng.uniform(100.0, 9000.0, 2)
    data = _poisson_2x2(y[0], y[1], e[0], e[1])
    fit = fit_irls("poisson", "log", data)
    assert fit.converged and not fit.boundary
    assert fit.beta_hat[1] == pytest.approx(
        math.log((y[0] / e[0]) / (y[1] / e[1])), abs=1e-8
    )


# Batches mixing interior fits, fits diverging to the boundary (caught by the
# BOUNDARY_GUARD tests) and rows IRLS cannot start on or step from. Two arms of
# three observations each; binomial rows are proportions out of 10 trials.
_ARM = np.repeat([1.0, 0.0], 3)
_BATCHES = {
    "gaussian": ("identity", None, [
        1.0 + 0.5 * _ARM + np.array([0.3, -0.2, 0.1, -0.4, 0.2, 0.05]),
        40.0 * _ARM + np.array([0.1, 0.0, -0.1, 0.2, 0.0, -0.2]),     # slope 40 > guard
        np.array([1.0, np.inf, 2.0, 1.0, 0.5, 1.5]),                  # start mean not finite
        -2.0 + np.array([0.5, 0.1, -0.3, 0.2, 0.4, -0.1]),
    ]),
    "poisson": ("log", None, [
        np.array([3.0, 5.0, 4.0, 7.0, 6.0, 9.0]),
        np.array([0.0, 0.0, 0.0, 4.0, 6.0, 5.0]),                     # empty treated arm
        np.array([2.0, np.nan, 1.0, 3.0, 2.0, 4.0]),                  # no step possible
        np.array([12.0, 15.0, 9.0, 11.0, 10.0, 14.0]),
    ]),
    "binomial": ("logit", np.full(6, 10.0), [
        np.array([0.3, 0.5, 0.4, 0.6, 0.7, 0.5]),
        np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]),                     # separated arms
        np.array([0.2, np.nan, 0.3, 0.4, 0.5, 0.6]),                  # start mean not in (0, 1)
        np.array([0.1, 0.2, 0.1, 0.3, 0.2, 0.4]),
    ]),
    "gamma": ("log", None, [
        np.array([1.2, 0.8, 1.5, 2.5, 3.1, 1.9]),
        np.exp(20.0 * _ARM) * np.array([1.1, 0.9, 1.0, 1.2, 0.8, 1.0]),  # slope 20 > guard
        np.array([1.0, np.nan, 2.0, 1.5, 0.7, 1.1]),                  # start mean not positive
        np.array([5.0, 4.0, 6.5, 2.0, 2.5, 1.5]),
    ]),
}
_X2 = np.column_stack([np.ones(6), _ARM])


def _same(a, b):
    return np.array_equal(a, b, equal_nan=True)


def _deviance(family, data, mu):
    """Total deviance D = sum_i a_i d(y_i, mu_i)."""
    return float(np.sum(data.weights * family.unit_deviance(data.y, mu)))


def _reference_irls(family, link, data, tol=1e-8, max_iter=50):
    """One response at a time, with scipy's triangular solve: the loop the
    batched core replaces. For p = 2 the core must match it bit for bit.

    The solve skips scipy's finiteness check, so a non-finite working weight
    fails the step (and flags the boundary) here as in the core, where the
    checked solve raised ValueError."""
    mu = family.start_mu(data.y, data.weights)
    eta, beta, dev = link.g(mu), None, _deviance(family, data, mu)
    converged = boundary = False
    for it in range(1, max_iter + 1):
        W = data.weights / (family.variance(mu) * link.gprime(mu) ** 2)
        z = (eta - data.offset) + (data.y - mu) * link.gprime(mu)
        Q, R = np.linalg.qr(np.sqrt(W)[:, None] * data.X)
        beta_new = linalg.solve_triangular(R, Q.T @ (np.sqrt(W) * z), check_finite=False)
        frac, step_ok = 1.0, False
        for _ in range(25):
            cand = beta_new if beta is None else beta + frac * (beta_new - beta)
            eta_c = data.X @ cand + data.offset
            mu_c = link.ginv(eta_c)
            if np.all(family.in_domain(mu_c)) and np.all(np.isfinite(mu_c)):
                dev_c = _deviance(family, data, mu_c)
                if np.isfinite(dev_c) and (beta is None or dev_c <= dev + 1e-8 * (abs(dev) + 1.0)):
                    step_ok = True
                    break
            frac *= 0.5
        if not step_ok:
            boundary = True
            break
        beta, eta, mu, dev_old, dev = cand, eta_c, mu_c, dev, dev_c
        s = score(family, link, beta, 1.0, data)
        if abs(dev - dev_old) < 1e-10 * (abs(dev) + 0.1) and np.max(np.abs(s)) < tol and it > 1:
            converged = True
            break
    if np.any(np.abs(beta) > BOUNDARY_GUARD) or np.any(eta < -BOUNDARY_GUARD * 45):
        boundary = True
    W = data.weights / (family.variance(mu) * link.gprime(mu) ** 2)
    cov = np.linalg.inv(data.X.T @ (W[:, None] * data.X))
    return beta, cov, dev, converged, boundary, it


# Gamma-log responses whose full Fisher steps overshoot: step-halving rescues
# the first; the second cannot step at its third iteration.
_OVERSHOOT = {
    "halved": ([0.6007, 11.8319, 1.4989, 0.1266, 4.0352, 153.0751],
               [-2.662, -4.7868, -2.3577, 0.1563, -8.795, -0.8276]),
    "stuck": ([0.0644, 0.4341, 0.0017, 0.0243, 237676.0626, 107.4585],
              [-3.2211, -2.3497, -0.0522, 0.0836, -1.7928, -3.0987]),
}


def _batch_matching_single_rows(family, link, Y, w, X=_X2):
    """Fit Y as one batch and assert each row equals its own R = 1 fit."""
    batch = fit_irls_batch(family, link, Y, X, weights=w)
    for r in range(Y.shape[0]):
        alone = fit_irls_batch(family, link, Y[r:r + 1], X, weights=w)
        for field in ("beta_hat", "cov_unscaled", "deviance", "mu", "iterations",
                      "converged", "boundary", "start_ok", "stepped"):
            assert _same(getattr(batch, field)[r], getattr(alone, field)[0]), (r, field)
    return batch


class TestBatchCore:
    @pytest.mark.parametrize("family", sorted(_BATCHES))
    def test_each_row_fits_as_if_alone(self, family):
        link, w, rows = _BATCHES[family]
        batch = _batch_matching_single_rows(family, link, np.array(rows), w)
        usable = batch.start_ok & batch.stepped
        assert (batch.converged & ~batch.boundary)[[0, 3]].all()
        assert usable[1] and batch.boundary[1]
        assert np.abs(batch.beta_hat[1]).max() > BOUNDARY_GUARD
        assert not usable[2] and np.isnan(batch.beta_hat[2]).all()

    @pytest.mark.parametrize("family", ["poisson", "binomial"])
    def test_unfinished_rows_mix_with_converged_rows(self, family, monkeypatch):
        # four steps settle the interior rows but not the row still diverging
        monkeypatch.setattr(pg.glm, "IRLS_MAX_ITER", 4)
        link, w, rows = _BATCHES[family]
        batch = _batch_matching_single_rows(family, link, np.array(rows), w)
        assert batch.converged[[0, 3]].all()
        assert batch.stepped[1] and not batch.converged[1] and not batch.boundary[1]
        assert batch.iterations[1] == 4

    @pytest.mark.parametrize("family", sorted(_BATCHES))
    def test_fit_irls_is_the_single_row_case(self, family):
        link, w, rows = _BATCHES[family]
        for r in (0, 1):
            data = ModelData(y=rows[r], X=_X2, weights=w)
            fit = fit_irls(family, link, data)
            row = fit_irls_batch(family, link, rows[r][None, :], _X2, weights=w)
            assert _same(fit.beta_hat, row.beta_hat[0])
            assert _same(fit.cov_unscaled, row.cov_unscaled[0])
            assert (fit.deviance, fit.iterations, fit.converged, fit.boundary) == (
                row.deviance[0], row.iterations[0], row.converged[0], row.boundary[0])
        # the row the batch cannot fit is not finite, so it never reaches fit_irls;
        # a finite response outside the support still stops the fit
        with pytest.raises(pg.DesignError, match="^y must be finite$"):
            ModelData(y=rows[2], X=_X2, weights=w)
        if family != "gaussian":
            y = np.where(np.isfinite(rows[2]), rows[2], -1.0)
            error = pg.DomainError if family == "binomial" else pg.ConvergenceError
            with np.errstate(invalid="ignore", divide="ignore"):
                row = fit_irls_batch(family, link, y[None, :], _X2, weights=w)
                with pytest.raises(error):
                    fit_irls(family, link, ModelData(y=y, X=_X2, weights=w))
            assert row.start_ok[0] == (family != "binomial") and not row.stepped[0]

    @pytest.mark.parametrize("case", sorted(_OVERSHOOT))
    def test_step_halving_rows(self, case):
        y, x = (np.array(v) for v in _OVERSHOOT[case])
        X = np.column_stack([np.ones(6), x])
        Y = np.array([y, np.exp(0.3 * x) * np.array([1.1, 0.9, 1.0, 1.2, 0.8, 1.0])])
        with np.errstate(over="ignore", invalid="ignore"):
            batch = _batch_matching_single_rows("gamma", "log", Y, None, X)
            ref = _reference_irls(FAMILIES["gamma"], LINKS["log"], ModelData(y, X))
        assert _same(batch.beta_hat[0], ref[0]) and _same(batch.cov_unscaled[0], ref[1])
        assert (batch.deviance[0], batch.converged[0], batch.boundary[0],
                batch.iterations[0]) == ref[2:]
        assert batch.converged[1] and not batch.boundary[1]
        if case == "halved":
            assert batch.converged[0] and not batch.boundary[0]
        else:
            assert batch.stepped[0] and batch.boundary[0] and not batch.converged[0]
            assert batch.iterations[0] == 3

    @pytest.mark.parametrize("family", sorted(_BATCHES))
    def test_rows_equal_the_scalar_reference_loop(self, family, credence_primary, dapa_dka):
        link, w, rows = _BATCHES[family]
        cases = [(rows[r], _X2, None, w) for r in (0, 1, 3)]
        if family == "poisson":
            cases += [(d.y, d.X, d.offset, None) for d, _ in (credence_primary, dapa_dka)]
        for y, X, off, wt in cases:
            ref = _reference_irls(FAMILIES[family], LINKS[link], ModelData(y, X, off, wt))
            row = fit_irls_batch(family, link, y[None, :], X, off, wt)
            assert _same(row.beta_hat[0], ref[0]) and _same(row.cov_unscaled[0], ref[1])
            assert (row.deviance[0], row.converged[0], row.boundary[0], row.iterations[0]) == ref[2:]

    def test_gaussian_slope_equals_least_squares_per_row(self, rng):
        n = 25
        X = np.column_stack([np.ones(n), rng.uniform(-2.0, 2.0, n)])
        Y = (X @ np.array([0.5, -1.5]))[None, :] + rng.standard_normal((200, n)) * 3.0
        batch = fit_irls_batch("gaussian", "identity", Y, X)
        assert batch.converged.all() and not batch.boundary.any()
        for y, beta in zip(Y, batch.beta_hat):
            ls, *_ = np.linalg.lstsq(X, y, rcond=None)
            np.testing.assert_allclose(beta, ls, rtol=0.0, atol=1e-10)

    def test_two_arm_poisson_slope_equals_log_rate_ratio(self, rng):
        E = np.array([5671.296, 5555.556])
        Y = rng.integers(1, 400, size=(300, 2)).astype(float)
        X = np.array([[1.0, 1.0], [1.0, 0.0]])
        batch = fit_irls_batch("poisson", "log", Y, X, offset=np.log(E))
        assert batch.converged.all() and not batch.boundary.any()
        ratio = np.log((Y[:, 0] / E[0]) / (Y[:, 1] / E[1]))
        np.testing.assert_allclose(batch.beta_hat[:, 1], ratio, rtol=1e-12, atol=0.0)


class TestSharedWorkingWeights:
    """Rows with equal working weights share one factorisation; each row must
    still fit as if alone."""

    def test_gaussian_batch_at_replication_size(self, rng):
        n = 40
        X = np.column_stack([np.ones(n), rng.uniform(0.0, 10.0, n)])
        Y = (1.0 + 0.5 * X[:, 1])[None, :] + rng.standard_normal((1000, n))
        batch = _batch_matching_single_rows("gaussian", "identity", Y, None, X)
        assert batch.converged.all() and not batch.boundary.any()
        for r in rng.choice(1000, 25, replace=False):
            ref = _reference_irls(FAMILIES["gaussian"], LINKS["identity"], ModelData(Y[r], X))
            assert _same(batch.beta_hat[r], ref[0]) and _same(batch.cov_unscaled[r], ref[1])
            assert (batch.deviance[r], batch.converged[r], batch.boundary[r],
                    batch.iterations[r]) == ref[2:]

    def test_poisson_duplicated_rows_among_distinct_rows(self):
        # three copies of the row diverging to the boundary outlast the
        # interior rows, so the last iterations run on equal weights only;
        # two of the copies lead, so equal first rows alone must not share
        link, w, rows = _BATCHES["poisson"]
        Y = np.array([rows[1], rows[1], rows[0], rows[3], rows[1], rows[0]])
        batch = _batch_matching_single_rows("poisson", link, Y, w)
        assert (batch.iterations[[0, 1, 4]] > batch.iterations[[2, 3, 5]].max()).all()
        assert batch.boundary[[0, 1, 4]].all() and (batch.converged & ~batch.boundary)[[2, 3, 5]].all()
        for r in range(Y.shape[0]):
            ref = _reference_irls(FAMILIES["poisson"], LINKS[link], ModelData(Y[r], _X2))
            assert _same(batch.beta_hat[r], ref[0]) and _same(batch.cov_unscaled[r], ref[1])
            assert (batch.deviance[r], batch.converged[r], batch.boundary[r],
                    batch.iterations[r]) == ref[2:]

    def test_singular_information_reaches_every_row(self, rng):
        # a repeated column leaves X' W X singular: every fitted row gets the
        # pseudo-inverse and the boundary flag, not only the first
        n = 8
        X = np.column_stack([np.ones(n), np.ones(n)])
        Y = 1.0 + rng.standard_normal((5, n))
        with np.errstate(all="ignore"):
            batch = _batch_matching_single_rows("gaussian", "identity", Y, None, X)
        assert batch.stepped.all() and batch.boundary.all()
        for cov in batch.cov_unscaled:
            assert _same(cov, np.linalg.pinv(X.T @ X))
