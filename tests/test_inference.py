import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import piglm as pg
from piglm.inference import (
    direction_estimate,
    pi_value_analytic,
    pi_value_from_grid,
    pi_value_from_samples,
    tail_comparison,
    wald_pvalue,
)


class TestWald:
    def test_frozen_treatment_effect(self, credence_primary):
        data, fit = credence_primary
        rep = wald_pvalue(fit, 1.0, 1)
        # z = b1 / sqrt(1/245 + 1/340), frozen from the closed form
        assert rep.z == pytest.approx(-4.156293654982192, rel=1e-12)
        assert rep.p_or_pi == pytest.approx(3.2345203405431756e-05, rel=1e-10)
        assert rep.direction == "negative"
        assert not rep.boundary_warning

    def test_t_reference(self, credence_primary):
        data, fit = credence_primary
        rep = wald_pvalue(fit, 1.0, 1, dist="t", dof=8)
        assert rep.p_or_pi == pytest.approx(2 * stats.t.cdf(rep.z, 8), rel=1e-10)
        with pytest.raises(pg.DegreesOfFreedomError):
            wald_pvalue(fit, 1.0, 1, dist="t")

    def test_nonzero_reference_value(self, credence_primary):
        data, fit = credence_primary
        rep = wald_pvalue(fit, 1.0, 1, beta0=fit.beta_hat[1])
        assert rep.z == 0.0
        assert rep.p_or_pi == 1.0

    def test_boundary_warning(self, dapa_dka):
        data, fit = dapa_dka
        rep = wald_pvalue(fit, 1.0, 1)
        assert rep.boundary_warning
        assert "unreliable" in rep.notes

    def test_index_validation(self, credence_primary):
        data, fit = credence_primary
        with pytest.raises(pg.DomainError):
            wald_pvalue(fit, 1.0, 5)


class TestPiValue:
    def test_flat_prior_posterior_tail_equals_wald(self, credence_primary):
        # under a locally uniform prior the posterior tail area reproduces the
        # frequentist tail area numerically
        data, fit = credence_primary
        post = pg.laplace_posterior(fit, None, "poisson").beta_posterior
        rep = pi_value_analytic(post, 1)
        wald = wald_pvalue(fit, 1.0, 1)
        assert rep.p_or_pi == pytest.approx(wald.p_or_pi, rel=1e-9)
        assert rep.direction == wald.direction

    def test_grid_route_agrees_with_analytic(self):
        data = pg.ModelData(y=np.array([0.8, 1.2, 1.0, 0.6]), X=np.ones((4, 1)))
        ll = pg.vectorized_loglik("gaussian", "identity", data)
        gp = pg.grid_posterior(ll, [None], [(-3.0, 5.0)], resolution=1601)
        rep = pi_value_from_grid(gp, 0)
        exact = 2 * stats.norm.cdf(-data.y.mean() / 0.5)
        assert rep.p_or_pi == pytest.approx(exact, rel=1e-3)
        assert rep.direction == "positive"

    def test_empirical_floor(self, rng):
        x = rng.normal(10.0, 1.0, 500)      # no draws below zero
        rep = pi_value_from_samples(x)
        assert rep.p_or_pi == 2.0 / 500
        assert rep.direction == "positive"

    def test_mixture_needs_enough_samples(self, rng):
        with pytest.raises(pg.DomainError):
            pi_value_from_samples(rng.normal(0, 1, 999), method="mixture")

    def test_mixture_beats_empirical_floor_in_far_tail(self, rng):
        x = rng.normal(4.5, 1.0, 5000)
        rep = pi_value_from_samples(x, method="mixture", stream=pg.RngStream(6, 1))
        exact = 2 * stats.norm.sf(4.5)
        assert rep.method == "posterior_mixture"
        assert rep.p_or_pi == pytest.approx(exact, rel=0.5)
        assert rep.p_or_pi < 2.0 / 5000        # below the empirical resolution

    def test_mixture_degenerate_falls_back_to_empirical(self):
        # the float std of these draws is 1.1e-16, not 0
        rep = pi_value_from_samples(np.full(1000, 0.3), method="mixture")
        assert rep.method == "posterior_empirical"
        assert rep.notes == "mixture fit degenerate; fell back to empirical"
        assert rep.p_or_pi == 2.0 / 1000

    def test_mixture_other_errors_propagate(self, rng, monkeypatch):
        def broken_fit(*args, **kwargs):
            raise RuntimeError("broken fit")

        monkeypatch.setattr(pg.inference, "fit_gaussian_mixture_1d", broken_fit)
        with pytest.raises(RuntimeError, match="broken fit"):
            pi_value_from_samples(rng.normal(1.0, 1.0, 1000), method="mixture")

    def test_no_samples(self):
        with pytest.raises(pg.DomainError):
            pi_value_from_samples([])


class TestDirection:
    def test_signed_complement(self):
        assert direction_estimate(0.04, "negative") == pytest.approx(-0.96)
        assert direction_estimate(1.0, "positive") == 0.0

    def test_validation(self):
        with pytest.raises(pg.DomainError):
            direction_estimate(0.0, "positive")
        with pytest.raises(pg.DomainError):
            direction_estimate(0.5, "sideways")


class TestTailComparison:
    def test_matches_reference_distributions(self):
        out = tail_comparison(2.0, 30)
        assert out["p_normal"] == pytest.approx(2 * stats.norm.sf(2.0), rel=1e-12)
        assert out["p_t_jeffreys"] == pytest.approx(2 * stats.t.sf(2.0, 30), rel=1e-10)
        # uniform scale prior: t_28 with scale D/28, so z shrinks by sqrt(28/30)
        z_adj = 2.0 * math.sqrt(28.0 / 30.0)
        assert out["p_t_uniform"] == pytest.approx(2 * stats.t.sf(z_adj, 28), rel=1e-10)

    def test_variants_converge_for_large_dof(self):
        out = tail_comparison(1.3, 10**6)
        vals = list(out.values())
        assert max(vals) - min(vals) < 1e-6

    def test_moderate_dof_spread_frozen(self):
        # the worst-case spread across the three variants at 30 residual dof
        # over |z| <= 4 (~2.6e-2), against the same spread from scipy
        zs = np.linspace(0.0, 4.0, 801)
        spread = max(
            max(tail_comparison(z, 30).values()) - min(tail_comparison(z, 30).values())
            for z in zs
        )
        ref = np.array([
            2 * stats.norm.sf(zs),
            2 * stats.t.sf(zs, 30),
            2 * stats.t.sf(zs * math.sqrt(28.0 / 30.0), 28),
        ])
        assert spread == pytest.approx(np.max(ref.max(axis=0) - ref.min(axis=0)), rel=1e-9)

    def test_dof_validation(self):
        with pytest.raises(pg.DegreesOfFreedomError):
            tail_comparison(1.0, 2)


# sd bounded below so |z| stays under ~30, where the normal tail is still
# representable in double precision
@given(st.floats(min_value=-6, max_value=6), st.floats(min_value=0.2, max_value=5))
@settings(max_examples=50, deadline=None)
def test_pi_value_symmetric_in_posterior_mean(mean, sd):
    post = pg.LaplacePosterior(np.array([mean]), np.array([[sd * sd]]), "normal")
    a = pi_value_analytic(post, 0)
    post2 = pg.LaplacePosterior(np.array([-mean]), np.array([[sd * sd]]), "normal")
    b = pi_value_analytic(post2, 0)
    assert a.p_or_pi == pytest.approx(b.p_or_pi, rel=1e-9)
    assert 0.0 < a.p_or_pi <= 1.0
