import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import special, stats

import piglm as pg
from piglm.inference import (
    pi_value_analytic,
    pi_value_from_grid,
    pi_value_from_samples,
    tail_comparison,
    wald_pvalue,
)

from exact import conditional_exact_p, flat_prior_pi, two_arm_counts


class TestWald:
    def test_frozen_treatment_effect(self, credence_primary):
        data, fit = credence_primary
        rep = wald_pvalue(fit, 1.0, 1)
        # z = b1 / sqrt(1/245 + 1/340), frozen from the closed form
        assert rep.z == pytest.approx(-4.156293654982192, rel=1e-12)
        assert rep.p_or_pi == pytest.approx(3.2345203405431756e-05, rel=1e-10)
        assert rep.direction == "negative"

    def test_t_reference(self, credence_primary):
        data, fit = credence_primary
        rep = wald_pvalue(fit, 1.0, 1, dof=8)
        assert rep.p_or_pi == pytest.approx(2 * stats.t.cdf(rep.z, 8), rel=1e-10)
        assert rep.method == "wald_t"
        assert wald_pvalue(fit, 1.0, 1).method == "wald_normal"
        with pytest.raises(pg.DegreesOfFreedomError):
            wald_pvalue(fit, 1.0, 1, dof=0)

    def test_nonzero_reference_value(self, credence_primary):
        data, fit = credence_primary
        rep = wald_pvalue(fit, 1.0, 1, beta0=fit.beta_hat[1])
        assert rep.z == 0.0
        assert rep.p_or_pi == 1.0

    def test_index_validation(self, credence_primary):
        data, fit = credence_primary
        with pytest.raises(pg.DomainError):
            wald_pvalue(fit, 1.0, 5)

    @pytest.mark.parametrize("phi", [0.0, -1.0])
    def test_scale_validation(self, credence_primary, phi):
        data, fit = credence_primary
        with pytest.raises(pg.DomainError, match="phi must be positive"):
            wald_pvalue(fit, phi, 1)


class TestPiValue:
    def test_flat_prior_posterior_tail_equals_wald(self, trial_records):
        # under a locally uniform prior the posterior tail area is the
        # frequentist tail area: one tail routine gives both, to the bit
        for study, outcome in (("CREDENCE", "primary"), ("CREDENCE", "dka"),
                               ("DAPA-CKD", "primary")):
            data, _ = pg.trial_model_data(trial_records, study, outcome)
            fit = pg.fit_irls("poisson", "log", data)
            assert not fit.boundary
            post = pg.laplace_posterior(fit, None, "poisson").beta_posterior
            for j in range(fit.p):
                rep = pi_value_analytic(post, j)
                wald = wald_pvalue(fit, 1.0, j)
                assert rep.p_or_pi == wald.p_or_pi
                assert rep.direction == wald.direction

    def test_grid_route_agrees_with_analytic(self):
        data = pg.ModelData(y=np.array([0.8, 1.2, 1.0, 0.6]), X=np.ones((4, 1)))
        ll = pg.vectorized_loglik("gaussian", "identity", data)
        gp = pg.grid_posterior(ll, [None], [(-3.0, 5.0)], resolution=1601)
        rep = pi_value_from_grid(gp, 0)
        exact = 2 * stats.norm.cdf(-data.y.mean() / 0.5)
        assert rep.p_or_pi == pytest.approx(exact, rel=1e-3)
        assert rep.direction == "positive"

    @given(y1=st.integers(5, 500), y0=st.integers(5, 500), z=st.floats(-4.0, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_flat_grid_pi_matches_beta_tail(self, y1, y0, z):
        # Under a flat prior the arm rates are Gamma(y, E) a posteriori, so
        # P(beta1 < 0) = I_x(y1, y0) at x = E1 / (E1 + E0). The exposure ratio
        # is drawn through the Wald z, so few draws fall outside |z| <= 4.
        se = math.sqrt(1.0 / y1 + 1.0 / y0)
        e0 = 1000.0
        e1 = e0 * (y1 / y0) * math.exp(-z * se)
        data = pg.ModelData(y=np.array([float(y1), float(y0)]),
                            X=np.array([[1.0, 1.0], [1.0, 0.0]]),
                            offset=np.log(np.array([e1, e0]) / 1000.0))
        fit = pg.fit_irls("poisson", "log", data)
        assume(abs(wald_pvalue(fit, 1.0, 1).z) <= 4.0)
        bounds = [(b - 8 * s, b + 8 * s) for b, s in zip(fit.beta_hat, fit.se(1.0))]
        gp = pg.grid_posterior(pg.vectorized_loglik("poisson", "log", data), [None, None],
                               bounds, resolution=801)
        exact = flat_prior_pi(y1, e1, y0, e0)
        assert pi_value_from_grid(gp, 1).p_or_pi == pytest.approx(exact, rel=0.01)

    def test_grid_pi_is_mirror_symmetric_in_the_far_tail(self):
        # gaussian mean, phi = 1, five points: the posterior is N(ybar, 1/5), so
        # y and -y give mirrored grids at +-10 se and must give one pi. The
        # upper tail is integrated directly; 1 - lower would keep no digits.
        y = np.array([3.1, 3.9, 3.0, 3.6, 3.9])
        pis = []
        for sgn in (1.0, -1.0):
            data = pg.ModelData(y=sgn * y, X=np.ones((5, 1)))
            b, se = sgn * y.mean(), 1.0 / math.sqrt(5.0)
            gp = pg.grid_posterior(pg.vectorized_loglik("gaussian", "identity", data), [None],
                                   [(b - 10 * se, b + 10 * se)], resolution=2001)
            pis.append(pi_value_from_grid(gp, 0).p_or_pi)
            if sgn > 0:
                assert pis[0] == 2.0 * gp.marginal_cdf_at(0, 0.0)
        exact = 2.0 * stats.norm.cdf(-y.mean() * math.sqrt(5.0))
        assert pis[0] == pytest.approx(5.029451900743252e-15, rel=1e-12, abs=0.0)
        assert pis[0] == pytest.approx(exact, rel=1e-3, abs=0.0)
        assert pis[1] == pytest.approx(pis[0], rel=1e-12, abs=0.0)

    def test_mixture_needs_enough_samples(self, rng):
        with pytest.raises(pg.DomainError):
            pi_value_from_samples(rng.normal(0, 1, 999), method="mixture")

    def test_mixture_is_the_only_method(self, rng):
        # the tail fractions of the draws are not a route: they floor pi at 2/N
        x = rng.normal(1.0, 1.0, 2000)
        assert pi_value_from_samples(x).method == "posterior_mixture"
        with pytest.raises(pg.DomainError, match="method"):
            pi_value_from_samples(x, method="empirical")

    def test_mixture_beats_empirical_floor_in_far_tail(self, rng):
        x = rng.normal(4.5, 1.0, 5000)
        rep = pi_value_from_samples(x, method="mixture", stream=pg.RngStream(6, 1))
        exact = 2 * stats.norm.sf(4.5)
        assert rep.method == "posterior_mixture"
        assert rep.p_or_pi == pytest.approx(exact, rel=0.5)
        assert rep.p_or_pi < 2.0 / 5000        # below the empirical resolution

    def test_mixture_identical_draws_raise(self):
        # the float std of these draws is 1.1e-16, not 0; no other method stands in
        with pytest.raises(pg.DegeneracyError):
            pi_value_from_samples(np.full(1000, 0.3), method="mixture")

    def test_mixture_pi_of_components_on_both_sides(self, rng, monkeypatch):
        # half the mass on each side of beta0: pi = 1, and equal masses read 'positive'
        model = pg.MixtureModel1D(np.array([0.5, 0.5]), np.array([-1.0, 1.0]),
                                  np.ones(2), 0.0, 0.0, 0)
        monkeypatch.setattr(pg.inference, "fit_gaussian_mixture_1d", lambda *a, **k: model)
        rep = pi_value_from_samples(rng.normal(0.0, 1.0, 1000), method="mixture")
        assert rep.p_or_pi == 1.0
        assert rep.direction == "positive"

    @pytest.mark.parametrize("n_low", [2000, 2800])
    def test_mixture_pi_of_bimodal_draws(self, n_low):
        # n_low draws from N(-1, 0.3^2) and 4000 - n_low from N(1, 0.3^2): the
        # generating mixture's pi is 2 min(lower, upper), exact from its weights.
        # The fitted tails estimate a tail fraction of 4000 draws, whose
        # binomial sd bounds their Monte Carlo error
        gen = np.random.default_rng(n_low)
        x = np.concatenate([gen.normal(-1.0, 0.3, n_low), gen.normal(1.0, 0.3, 4000 - n_low)])
        w = n_low / 4000
        lower = w * stats.norm.cdf(1.0 / 0.3) + (1.0 - w) * stats.norm.cdf(-1.0 / 0.3)
        exact = 2.0 * min(lower, 1.0 - lower)
        mcse = 2.0 * math.sqrt(lower * (1.0 - lower) / 4000)
        rep = pi_value_from_samples(x, method="mixture", stream=pg.RngStream(n_low, 1))
        assert rep.method == "posterior_mixture"
        assert abs(rep.p_or_pi - exact) < 3.0 * mcse
        assert rep.direction == ("positive" if n_low == 2000 else "negative")

    def test_mixture_of_grid_draws_has_no_collapsed_component(self, credence_primary):
        # 1000 draws from the CREDENCE/primary grid posterior where EM finds a
        # G = 2 start with a component at the sd floor (w = 0.001): a likelihood
        # singularity that, chosen, put pi at 72 times the exact value
        data, fit = credence_primary
        ll = pg.vectorized_loglik("poisson", "log", data)
        bounds = [(b - 8.0 * s, b + 8.0 * s) for b, s in zip(fit.beta_hat, fit.se(1.0))]
        gp = pg.grid_posterior(ll, [None, None], bounds, resolution=101)
        stream = pg.RngStream(2275759358)
        draws = gp.sample(1000, stream.child(1))[:, 1]
        model = pg.fit_gaussian_mixture_1d(draws, stream=stream.child(2))
        assert (model.sds > 1e-6 * draws.std()).all()
        rep = pi_value_from_samples(draws, method="mixture", stream=stream.child(2))
        assert abs(math.log(rep.p_or_pi / flat_prior_pi(*two_arm_counts(data)))) < 2.58

    def test_mixture_other_errors_propagate(self, rng, monkeypatch):
        def broken_fit(*args, **kwargs):
            raise RuntimeError("broken fit")

        monkeypatch.setattr(pg.inference, "fit_gaussian_mixture_1d", broken_fit)
        with pytest.raises(RuntimeError, match="broken fit"):
            pi_value_from_samples(rng.normal(1.0, 1.0, 1000), method="mixture")

    def test_no_samples(self):
        with pytest.raises(pg.DomainError):
            pi_value_from_samples([])

    @pytest.mark.parametrize("method", ["mixture"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_samples(self, rng, method, bad):
        x = rng.normal(1.0, 1.0, 2000)
        x[7] = bad
        with pytest.raises(pg.DomainError, match="finite"):
            pi_value_from_samples(x, method=method)
        with pytest.raises(pg.DomainError, match="finite"):
            pi_value_from_samples([bad] * 10)


@pytest.mark.parametrize("route", ["wald", "analytic", "grid"])
def test_index_rule_on_every_pi_route(route, credence_primary):
    # indices in [-p, p), negative ones counting from the end, as GridPosterior.marginal
    data, fit = credence_primary
    if route == "wald":
        pi_of = lambda j: wald_pvalue(fit, 1.0, j)
    elif route == "analytic":
        post = pg.laplace_posterior(fit, None, "poisson").beta_posterior
        pi_of = lambda j: pi_value_analytic(post, j)
    else:
        # a proper prior on the intercept keeps its axis on the grid
        bounds = [(b - 8 * s, b + 8 * s) for b, s in zip(fit.beta_hat, fit.se(1.0))]
        gp = pg.grid_posterior(pg.vectorized_loglik("poisson", "log", data),
                               [pg.PriorSpec("test_fixed_sigma", beta0=0.0, sigma=10.0), None],
                               bounds, resolution=101)
        pi_of = lambda j: pi_value_from_grid(gp, j)
    for j in (-3, 2):
        with pytest.raises(pg.DomainError):
            pi_of(j)
    assert pi_of(-1) == pi_of(1)
    assert pi_of(-2) == pi_of(0)


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
    post = pg.LaplacePosterior(np.array([mean]), np.array([[sd * sd]]))
    a = pi_value_analytic(post, 0)
    post2 = pg.LaplacePosterior(np.array([-mean]), np.array([[sd * sd]]))
    b = pi_value_analytic(post2, 0)
    assert a.p_or_pi == pytest.approx(b.p_or_pi, rel=1e-9)
    assert 0.0 < a.p_or_pi <= 1.0


class TestConditionalExactTest:
    """The conditional exact test of two Poisson arms is the flat-prior pi-value
    with one more event in the reference arm (tests/exact.py)."""

    @given(st.integers(0, 80), st.integers(0, 80), st.floats(0.05, 20.0), st.floats(0.05, 20.0))
    @settings(max_examples=300, deadline=None)
    def test_each_tail_is_a_beta_tail_above_the_flat_pi(self, y1, y0, e1, e0):
        assume(y1 + y0 > 0)
        at_least, at_most, p = conditional_exact_p(y1, e1, y0, e0)
        x = e1 / (e1 + e0)
        # P(Bin(N, x) >= y1) = I_x(y1, y0 + 1); the other tail swaps the arms
        for tail, a, b, xa in ((at_least, y1, y0, x), (at_most, y0, y1, 1.0 - x)):
            if a == 0:
                assert tail == 1.0
            else:
                assert tail == pytest.approx(special.betainc(a, b + 1, xa), rel=1e-12)
            if a > 0 and b > 0:
                # the flat posterior is proper: its tail I_x(a, b) lies below;
                # the two can meet within rounding when both are near 1
                assert special.betainc(a, b, xa) <= tail * (1.0 + 1e-12)
        assert 0.0 < p <= 1.0
        if y1 > 0 and y0 > 0:
            assert flat_prior_pi(y1, e1, y0, e0) <= p * (1.0 + 1e-12)

    @pytest.mark.parametrize("outcome,exact_p,flat_pi", [
        (("CREDENCE", "primary"), 3.4241e-5, 2.8137e-5),
        (("CREDENCE", "dka"), 6.3155e-3, 9.7121e-4),
        (("DAPA-CKD", "primary"), 6.6582e-8, 5.0419e-8),
    ])
    def test_bundled_outcomes(self, trial_records, outcome, exact_p, flat_pi):
        # the two-sided values that README tabulates, to five figures
        counts = two_arm_counts(pg.trial_model_data(trial_records, *outcome)[0])
        assert conditional_exact_p(*counts)[2] == pytest.approx(exact_p, rel=5e-5)
        assert flat_prior_pi(*counts) == pytest.approx(flat_pi, rel=5e-5)
