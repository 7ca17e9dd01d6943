import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import cumulative_simpson

import piglm as pg
from piglm.glm import FAMILIES, LINKS, ModelData, _grid_nodes, _loglik_points, fit_irls
from piglm.posterior import grid_posterior, laplace_posterior, rw_metropolis

from exact import flat_prior_moments, log_gamma_cumulants, two_arm_counts, two_arm_joint

# A proper prior on the intercept keeps it on the grid: with it a Poisson model
# gives the full 2-D grid, whose intercept axis the tests below read.
INTERCEPT_PRIOR = pg.PriorSpec("test_fixed_sigma", beta0=0.0, sigma=10.0)


@pytest.fixture(scope="module")
def gaussian_fit():
    rng = np.random.default_rng(5)
    n = 20
    X = np.column_stack([np.ones(n), np.linspace(-1, 1, n)])
    y = X @ np.array([1.0, 2.0]) + rng.standard_normal(n)
    data = ModelData(y=y, X=X)
    return data, fit_irls("gaussian", "identity", data)


class TestLargeSamplePosterior:
    def test_known_scale_gives_normal(self, credence_primary):
        data, fit = credence_primary
        res = laplace_posterior(fit, None, "poisson")
        post = res.beta_posterior
        assert post.dof is None
        assert post.mean == pytest.approx(fit.beta_hat)
        assert post.cov == pytest.approx(fit.cov_unscaled)
        assert res.scale_marginal is None

    def test_unknown_scale_heavy_tailed_marginal(self, gaussian_fit):
        data, fit = gaussian_fit
        res = laplace_posterior(fit, pg.ScalePriorSpec("jeffreys"), "gaussian")
        n, p = data.n, data.p
        assert res.beta_posterior.dof == n - p
        # scale matrix matches the classical regression posterior s^2 (X'X)^-1
        s2 = fit.deviance / (n - p)
        assert res.beta_posterior.cov == pytest.approx(s2 * fit.cov_unscaled, rel=1e-12)
        assert res.scale_marginal.dof == n - p
        assert res.scale_marginal.scale == pytest.approx(s2, rel=1e-12)
        assert res.phi_map == pytest.approx(s2, rel=1e-12)
        # marginal cdf agrees with an independent reference t distribution
        x = fit.beta_hat[1] + 0.7
        scale = math.sqrt(s2 * fit.cov_unscaled[1, 1])
        ref = stats.t.cdf((x - fit.beta_hat[1]) / scale, n - p)
        assert _marginal_cdf(res.beta_posterior, 1, x) == pytest.approx(ref, rel=1e-10)

    def test_jeffreys_pi_equals_t_wald_p(self, gaussian_fit):
        # the t_{n-p} posterior at scale D/(n-p) and the t_{n-p} Wald test
        # share one tail routine
        data, fit = gaussian_fit
        post = laplace_posterior(fit, pg.ScalePriorSpec("jeffreys"), "gaussian").beta_posterior
        dof = data.n - data.p
        for j in range(fit.p):
            wald = pg.wald_pvalue(fit, fit.deviance / dof, j, dof=dof)
            assert wald.p_or_pi == pg.pi_value_analytic(post, j).p_or_pi

    def test_uniform_scale_prior_dof(self, gaussian_fit):
        data, fit = gaussian_fit
        res = laplace_posterior(fit, pg.ScalePriorSpec("uniform"), "gaussian")
        assert res.beta_posterior.dof == data.n - data.p - 2

    def test_boundary_fit_rejected(self, dapa_dka):
        data, fit = dapa_dka
        with pytest.raises(pg.BoundaryError):
            laplace_posterior(fit, None, "poisson")

    def test_sampling_moments(self, gaussian_fit):
        data, fit = gaussian_fit
        res = laplace_posterior(fit, pg.ScalePriorSpec("jeffreys"), "gaussian")
        phi = res.scale_marginal.sample(40000, pg.RngStream(3, 2))
        dof, sc = res.scale_marginal.dof, res.scale_marginal.scale
        assert phi.mean() == pytest.approx(dof * sc / (dof - 2), rel=0.05)


def _marginal_cdf(post, index, x):
    """Marginal posterior CDF at x, read off the pi-value at beta0 = x."""
    rep = pg.pi_value_analytic(post, index, beta0=x)
    return rep.p_or_pi / 2.0 if rep.direction == "positive" else 1.0 - rep.p_or_pi / 2.0


def _quadrature_slope_cdf(data, beta_hat, log_scale_prior):
    """CDF of the slope of a two-column gaussian linear model, on a grid.

    The posterior under a flat coefficient prior and the scale prior
    ``log_scale_prior(phi)`` is integrated over the intercept and log(phi)
    numerically at each slope node, then accumulated over the slope. The
    residual sum of squares at beta is D + q(beta - beta_hat) with q built from
    X'X, so no per-observation array is formed on the grid.
    """
    X, n = data.X, data.n
    A = X.T @ X
    D = float(np.sum((data.y - X @ beta_hat) ** 2))
    phi_hat = D / (n - 2)
    s0 = math.sqrt(phi_hat / A[0, 0])
    s1 = math.sqrt(phi_hat * np.linalg.inv(A)[1, 1])
    b1 = beta_hat[1] + s1 * np.linspace(-12.0, 12.0, 241)
    u = s0 * np.linspace(-30.0, 30.0, 121)     # intercept offset from its conditional mean
    t = math.log(phi_hat) + np.linspace(-2.0, 4.0, 81)
    phi = np.exp(t)
    # log posterior in (beta, log phi), up to one shared constant
    log_t = -0.5 * n * t + log_scale_prior(phi) + t
    log_ref = -0.5 * n * math.log(phi_hat) - D / (2.0 * phi_hat)
    dens = np.empty(b1.size)
    for i, x in enumerate(b1):
        d1 = x - beta_hat[1]
        d0 = u - A[0, 1] / A[0, 0] * d1
        q = A[0, 0] * d0 ** 2 + 2.0 * A[0, 1] * d0 * d1 + A[1, 1] * d1 ** 2
        logf = log_t[None, :] - (D + q)[:, None] / (2.0 * phi[None, :]) - log_ref
        dens[i] = np.trapezoid(np.trapezoid(np.exp(logf), t, axis=1), u)
    cdf = cumulative_simpson(dens, x=b1, initial=0.0)
    return b1, cdf / cdf[-1], s1


class TestScaleMarginalOracle:
    """Unknown-scale beta marginal against quadrature over (beta_0, log phi)."""

    PRIORS = {
        "jeffreys": (pg.ScalePriorSpec("jeffreys"), lambda phi: -np.log(phi)),
        "uniform": (pg.ScalePriorSpec("uniform"), lambda phi: np.zeros_like(phi)),
    }

    @pytest.mark.parametrize("kind", sorted(PRIORS))
    def test_marginal_cdf_matches_quadrature(self, gaussian_fit, kind):
        data, fit = gaussian_fit
        spec, log_prior = self.PRIORS[kind]
        b1, cdf, s1 = _quadrature_slope_cdf(data, fit.beta_hat, log_prior)
        post = laplace_posterior(fit, spec, "gaussian").beta_posterior
        for k in (-5.0, -3.0, -2.0, -1.0, 1.0, 3.0):
            i = int(np.argmin(np.abs(b1 - (fit.beta_hat[1] + k * s1))))
            assert _marginal_cdf(post, 1, b1[i]) == pytest.approx(cdf[i], rel=1e-4)

    @pytest.mark.parametrize("kind", sorted(PRIORS))
    def test_tail_comparison_matches_quadrature(self, gaussian_fit, kind):
        # two-sided tail at a reference value k scale units below beta_hat,
        # where the Wald statistic (scale D/(n-p)) is k
        data, fit = gaussian_fit
        _, log_prior = self.PRIORS[kind]
        b1, cdf, s1 = _quadrature_slope_cdf(data, fit.beta_hat, log_prior)
        key = "p_t_jeffreys" if kind == "jeffreys" else "p_t_uniform"
        for k in (1.0, 2.0, 3.0, 4.0):
            i = int(np.argmin(np.abs(b1 - (fit.beta_hat[1] - k * s1))))
            z = (fit.beta_hat[1] - b1[i]) / s1
            out = pg.tail_comparison(z, data.n - data.p)
            assert out[key] == pytest.approx(2.0 * cdf[i], rel=1e-4)


def _kernel_models():
    """One model per family on 12 observations.

    From 8 observations on, the kernel's sum down each column and the row sum
    of ``log_likelihood`` add the terms in different orders.
    """
    rng = np.random.default_rng(11)
    n = 12
    X = np.column_stack([np.ones(n), rng.uniform(-1.0, 1.0, n)])
    off = rng.uniform(-0.3, 0.3, n)
    m = rng.integers(5, 40, n).astype(float)
    return {
        "gaussian": ("identity", ModelData(y=rng.normal(1.0, 1.0, n), X=X, offset=off), 0.7),
        "poisson": ("log", ModelData(y=rng.poisson(4.0, n).astype(float), X=X, offset=off), 1.0),
        "binomial": ("logit", ModelData(y=rng.binomial(m.astype(int), 0.4) / m, X=X, offset=off,
                                        weights=m), 1.0),
        "gamma": ("log", ModelData(y=rng.gamma(3.0, 0.5, n), X=X, offset=off), 0.4),
    }


def _loglik_by_point(family, link, data, betas, phi):
    """glm.log_likelihood at each point, with DomainError mapped to -inf."""
    out = np.empty(len(betas))
    for k, b in enumerate(betas):
        try:
            out[k] = pg.log_likelihood(family, link, b, phi, data)
        except pg.DomainError:
            out[k] = -np.inf
    return out


class TestVectorizedLoglikOracle:
    @pytest.mark.parametrize("family", ["gaussian", "poisson", "binomial", "gamma"])
    def test_batch_and_single_point_match_log_likelihood(self, family):
        link, data, phi = _kernel_models()[family]
        betas = np.random.default_rng(3).normal([0.5, -0.3], 0.4, size=(200, 2))
        ll = pg.vectorized_loglik(family, link, data, phi)
        got = ll(betas)
        assert got.shape == (200,)
        np.testing.assert_allclose(got, _loglik_by_point(family, link, data, betas, phi),
                                   rtol=1e-13, atol=0.0)
        single = ll(betas[0])
        assert single.shape == (1,)
        assert single[0] == pytest.approx(pg.log_likelihood(family, link, betas[0], phi, data),
                                          rel=1e-13)

    def test_mixed_domain_gives_minus_inf_exactly_where_log_likelihood_raises(self):
        data = ModelData(y=np.array([2.0, 9.0, 5.0, 3.0, 7.0, 0.0, 4.0, 6.0, 1.0, 8.0]),
                         X=np.column_stack([np.ones(10), np.linspace(-1.0, 1.0, 10)]))
        betas = np.column_stack([np.linspace(-1.0, 8.0, 30), np.linspace(6.0, -4.0, 30)])
        ll = pg.vectorized_loglik("poisson", "identity", data)
        ref = _loglik_by_point("poisson", "identity", data, betas, 1.0)
        got = ll(betas)
        assert np.isneginf(ref).any() and np.isfinite(ref).any()
        assert np.array_equal(np.isneginf(got), np.isneginf(ref))
        f = np.isfinite(ref)
        np.testing.assert_allclose(got[f], ref[f], rtol=1e-13, atol=0.0)
        single = np.array([ll(b)[0] for b in betas])
        assert np.array_equal(np.isneginf(single), np.isneginf(ref))
        np.testing.assert_allclose(single[f], ref[f], rtol=1e-13, atol=0.0)


def _with_design(data, X):
    return ModelData(y=data.y, X=X, offset=data.offset, weights=data.weights)


def _zero_one_design(n, p):
    """Rows cycling through every 0/1 pattern of p columns: row 0 touches no axis."""
    return np.array([[float((i >> j) & 1) for j in range(p)] for i in range(n)])


def _dense_design(X, p):
    extra = np.random.default_rng(12).uniform(-1.0, 1.0, len(X))
    return np.column_stack([X, extra])[:, :p]


# Slabs run along axis 0. The first three shapes end on a partial slab: slabs
# of 16384 rows of 1 node, 20 rows of 803 and 18 rows of 29 x 31. In the
# last, one row of 803 x 37 nodes is already past 16384, so each slab is one row.
_ORACLE_SHAPES = [(20001,), (129, 803), (23, 29, 31), (3, 803, 37)]


class TestLoglikGridOracle:
    """The grid form against the points kernel at every node of the grid."""

    @staticmethod
    def _both(family, link, data, phi, shape):
        axes = [np.linspace(-0.9 + 0.1 * j, 1.1 - 0.2 * j, r) for j, r in enumerate(shape)]
        got = pg.vectorized_loglik(family, link, data, phi).grid(axes)
        ref = _loglik_points(FAMILIES[family], LINKS[link], data, _grid_nodes(axes), phi)
        assert got.shape == shape
        return got, ref.reshape(shape)

    @pytest.mark.parametrize("shape", _ORACLE_SHAPES)
    @pytest.mark.parametrize("family", ["gaussian", "poisson", "binomial", "gamma"])
    def test_zero_one_design_bit_for_bit(self, family, shape):
        link, data, phi = _kernel_models()[family]
        data = _with_design(data, _zero_one_design(data.n, len(shape)))
        got, ref = self._both(family, link, data, phi, shape)
        assert np.isfinite(ref).all()
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("shape", _ORACLE_SHAPES)
    @pytest.mark.parametrize("family", ["gaussian", "poisson", "binomial", "gamma"])
    def test_dense_design(self, family, shape):
        link, data, phi = _kernel_models()[family]
        data = _with_design(data, _dense_design(data.X, len(shape)))
        got, ref = self._both(family, link, data, phi, shape)
        assert np.isfinite(ref).all()
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("shape", [(803,), (129, 803)])
    def test_mixed_domain_gives_the_same_minus_inf(self, shape):
        data = ModelData(y=np.array([2.0, 9.0, 5.0, 3.0, 7.0, 0.0, 4.0, 6.0, 1.0, 8.0]),
                         X=np.column_stack([np.ones(10), np.linspace(-1.0, 1.0, 10)])[:, :len(shape)])
        axes = [np.linspace(-1.0, 8.0, shape[0]), np.linspace(-4.0, 6.0, 803)][:len(shape)]
        got = pg.vectorized_loglik("poisson", "identity", data).grid(axes)
        ref = _loglik_points(FAMILIES["poisson"], LINKS["identity"], data, _grid_nodes(axes),
                             1.0).reshape(shape)
        assert np.isneginf(ref).any() and np.isfinite(ref).any()
        assert np.array_equal(np.isneginf(got), np.isneginf(ref))
        f = np.isfinite(ref)
        np.testing.assert_allclose(got[f], ref[f], rtol=1e-13, atol=0.0)


class TestGridPosterior:
    def test_matches_analytic_normal(self):
        # gaussian likelihood with flat prior: posterior is exactly normal
        data = ModelData(y=np.array([0.8, 1.2, 1.0, 0.6]), X=np.ones((4, 1)))
        ll = pg.vectorized_loglik("gaussian", "identity", data)
        # bounds wide enough (~8 sd each side) that truncated mass is negligible
        gp = grid_posterior(ll, [None], [(-3.0, 5.0)], resolution=1601)
        assert gp.proper
        grid, dens = gp.marginal(0)
        ybar = data.y.mean()
        expect = stats.norm.pdf(grid, ybar, 0.5)
        assert np.max(np.abs(dens - expect)) < 1e-6
        m, s = gp.mean_sd(0)
        assert m == pytest.approx(ybar, abs=1e-8)
        assert s == pytest.approx(0.5, abs=1e-5)
        assert gp.marginal_cdf_at(0, ybar + 0.5) == pytest.approx(
            stats.norm.cdf(1.0), abs=1e-5
        )

    def test_prior_shifts_posterior(self):
        data = ModelData(y=np.array([0.8, 1.2, 1.0, 0.6]), X=np.ones((4, 1)))
        ll = pg.vectorized_loglik("gaussian", "identity", data)
        prior = pg.PriorSpec("test_fixed_sigma", beta0=0.0, sigma=0.5)
        gp = grid_posterior(ll, [prior], [(-2.0, 3.0)], resolution=801)
        # conjugate normal-normal update, derived by hand
        post_var = 1.0 / (4.0 / 1.0 + 1.0 / 0.25)
        post_mean = post_var * (data.y.sum() / 1.0)
        m, s = gp.mean_sd(0)
        assert m == pytest.approx(post_mean, abs=1e-6)
        assert s == pytest.approx(math.sqrt(post_var), abs=1e-5)

    def test_sampling(self):
        data = ModelData(y=np.array([0.8, 1.2, 1.0, 0.6]), X=np.ones((4, 1)))
        ll = pg.vectorized_loglik("gaussian", "identity", data)
        gp = grid_posterior(ll, [None], [(-1.0, 3.0)], resolution=801)
        draws = gp.sample(20000, pg.RngStream(4, 1))
        assert draws[:, 0].mean() == pytest.approx(data.y.mean(), abs=0.02)
        assert draws[:, 0].std() == pytest.approx(0.5, rel=0.05)

    def test_sample_draws_cells_from_the_joint_on_the_2d_route(self, credence_primary):
        data, fit = credence_primary
        bounds = [(b - 8 * s, b + 8 * s) for b, s in zip(fit.beta_hat, fit.se(1.0))]
        ll = pg.vectorized_loglik("poisson", "log", data)
        gp = grid_posterior(ll, [INTERCEPT_PRIOR, None], bounds, resolution=201)
        draws = gp.sample(5000, pg.RngStream(8, 2))
        for j in (0, 1):
            mean, sd = gp.mean_sd(j)
            assert abs(draws[:, j].mean() - mean) < 5.0 * sd / math.sqrt(5000)
        improper = dataclasses.replace(gp, proper=False)
        with pytest.raises(pg.SupportError):
            improper.sample(10, pg.RngStream(8, 3))

    def test_improper_flagged_and_density_withheld(self, dapa_dka):
        # the intercept is summed out; the improper check still comes first on its index
        data, _ = dapa_dka
        ll = pg.vectorized_loglik("poisson", "log", data)
        gp = grid_posterior(ll, [None, None], [(-25.0, 10.0), (-60.0, 20.0)],
                            resolution=201)
        assert gp.summed is not None and not gp.proper
        for index in (0, -1):
            with pytest.raises(pg.SupportError):
                gp.marginal(index)

    def test_marginals_cached_read_only_and_indexed_from_the_end(self, credence_primary):
        data, fit = credence_primary
        se = fit.se(1.0)
        bounds = [(b - 8 * s, b + 8 * s) for b, s in zip(fit.beta_hat, se)]
        ll = pg.vectorized_loglik("poisson", "log", data)
        gp = grid_posterior(ll, [INTERCEPT_PRIOR, None], bounds, resolution=201)
        grid, dens = gp.marginal(1)
        assert gp.marginal(-1) is gp.marginal(1)
        assert np.array_equal(gp.marginal(-2)[1], gp.marginal(0)[1])
        with pytest.raises(ValueError):
            dens[0] = 1.0
        with pytest.raises(ValueError):
            grid[0] = 1.0
        assert gp.axes[1].flags.writeable
        first = pg.pi_value_from_grid(gp, 1)
        assert gp.mean_sd(1) == gp.mean_sd(-1)
        assert pg.pi_value_from_grid(gp, 1) == first == pg.pi_value_from_grid(gp, -1)
        assert gp.marginal_cdf_at(-1, 0.0) == gp.marginal_cdf_at(1, 0.0)
        for bad in (2, -3):
            with pytest.raises(pg.DomainError):
                gp.marginal(bad)
            with pytest.raises(pg.DomainError):
                pg.pi_value_from_grid(gp, bad)

    def test_marginal_summaries_need_no_joint_grid(self, credence_primary):
        # the marginals are built once with the grid; pi, mean_sd and
        # edge_mass read them and never touch the joint density again
        data, fit = credence_primary
        se = fit.se(1.0)
        bounds = [(b - 8 * s, b + 8 * s) for b, s in zip(fit.beta_hat, se)]
        ll = pg.vectorized_loglik("poisson", "log", data)
        gp = grid_posterior(ll, [INTERCEPT_PRIOR, None], bounds, resolution=201)
        assert isinstance(gp.marginals, tuple) and len(gp.marginals) == 2
        assert {f.name for f in dataclasses.fields(gp)} == {
            "axes", "joint", "mass", "proper", "marginals", "summed"}
        with pytest.raises(ValueError):
            gp.joint[0, 0] = 1.0
        bare = dataclasses.replace(gp, joint=None)
        for index in (0, 1):
            assert pg.pi_value_from_grid(bare, index) == pg.pi_value_from_grid(gp, index)
            assert bare.mean_sd(index) == gp.mean_sd(index)
            assert bare.edge_mass(index) == gp.edge_mass(index)
        # each marginal is the joint density integrated over the other axis
        dens = gp.joint / gp.mass
        for index, other in ((0, 1), (1, 0)):
            grid, marg = gp.marginal(index)
            ref = np.trapezoid(dens, gp.axes[other], axis=other)
            np.testing.assert_allclose(marg, ref, rtol=1e-12, atol=1e-300)

    def test_edge_mass_shrinks_with_wider_bounds(self, credence_primary):
        data, fit = credence_primary
        se = fit.se(1.0)
        ll = pg.vectorized_loglik("poisson", "log", data)
        for k, check in ((8.0, lambda e: e < 1e-12), (1.0, lambda e: e > 1e-4)):
            bounds = [(b - k * s, b + k * s) for b, s in zip(fit.beta_hat, se)]
            gp = grid_posterior(ll, [INTERCEPT_PRIOR, None], bounds, resolution=801)
            for index in (0, 1):
                lo, hi = gp.edge_mass(index)
                assert check(lo) and check(hi), (k, index, lo, hi)

    def test_dimension_limit(self):
        with pytest.raises(pg.DomainError):
            grid_posterior(lambda b: np.zeros(len(b)), [None] * 4, [(-1, 1)] * 4)

    def test_plain_callable_refused(self):
        with pytest.raises(pg.DomainError, match="vectorized_loglik"):
            grid_posterior(lambda b: np.zeros(len(b)), [None], [(-1, 1)])

    @pytest.mark.parametrize("b1,resolution", [
        ((1.0, -1.0), 801), ((-1.0, -1.0), 801), ((math.nan, 1.0), 801),
        ((-1.0, math.inf), 801), ((-1.0, 1.0), 1)])
    def test_bad_bounds_or_resolution_refused(self, credence_primary, b1, resolution):
        # unchecked, reversed beta_1 bounds give pi = 0 and a NaN bound a "proper" posterior
        data, _ = credence_primary
        ll = pg.vectorized_loglik("poisson", "log", data)
        with pytest.raises(pg.DomainError, match="bounds"):
            grid_posterior(ll, [None, None], [(-5.0, 5.0), b1], resolution=resolution)

    def test_density_is_the_joint_over_its_trapezoid_mass(self, credence_primary):
        # oracle: the log posterior rebuilt from the grid log likelihood and
        # the prior, exponentiated less its max and normalized by its own integral
        data, fit = credence_primary
        bounds = [(b - 8 * s, b + 8 * s) for b, s in zip(fit.beta_hat, fit.se(1.0))]
        ll = pg.vectorized_loglik("poisson", "log", data)
        t_prior = pg.PriorSpec("test_invchisq", beta0=0.0, nu0=2.5, s=1.0)
        for prior in (None, t_prior):
            gp = grid_posterior(ll, [INTERCEPT_PRIOR, prior], bounds, resolution=201)
            lp = ll.grid(gp.axes)
            lp += np.asarray(pg.prior_logpdf(INTERCEPT_PRIOR, gp.axes[0]))[:, None]
            if prior is not None:
                lp += np.asarray(pg.prior_logpdf(prior, gp.axes[1]))[None, :]
            ref = np.exp(lp - lp.max())
            ref /= np.trapezoid(np.trapezoid(ref, gp.axes[1], axis=1), gp.axes[0])
            np.testing.assert_allclose(gp.joint / gp.mass, ref, rtol=1e-12, atol=0.0)

    @staticmethod
    def _peak_memory(credence_primary, priors):
        data, fit = credence_primary
        bounds = [(b - 8 * s, b + 8 * s) for b, s in zip(fit.beta_hat, fit.se(1.0))]
        ll = pg.vectorized_loglik("poisson", "log", data)
        tracemalloc.start()
        try:
            grid_posterior(ll, priors, bounds, resolution=801)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_of_an_801_grid(self, credence_primary):
        # the joint, exponentiated in place, and one marginal temporary are
        # grid-sized; the log likelihood is formed in slabs and each trapezoid
        # in one temporary
        assert self._peak_memory(credence_primary, [INTERCEPT_PRIOR, None]) <= 2.5 * 8 * 801**2

    def test_peak_memory_of_a_reduced_801_grid(self, credence_primary):
        # with the intercept summed out, no array is 801^2
        assert self._peak_memory(credence_primary, [None, None]) < 8 * 801**2


class TestSummedIntercept:
    """A flat Poisson/log intercept is summed out of the grid in closed form."""

    @pytest.mark.parametrize("family,link,priors,index", [
        ("poisson", "log", [None, None], 0),
        ("poisson", "log", [INTERCEPT_PRIOR, None], None),
        ("poisson", "identity", [None, None], None),
        ("binomial", "logit", [None, None], None),
    ])
    def test_route_conditions(self, family, link, priors, index):
        def summed_index(X, priors):
            model = dataclasses.replace(data, X=X)
            summed = pg.posterior._summed_intercept(pg.vectorized_loglik(family, link, model),
                                                    priors)
            return None if summed is None else summed.index

        data = ModelData(y=np.array([0.3, 0.6, 0.5]), X=np.column_stack(
            [np.ones(3), [0.0, 1.0, 2.0]]), weights=np.full(3, 20.0))
        assert summed_index(data.X, priors) == index
        # the column of ones need not come first, and p = 1 grids the intercept
        assert summed_index(data.X[:, ::-1], priors[::-1]) == (None if index is None else 1)
        assert summed_index(data.X[:, :1], priors[:1]) is None

    def test_zero_events_take_the_2d_route_and_are_improper(self):
        data = ModelData(y=np.zeros(2), X=np.array([[1.0, 1.0], [1.0, 0.0]]))
        ll = pg.vectorized_loglik("poisson", "log", data)
        gp = grid_posterior(ll, [None, None], [(-25.0, 10.0), (-60.0, 20.0)], resolution=201)
        assert gp.summed is None and gp.joint.shape == (201, 201)
        assert not gp.proper

    def test_summed_intercept_has_no_marginal(self, credence_primary):
        data, fit = credence_primary
        bounds = [(b - 8 * s, b + 8 * s) for b, s in zip(fit.beta_hat, fit.se(1.0))]
        gp = grid_posterior(pg.vectorized_loglik("poisson", "log", data), [None, None],
                            bounds, resolution=801)
        assert gp.summed.index == 0 and gp.p == 2 and gp.joint.shape == (801,)
        assert gp.marginals[0] is None and gp.marginal(-1) is gp.marginal(1)
        np.testing.assert_array_equal(gp.joint / gp.mass, gp.marginal(1)[1])
        for index in (0, -2):
            for read in (gp.marginal, gp.edge_mass, gp.mean_sd,
                         lambda j: pg.pi_value_from_grid(gp, j)):
                with pytest.raises(pg.DomainError, match="summed out"):
                    read(index)

    @pytest.mark.parametrize("outcome", [("CREDENCE", "primary"), ("CREDENCE", "dka"),
                                         ("DAPA-CKD", "primary")])
    @pytest.mark.parametrize("prior", [None, pg.PriorSpec("test_invchisq", beta0=0.0,
                                                          nu0=2.5, s=1.0)])
    def test_marginal_matches_a_2d_trapezoid(self, trial_records, outcome, prior):
        # oracle: the 2-D grid summed over alpha by the trapezoid rule at
        # beta0_hat +- 16 se, 2001 nodes, on the same beta1 axis
        data, _ = pg.trial_model_data(trial_records, *outcome)
        fit = fit_irls("poisson", "log", data)
        se = fit.se(1.0)
        bounds = [(b - 8 * s, b + 8 * s) for b, s in zip(fit.beta_hat, se)]
        ll = pg.vectorized_loglik("poisson", "log", data)
        gp = grid_posterior(ll, [None, prior], bounds, resolution=801)
        alpha = np.linspace(fit.beta_hat[0] - 16 * se[0], fit.beta_hat[0] + 16 * se[0], 2001)
        lp = ll.grid((alpha, gp.axes[1]))
        if prior is not None:
            lp += np.asarray(pg.prior_logpdf(prior, gp.axes[1]))[None, :]
        ref = np.trapezoid(np.exp(lp - lp.max()), alpha, axis=0)
        ref /= np.trapezoid(ref, gp.axes[1])
        grid, dens = gp.marginal(1)
        assert gp.proper and grid is not gp.axes[1]
        assert np.max(np.abs(dens - ref)) <= 1e-10 * ref.max()

    def test_three_parameters_match_a_3d_trapezoid(self):
        # the column of ones in the middle; oracle: the 3-D grid summed over
        # alpha by the trapezoid rule at alpha_hat +- 16 se, 801 nodes
        t = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        x = np.array([-1.0, -1.0, 0.0, 0.0, 1.0, 1.0])
        data = ModelData(y=np.array([12.0, 30.0, 7.0, 22.0, 15.0, 40.0]),
                         X=np.column_stack([t, np.ones(6), x]),
                         offset=np.log([1.0, 1.2, 0.8, 1.1, 0.9, 1.3]))
        fit = fit_irls("poisson", "log", data)
        se = fit.se(1.0)
        bounds = [(b - 6 * s, b + 6 * s) for b, s in zip(fit.beta_hat, se)]
        ll = pg.vectorized_loglik("poisson", "log", data)
        gp = grid_posterior(ll, [None, None, None], bounds, resolution=41)
        assert gp.summed.index == 1 and gp.joint.shape == (41, 41)
        alpha = np.linspace(fit.beta_hat[1] - 16 * se[1], fit.beta_hat[1] + 16 * se[1], 801)
        lp = ll.grid((gp.axes[0], alpha, gp.axes[2]))
        ref = np.trapezoid(np.exp(lp - lp.max()), alpha, axis=1)
        ref /= np.trapezoid(np.trapezoid(ref, gp.axes[2], axis=1), gp.axes[0])
        dens = gp.joint / gp.mass
        assert np.max(np.abs(dens - ref)) <= 1e-10 * ref.max()
        for index, other in ((0, 1), (2, 0)):
            marg = np.trapezoid(ref, gp.axes[2 - index], axis=other)
            assert np.max(np.abs(gp.marginal(index)[1] - marg)) <= 1e-10 * marg.max()

    def test_sample_matches_the_exact_moments(self, credence_primary):
        # under flat priors alpha and alpha + beta1 are independent log-Gamma
        # variables (tests/exact.py); each draw's intercept comes from its
        # exact conditional, so both coordinates match within 5 SE
        data, fit = credence_primary
        bounds = [(b - 8 * s, b + 8 * s) for b, s in zip(fit.beta_hat, fit.se(1.0))]
        gp = grid_posterior(pg.vectorized_loglik("poisson", "log", data), [None, None],
                            bounds, resolution=801)
        n = 40000
        draws = gp.sample(n, pg.RngStream(8, 1))
        assert draws.shape == (n, 2)
        y1, e1, y0, e0 = two_arm_counts(data)
        (m0, v0, k0), (_, _, k1) = log_gamma_cumulants(y0, e0), log_gamma_cumulants(y1, e1)
        m1, sd1 = flat_prior_moments(y1, e1, y0, e0)
        for j, (mean, var, k4) in enumerate([(m0, v0, k0), (m1, sd1**2, k0 + k1)]):
            assert abs(draws[:, j].mean() - mean) < 5.0 * math.sqrt(var / n), j
            assert abs(draws[:, j].var() - var) < 5.0 * math.sqrt((k4 + 2.0 * var**2) / n), j


class TestImproprietyDetector:
    # the tail-decay test that grid_posterior applies to each flat axis, here
    # on log densities tabulated on [-30, 30]
    @staticmethod
    def improper(logdens):
        axis = np.linspace(-30.0, 30.0, 601)
        return pg.posterior._grid_tail_improper(axis, np.array([logdens(b) for b in axis]))

    def test_heavy_but_integrable_tail_passes(self):
        # a Cauchy tail at |b| = 30 is within 1e-10 of its peak, but its slope is 0.067
        assert not self.improper(lambda b: float(stats.cauchy.logpdf(b)))

    def test_flat_tail_flagged(self):
        # one-sided plateau: log density -> 0 as b -> -inf; one flat end suffices
        assert self.improper(lambda b: -2.0 * math.log1p(math.exp(b)))
        assert self.improper(lambda b: -2.0 * math.log1p(math.exp(-b)))

    def test_gaussian_clean(self):
        assert not self.improper(lambda b: -0.5 * b * b)

    @pytest.mark.parametrize("logdens,improper", [
        (lambda b: -0.04 * abs(b), True),       # flat enough, tall enough
        (lambda b: -0.06 * abs(b), False),      # slope above 0.05 per unit
        (lambda b: -22.0 * (1.0 - math.exp(-abs(b) / 5.0)), True),
        (lambda b: -24.0 * (1.0 - math.exp(-abs(b) / 5.0)), False),  # below 1e-10 of peak
    ])
    def test_tail_rule_thresholds(self, logdens, improper):
        assert self.improper(logdens) is improper


class TestMetropolis:
    def test_standard_normal_target(self):
        chain = rw_metropolis(lambda b: -0.5 * float(b @ b), np.zeros(1),
                              np.eye(1), 20000, 4000, pg.RngStream(2, 1))
        assert 0.15 < chain.acceptance_rate < 0.6
        assert chain.draws[:, 0].mean() == pytest.approx(0.0, abs=0.05)
        assert chain.draws[:, 0].std() == pytest.approx(1.0, rel=0.05)

    def test_deterministic_given_stream(self):
        kw = dict(n_iter=2000, burn_in=500, stream=pg.RngStream(2, 9))
        a = rw_metropolis(lambda b: -0.5 * float(b @ b), np.zeros(2), np.eye(2), **kw)
        b = rw_metropolis(lambda b: -0.5 * float(b @ b), np.zeros(2), np.eye(2), **kw)
        assert np.array_equal(a.draws, b.draws)

    def test_bad_init_rejected(self):
        with pytest.raises(pg.DomainError):
            rw_metropolis(lambda b: -np.inf, np.zeros(1), np.eye(1), 100, 10,
                          pg.RngStream(2, 2))

    @pytest.mark.parametrize("n_iter,burn_in", [(0, 10), (-3, 10), (100, -5)])
    def test_bad_sizes_rejected(self, n_iter, burn_in):
        with pytest.raises(pg.DomainError, match="n_iter >= 1 and burn_in >= 0"):
            rw_metropolis(lambda b: -0.5 * float(b @ b), np.zeros(1), np.eye(1), n_iter,
                          burn_in, pg.RngStream(2, 4))

    @pytest.mark.parametrize("cov", [
        [[1.0, 2.0], [2.0, 1.0]],
        np.eye(3),
        [[1.0, np.nan], [np.nan, 1.0]],
        [[np.inf, 0.0], [0.0, 1.0]],
        [[1.0, 50.0], [0.1, 1.0]],
        [[1.0, 0.1], [0.1 + 1e-9, 1.0]],
    ], ids=["not_positive_definite", "3x3", "nan", "inf", "asymmetric", "asymmetric_1e-9"])
    def test_bad_proposal_cov_rejected_before_any_step(self, cov):
        calls = []

        def log_post(b):
            calls.append(b)
            return -0.5 * float(b @ b)

        with pytest.raises(pg.DomainError, match="proposal_cov"):
            pg.rw_metropolis(log_post, np.zeros(2), cov, 100, 10, pg.RngStream(2, 5))
        assert calls == []

    def test_inverted_covariance_passes_the_symmetry_check(self, dapa_dka):
        # np.linalg.inv leaves DAPA-CKD/dka's cov_unscaled asymmetric in its last bits
        cov = dapa_dka[1].cov_unscaled
        assert 0.0 < np.abs(cov - cov.T).max() < 1e-20 * np.abs(cov).max()
        chain = pg.rw_metropolis(lambda b: 0.0, np.zeros(2), cov, 10, 0, pg.RngStream(2, 6))
        assert chain.draws.shape == (10, 2)

    def test_frozen_chain_raises_mixing_error(self):
        # density is a point mass at the start: every proposal is rejected
        target = lambda b: 0.0 if float(np.abs(b).max()) == 0.0 else -np.inf
        with pytest.raises(pg.MixingError):
            rw_metropolis(target, np.zeros(1), np.eye(1), 500, 100, pg.RngStream(2, 3))


class TestNormalizedLikelihoodDensity:
    def test_integral_and_agreement_with_grid(self, credence_primary):
        data, fit = credence_primary
        se = fit.se(1.0)
        g0 = np.linspace(fit.beta_hat[0] - 6 * se[0], fit.beta_hat[0] + 6 * se[0], 201)
        g1 = np.linspace(fit.beta_hat[1] - 6 * se[1], fit.beta_hat[1] + 6 * se[1], 201)
        out = pg.p_formula_density(fit, "poisson", "log", data, (g0, g1))
        # frozen value: the raw normal-approximation constant overshoots the
        # true normalizer by ~6e-4 on this model
        assert out["raw_integral"] == pytest.approx(1.0005853952151607, rel=1e-9)
        # the exact flat-prior joint; the two differ by the grid's truncation
        # and trapezoid error
        exact = two_arm_joint(g0, g1, *two_arm_counts(data))
        assert np.max(np.abs(exact - out["renormalized"])) < 1e-3

    def test_boundary_rejected(self, dapa_dka):
        data, fit = dapa_dka
        with pytest.raises(pg.BoundaryError):
            pg.p_formula_density(fit, "poisson", "log", data,
                                 (np.linspace(-1, 1, 11), np.linspace(-1, 1, 11)))
