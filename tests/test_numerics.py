import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import piglm as pg
from piglm.numerics import (
    erfc_inverse,
    exp_integral_gamma0,
    std_normal_cdf,
    std_normal_logpdf,
    std_normal_quantile,
    student_t_cdf,
    student_t_logpdf,
)


class TestNormal:
    def test_center_and_symmetry(self):
        assert std_normal_cdf(0.0) == 0.5
        assert std_normal_cdf(1.0) + std_normal_cdf(-1.0) == pytest.approx(1.0, abs=1e-15)

    def test_known_quantile(self):
        # 97.5% point, a constant known to far more digits than we need
        assert std_normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-12)
        assert std_normal_cdf(-1.959963984540054) == pytest.approx(0.025, abs=1e-15)

    def test_far_tail_keeps_relative_precision(self):
        # oracle: asymptotic expansion Phi(-x) ~ phi(x)/x * (1 - 1/x^2 + 3/x^4)
        x = 37.0
        lead = math.exp(std_normal_logpdf(x)) / x
        asym = lead * (1.0 - 1.0 / x**2 + 3.0 / x**4)
        val = std_normal_cdf(-x)
        assert val > 0.0
        assert val == pytest.approx(asym, rel=1e-6)

    @given(st.floats(min_value=1e-12, max_value=1 - 1e-12))
    @settings(max_examples=50, deadline=None)
    def test_quantile_roundtrip(self, p):
        assert std_normal_cdf(std_normal_quantile(p)) == pytest.approx(p, rel=1e-9)

    def test_vector_in_scalar_out(self):
        out = std_normal_cdf(np.array([-1.0, 0.0, 1.0]))
        assert out.shape == (3,)
        assert isinstance(std_normal_cdf(0.3), float)

    def test_domain(self):
        with pytest.raises(pg.DomainError):
            std_normal_quantile(0.0)
        with pytest.raises(pg.DomainError):
            std_normal_quantile(1.0)
        with pytest.raises(pg.DomainError):
            std_normal_cdf(float("nan"))


class TestStudentT:
    def test_cauchy_closed_form(self):
        # nu=1 cdf is 1/2 + arctan(x)/pi
        for x in (-3.0, -0.5, 0.0, 1.2, 10.0):
            assert student_t_cdf(x, 1.0) == pytest.approx(0.5 + math.atan(x) / math.pi, abs=1e-12)

    def test_two_dof_closed_form(self):
        # nu=2 cdf is 1/2 + x / (2 sqrt(2 + x^2))
        for x in (-2.0, 0.7, 4.0):
            assert student_t_cdf(x, 2.0) == pytest.approx(
                0.5 + x / (2.0 * math.sqrt(2.0 + x * x)), abs=1e-12
            )

    def test_logpdf_integrates_to_one(self):
        from scipy import integrate

        val, _ = integrate.quad(lambda x: math.exp(student_t_logpdf(x, 2.5, 0.3, 1.7)),
                                -np.inf, np.inf)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_large_dof_approaches_normal(self):
        assert student_t_cdf(1.3, 1e6) == pytest.approx(std_normal_cdf(1.3), abs=1e-6)

    def test_domain(self):
        with pytest.raises(pg.DomainError):
            student_t_cdf(0.0, 0.0)
        with pytest.raises(pg.DomainError):
            student_t_logpdf(0.0, 1.0, scale=0.0)


class TestExpIntegral:
    def test_known_value(self):
        # Gamma(0, 1) = 0.21938393439552027... (standard tabulated constant)
        assert exp_integral_gamma0(1.0) == pytest.approx(0.21938393439552027, rel=1e-12)

    def test_small_argument_log_behavior(self):
        # Gamma(0, x) ~ -gamma_euler - log x as x -> 0
        x = 1e-12
        assert exp_integral_gamma0(x) == pytest.approx(
            -0.5772156649015329 - math.log(x), rel=1e-10
        )

    def test_domain(self):
        with pytest.raises(pg.DomainError):
            exp_integral_gamma0(0.0)
        with pytest.raises(pg.DomainError):
            exp_integral_gamma0(-1.0)


class TestErfcInverse:
    @given(st.floats(min_value=1e-10, max_value=2 - 1e-10))
    @settings(max_examples=50, deadline=None)
    def test_consistency_with_normal_quantile(self, p):
        # erfcinv(p) = -Phi^{-1}(p/2)/sqrt(2)
        assert erfc_inverse(p) == pytest.approx(
            -std_normal_quantile(p / 2.0) / math.sqrt(2.0), rel=1e-9, abs=1e-12
        )

    def test_domain(self):
        with pytest.raises(pg.DomainError):
            erfc_inverse(0.0)
        with pytest.raises(pg.DomainError):
            erfc_inverse(2.0)


class TestRngStream:
    def test_deterministic(self):
        a = pg.RngStream(12, 3).generator().standard_normal(8)
        b = pg.RngStream(12, 3).generator().standard_normal(8)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = pg.RngStream(12, 3).generator().standard_normal(8)
        b = pg.RngStream(12, 4).generator().standard_normal(8)
        c = pg.RngStream(13, 3).generator().standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_child(self):
        s = pg.RngStream(99)
        assert s.child(7) == pg.RngStream(99, 7)


class TestMixture:
    def test_unimodal_picks_one_component(self, rng):
        x = rng.normal(-0.3, 0.08, 5000)
        model = pg.fit_gaussian_mixture_1d(x, stream=pg.RngStream(1, 1))
        assert model.count == 1
        assert model.means[0] == pytest.approx(-0.3, abs=0.01)
        assert model.sds[0] == pytest.approx(0.08, rel=0.1)

    def test_bimodal_recovery(self, rng):
        x = np.concatenate([rng.normal(-2.0, 0.5, 3000), rng.normal(1.5, 0.3, 2000)])
        model = pg.fit_gaussian_mixture_1d(x, stream=pg.RngStream(1, 2))
        assert model.count == 2
        assert model.means == pytest.approx([-2.0, 1.5], abs=0.1)
        assert model.weights == pytest.approx([0.6, 0.4], abs=0.05)

    def test_loglik_path_monotone(self, rng):
        x = np.concatenate([rng.normal(-1.0, 0.4, 800), rng.normal(1.0, 0.4, 800)])
        model, path = pg.fit_gaussian_mixture_1d(x, stream=pg.RngStream(1, 3),
                                                 return_ll_path=True)
        assert all(b >= a - 1e-9 for a, b in zip(path, path[1:]))

    def test_logpdf_matches_quadrature_mass(self, rng):
        from scipy import integrate

        x = rng.normal(0.0, 1.0, 2000)
        model = pg.fit_gaussian_mixture_1d(x, stream=pg.RngStream(1, 4))
        val, _ = integrate.quad(lambda t: math.exp(model.logpdf(t)), -np.inf, np.inf)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_tail_pi_single_component_closed_form(self, rng):
        x = rng.normal(2.0, 1.0, 4000)
        model = pg.fit_gaussian_mixture_1d(x, stream=pg.RngStream(1, 5))
        assert model.count == 1
        expected = 2.0 * std_normal_cdf(-abs(model.means[0]) / model.sds[0])
        assert pg.mixture_tail_pi(model) == pytest.approx(expected, rel=1e-12)

    def test_single_component_closed_form_oracle(self, rng):
        x = rng.normal(0.7, 1.3, 3000)
        model = pg.fit_gaussian_mixture_1d(x, g_max=1)
        assert model.weights.tolist() == [1.0]
        assert model.means[0] == pytest.approx(x.mean(), rel=1e-12)
        assert model.sds[0] == pytest.approx(x.std(), rel=1e-12)
        expected_ll = stats.norm.logpdf(x, x.mean(), x.std()).sum()
        assert model.loglik == pytest.approx(expected_ll, rel=1e-12)

    def test_em_fit_is_a_fixed_point_of_one_m_step(self):
        # responsibilities from scipy's normal density, then one M step by hand;
        # EM stops on a relative log-likelihood gain of 1e-8, so the residual
        # step scales with its convergence rate: the components are well apart
        gen = np.random.default_rng(31)
        x = np.concatenate([gen.normal(-1.5, 0.6, 2500), gen.normal(2.5, 0.5, 1500)])
        model = pg.fit_gaussian_mixture_1d(x, stream=pg.RngStream(1, 6))
        assert model.count == 2
        dens = model.weights * stats.norm.pdf(x[:, None], model.means, model.sds)
        r = dens / dens.sum(axis=1, keepdims=True)
        nk = r.sum(axis=0)
        means = r.T @ x / nk
        sds = np.sqrt((r * (x[:, None] - means) ** 2).sum(axis=0) / nk)
        assert nk / x.size == pytest.approx(model.weights, abs=1e-6)
        assert means == pytest.approx(model.means, abs=1e-6)
        assert sds == pytest.approx(model.sds, abs=1e-6)
        assert model.loglik == pytest.approx(np.log(dens.sum(axis=1)).sum(), rel=1e-10)

    def test_degenerate_inputs(self):
        with pytest.raises(pg.DegeneracyError):
            pg.fit_gaussian_mixture_1d(np.ones(500))
        with pytest.raises(pg.DegeneracyError):
            pg.fit_gaussian_mixture_1d(np.arange(10.0))
