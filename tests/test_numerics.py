import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import piglm as pg
from piglm import numerics
from piglm.numerics import (
    std_normal_cdf,
    std_normal_logcdf,
    std_normal_quantile,
    student_t_cdf,
    student_t_logpdf,
    two_sided_tail,
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
        lead = math.exp(stats.norm.logpdf(x)) / x
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

    def test_logcdf_past_underflow(self):
        # log Phi(-x) from the same asymptotic series, where Phi(-x) itself is 0
        for x in (37.0, 40.0, 1e3):
            lead = stats.norm.logpdf(x) - math.log(x)
            asym = lead + math.log1p(-1.0 / x**2 + 3.0 / x**4 - 15.0 / x**6)
            assert std_normal_logcdf(-x) == pytest.approx(asym, rel=1e-12)
        assert std_normal_cdf(-40.0) == 0.0
        assert std_normal_logcdf(np.array([0.0]))[0] == pytest.approx(math.log(0.5), rel=1e-15)
        assert isinstance(std_normal_logcdf(0.3), float)
        with pytest.raises(pg.DomainError):
            std_normal_logcdf(float("nan"))

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

    def test_cauchy_relative_precision_near_zero_and_in_the_tail(self):
        # F(x) = atan2(1, -x)/pi: 1/2 + x/pi near 0, and 1/(pi |x|) far below
        for x in (1e-8, -1e-8, 4e-10):
            assert student_t_cdf(x, 1.0) == pytest.approx(0.5 + x / math.pi, rel=1e-15)
        assert student_t_cdf(-1e12, 1.0) == pytest.approx(1.0 / (math.pi * 1e12), rel=1e-12)

    def test_two_dof_closed_form(self):
        # nu=2 cdf is 1/2 + x / (2 sqrt(2 + x^2))
        for x in (-2.0, 0.7, 4.0):
            assert student_t_cdf(x, 2.0) == pytest.approx(
                0.5 + x / (2.0 * math.sqrt(2.0 + x * x)), abs=1e-12
            )

    def test_logpdf_integrates_to_one(self):
        from scipy import integrate

        val, _ = integrate.quad(lambda x: math.exp(student_t_logpdf(x, 2.5, 1.7)),
                                -np.inf, np.inf)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_large_dof_approaches_normal(self):
        assert student_t_cdf(1.3, 1e6) == pytest.approx(std_normal_cdf(1.3), abs=1e-6)

    def test_domain(self):
        with pytest.raises(pg.DomainError):
            student_t_cdf(0.0, 0.0)
        with pytest.raises(pg.DomainError):
            student_t_logpdf(0.0, 1.0, scale=0.0)


class TestGaussLegendre:
    def test_exact_to_degree_2n_minus_1_and_read_only(self):
        nodes, weights = pg.numerics.gauss_legendre(32)
        for k in (0, 2, 62):
            assert weights @ nodes**k == pytest.approx(2.0 / (k + 1), rel=1e-13)
        assert weights @ nodes**63 == pytest.approx(0.0, abs=1e-15)
        assert pg.numerics.gauss_legendre(32)[0] is nodes
        with pytest.raises(ValueError):
            nodes[0] = 0.0


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

    def test_child_depends_on_its_parent(self):
        # a harness seeded RngStream(5, 1) must not run the replicates of RngStream(5, 9)
        kids = [pg.RngStream(5, parent).child(2) for parent in (1, 9, 2**64 - 1)]
        kids += [kid.child(3) for kid in kids]
        assert len(set(kids)) == len(kids) and pg.RngStream(5, 2) not in kids
        draws = [kid.generator().standard_normal(4) for kid in kids[:2]]
        assert not np.array_equal(*draws)


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

    def test_loglik_path_monotone(self, rng, monkeypatch):
        # one EM start from poor means, stopped after 1, 2, ..., k iterations:
        # no iteration lowers the log likelihood
        x = np.concatenate([rng.normal(-1.0, 0.4, 800), rng.normal(1.0, 0.4, 800)])

        def run(max_iter):
            monkeypatch.setattr(numerics, "EM_MAX_ITER", max_iter)
            *_, ll, iters, _ = numerics._em_batch(
                x, np.ones(x.size), np.full((1, 2), 0.5), np.array([[-0.1, 0.2]]),
                np.full((1, 2), 1.0), 1e-6, bar=-math.inf)
            return ll[0], iters[0]

        ll_end, k = run(500)
        assert k > 10
        path = [run(i) for i in range(1, k + 1)]
        assert [i for _, i in path] == list(range(1, k + 1))
        assert path[-1][0] == ll_end
        assert all(b >= a - 1e-9 for (a, _), (b, _) in zip(path, path[1:]))

    def test_tail_masses_sum_to_one(self, rng):
        # the weights of a fitted mixture sum to 1, so its two tails do too
        x = np.concatenate([rng.normal(-1.0, 0.4, 1000), rng.normal(1.0, 0.4, 1000)])
        model = pg.fit_gaussian_mixture_1d(x, stream=pg.RngStream(1, 4))
        assert model.count > 1
        assert sum(pg.mixture_tails(model)) == pytest.approx(1.0, abs=1e-12)

    def test_tail_pi_single_component_closed_form(self, rng):
        x = rng.normal(2.0, 1.0, 4000)
        model = pg.fit_gaussian_mixture_1d(x, stream=pg.RngStream(1, 5))
        assert model.count == 1
        lower, upper = pg.mixture_tails(model)
        z = model.means[0] / model.sds[0]
        assert lower == pytest.approx(stats.norm.cdf(-z), rel=1e-12)
        assert upper == pytest.approx(stats.norm.cdf(z), rel=1e-12)

    def test_tails_of_components_on_both_sides(self):
        # w = (1/2, 1/2), m = (-1, 1), s = 1: half the mass on each side, so
        # pi = 1; summing two-sided tails per component gives 2 Phi(-1) = 0.317
        model = pg.MixtureModel1D(np.array([0.5, 0.5]), np.array([-1.0, 1.0]),
                                  np.ones(2), 0.0, 0.0, 0)
        assert pg.mixture_tails(model) == (0.5, 0.5)
        model = pg.MixtureModel1D(np.array([0.7, 0.3]), np.array([-1.0, 2.0]),
                                  np.array([0.5, 1.5]), 0.0, 0.0, 0)
        lower, upper = pg.mixture_tails(model)
        assert lower == pytest.approx(0.7 * stats.norm.cdf(2.0) + 0.3 * stats.norm.cdf(-4.0 / 3.0),
                                      rel=1e-14)
        assert upper == pytest.approx(0.7 * stats.norm.sf(2.0) + 0.3 * stats.norm.sf(-4.0 / 3.0),
                                      rel=1e-14)

    def test_single_component_closed_form_oracle(self, rng, monkeypatch):
        monkeypatch.setattr(numerics, "MIXTURE_G_MAX", 1)
        x = rng.normal(0.7, 1.3, 3000)
        model = pg.fit_gaussian_mixture_1d(x)
        assert model.weights.tolist() == [1.0]
        assert model.means[0] == pytest.approx(x.mean(), rel=1e-12)
        assert model.sds[0] == pytest.approx(x.std(), rel=1e-12)
        expected_ll = stats.norm.logpdf(x, x.mean(), x.std()).sum()
        assert model.loglik == pytest.approx(expected_ll, rel=1e-12)

    @staticmethod
    def _assert_fixed_point(x, model):
        # responsibilities from scipy's normal density over every draw, then
        # one M step by hand
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

    def test_em_fit_is_a_fixed_point_of_one_m_step(self):
        # EM stops on a relative log-likelihood gain of 1e-8, so the residual
        # step scales with its convergence rate: the components are well apart
        gen = np.random.default_rng(31)
        x = np.concatenate([gen.normal(-1.5, 0.6, 2500), gen.normal(2.5, 0.5, 1500)])
        self._assert_fixed_point(x, pg.fit_gaussian_mixture_1d(x, stream=pg.RngStream(1, 6)))

    def test_em_fit_on_repeated_draws_is_a_fixed_point_of_one_m_step(self):
        # as above, on draws that repeat each value 1-6 times in a row
        gen = np.random.default_rng(32)
        base = np.concatenate([gen.normal(-1.5, 0.6, 1000), gen.normal(2.5, 0.5, 600)])
        x = np.repeat(gen.permutation(base), gen.integers(1, 7, base.size))
        self._assert_fixed_point(x, pg.fit_gaussian_mixture_1d(x, stream=pg.RngStream(1, 7)))

    def test_degenerate_inputs(self, monkeypatch):
        with pytest.raises(pg.DegeneracyError):
            pg.fit_gaussian_mixture_1d(np.ones(numerics.MIN_MIXTURE_SAMPLES))
        with pytest.raises(pg.DomainError):
            pg.fit_gaussian_mixture_1d(np.arange(10.0))
        monkeypatch.setattr(numerics, "MIXTURE_G_MAX", 1)
        pg.fit_gaussian_mixture_1d(np.arange(float(numerics.MIN_MIXTURE_SAMPLES)))


def _ar1(phi, n, seed):
    e = np.random.default_rng(seed).standard_normal(n)
    x = np.empty(n)
    x[0] = e[0]
    for i in range(1, n):
        x[i] = phi * x[i - 1] + e[i]
    return x


def _with_runs(x, seed):
    """x with each value repeated 1-4 times in a row, as rejections repeat a chain's state."""
    return np.repeat(x, np.random.default_rng(seed).integers(1, 5, x.size))


class TestRunWeightedEM:
    """The EM runs on one point per run of repeated draws, weighted by the
    run's length: run on the expanded draws instead, it chooses the same model."""

    @staticmethod
    def _credence_chain(trial_records, outcome, n_iter, burn_in):
        data, _ = pg.trial_model_data(trial_records, "CREDENCE", outcome)
        fit = pg.fit_irls("poisson", "log", data)
        ll = pg.vectorized_loglik("poisson", "log", data)
        chain = pg.rw_metropolis(lambda b: float(ll(b[None, :])[0]), fit.beta_hat,
                                 fit.cov_unscaled, n_iter, burn_in, pg.RngStream(20260824))
        return chain.draws[:, 1]

    def _same_as_expanded(self, x, stream, monkeypatch):
        runs = pg.fit_gaussian_mixture_1d(x, stream=stream)
        with monkeypatch.context() as mp:
            mp.setattr(numerics, "_runs", lambda x: (x, np.ones(x.size)))
            full = pg.fit_gaussian_mixture_1d(x, stream=stream)
        assert runs.count == full.count and runs.n_iter == full.n_iter
        assert ([(st.g, st.start_iters, st.n_barred) for st in runs.stages]
                == [(st.g, st.start_iters, st.n_barred) for st in full.stages])
        for got, want in [(runs.weights, full.weights), (runs.means, full.means),
                          (runs.sds, full.sds), (runs.loglik, full.loglik),
                          (runs.bic, full.bic)]:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        return runs

    @pytest.mark.parametrize("outcome,n_iter,burn_in,g",
                             [("dka", 2000, 500, 2), ("primary", 3000, 750, 4)])
    def test_metropolis_chain(self, trial_records, outcome, n_iter, burn_in, g, monkeypatch):
        x = self._credence_chain(trial_records, outcome, n_iter, burn_in)
        assert numerics._runs(x)[0].size < x.size / 2       # most draws repeat
        model = self._same_as_expanded(x, pg.RngStream(20260824, 999), monkeypatch)
        assert model.count == g

    def test_ar1_series_with_runs(self, monkeypatch):
        x = _with_runs(_ar1(0.9, 3000, 2), 3)
        self._same_as_expanded(x, pg.RngStream(2, 999), monkeypatch)

    def test_em_receives_one_point_per_run(self, monkeypatch):
        x = _with_runs(_ar1(0.9, 3000, 4), 5)
        em, seen = numerics._em_batch, []

        def spy(values, counts, *args, bar):
            seen.append((values.copy(), counts.copy()))
            return em(values, counts, *args, bar=bar)

        monkeypatch.setattr(numerics, "_em_batch", spy)
        pg.fit_gaussian_mixture_1d(x, stream=pg.RngStream(4, 999))
        assert seen
        for values, counts in seen:
            assert (values[1:] != values[:-1]).all()
            assert np.array_equal(np.repeat(values, counts.astype(int)), x)


class TestTwoSidedTail:
    # distances chosen so that beta0 +- d and their differences are exact
    D = np.array([0.0, 0.25, 1.0, 1.96875, 5.0, 12.0, 37.5])

    @pytest.mark.parametrize("dof", [None, 1, 2.5, 30])
    def test_matches_scipy_and_is_symmetric(self, dof):
        ref = 2.0 * (stats.norm.sf(self.D) if dof is None else stats.t.sf(self.D, dof))
        up = two_sided_tail(0.5 + 2.0 * self.D, 2.0, beta0=0.5, dof=dof)
        down = two_sided_tail(0.5 - 2.0 * self.D, 2.0, beta0=0.5, dof=dof)
        assert np.array_equal(up, down)
        assert up == pytest.approx(ref, rel=1e-12 if dof is None else 1e-9, abs=0.0)
        if dof is None:
            assert up[-1] > 0.0      # 2 Phi(-37.5) ~ 4.6e-308 keeps its digits

    def test_elementwise_and_scalar(self):
        center = np.array([[0.3, -2.0], [1.5, 0.0]])
        scale = np.array([[1.0, 0.5], [3.0, 2.0]])
        out = two_sided_tail(center, scale)
        assert out.shape == (2, 2)
        for i, j in np.ndindex(2, 2):
            got = two_sided_tail(float(center[i, j]), float(scale[i, j]))
            assert isinstance(got, float) and got == out[i, j]
        assert out[1, 1] == 1.0 and two_sided_tail(0.0, 1.0, dof=1) == 1.0


class TestMixtureBar:
    """A start that cannot beat the best BIC so far stops early without
    changing the model chosen: the fit is bit-identical to one where no
    start is ever stopped by the bar."""

    @staticmethod
    def _chosen(model):
        return (model.weights.tolist(), model.means.tolist(), model.sds.tolist(),
                model.loglik, model.bic, model.n_iter)

    def _fit_both(self, x, stream, monkeypatch):
        barred = pg.fit_gaussian_mixture_1d(x, stream=stream)
        em = numerics._em_batch
        with monkeypatch.context() as mp:
            mp.setattr(numerics, "_em_batch",
                       lambda *args, bar: em(*args, bar=-math.inf))
            free = pg.fit_gaussian_mixture_1d(x, stream=stream)
        assert self._chosen(barred) == self._chosen(free)
        assert [st.g for st in barred.stages] == [st.g for st in free.stages]
        assert all(st.n_barred == 0 for st in free.stages)
        return barred, free

    def test_unimodal_and_bimodal_samples(self, rng, monkeypatch):
        x = rng.normal(-0.3, 0.08, 5000)
        barred, _ = self._fit_both(x, pg.RngStream(1, 1), monkeypatch)
        assert barred.count == 1
        x = np.concatenate([rng.normal(-2.0, 0.5, 3000), rng.normal(1.5, 0.3, 2000)])
        barred, _ = self._fit_both(x, pg.RngStream(1, 2), monkeypatch)
        assert barred.count == 2

    def test_normal_draws(self, monkeypatch):
        x = np.random.default_rng(7).normal(0.4, 0.2, 1000)
        self._fit_both(x, pg.RngStream(7, 2), monkeypatch)

    def test_autocorrelated_chain_prunes_the_losing_stage(self, monkeypatch):
        # a 10k-draw AR(1) series with phi 0.9, like a Metropolis chain: G = 1
        # wins, and the G = 2 restarts that stall below the bar stop early
        x = _ar1(0.9, 10000, 1)
        barred, free = self._fit_both(x, pg.RngStream(1, 999), monkeypatch)
        assert barred.count == 1
        g2, g2_free = barred.stages[1], free.stages[1]
        assert g2.g == 2 and g2.n_barred > 0
        assert sum(g2.start_iters) <= sum(g2_free.start_iters) / 3

    def test_stages_report_each_g_tried(self, monkeypatch):
        monkeypatch.setattr(numerics, "MIXTURE_RESTARTS", 4)
        x = np.random.default_rng(3).normal(0.0, 1.0, 2000)
        model = pg.fit_gaussian_mixture_1d(x, stream=pg.RngStream(3))
        first, second = model.stages[0], model.stages[1]
        assert (first.g, first.bic, first.start_iters, first.n_barred) == (1, model.bic, (1,), 0)
        assert second.g == 2 and len(second.start_iters) == 5
        assert second.bic > model.bic
        assert 0 <= second.n_barred <= 5
        assert all(1 <= it <= 500 for it in second.start_iters)
