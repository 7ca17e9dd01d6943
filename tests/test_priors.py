import math

import numpy as np
import pytest
from scipy import integrate, stats

import piglm as pg
from piglm.priors import KINDS, PriorSpec, ScalePriorSpec, _uniform_sigma_logpdf, \
    prior_logpdf, prior_pdf


class TestKernels:
    def test_gaussian_center_kernel_normalized(self):
        spec = PriorSpec("test_fixed_sigma", beta0=2.0, sigma=3.0)
        val, _ = integrate.quad(lambda b: prior_pdf(spec, b), -np.inf, np.inf)
        assert val == pytest.approx(1.0, abs=1e-9)
        assert prior_pdf(spec, 2.0) == pytest.approx(stats.norm.pdf(0, scale=3.0), rel=1e-12)

    def test_spread_gaussian_equals_quadrature_of_center_kernel(self):
        # the spread (bounded-center) density must equal the integral of the
        # centered kernel over the center bounds -- checked by quadrature
        spec = PriorSpec("explore_fixed_sigma", bounds=(-4.0, 4.0), sigma=1.5)
        for b in (-3.0, -0.5, 0.0, 2.2, 3.9):
            direct = prior_pdf(spec, b)
            quad, _ = integrate.quad(
                lambda c: stats.norm.pdf(b, loc=c, scale=1.5), -4.0, 4.0
            )
            assert direct == pytest.approx(quad, rel=1e-8)
        assert prior_pdf(spec, 4.5) == 0.0

    def test_student_kernel_matches_reference_density(self):
        spec = PriorSpec("test_invchisq", beta0=0.5, nu0=2.5, s=1.3)
        grid = np.linspace(-6, 6, 25)
        expect = stats.t.pdf(grid, 2.5, loc=0.5, scale=1.3)
        assert prior_pdf(spec, grid) == pytest.approx(expect, rel=1e-10)

    def test_sigma_mixture_patch_value(self):
        # removable singularity at the center: documented patch value
        smin, smax = 900.0, 1100.0
        patch = math.log(smax / smin) / (math.sqrt(2.0) * math.pi * (smax - smin))
        # the documented 4-digit constant 2.2586e-4 holds only to ~1e-4 relative;
        # the closed form evaluates to 2.25834e-4
        assert patch == pytest.approx(2.2586e-4, rel=2e-4)
        assert patch == pytest.approx(2.2583387662396064e-4, rel=1e-12)
        spec = PriorSpec("test_uniform_sigma", beta0=0.0, sigma_bounds=(smin, smax))
        assert prior_pdf(spec, 0.0) == pytest.approx(patch, rel=1e-12)
        # continuity: approaching the center recovers the patch value
        assert prior_pdf(spec, 1e-6) == pytest.approx(patch, rel=1e-6)

    def test_sigma_mixture_against_direct_quadrature(self):
        # dual route: the kernel equals (1/sqrt(pi)) x the true sigma-mixture
        # integral (the adopted normalization constant differs by sqrt(pi))
        smin, smax = 0.8, 1.6
        for u in (0.3, 1.0, 2.5):
            mix, _ = integrate.quad(
                lambda s: stats.norm.pdf(u, scale=s) / (smax - smin), smin, smax
            )
            val = float(np.exp(_uniform_sigma_logpdf(np.array(u), smin, smax)))
            assert val == pytest.approx(mix / math.sqrt(math.pi), rel=1e-8)

    def test_flat_hypercube(self):
        spec = PriorSpec("flat_hypercube", bounds=(-2.0, 6.0))
        assert prior_pdf(spec, 0.0) == pytest.approx(1.0 / 8.0)
        assert prior_pdf(spec, 7.0) == 0.0
        assert pg.prior_logpdf(spec, 7.0) == -np.inf


class TestLogDensity:
    """prior_logpdf against prior_pdf for every kind, and the test kinds' far tails."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_log_density_matches_density(self, kind):
        # every field set: each kind reads its own and ignores the rest
        spec = PriorSpec(kind, beta0=0.3, bounds=(-4.0, 4.0), sigma=1.5,
                         sigma_bounds=(0.5, 2.0), nu0=2.5, s=1.3)
        b = np.concatenate([np.linspace(-6.0, 6.0, 121), [-4.0, 4.0, 0.3]])
        dens = prior_pdf(spec, b)
        assert np.exp(prior_logpdf(spec, b)) == pytest.approx(dens, rel=1e-13, abs=0.0)
        assert np.any(dens > 0.0)
        assert prior_logpdf(spec, 0.3) == pytest.approx(math.log(prior_pdf(spec, 0.3)), rel=1e-13)

    @pytest.mark.parametrize("u", [40.0, 1000.0])
    def test_gaussian_far_tail(self, u):
        # the density underflows to 0 from about 38.6 sd here; its log does not
        spec = PriorSpec("test_fixed_sigma", beta0=0.7, sigma=2.5)
        b = 0.7 + u * 2.5
        ref = stats.norm.logpdf(b, loc=0.7, scale=2.5)
        assert prior_logpdf(spec, b) == pytest.approx(ref, rel=1e-12)
        assert prior_logpdf(spec, np.array([b]))[0] == pytest.approx(ref, rel=1e-12)

    def test_student_far_tail(self):
        spec = PriorSpec("test_invchisq", beta0=0.5, nu0=2.5, s=1.3)
        b = 0.5 + 1e4 * 1.3
        ref = stats.t.logpdf(b, 2.5, loc=0.5, scale=1.3)
        assert prior_logpdf(spec, b) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("u", [0.5, 5.0, 75.0, 80.0, 1000.0])
    def test_uniform_sigma_far_tail(self, u):
        # the E1 difference is subnormal from about 37.4 sigma_max and 0 from
        # 38.4; its log, from log E1(x) = log U(1, 1, x) - x, is not
        mpmath = pytest.importorskip("mpmath")
        smin, smax = 1.0, 2.0
        spec = PriorSpec("test_uniform_sigma", beta0=0.5, sigma_bounds=(smin, smax))
        with mpmath.workdps(40):
            a, b = (mpmath.mpf(u) ** 2 / (2 * s**2) for s in (smax, smin))
            ref = float(mpmath.log((mpmath.e1(a) - mpmath.e1(b))
                                   / (2 * mpmath.sqrt(2) * mpmath.pi * (smax - smin))))
        assert prior_logpdf(spec, 0.5 + u) == pytest.approx(ref, rel=1e-12)


def _center_convolution_by_quad(kernel, b, lo, hi):
    """Per-point quad of a test kernel over centers in [lo, hi]; 0 outside the bounds."""
    out = []
    for bb in b:
        if not lo <= bb <= hi:
            out.append(0.0)
            continue
        pts = [bb] if lo < bb < hi else None    # kernel peak (sigma mixture: log singularity)
        out.append(integrate.quad(lambda c: float(kernel(bb - c)), lo, hi, points=pts,
                                  limit=400, epsabs=0.0, epsrel=1e-12)[0])
    return np.array(out)


class TestExploreConvolutions:
    """The explore priors against the center integral of their test kernel."""

    @staticmethod
    def _grid(lo, hi):
        width = hi - lo
        inside = np.linspace(lo + 0.01 * width, hi - 0.01 * width, 15)
        edges = [lo, hi, lo + 1e-9 * width, hi - 1e-9 * width]
        outside = [lo - 0.3 * width, lo - 1e-9 * width, hi + 1e-9 * width, hi + 0.3 * width]
        return np.concatenate([inside, edges, outside])

    @pytest.mark.parametrize("bounds,sigma_bounds", [
        ((-200.0, 200.0), (900.0, 1100.0)),     # criterion 10
        ((-4.0, 4.0), (0.5, 2.0)),
        ((-5.0, 5.0), (0.1, 10.0)),             # a hundredfold sd range
    ])
    def test_uniform_sigma_against_quadrature(self, bounds, sigma_bounds):
        spec = PriorSpec("explore_uniform_sigma", bounds=bounds, sigma_bounds=sigma_bounds)
        b = self._grid(*bounds)
        got = prior_pdf(spec, b)
        ref = _center_convolution_by_quad(
            lambda u: np.exp(_uniform_sigma_logpdf(np.array(u), *sigma_bounds)), b, *bounds)
        assert np.array_equal(got == 0.0, ref == 0.0)
        assert got == pytest.approx(ref, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("bounds,nu0,s", [
        ((-200.0, 200.0), 1.0, 1000.0),         # criterion 10
        ((-6.0, 6.0), 0.7, 2.0),
        ((-3.0, 5.0), 25.0, 0.5),
    ])
    def test_invchisq_against_quadrature(self, bounds, nu0, s):
        spec = PriorSpec("explore_invchisq", bounds=bounds, nu0=nu0, s=s)
        b = self._grid(*bounds)
        got = prior_pdf(spec, b)
        ref = _center_convolution_by_quad(lambda u: stats.t.pdf(u, nu0, scale=s), b, *bounds)
        assert np.array_equal(got == 0.0, ref == 0.0)
        assert got == pytest.approx(ref, rel=1e-10, abs=0.0)


class TestLocalUniformity:
    def test_wide_gaussian_nearly_flat(self):
        spec = PriorSpec("test_fixed_sigma", beta0=0.0, sigma=1000.0)
        dev = pg.local_uniformity_check(spec, (-50.0, 50.0))
        assert dev == pytest.approx(1.0 - math.exp(-0.5 * (50.0 / 1000.0) ** 2), rel=1e-6)
        assert dev < 0.0025

    def test_narrow_gaussian_not_flat(self):
        spec = PriorSpec("test_fixed_sigma", beta0=0.0, sigma=10.0)
        assert pg.local_uniformity_check(spec, (-50.0, 50.0)) > 0.5

    def test_zero_density_in_interval_raises(self):
        spec = PriorSpec("flat_hypercube", bounds=(-10.0, 10.0))
        with pytest.raises(pg.SupportError):
            pg.local_uniformity_check(spec, (-50.0, 50.0))


class TestScalePrior:
    def test_validation(self):
        assert ScalePriorSpec("uniform").kind == "uniform"
        with pytest.raises(pg.DomainError):
            ScalePriorSpec("uniform_bounded")
        with pytest.raises(TypeError):
            ScalePriorSpec("uniform", bounds=(0.0, 50.0))     # the prior has no bounds


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(pg.DomainError):
            PriorSpec("lognormal")

    def test_missing_fields(self):
        with pytest.raises(pg.DomainError):
            PriorSpec("test_fixed_sigma")                       # no sigma
        with pytest.raises(pg.DomainError):
            PriorSpec("explore_invchisq", nu0=1.0, s=1.0)       # no bounds
        with pytest.raises(pg.DomainError):
            PriorSpec("test_uniform_sigma", sigma_bounds=(2.0, 1.0))
        with pytest.raises(pg.DomainError):
            PriorSpec("explore_fixed_sigma", bounds=(1.0,), sigma=1.0)
        with pytest.raises(pg.DomainError):
            PriorSpec("test_uniform_sigma", sigma_bounds=(1.0,))
