import math

import numpy as np
import pytest
from scipy import integrate, stats

import piglm as pg
from piglm.priors import PriorSpec, ScalePriorSpec, _uniform_sigma_kernel, prior_pdf


class TestFiniteWorldBounds:
    def test_log_link_intervals_by_hand(self):
        # linear predictor confined to [log 0.1, log 10]; intercept range is the
        # interval itself, the slope interval is divided by the covariate range
        fw = pg.finite_world_bounds("log", (0.1, 10.0), [(1.0, 1.0), (1.0, 2.0)], 2)
        lo, hi = math.log(0.1), math.log(10.0)
        assert fw.intervals[0] == pytest.approx((lo, hi))
        assert fw.intervals[1] == pytest.approx((lo, hi))  # lo/1 .. hi/1 dominates
        vol = (hi - lo) ** 2
        assert fw.density_const == pytest.approx(1.0 / (2 * vol), rel=1e-12)
        # bookkeeping identity: const * p * volume == 1
        assert fw.density_const * fw.p * fw.volume == pytest.approx(1.0, rel=1e-12)

    def test_covariate_range_through_zero_rejected(self):
        with pytest.raises(pg.DomainError):
            pg.finite_world_bounds("log", (0.1, 10.0), [(-1.0, 1.0)], 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_y_range_outside_link_domain(self):
        with pytest.raises(pg.DomainError):
            pg.finite_world_bounds("log", (-1.0, 10.0), [(1.0, 1.0)], 1)


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
            val = float(_uniform_sigma_kernel(np.array(u), smin, smax))
            assert val == pytest.approx(mix / math.sqrt(math.pi), rel=1e-8)

    def test_flat_hypercube(self):
        spec = PriorSpec("flat_hypercube", bounds=(-2.0, 6.0))
        assert prior_pdf(spec, 0.0) == pytest.approx(1.0 / 8.0)
        assert prior_pdf(spec, 7.0) == 0.0
        assert pg.prior_logpdf(spec, 7.0) == -np.inf


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
    def test_reciprocal(self):
        spec = ScalePriorSpec("jeffreys")
        assert pg.scale_prior_logpdf(spec, 2.0) == pytest.approx(-math.log(2.0))

    def test_bounded_uniform(self):
        spec = ScalePriorSpec("uniform_bounded", bounds=(0.5, 2.0))
        assert pg.scale_prior_logpdf(spec, 1.0) == 0.0
        assert pg.scale_prior_logpdf(spec, 3.0) == -np.inf

    def test_validation(self):
        with pytest.raises(pg.DomainError):
            ScalePriorSpec("uniform_bounded")
        with pytest.raises(pg.DomainError):
            pg.scale_prior_logpdf(ScalePriorSpec("jeffreys"), 0.0)


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
