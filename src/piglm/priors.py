"""Reference priors for GLM coefficients and the scale parameter.

Six unnormalized prior shapes come in test/explore pairs: "test" priors are
centered on a single reference coefficient value, "explore" priors spread that
center uniformly over a finite interval (and are identically zero outside it).
The sigma-uncertain variants mix the Gaussian kernel over a fixed-width or
inverse-chi-square distributed prior sd. A flat hypercube prior and the two
scale-parameter priors complete the set.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, SupportError
from .numerics import (exp_integral_gamma0, gauss_legendre, std_normal_cdf, student_t_cdf,
                       student_t_logpdf)

__all__ = [
    "PriorSpec",
    "ScalePriorSpec",
    "FiniteWorldBounds",
    "finite_world_bounds",
    "prior_logpdf",
    "prior_pdf",
    "local_uniformity_check",
    "scale_prior_logpdf",
]

KINDS = (
    "flat_hypercube",
    "test_fixed_sigma",
    "explore_fixed_sigma",
    "test_uniform_sigma",
    "explore_uniform_sigma",
    "test_invchisq",
    "explore_invchisq",
)


@dataclasses.dataclass(frozen=True)
class PriorSpec:
    """One coefficient prior. Fields are used or ignored depending on kind.

    kind            one of KINDS ("test_invchisq" is the Student-t prior)
    beta0           center (test kinds)
    bounds          (beta0_min, beta0_max) for explore kinds and the flat prior
    sigma           prior sd (fixed-sigma kinds)
    sigma_bounds    (sigma_min, sigma_max) for the uniform-sigma kinds
    nu0, s          Student-t degrees of freedom and scale (invchisq kinds)
    """

    kind: str
    beta0: float = 0.0
    bounds: Optional[Tuple[float, float]] = None
    sigma: Optional[float] = None
    sigma_bounds: Optional[Tuple[float, float]] = None
    nu0: Optional[float] = None
    s: Optional[float] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown prior kind {self.kind!r}")
        if self.kind in ("flat_hypercube", "explore_fixed_sigma",
                         "explore_uniform_sigma", "explore_invchisq"):
            if self.bounds is None or not self.bounds[0] < self.bounds[1]:
                raise DomainError(f"{self.kind} needs ordered bounds")
        if self.kind in ("test_fixed_sigma", "explore_fixed_sigma"):
            if self.sigma is None or not self.sigma > 0:
                raise DomainError(f"{self.kind} needs sigma > 0")
        if self.kind in ("test_uniform_sigma", "explore_uniform_sigma"):
            sb = self.sigma_bounds
            if sb is None or not 0 < sb[0] < sb[1]:
                raise DomainError(f"{self.kind} needs 0 < sigma_min < sigma_max")
        if self.kind in ("test_invchisq", "explore_invchisq"):
            if self.nu0 is None or not self.nu0 > 0:
                raise DomainError(f"{self.kind} needs nu0 > 0")
            if self.s is None or not self.s > 0:
                raise DomainError(f"{self.kind} needs scale s > 0")


@dataclasses.dataclass(frozen=True)
class ScalePriorSpec:
    """Scale-parameter prior: 'jeffreys' (1/phi) or 'uniform_bounded'."""

    kind: str
    bounds: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        if self.kind not in ("jeffreys", "uniform_bounded"):
            raise DomainError(f"unknown scale prior {self.kind!r}")
        if self.kind == "uniform_bounded":
            b = self.bounds
            if b is None or not (0 <= b[0] < b[1]) or not math.isfinite(b[1]):
                raise DomainError("uniform_bounded needs finite ordered bounds")


@dataclasses.dataclass(frozen=True)
class FiniteWorldBounds:
    """Per-parameter admissible intervals plus the joint-prior bookkeeping.

    ``density_const`` is the constant joint density over the hypercube,
    carrying the 1/p scaling; density_const * p * volume == 1.
    """

    intervals: Tuple[Tuple[float, float], ...]
    p: int
    density_const: float

    @property
    def volume(self) -> float:
        v = 1.0
        for lo, hi in self.intervals:
            v *= hi - lo
        return v


def finite_world_bounds(link, y_range: Tuple[float, float],
                        x_ranges: Sequence[Tuple[float, float]], p: int) -> FiniteWorldBounds:
    """Admissible parameter intervals from the response range.

    The linear predictor must stay within [g(y_min), g(y_max)]; each
    parameter's interval follows by dividing through its covariate range
    (intervals of (1, 1) for the intercept). Covariate ranges must exclude 0.
    """
    from .glm import LINKS, LinkFn

    if not isinstance(link, LinkFn):
        link = LINKS[link]
    y_lo, y_hi = y_range
    if not y_lo < y_hi:
        raise DomainError("y_range must be ordered")
    if len(x_ranges) != p:
        raise DomainError("need one covariate range per parameter")
    try:
        with np.errstate(invalid="raise", divide="raise"):
            eta_lo = float(link.g(np.asarray(y_lo, dtype=float)))
            eta_hi = float(link.g(np.asarray(y_hi, dtype=float)))
    except (ValueError, FloatingPointError):
        raise DomainError("y_range outside the link's domain") from None
    if not (math.isfinite(eta_lo) and math.isfinite(eta_hi)):
        raise DomainError("y_range outside the link's domain")
    intervals = []
    for x_lo, x_hi in x_ranges:
        if x_lo <= 0 <= x_hi:
            raise DomainError("covariate range used as a divisor must exclude 0")
        cand = [e / x for e in (eta_lo, eta_hi) for x in (x_lo, x_hi)]
        intervals.append((min(cand), max(cand)))
    volume = math.prod(hi - lo for lo, hi in intervals)
    return FiniteWorldBounds(tuple(intervals), p, 1.0 / (p * volume))


# Printed normalization of the sigma-mixture prior; the footnote patch value at
# beta = beta0 is log(sigma_max/sigma_min) / (sqrt(2) pi (sigma_max - sigma_min)).
def _uniform_sigma_kernel(u, sigma_min, sigma_max):
    """Density of the sigma-mixture at distance u from the center (u != 0 safe)."""
    u = np.asarray(u, dtype=float)
    const = 2.0 * math.sqrt(2.0) * math.pi * (sigma_max - sigma_min)
    out = np.empty_like(u)
    at0 = u == 0.0
    if np.any(~at0):
        x = u[~at0] ** 2
        out[~at0] = (
            exp_integral_gamma0(x / (2.0 * sigma_max**2))
            - exp_integral_gamma0(x / (2.0 * sigma_min**2))
        ) / const
    if np.any(at0):
        out[at0] = math.log(sigma_max / sigma_min) / (
            math.sqrt(2.0) * math.pi * (sigma_max - sigma_min)
        )
    return out


def _explore_uniform_sigma(b, lo, hi, sigma_min, sigma_max):
    """The sigma-mixture kernel summed over centers in [lo, hi].

    Swapping the order of integration gives
    (1/(sqrt(pi) (sigma_max - sigma_min))) int [Phi((b-lo)/s) - Phi((b-hi)/s)] ds
    over s in [sigma_min, sigma_max]: the kernel's printed 1/sqrt(pi)
    normalization times the center integral of N(b | c, s^2). The s integral
    runs on 32 fixed Gauss-Legendre nodes in log s, where the integrand stays
    smooth even when sigma_max/sigma_min is large.
    """
    nodes, weights = gauss_legendre(32)
    a, c = math.log(sigma_min), math.log(sigma_max)
    s = np.exp(0.5 * (c - a) * nodes + 0.5 * (a + c))
    w = 0.5 * (c - a) * weights * s
    b = b[:, None]
    inner = std_normal_cdf((b - lo) / s) - std_normal_cdf((b - hi) / s)
    return (inner @ w) / (math.sqrt(math.pi) * (sigma_max - sigma_min))


def _t_kernel(u, nu0, s):
    return np.exp(student_t_logpdf(np.asarray(u, dtype=float), nu0, 0.0, s))


def prior_pdf(spec: PriorSpec, beta):
    """Unnormalized prior density at beta (scalar or array)."""
    b = np.asarray(beta, dtype=float)
    scalar = b.ndim == 0
    b = np.atleast_1d(b)
    k = spec.kind
    if k == "flat_hypercube":
        lo, hi = spec.bounds
        out = np.where((b >= lo) & (b <= hi), 1.0 / (hi - lo), 0.0)
    elif k == "test_fixed_sigma":
        out = np.exp(-0.5 * ((b - spec.beta0) / spec.sigma) ** 2) / (
            spec.sigma * math.sqrt(2.0 * math.pi)
        )
    elif k == "explore_fixed_sigma":
        lo, hi = spec.bounds
        # exact integral of the Gaussian test kernel over the center bounds
        out = std_normal_cdf((b - lo) / spec.sigma) - std_normal_cdf((b - hi) / spec.sigma)
        out = np.where((b >= lo) & (b <= hi), out, 0.0)
    elif k == "test_uniform_sigma":
        out = _uniform_sigma_kernel(b - spec.beta0, *spec.sigma_bounds)
    elif k == "explore_uniform_sigma":
        lo, hi = spec.bounds
        out = _explore_uniform_sigma(b, lo, hi, *spec.sigma_bounds)
        out = np.where((b >= lo) & (b <= hi), out, 0.0)
    elif k == "test_invchisq":
        out = _t_kernel(b - spec.beta0, spec.nu0, spec.s)
    elif k == "explore_invchisq":
        lo, hi = spec.bounds
        # exact integral of the Student-t test kernel over the center bounds
        out = (student_t_cdf((b - lo) / spec.s, spec.nu0)
               - student_t_cdf((b - hi) / spec.s, spec.nu0))
        out = np.where((b >= lo) & (b <= hi), out, 0.0)
    else:  # pragma: no cover
        raise DomainError(k)
    return float(out[0]) if scalar else out


def prior_logpdf(spec: PriorSpec, beta):
    """Log of prior_pdf; -inf outside explore/flat bounds."""
    dens = prior_pdf(spec, beta)
    with np.errstate(divide="ignore"):
        out = np.log(dens)
    return out


def local_uniformity_check(spec: PriorSpec, interval: Tuple[float, float],
                           resolution: int = 1001) -> float:
    """Max relative deviation (max - min)/max of the density over the interval."""
    lo, hi = interval
    grid = np.linspace(lo, hi, resolution)
    dens = np.asarray(prior_pdf(spec, grid), dtype=float)
    if np.any(dens <= 0.0):
        raise SupportError("prior density vanishes inside the checked interval")
    mx = dens.max()
    return float((mx - dens.min()) / mx)


def scale_prior_logpdf(spec: ScalePriorSpec, phi: float) -> float:
    if not phi > 0:
        raise DomainError("phi must be positive")
    if spec.kind == "jeffreys":
        return -math.log(phi)
    lo, hi = spec.bounds
    return 0.0 if lo <= phi <= hi else -math.inf
