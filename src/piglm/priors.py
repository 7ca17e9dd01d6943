"""Reference priors for GLM coefficients and the scale parameter.

Three kernels (a fixed-sd Gaussian, and the Gaussian mixed over a uniform or an
inverse-chi-square prior sd) each give a "test" prior, centered on a single
reference coefficient value and evaluated from the kernel's log density, and an
"explore" prior, which spreads that center uniformly over a finite interval and
is zero outside it. A flat hypercube prior completes the coefficient set; the
two scale-prior kinds of ``ScalePriorSpec`` set the dof of the scale marginal
that ``posterior.laplace_posterior`` builds.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional, Tuple

import numpy as np
from scipy import special

from .errors import DomainError, SupportError
from .numerics import gauss_legendre, std_normal_cdf, student_t_cdf, student_t_logpdf

__all__ = [
    "PriorSpec",
    "ScalePriorSpec",
    "prior_logpdf",
    "prior_pdf",
    "local_uniformity_check",
]

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
        mode, _, suffix = self.kind.partition("_")
        if mode == "test" and not math.isfinite(self.beta0):
            raise DomainError(f"{self.kind} needs a finite beta0")
        if mode != "test" and not (_is_pair(self.bounds)
                                   and -math.inf < self.bounds[0] < self.bounds[1] < math.inf):
            raise DomainError(f"{self.kind} needs finite ordered bounds")
        kernel = _KERNELS.get(suffix)
        if kernel is not None and not kernel.valid(self):
            raise DomainError(f"{self.kind} needs {kernel.needs}")


@dataclasses.dataclass(frozen=True)
class ScalePriorSpec:
    """Scale-parameter prior: 'jeffreys' (1/phi) or 'uniform' (flat on (0, inf))."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("jeffreys", "uniform"):
            raise DomainError(f"unknown scale prior {self.kind!r}")


# Printed normalization of the sigma-mixture prior; the footnote patch value at
# beta = beta0 is log(sigma_max/sigma_min) / (sqrt(2) pi (sigma_max - sigma_min)).
def _uniform_sigma_logpdf(u, sigma_min, sigma_max):
    """Log density of the sigma-mixture at distance u from the center.

    The density is (E1(a) - E1(b)) / (2 sqrt(2) pi (sigma_max - sigma_min)) with
    a = u^2/(2 sigma_max^2) < b = u^2/(2 sigma_min^2). The difference is taken
    in log space from log E1(x) = log U(1, 1, x) - x, so it keeps its relative
    precision far past the underflow of the density.
    """
    u = np.asarray(u, dtype=float)
    log_c = math.log(math.sqrt(2.0) * math.pi * (sigma_max - sigma_min))
    out = np.full(u.shape, math.log(math.log(sigma_max / sigma_min)) - log_c)
    off = u != 0.0
    x = u[off] ** 2 / 2.0
    la, lb = (np.log(special.hyperu(1.0, 1.0, x / s**2)) - x / s**2 for s in (sigma_max, sigma_min))
    out[off] = la + np.log1p(-np.exp(lb - la)) - math.log(2.0) - log_c
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


def _is_pair(v) -> bool:
    return v is not None and len(v) == 2


@dataclasses.dataclass(frozen=True)
class _Kernel:
    """One prior kernel, shared by its test (centered) and explore (spread) kinds."""

    valid: Callable[[PriorSpec], bool]  # checks the kernel's own PriorSpec fields
    needs: str                          # what valid asks for, in its error message
    logpdf: Callable[..., np.ndarray]   # (spec, u): centered log density at u = beta - beta0
    explore: Callable[..., np.ndarray]  # (spec, b, lo, hi): exact integral over centers in [lo, hi]


_KERNELS = {
    "fixed_sigma": _Kernel(
        valid=lambda sp: sp.sigma is not None and 0 < sp.sigma < math.inf,
        needs="a finite sigma > 0",
        logpdf=lambda sp, u: (-0.5 * (u / sp.sigma) ** 2
                              - math.log(sp.sigma * math.sqrt(2.0 * math.pi))),
        explore=lambda sp, b, lo, hi: (std_normal_cdf((b - lo) / sp.sigma)
                                       - std_normal_cdf((b - hi) / sp.sigma)),
    ),
    "uniform_sigma": _Kernel(
        valid=lambda sp: (_is_pair(sp.sigma_bounds)
                          and 0 < sp.sigma_bounds[0] < sp.sigma_bounds[1] < math.inf),
        needs="sigma_bounds 0 < sigma_min < sigma_max < inf",
        logpdf=lambda sp, u: _uniform_sigma_logpdf(u, *sp.sigma_bounds),
        explore=lambda sp, b, lo, hi: _explore_uniform_sigma(b, lo, hi, *sp.sigma_bounds),
    ),
    "invchisq": _Kernel(
        valid=lambda sp: (sp.nu0 is not None and 0 < sp.nu0 < math.inf
                          and sp.s is not None and 0 < sp.s < math.inf),
        needs="finite nu0 > 0 and scale s > 0",
        logpdf=lambda sp, u: student_t_logpdf(u, sp.nu0, sp.s),
        explore=lambda sp, b, lo, hi: (student_t_cdf((b - lo) / sp.s, sp.nu0)
                                       - student_t_cdf((b - hi) / sp.s, sp.nu0)),
    ),
}

KINDS = ("flat_hypercube",) + tuple(f"{mode}_{suffix}" for suffix in _KERNELS
                                    for mode in ("test", "explore"))


def _evaluate(spec: PriorSpec, beta, log: bool):
    """The prior density at beta, or its log; test kinds start from the kernel's log density."""
    b = np.atleast_1d(np.asarray(beta, dtype=float))
    mode, _, suffix = spec.kind.partition("_")
    with np.errstate(divide="ignore"):      # log 0 = -inf
        if mode == "test":
            out = _KERNELS[suffix].logpdf(spec, b - spec.beta0)
            out = out if log else np.exp(out)
        else:
            lo, hi = spec.bounds
            out = 1.0 / (hi - lo) if mode == "flat" else _KERNELS[suffix].explore(spec, b, lo, hi)
            out = np.where((b >= lo) & (b <= hi), out, 0.0)
            out = np.log(out) if log else out
    return float(out[0]) if np.ndim(beta) == 0 else out


def prior_pdf(spec: PriorSpec, beta):
    """Unnormalized prior density at beta (scalar or array)."""
    return _evaluate(spec, beta, log=False)


def prior_logpdf(spec: PriorSpec, beta):
    """Log of prior_pdf: the kernel's log density for test kinds; -inf outside other bounds."""
    return _evaluate(spec, beta, log=True)


def local_uniformity_check(spec: PriorSpec, interval: Tuple[float, float],
                           resolution: int = 1001) -> float:
    """Max relative deviation (max - min)/max of the density over the interval."""
    lo, hi = interval
    if not -math.inf < lo < hi < math.inf:
        raise DomainError("local uniformity check needs a finite interval lo < hi")
    grid = np.linspace(lo, hi, resolution)
    dens = np.asarray(prior_pdf(spec, grid), dtype=float)
    if np.any(dens <= 0.0):
        raise SupportError("prior density vanishes inside the checked interval")
    mx = dens.max()
    return float((mx - dens.min()) / mx)

