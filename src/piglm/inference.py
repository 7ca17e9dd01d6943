"""Tail-area inference: Wald p-values, posterior pi-values, directionality.

A pi-value is twice the smaller of the two posterior tail probabilities
around a reference coefficient value; under a locally uniform prior it
coincides numerically with the two-sided Wald p-value.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence

import numpy as np

from .errors import DegeneracyError, DegreesOfFreedomError, DomainError
from .glm import FitResult
from .numerics import (
    RngStream,
    fit_gaussian_mixture_1d,
    mixture_tail_pi,
    std_normal_cdf,
    student_t_cdf,
)
from .posterior import GridPosterior, LaplacePosterior

__all__ = [
    "TailReport",
    "wald_pvalue",
    "pi_value_analytic",
    "pi_value_from_grid",
    "pi_value_from_samples",
    "direction_estimate",
    "tail_comparison",
]


@dataclasses.dataclass(frozen=True)
class TailReport:
    z: float
    direction: str                 # 'positive' or 'negative'
    p_or_pi: float
    method: str
    dof: Optional[float] = None
    boundary_warning: bool = False
    notes: str = ""


def _two_sided(tail_low: float, tail_high: float) -> float:
    return min(1.0, 2.0 * min(tail_low, tail_high))


def wald_pvalue(fit: FitResult, phi: float, index: int, beta0: float = 0.0,
                dist: str = "normal", dof: Optional[float] = None) -> TailReport:
    """Two-sided Wald test of beta_index = beta0 at scale phi."""
    if index >= fit.p:
        raise DomainError("coefficient index out of range")
    if dist not in ("normal", "t"):
        raise DomainError("dist must be 'normal' or 't'")
    se = math.sqrt(phi * fit.cov_unscaled[index, index])
    z = (float(fit.beta_hat[index]) - beta0) / se
    if dist == "t":
        if dof is None or dof <= 0:
            raise DegreesOfFreedomError("t reference needs dof > 0")
        p = 2.0 * float(student_t_cdf(-abs(z), dof))
        method = "wald_t"
    else:
        p = 2.0 * float(std_normal_cdf(-abs(z)))
        method = "wald_normal"
    return TailReport(
        z=z,
        direction="negative" if z < 0 else "positive",
        p_or_pi=min(p, 1.0),
        method=method,
        dof=dof if dist == "t" else None,
        boundary_warning=fit.boundary,
        notes="boundary fit: estimate diverging, p-value unreliable" if fit.boundary else "",
    )


def pi_value_analytic(posterior: LaplacePosterior, index: int, beta0: float = 0.0) -> TailReport:
    """pi-value from a normal or Student-t marginal posterior."""
    z = (float(posterior.mean[index]) - beta0) / posterior.marginal_scale(index)
    # evaluate each tail directly; 1 - cdf would underflow far out
    lower = posterior.marginal_cdf(index, beta0)
    upper = posterior.marginal_cdf(index, 2.0 * float(posterior.mean[index]) - beta0)
    pi = _two_sided(lower, upper)
    return TailReport(
        z=z,
        direction="negative" if z < 0 else "positive",
        p_or_pi=pi,
        method="posterior_analytic",
        dof=posterior.dof,
    )


def pi_value_from_grid(grid: GridPosterior, index: int, beta0: float = 0.0) -> TailReport:
    """pi-value from a grid posterior's marginal of parameter ``index``."""
    lower = grid.marginal_cdf_at(index, beta0)
    pi = _two_sided(lower, 1.0 - lower)
    mean, sd = grid.mean_sd(index)
    z = (mean - beta0) / sd if sd > 0 else 0.0
    return TailReport(
        z=z,
        direction="negative" if lower > 0.5 else "positive",
        p_or_pi=pi,
        method="posterior_grid",
    )


def pi_value_from_samples(samples: Sequence[float], beta0: float = 0.0,
                          method: str = "empirical",
                          stream: Optional[RngStream] = None) -> TailReport:
    """pi-value from posterior draws.

    'empirical' counts tail fractions (floor 2/N); 'mixture' smooths the draws
    with a Gaussian mixture first, so extreme tails do not underflow to zero;
    identical draws (``DegeneracyError``) fall back to the empirical value.
    """
    x = np.asarray(samples, dtype=float).ravel()
    n = x.size
    if n == 0:
        raise DomainError("no samples")
    frac_ge = float(np.mean(x >= beta0))
    frac_lt = 1.0 - frac_ge
    direction = "positive" if frac_ge >= frac_lt else "negative"
    z = (float(x.mean()) - beta0) / float(x.std()) if x.std() > 0 else 0.0
    floor = 1.0 / n
    pi_emp = _two_sided(max(frac_lt, floor), max(frac_ge, floor))
    if method == "empirical":
        return TailReport(z=z, direction=direction, p_or_pi=pi_emp,
                          method="posterior_empirical")
    if method != "mixture":
        raise DomainError("method must be 'empirical' or 'mixture'")
    if n < 1000:
        raise DomainError("mixture smoothing needs at least 1000 samples")
    try:
        model = fit_gaussian_mixture_1d(x - beta0, stream=stream)
    except DegeneracyError:
        return TailReport(z=z, direction=direction, p_or_pi=pi_emp,
                          method="posterior_empirical",
                          notes="mixture fit degenerate; fell back to empirical")
    pi = min(1.0, mixture_tail_pi(model))
    return TailReport(z=z, direction=direction, p_or_pi=pi, method="posterior_mixture")


def direction_estimate(pi: float, direction: str) -> float:
    """Signed directionality estimate sign * (1 - pi) = P(>= ref) - P(< ref)."""
    if not 0.0 < pi <= 1.0:
        raise DomainError("pi must be in (0, 1]")
    sgn = {"positive": 1.0, "negative": -1.0}.get(direction)
    if sgn is None:
        raise DomainError("direction must be 'positive' or 'negative'")
    return sgn * (1.0 - pi)


def tail_comparison(z: float, n_minus_p: int) -> dict:
    """Two-sided tail areas under the three reference distributions.

    ``z`` is the Wald statistic standardized with the scale estimate D/(n-p).
    p_normal uses the standard normal; p_t_jeffreys the t with n-p dof that
    the jeffreys scale prior gives; p_t_uniform the t with n-p-2 dof that a
    uniform scale prior gives. Its scale matrix is D/(n-p-2) * V rather than
    D/(n-p) * V, so the statistic becomes z * sqrt((n-p-2)/(n-p)).
    """
    if n_minus_p <= 2:
        raise DegreesOfFreedomError("tail comparison needs n - p > 2")
    a = abs(z)
    return {
        "p_normal": 2.0 * float(std_normal_cdf(-a)),
        "p_t_jeffreys": 2.0 * float(student_t_cdf(-a, n_minus_p)),
        "p_t_uniform": 2.0 * float(
            student_t_cdf(-a * math.sqrt((n_minus_p - 2.0) / n_minus_p), n_minus_p - 2)
        ),
    }
