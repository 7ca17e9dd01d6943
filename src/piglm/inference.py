"""Tail-area inference: Wald p-values and posterior pi-values, each with its direction.

A pi-value is twice the smaller of the two posterior tail probabilities
around a reference coefficient value; under a locally uniform prior it
coincides numerically with the two-sided Wald p-value.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence

import numpy as np

from .errors import DegreesOfFreedomError, DomainError
from .glm import FitResult
from .numerics import RngStream, fit_gaussian_mixture_1d, mixture_tails, two_sided_tail
from .posterior import GridPosterior, LaplacePosterior, _check_index

__all__ = [
    "TailReport",
    "wald_pvalue",
    "pi_value_analytic",
    "pi_value_from_grid",
    "pi_value_from_samples",
    "tail_comparison",
]


@dataclasses.dataclass(frozen=True)
class TailReport:
    z: float
    direction: str                 # 'positive' or 'negative'
    p_or_pi: float
    method: str
    dof: Optional[float] = None


def _tail_report(lower: float, upper: float, z: float, method: str) -> TailReport:
    """Report from the mass below beta0 and the mass at or above it: pi is
    min(1, 2 min(lower, upper)) and the direction is the side of the larger mass."""
    return TailReport(z=z, direction="negative" if lower > upper else "positive",
                      p_or_pi=min(1.0, 2.0 * min(lower, upper)), method=method)


def wald_pvalue(fit: FitResult, phi: float, index: int, beta0: float = 0.0,
                dof: Optional[float] = None) -> TailReport:
    """Two-sided Wald test of beta_index = beta0 at scale phi.

    The reference law is the standard normal when ``dof`` is None and
    Student's t with ``dof`` degrees of freedom otherwise.
    """
    _check_index(index, fit.p)
    if not phi > 0:
        raise DomainError("phi must be positive")
    if dof is not None and dof <= 0:
        raise DegreesOfFreedomError("t reference needs dof > 0")
    se = math.sqrt(phi * fit.cov_unscaled[index, index])
    beta = float(fit.beta_hat[index])
    z = (beta - beta0) / se
    return TailReport(
        z=z,
        direction="negative" if z < 0 else "positive",
        p_or_pi=two_sided_tail(beta, se, beta0, dof),
        method="wald_normal" if dof is None else "wald_t",
        dof=dof,
    )


def pi_value_analytic(posterior: LaplacePosterior, index: int, beta0: float = 0.0) -> TailReport:
    """pi-value from a normal or Student-t marginal posterior."""
    _check_index(index, posterior.p)
    mean = float(posterior.mean[index])
    scale = posterior.marginal_scale(index)
    z = (mean - beta0) / scale
    return TailReport(
        z=z,
        direction="negative" if z < 0 else "positive",
        p_or_pi=two_sided_tail(mean, scale, beta0, posterior.dof),
        method="posterior_analytic",
        dof=posterior.dof,
    )


def pi_value_from_grid(grid: GridPosterior, index: int, beta0: float = 0.0) -> TailReport:
    """pi-value from a grid posterior's marginal of parameter ``index``."""
    # each tail is summed on its own side; 1 - lower loses the upper tail's digits
    lower = grid.marginal_cdf_at(index, beta0)
    upper = grid.marginal_sf_at(index, beta0)
    mean, sd = grid.mean_sd(index)
    z = (mean - beta0) / sd if sd > 0 else 0.0
    return _tail_report(lower, upper, z, "posterior_grid")


def pi_value_from_samples(samples: Sequence[float], beta0: float = 0.0,
                          method: str = "empirical",
                          stream: Optional[RngStream] = None) -> TailReport:
    """pi-value from posterior draws.

    'empirical' counts tail fractions (floor 1/N each, so pi >= 2/N);
    'mixture' smooths the draws with a Gaussian mixture first, so extreme
    tails do not underflow to zero. The mixture needs at least
    ``numerics.MIN_MIXTURE_SAMPLES`` draws (else ``DomainError``), not all
    equal (else ``DegeneracyError``).
    """
    x = np.asarray(samples, dtype=float).ravel()
    n = x.size
    if n == 0:
        raise DomainError("no samples")
    if not np.isfinite(x).all():
        raise DomainError("samples must be finite")
    z = (float(x.mean()) - beta0) / float(x.std()) if x.std() > 0 else 0.0
    if method == "empirical":
        frac_ge = float(np.mean(x >= beta0))
        floor = 1.0 / n
        return _tail_report(max(1.0 - frac_ge, floor), max(frac_ge, floor), z,
                            "posterior_empirical")
    if method != "mixture":
        raise DomainError("method must be 'empirical' or 'mixture'")
    lower, upper = mixture_tails(fit_gaussian_mixture_1d(x - beta0, stream=stream))
    return _tail_report(lower, upper, z, "posterior_mixture")


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
    return {
        "p_normal": two_sided_tail(z, 1.0),
        "p_t_jeffreys": two_sided_tail(z, 1.0, dof=n_minus_p),
        "p_t_uniform": two_sided_tail(z * math.sqrt((n_minus_p - 2.0) / n_minus_p), 1.0,
                                      dof=n_minus_p - 2),
    }
