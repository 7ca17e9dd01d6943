"""Bayesian posterior machinery for GLM coefficients.

Covers the Gaussian/multivariate-t large-sample posterior with its scale
marginal, empirical-Bayes plug-in scale, exact low-dimensional grid posteriors
under arbitrary priors with their tail-decay impropriety test, a random-walk
Metropolis sampler, and the normalized-likelihood density used to cross-check
the two routes.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BoundaryError,
    DegreesOfFreedomError,
    DomainError,
    MixingError,
    SupportError,
)
from .glm import (
    Family,
    FitResult,
    LinkFn,
    ModelData,
    _loglik_points,
    _resolve,
    _resolve_family,
    _slab_grid,
    _summed_loglik_grid,
)
from .numerics import RngStream
from .priors import PriorSpec, ScalePriorSpec, prior_logpdf

__all__ = [
    "LaplacePosterior",
    "ScaleMarginal",
    "LaplaceResult",
    "GridPosterior",
    "McmcChain",
    "VectorizedLoglik",
    "laplace_posterior",
    "vectorized_loglik",
    "grid_posterior",
    "rw_metropolis",
    "p_formula_density",
]


@dataclasses.dataclass(frozen=True)
class LaplacePosterior:
    """Normal (``dof`` None) or multivariate-t posterior for the coefficient vector.

    With ``dof`` set, ``cov`` holds the scale matrix and the marginals are
    location-scale Student-t with ``dof`` degrees of freedom.
    """

    mean: np.ndarray
    cov: np.ndarray
    dof: Optional[int] = None

    def __post_init__(self):
        if self.dof is not None and self.dof < 1:
            raise DegreesOfFreedomError("mvt posterior needs dof >= 1")

    @property
    def p(self) -> int:
        return len(self.mean)

    def marginal_scale(self, index: int) -> float:
        return float(math.sqrt(self.cov[index, index]))

    def marginal_sd(self, index: int) -> float:
        s = self.marginal_scale(index)
        if self.dof is None:
            return s
        if self.dof <= 2:
            return math.inf
        return s * math.sqrt(self.dof / (self.dof - 2.0))


@dataclasses.dataclass(frozen=True)
class ScaleMarginal:
    """Scaled-inverse-chi-square marginal for the scale parameter."""

    dof: int
    scale: float

    @classmethod
    def from_deviance(cls, deviance: float, dof: int) -> "ScaleMarginal":
        """The marginal at ``dof`` degrees of freedom with scale D/dof, which must follow the dof."""
        return cls(dof, deviance / dof)

    def sample(self, n: int, stream: RngStream) -> np.ndarray:
        rng = stream.generator()
        return self.dof * self.scale / rng.chisquare(self.dof, size=n)


@dataclasses.dataclass(frozen=True)
class LaplaceResult:
    beta_posterior: LaplacePosterior
    scale_marginal: Optional[ScaleMarginal]
    phi_map: float                 # empirical-Bayes plug-in scale


def laplace_posterior(fit: FitResult, scale_prior: Optional[ScalePriorSpec],
                      family) -> LaplaceResult:
    """Large-sample posterior for beta, with the scale marginalized out.

    Fixed-scale families give a normal with covariance equal to the unscaled
    covariance. Otherwise the scale marginal is scaled-inverse-chi-square with
    dof n-p (jeffreys prior) or n-p-2 (uniform prior) and scale D/dof; the
    beta marginal is multivariate-t with that dof and scale matrix
    (D/dof) * cov_unscaled: integrating phi out of
    phi^(-n/2 - k) * exp(-(D + q)/(2 phi)), with k = 1 (jeffreys) or 0
    (uniform), leaves (D + q)^(-(dof + p)/2) (Gelman et al., Bayesian Data
    Analysis, 3rd ed., sec. 14.2). The empirical-Bayes plug-in scale
    phi_MAP = D/(n-p) (1 for fixed-scale families) is returned beside them.
    """
    family = _resolve_family(family)
    if fit.boundary:
        raise BoundaryError("posterior unavailable for a boundary fit")
    if not fit.converged:
        raise BoundaryError("posterior unavailable for a non-converged fit")
    if family.known_scale:
        return LaplaceResult(LaplacePosterior(fit.beta_hat, fit.cov_unscaled), None, 1.0)
    n, p = fit.n, fit.p
    kind = scale_prior.kind if scale_prior is not None else "jeffreys"
    dof = (n - p) if kind == "jeffreys" else (n - p - 2)
    if dof <= 0:
        raise DegreesOfFreedomError("scale marginal needs positive dof")
    phi_map = fit.deviance / (n - p)
    marginal = ScaleMarginal.from_deviance(fit.deviance, dof)
    beta_post = LaplacePosterior(fit.beta_hat, marginal.scale * fit.cov_unscaled, dof)
    return LaplaceResult(beta_post, marginal, phi_map)


@dataclasses.dataclass(frozen=True)
class VectorizedLoglik:
    """Log likelihood of one model at many coefficient vectors.

    Calling it on an (m, p) array gives the m values; ``grid`` gives the
    values at every node of a rectangular grid. Points whose means leave the
    family domain get -inf.
    """

    family: Family
    link: LinkFn
    data: ModelData
    phi: float = 1.0

    def __call__(self, betas) -> np.ndarray:
        return _loglik_points(self.family, self.link, self.data,
                              np.atleast_2d(np.asarray(betas, dtype=float)), self.phi)

    def grid(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        """Values at the nodes of the grid on ``axes``, shaped (len(axes[0]), len(axes[1]), ...)."""
        return _slab_grid(self, axes)


def vectorized_loglik(family, link, data: ModelData, phi: float = 1.0) -> VectorizedLoglik:
    """Log likelihood of ``data`` under ``family`` and ``link`` at scale ``phi``."""
    family, link = _resolve(family, link)
    return VectorizedLoglik(family, link, data, phi)


@dataclasses.dataclass(frozen=True)
class _SummedIntercept:
    """The flat intercept, column ``index`` of ones, summed out of a grid posterior."""

    index: int
    family: Family
    data: ModelData

    def draw(self, rest: np.ndarray, rng) -> np.ndarray:
        """Intercept draws from its exact conditional given each row of ``rest``,
        the other coefficients in column order: log Gamma(Y, 1) - log S."""
        X = np.delete(self.data.X, self.index, axis=1)
        total, log_s, _ = self.family.summed_intercept(
            self.data.y, X @ rest.T + self.data.offset[:, None], self.data.weights)
        return np.log(rng.gamma(total, size=len(rest))) - log_s


@dataclasses.dataclass(frozen=True)
class GridPosterior:
    """Posterior on a rectangular grid (p <= 3), normalized by the trapezoid rule.

    ``axes`` holds every parameter's axis. ``joint`` is the read-only
    exp(log posterior - its max) at every node of the gridded axes and
    ``mass`` its trapezoid integral, so the normalized density is
    ``joint / mass``. ``marginals`` holds each gridded parameter's normalized
    marginal as a read-only (grid, density) pair, built once by
    ``grid_posterior``; parameter indices may count from the end, as in
    Python. When ``summed`` is set, its intercept is summed out exactly: it has
    no axis in ``joint`` and no marginal (None in ``marginals``), and ``sample``
    draws it from its conditional.
    """

    axes: Tuple[np.ndarray, ...]
    joint: np.ndarray              # unnormalized, peak 1
    mass: float
    proper: bool
    marginals: Tuple[Optional[Tuple[np.ndarray, np.ndarray]], ...]
    summed: Optional[_SummedIntercept]

    @property
    def p(self) -> int:
        return len(self.axes)

    def marginal(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        """(grid, density) of the normalized marginal of parameter ``index``."""
        _check_index(index, self.p)
        if not self.proper:
            raise SupportError("improper posterior: normalization withheld")
        if self.marginals[index] is None:
            raise DomainError(f"parameter {index} is the intercept summed out of this grid; "
                              "it has no marginal")
        return self.marginals[index]

    def marginal_cdf_at(self, index: int, x0: float) -> float:
        grid, dens = self.marginal(index)
        return _mass_below(grid, dens, x0)

    def marginal_sf_at(self, index: int, x0: float) -> float:
        """Marginal mass above ``x0``, summed on the reversed axis like the lower tail."""
        grid, dens = self.marginal(index)
        return _mass_below(-grid[::-1], dens[::-1], -x0)

    def mean_sd(self, index: int) -> Tuple[float, float]:
        grid, dens = self.marginal(index)
        m = float(np.trapezoid(grid * dens, grid))
        v = float(np.trapezoid((grid - m) ** 2 * dens, grid))
        return m, math.sqrt(v)

    def edge_mass(self, index: int) -> Tuple[float, float]:
        """Normalized marginal mass in the first and the last grid cell.

        A bound placed far enough out leaves both near zero.
        """
        grid, dens = self.marginal(index)
        return (float(0.5 * (dens[0] + dens[1]) * (grid[1] - grid[0])),
                float(0.5 * (dens[-2] + dens[-1]) * (grid[-1] - grid[-2])))

    def sample(self, n: int, stream: RngStream) -> np.ndarray:
        """Draw from the grid by cell probabilities plus in-cell jitter, and a summed-out
        intercept from its exact conditional given the other coordinates."""
        if not self.proper:
            raise SupportError("improper posterior: normalization withheld")
        prob = (self.joint / self.joint.sum()).ravel()
        rng = stream.generator()
        idx = rng.choice(prob.size, size=n, p=prob)
        gridded = [i for i, m in enumerate(self.marginals) if m is not None]
        out = np.empty((n, self.p))
        for d, c in zip(gridded, np.unravel_index(idx, self.joint.shape)):
            ax = self.axes[d]
            h = ax[1] - ax[0]
            out[:, d] = ax[c] + rng.uniform(-0.5, 0.5, size=n) * h
        if self.summed is not None:
            out[:, self.summed.index] = self.summed.draw(out[:, gridded], rng)
        return out


def _check_index(index: int, p: int) -> None:
    """Parameter indices run over [-p, p), negative ones counting from the end."""
    if not -p <= index < p:
        raise DomainError(f"parameter index {index} out of range for p = {p}")


def _mass_below(grid: np.ndarray, dens: np.ndarray, x0: float) -> float:
    """Trapezoid mass of a gridded density up to ``x0``, with the partial cell."""
    k = int(np.searchsorted(grid, x0, side="right"))   # grid[:k] <= x0
    lower = float(np.trapezoid(dens[:k], grid[:k]))
    if 0 < k < len(grid) and x0 > grid[k - 1]:
        g0, g1, d0, d1 = grid[k - 1], grid[k], dens[k - 1], dens[k]
        d_at = d0 + (x0 - g0) / (g1 - g0) * (d1 - d0)
        lower += 0.5 * (d0 + d_at) * (x0 - g0)
    return min(max(lower, 0.0), 1.0)


def _grid_tail_improper(axis: np.ndarray, log_marg: np.ndarray) -> bool:
    """Tail-decay test on a gridded marginal: an end of the axis whose log
    density is above 1e-10 x peak and whose slope is under 0.05 per unit.

    Heavy but integrable tails (a Cauchy's at |beta| = 30) pass by the slope.
    """
    peak = np.max(log_marg)
    h = axis[1] - axis[0]
    for end, prev in ((0, 1), (-1, -2)):
        if not (np.isfinite(log_marg[end]) and np.isfinite(log_marg[prev])):
            continue               # underflowed tail decays plenty fast
        slope = abs(log_marg[end] - log_marg[prev]) / h
        if log_marg[end] - peak > math.log(1e-10) and slope < 0.05:
            return True
    return False


def _summed_intercept(loglik: VectorizedLoglik,
                      priors: Sequence[Optional[PriorSpec]]) -> Optional[_SummedIntercept]:
    """The intercept that ``grid_posterior`` sums out, or None to grid every axis.

    It needs a family with a closed-form sum (``Family.summed_intercept``),
    the log link (the sum needs mu = exp(eta)), p >= 2, a column of ones in X
    whose prior is None, and Y > 0: with no events the sum diverges.
    """
    family, data = loglik.family, loglik.data
    if family.summed_intercept is None or loglik.link.ginv is not np.exp or data.p < 2:
        return None
    ones = [j for j in range(data.p) if priors[j] is None and np.all(data.X[:, j] == 1.0)]
    if not ones:
        return None
    # Y does not depend on the coefficients; read it at the one point eta = offset
    total = family.summed_intercept(data.y, data.offset[:, None], data.weights)[0]
    return _SummedIntercept(ones[0], family, data) if total > 0 else None


def grid_posterior(loglik: VectorizedLoglik, priors: Sequence[Optional[PriorSpec]],
                   bounds: Sequence[Tuple[float, float]], resolution: int = 801) -> GridPosterior:
    """Exact posterior on a rectangular grid under per-parameter priors.

    ``loglik`` comes from ``vectorized_loglik``, whose ``grid`` method gives
    the log likelihood at every node; a ``None`` prior entry means flat
    (constant) over the grid for that parameter. A flat intercept that
    ``_summed_intercept`` accepts is summed out in closed form, and only the
    other axes are gridded: their log posterior is
    (w y) . eta' - Y log(sum w e^eta') plus the priors, eta' the linear
    predictor without the intercept. The log posterior is exponentiated in
    place, less its max, and reduced once per gridded axis to that axis's
    marginal; the mass is the integral of the first gridded axis's marginal.
    The result is marked improper (and its marginals withheld) when the marginal
    of any flat gridded axis fails the tail-decay test.
    """
    p = len(bounds)
    if p > 3 or p < 1:
        raise DomainError("grid posterior supports 1 <= p <= 3")
    if len(priors) != p:
        raise DomainError("need one prior (or None) per parameter")
    if resolution < 2 or not all(-math.inf < lo < hi < math.inf for lo, hi in bounds):
        raise DomainError("grid posterior needs finite bounds lo < hi and resolution >= 2")
    if not isinstance(loglik, VectorizedLoglik):
        raise DomainError("grid posterior needs the log likelihood from vectorized_loglik, "
                          f"not {type(loglik).__name__}")
    axes = tuple(np.linspace(lo, hi, resolution) for lo, hi in bounds)
    summed = _summed_intercept(loglik, priors)
    gridded = [i for i in range(p) if summed is None or i != summed.index]
    logpost = (loglik.grid(axes) if summed is None
               else _summed_loglik_grid(loglik.family, loglik.data, axes, summed.index))
    for d, i in enumerate(gridded):
        if priors[i] is not None:
            lp = np.asarray(prior_logpdf(priors[i], axes[i]), dtype=float)
            logpost += lp.reshape([resolution if e == d else 1 for e in range(len(gridded))])
    if not np.any(np.isfinite(logpost)):
        raise SupportError("posterior is -inf everywhere on the grid")
    logpost -= np.max(logpost)
    dens = np.exp(logpost, out=logpost)    # in place: the grid's only full-size array
    # Every PriorSpec is proper, so only a flat (None) axis can carry a flat
    # tail; a heavy proper tail such as t_2 would fail the slope test at a wide edge.
    improper, masses, marginals = False, [], [None] * p
    for d, i in enumerate(gridded):
        marg = dens
        for e in reversed([e for e in range(len(gridded)) if e != d]):
            marg = _trapezoid(marg, axes[gridded[e]], e)
        if priors[i] is None:
            with np.errstate(divide="ignore"):
                improper = improper or _grid_tail_improper(axes[i], np.log(marg))
        masses.append(float(np.trapezoid(marg, axes[i])))
        grid, marg = axes[i].view(), marg / masses[-1]
        grid.flags.writeable = marg.flags.writeable = False
        marginals[i] = (grid, marg)
    dens.flags.writeable = False
    return GridPosterior(axes, dens, masses[0], not improper, tuple(marginals), summed)


def _trapezoid(y: np.ndarray, x: np.ndarray, axis: int) -> np.ndarray:
    """``np.trapezoid(y, x, axis=axis)`` with its three temporaries formed in one."""
    lead = (slice(None),) * axis
    t = np.add(y[lead + (slice(1, None),)], y[lead + (slice(None, -1),)])
    t *= np.diff(x).reshape([-1 if j == axis else 1 for j in range(y.ndim)])
    t /= 2.0
    return t.sum(axis)


@dataclasses.dataclass(frozen=True)
class McmcChain:
    draws: np.ndarray
    acceptance_rate: float


def rw_metropolis(log_post: Callable, init, proposal_cov, n_iter: int,
                  burn_in: int, stream: RngStream) -> McmcChain:
    """Gaussian random-walk Metropolis with pre-burn-in scale adaptation.

    The proposal scale adapts in blocks of 200 during the first half of
    burn-in toward an acceptance rate in [0.2, 0.5], then freezes, so the
    retained draws come from a fixed kernel. Deterministic given ``stream``.
    ``proposal_cov`` must be a finite, symmetric, positive-definite p x p
    matrix (``DomainError`` before any step otherwise).
    """
    if n_iter < 1 or burn_in < 0:
        raise DomainError("rw_metropolis needs n_iter >= 1 and burn_in >= 0")
    init = np.atleast_1d(np.asarray(init, dtype=float))
    p = init.size
    cov = np.atleast_2d(np.asarray(proposal_cov, dtype=float))
    if cov.shape != (p, p) or not np.isfinite(cov).all():
        raise DomainError(f"proposal_cov must be a finite {p} x {p} matrix; "
                          f"got shape {cov.shape}")
    # cholesky reads only the lower triangle; an inverted matrix may differ in its last bits
    if np.abs(cov - cov.T).max() > 1e-12 * np.abs(cov).max():
        raise DomainError("proposal_cov is not symmetric")
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise DomainError("proposal_cov is not positive definite") from None
    rng = stream.generator()
    lp0 = float(log_post(init))
    if not np.isfinite(lp0):
        raise DomainError("log_post is not finite at init")
    total = burn_in + n_iter
    draws = np.empty((total, p))
    cur, cur_lp = init.copy(), lp0
    scale = 2.38 / math.sqrt(p)
    adapt_end = burn_in // 2
    block = 200
    acc_block = 0
    acc_retained = 0
    normals = rng.standard_normal((total, p))
    unifs = np.log(rng.uniform(size=total))
    for t in range(total):
        prop = cur + scale * (L @ normals[t])
        lp = float(log_post(prop))
        if lp - cur_lp > unifs[t]:
            cur, cur_lp = prop, lp
            acc_block += 1
            if t >= burn_in:
                acc_retained += 1
        draws[t] = cur
        if t < adapt_end and (t + 1) % block == 0:
            rate = acc_block / block
            if rate < 0.2:
                scale *= 0.7
            elif rate > 0.5:
                scale *= 1.4
            acc_block = 0
        elif (t + 1) % block == 0:
            acc_block = 0
    rate = acc_retained / n_iter
    if rate == 0.0:
        raise MixingError("chain never moved after adaptation")
    return McmcChain(draws[burn_in:], rate)


def p_formula_density(fit: FitResult, family, link, data: ModelData,
                      beta_grid: Sequence[np.ndarray]):
    """Normalized-likelihood density on a two-parameter grid, at scale phi = 1.

    raw = (n/2pi)^{p/2} |avg information|^{1/2} exp(ll(beta) - ll(beta_hat));
    ``renormalized`` divides raw by its trapezoid integral over the grid.
    """
    family, link = _resolve(family, link)
    if fit.boundary or not fit.converged:
        raise BoundaryError("p-formula density needs a converged interior fit")
    if fit.p != 2 or len(beta_grid) != 2:
        raise DomainError("p-formula density supports exactly two parameters")
    ll = vectorized_loglik(family, link, data)
    g0, g1 = (np.asarray(g, dtype=float) for g in beta_grid)
    ll_vals = ll.grid((g0, g1))
    ll_hat = float(ll(fit.beta_hat[None, :])[0])
    info = np.linalg.inv(fit.cov_unscaled)  # total information
    n, p = fit.n, fit.p
    avg_info = info / n
    const = (n / (2.0 * math.pi)) ** (p / 2.0) * math.sqrt(np.linalg.det(avg_info))
    raw = const * np.exp(ll_vals - ll_hat)
    integral = np.trapezoid(np.trapezoid(raw, g1, axis=1), g0)
    return {"axes": (g0, g1), "raw": raw, "renormalized": raw / integral,
            "raw_integral": float(integral)}
