"""Bayesian posterior machinery for GLM coefficients.

Covers the Gaussian/multivariate-t large-sample posterior with its scale
marginal, empirical-Bayes plug-in, exact low-dimensional grid posteriors under
arbitrary priors, impropriety detection, a random-walk Metropolis sampler, and
the normalized-likelihood density used to cross-check the two routes.
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
    _loglik_grid,
    _loglik_points,
    _resolve,
    _resolve_family,
)
from .numerics import RngStream, std_normal_cdf, student_t_cdf
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
    "detect_impropriety",
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

    def marginal_cdf(self, index: int, x: float) -> float:
        z = (x - self.mean[index]) / self.marginal_scale(index)
        return float(std_normal_cdf(z) if self.dof is None else student_t_cdf(z, self.dof))

    def sample(self, n: int, stream: RngStream) -> np.ndarray:
        rng = stream.generator()
        L = np.linalg.cholesky(self.cov)
        z = rng.standard_normal((n, self.p))
        draws = self.mean + z @ L.T
        if self.dof is not None:
            g = rng.chisquare(self.dof, size=n) / self.dof
            draws = self.mean + (draws - self.mean) / np.sqrt(g)[:, None]
        return draws


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
    plugin: LaplacePosterior       # empirical-Bayes normal at phi_MAP
    phi_map: float


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
    Analysis, 3rd ed., sec. 14.2). The empirical-Bayes plug-in replaces the
    scale marginal by a point mass at phi_MAP = D/(n-p).
    """
    family = _resolve_family(family)
    if fit.boundary:
        raise BoundaryError("posterior unavailable for a boundary fit")
    if not fit.converged:
        raise BoundaryError("posterior unavailable for a non-converged fit")
    if family.known_scale:
        post = LaplacePosterior(fit.beta_hat, fit.cov_unscaled)
        return LaplaceResult(post, None, post, 1.0)
    n, p = fit.n, fit.p
    kind = scale_prior.kind if scale_prior is not None else "jeffreys"
    dof = (n - p) if kind == "jeffreys" else (n - p - 2)
    if dof <= 0:
        raise DegreesOfFreedomError("scale marginal needs positive dof")
    phi_map = fit.deviance / (n - p)
    marginal = ScaleMarginal.from_deviance(fit.deviance, dof)
    beta_post = LaplacePosterior(fit.beta_hat, marginal.scale * fit.cov_unscaled, dof)
    plugin = LaplacePosterior(fit.beta_hat, phi_map * fit.cov_unscaled)
    return LaplaceResult(beta_post, marginal, plugin, phi_map)


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
        return _loglik_grid(self.family, self.link, self.data, axes, self.phi)


def vectorized_loglik(family, link, data: ModelData, phi: float = 1.0) -> VectorizedLoglik:
    """Log likelihood of ``data`` under ``family`` and ``link`` at scale ``phi``."""
    family, link = _resolve(family, link)
    return VectorizedLoglik(family, link, data, phi)


@dataclasses.dataclass(frozen=True)
class GridPosterior:
    """Posterior on a rectangular grid (p <= 3), normalized by the trapezoid rule.

    ``joint`` is the read-only exp(log posterior - its max) at every node and
    ``mass`` its trapezoid integral. ``marginals`` holds each parameter's
    normalized marginal as a read-only (grid, density) pair, built once by
    ``grid_posterior``; parameter indices may count from the end, as in Python.
    """

    axes: Tuple[np.ndarray, ...]
    joint: np.ndarray              # unnormalized, peak 1
    mass: float
    proper: bool
    marginals: Tuple[Tuple[np.ndarray, np.ndarray], ...]

    @property
    def p(self) -> int:
        return len(self.axes)

    def density(self) -> np.ndarray:
        if not self.proper:
            raise SupportError("improper posterior: normalization withheld")
        return self.joint / self.mass

    def marginal(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        """(grid, density) of the normalized marginal of parameter ``index``."""
        _check_index(index, self.p)
        if not self.proper:
            raise SupportError("improper posterior: normalization withheld")
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
        """Draw from the grid by cell probabilities plus in-cell jitter."""
        dens = self.density()
        flat = dens.ravel()
        prob = flat / flat.sum()
        rng = stream.generator()
        idx = rng.choice(len(flat), size=n, p=prob)
        coords = np.unravel_index(idx, dens.shape)
        out = np.empty((n, self.p))
        for d in range(self.p):
            ax = self.axes[d]
            h = ax[1] - ax[0]
            out[:, d] = ax[coords[d]] + rng.uniform(-0.5, 0.5, size=n) * h
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


def _flat_tail(drop: float, slope: float) -> bool:
    """Tail-flatness rule of both tests: above 1e-10 x peak, slope under 0.05 per unit."""
    return drop > math.log(1e-10) and slope < 0.05


def _grid_tail_improper(axis: np.ndarray, log_marg: np.ndarray) -> bool:
    """Tail-decay test on a gridded marginal: flat, non-negligible tails."""
    peak = np.max(log_marg)
    h = axis[1] - axis[0]
    for end, prev in ((0, 1), (-1, -2)):
        if not (np.isfinite(log_marg[end]) and np.isfinite(log_marg[prev])):
            continue               # underflowed tail decays plenty fast
        if _flat_tail(log_marg[end] - peak, abs(log_marg[end] - log_marg[prev]) / h):
            return True
    return False


def grid_posterior(loglik: VectorizedLoglik, priors: Sequence[Optional[PriorSpec]],
                   bounds: Sequence[Tuple[float, float]], resolution: int = 801) -> GridPosterior:
    """Exact posterior on a rectangular grid under per-parameter priors.

    ``loglik`` comes from ``vectorized_loglik``, whose ``grid`` method gives
    the log likelihood at every node; a ``None`` prior entry means flat
    (constant) over the grid for that parameter. The log posterior is
    exponentiated in place, less its max, and reduced once per axis to that
    axis's marginal; the mass is the integral of axis 0's marginal. The result
    is marked improper (and its density withheld) when the marginal of any
    flat axis fails the tail-decay test.
    """
    p = len(bounds)
    if p > 3 or p < 1:
        raise DomainError("grid posterior supports 1 <= p <= 3")
    if len(priors) != p:
        raise DomainError("need one prior (or None) per parameter")
    if not isinstance(loglik, VectorizedLoglik):
        raise DomainError("grid posterior needs the log likelihood from vectorized_loglik, "
                          f"not {type(loglik).__name__}")
    axes = tuple(np.linspace(lo, hi, resolution) for lo, hi in bounds)
    logpost = loglik.grid(axes)
    for i, spec in enumerate(priors):
        if spec is not None:
            lp = np.asarray(prior_logpdf(spec, axes[i]), dtype=float)
            logpost += lp.reshape([resolution if j == i else 1 for j in range(p)])
    if not np.any(np.isfinite(logpost)):
        raise SupportError("posterior is -inf everywhere on the grid")
    logpost -= np.max(logpost)
    dens = np.exp(logpost, out=logpost)    # in place: the grid's only full-size array
    # Every PriorSpec is proper, so only a flat (None) axis can carry a flat
    # tail; a heavy proper tail such as t_2 would fail the slope test at a wide edge.
    improper, masses, marginals = False, [], []
    for i, ax in enumerate(axes):
        marg = dens
        for j in reversed([j for j in range(p) if j != i]):
            marg = _trapezoid(marg, axes[j], j)
        if priors[i] is None:
            with np.errstate(divide="ignore"):
                improper = improper or _grid_tail_improper(ax, np.log(marg))
        masses.append(float(np.trapezoid(marg, ax)))
        grid, marg = ax.view(), marg / masses[-1]
        grid.flags.writeable = marg.flags.writeable = False
        marginals.append((grid, marg))
    dens.flags.writeable = False
    return GridPosterior(axes, dens, masses[0], not improper, tuple(marginals))


def _trapezoid(y: np.ndarray, x: np.ndarray, axis: int) -> np.ndarray:
    """``np.trapezoid(y, x, axis=axis)`` with its three temporaries formed in one."""
    lead = (slice(None),) * axis
    t = np.add(y[lead + (slice(1, None),)], y[lead + (slice(None, -1),)])
    t *= np.diff(x).reshape([-1 if j == axis else 1 for j in range(y.ndim)])
    t /= 2.0
    return t.sum(axis)


def detect_impropriety(marginal_loglik: Callable, direction: str = "both"):
    """Flag a univariate log density whose tail fails to decay.

    A tail is divergent-looking when its value at |beta| = 30 is above
    1e-10 x peak *and* the local log-density slope there is below 0.05 per
    unit (``_flat_tail``), measured between |beta| = 29 and 30. Heavy but
    integrable tails (e.g. Cauchy) pass via the slope test.
    """
    sides = {"left": (-1.0,), "right": (1.0,), "both": (-1.0, 1.0)}.get(direction)
    if sides is None:
        raise DomainError("direction must be left/right/both")
    grid = np.linspace(-40.0, 40.0, 3201)
    vals = np.array([float(marginal_loglik(float(b))) for b in grid])
    peak = float(np.max(vals))
    evidence = []
    improper = False
    for sgn in sides:
        f30 = float(marginal_loglik(sgn * 30.0))
        f29 = float(marginal_loglik(sgn * 29.0))
        side = "left" if sgn < 0 else "right"
        evidence.append(
            f"{side} tail: log-density {f30 - peak:.3f} below peak, slope {abs(f30 - f29):.4f}/unit"
        )
        if _flat_tail(f30 - peak, abs(f30 - f29)):
            improper = True
    return {"improper": improper, "evidence": "; ".join(evidence)}


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
    """
    if n_iter < 1 or burn_in < 0:
        raise DomainError("rw_metropolis needs n_iter >= 1 and burn_in >= 0")
    init = np.atleast_1d(np.asarray(init, dtype=float))
    p = init.size
    cov = np.atleast_2d(np.asarray(proposal_cov, dtype=float))
    L = np.linalg.cholesky(cov)
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
