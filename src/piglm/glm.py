"""Exponential-family GLMs: likelihood, IRLS fitting, deviance, scale estimates.

Families carry the variance function V(mu), the unit deviance, the exact log
density, the IRLS start, the profile scale estimate, a simulator, the
event counts and, where it has a closed form, the likelihood summed out over a
flat intercept; links carry g, its inverse and derivative.
Fitting is Fisher scoring (expected information), which coincides with
Newton for the canonical links used here and is the stable choice for
gamma-log.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional

import numpy as np
from scipy import special

from .errors import (
    ConvergenceError,
    DesignError,
    DomainError,
    SupportError,
)

__all__ = [
    "Family",
    "LinkFn",
    "ModelData",
    "FitResult",
    "ScaleEstimates",
    "FAMILIES",
    "LINKS",
    "log_likelihood",
    "score",
    "fit_irls",
    "fit_irls_batch",
    "BatchFit",
    "saddlepoint_logpdf",
    "likelihood_surface",
    "quadraticity_diagnostic",
    "LikelihoodSurface",
]

# Estimates beyond this magnitude on the link scale are treated as diverging
# to the boundary (e.g. a log rate ratio of 15 is e^15 ~ 3e6).
BOUNDARY_GUARD = 15.0
IRLS_MAX_ITER = 50                # Fisher-scoring iterations before a row stops unconverged
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)


def _poisson_loglik(y, mu, phi, weights):
    # in place: the grid kernel calls this on (n, points) arrays
    out = special.xlogy(y, mu)
    out -= mu
    out -= special.gammaln(y + 1.0)
    out *= weights
    return out


def _poisson_simulate(rng, mu, phi, w):
    """Poisson(w mu) / w, and NaN where w mu is past the largest mean numpy's sampler takes."""
    ok = w * mu <= _POISSON_LAM_MAX
    return np.where(ok, rng.poisson(np.where(ok, w * mu, 0.0)), np.nan) / w


def _poisson_summed_intercept(y, eta, w):
    """The log-link Poisson likelihood summed out over a flat intercept alpha.

    ``eta`` (n, m) is the linear predictor without alpha at m points. With
    Y = sum w y and S = sum w e^eta, the likelihood is exp(Y alpha - S e^alpha)
    exp(sum w y eta) up to a constant, so S e^alpha given eta is Gamma(Y, 1)
    and, for Y > 0, the sum over alpha is Gamma(Y) S^-Y exp(sum w y eta): the
    multinomial likelihood of the counts given their total (McCullagh &
    Nelder, Generalized Linear Models, 2nd ed., ch. 6). Returns Y, and log S
    and sum w y eta - Y log S at each point.
    """
    wy = w * y
    total = float(wy.sum())
    top = eta.max(axis=0)          # special.logsumexp takes 16 times as long at (2, 801)
    log_s = top + np.log(w @ np.exp(eta - top))
    return total, log_s, wy @ eta - total * log_s


def _binomial_loglik(y, mu, phi, m):
    k = y * m
    return (special.gammaln(m + 1.0) - special.gammaln(k + 1.0) - special.gammaln(m - k + 1.0)
            + special.xlogy(k, mu) + special.xlogy(m - k, 1.0 - mu))


def _gamma_loglik(y, mu, phi, weights):
    nu = weights / phi
    return nu * np.log(nu / mu) + (nu - 1.0) * np.log(y) - nu * y / mu - special.gammaln(nu)


def _gamma_phi_mpl(y, mu, weights, p, phi_dev):
    """Maximizer of the gamma profile (p/2) log phi + l(phi), by Newton in nu = 1/phi.

    Observation i has shape w_i nu. The nu score is
    sum_i w_i (log(w_i nu) - digamma(w_i nu)) - p/(2 nu) + S, with
    S = sum_i w_i (log r_i - r_i + 1) < 0 and r_i = y_i/mu_i. Since
    log x - digamma(x) - 1/(2x) is positive, convex and decreasing, each term
    w_i (log(w_i nu) - digamma(w_i nu)) exceeds 1/(2 nu) by a convex decreasing
    amount, so the score is convex, falls from +inf to S, and is positive at
    nu_0 = (n - p)/(-2 S). Newton from nu_0 climbs to the root monotonically.
    """
    n = y.size
    r = y / mu
    s = float(np.sum(weights * (np.log(r) - r + 1.0)))
    nu = (n - p) / (-2.0 * s)
    for _ in range(100):
        a = weights * nu
        f = float(np.sum(weights * (np.log(a) - special.digamma(a)))) - p / (2.0 * nu) + s
        df = float(np.sum(weights * (1.0 / nu - weights * special.polygamma(1, a)))) \
            + p / (2.0 * nu * nu)
        step = -f / df
        nu += step
        if abs(step) <= 1e-15 * nu:
            break
    return 1.0 / nu


@dataclasses.dataclass(frozen=True)
class Family:
    name: str
    variance: Callable[[np.ndarray], np.ndarray]   # V(mu)
    unit_deviance: Callable[[np.ndarray, np.ndarray], np.ndarray]
    in_domain: Callable[[np.ndarray], np.ndarray]  # valid mean values
    known_scale: bool
    loglik: Callable[..., np.ndarray]              # (y, mu, phi, w): exact log density terms
    start_mu: Callable[..., np.ndarray]            # (y, w): IRLS start mean
    phi_mpl: Callable[..., float]                  # (y, mu, w, p, phi_dev): argmax (p/2) log phi + l
    simulate: Callable[..., np.ndarray]            # (rng, mu, phi, w): a response per mean, or NaN
    event_counts: Optional[Callable[..., np.ndarray]]  # (y, w): events; None if continuous
    # (y, eta, w) under the log link: (Y, log S, log likelihood summed over a flat
    # intercept) as _poisson_summed_intercept; None where that sum has no closed form
    summed_intercept: Optional[Callable[..., tuple]]

    def check_mu(self, mu):
        if not np.all(self.in_domain(np.asarray(mu))):
            raise DomainError(f"mean outside the {self.name} family domain")


@dataclasses.dataclass(frozen=True)
class LinkFn:
    name: str
    g: Callable[[np.ndarray], np.ndarray]
    ginv: Callable[[np.ndarray], np.ndarray]
    gprime: Callable[[np.ndarray], np.ndarray]


# For gaussian, poisson and binomial the adjusted profile is
# (p-n)/2 log phi - D/(2 phi), which peaks at D/(n-p).
FAMILIES = {
    "gaussian": Family(
        name="gaussian",
        variance=lambda mu: np.ones_like(np.asarray(mu, dtype=float)),
        unit_deviance=lambda y, mu: (y - mu) ** 2,
        in_domain=lambda mu: np.isfinite(mu),
        known_scale=False,
        loglik=lambda y, mu, phi, w: (-0.5 * np.log(2.0 * math.pi * phi / w)
                                      - w * (y - mu) ** 2 / (2.0 * phi)),
        start_mu=lambda y, w: y.astype(float),
        phi_mpl=lambda y, mu, w, p, phi_dev: phi_dev,
        simulate=lambda rng, mu, phi, w: mu + rng.standard_normal(np.shape(mu)) * np.sqrt(phi / w),
        event_counts=None,
        summed_intercept=None,
    ),
    "poisson": Family(
        name="poisson",
        variance=lambda mu: np.asarray(mu, dtype=float),
        unit_deviance=lambda y, mu: 2.0 * (special.xlogy(y, y / mu) - (y - mu)),
        in_domain=lambda mu: mu > 0,
        known_scale=True,
        loglik=_poisson_loglik,
        start_mu=lambda y, w: np.where(y > 0, y, 0.5),
        phi_mpl=lambda y, mu, w, p, phi_dev: phi_dev,
        simulate=_poisson_simulate,
        event_counts=lambda y, w: np.rint(y * w),
        summed_intercept=_poisson_summed_intercept,
    ),
    "binomial": Family(
        name="binomial",
        variance=lambda mu: mu * (1.0 - mu),
        unit_deviance=lambda y, mu: 2.0 * (special.xlogy(y, y / mu)
                                           + special.xlogy(1.0 - y, (1.0 - y) / (1.0 - mu))),
        in_domain=lambda mu: (mu > 0) & (mu < 1),
        known_scale=True,
        loglik=_binomial_loglik,
        start_mu=lambda y, w: (y * w + 0.5) / (w + 1.0),
        phi_mpl=lambda y, mu, w, p, phi_dev: phi_dev,
        simulate=lambda rng, mu, phi, w: rng.binomial(w.astype(int), mu) / w,
        event_counts=lambda y, w: np.rint(y * w),
        summed_intercept=None,
    ),
    "gamma": Family(
        name="gamma",
        variance=lambda mu: mu**2,
        unit_deviance=lambda y, mu: 2.0 * (-np.log(y / mu) + (y - mu) / mu),
        in_domain=lambda mu: mu > 0,
        known_scale=False,
        loglik=_gamma_loglik,
        start_mu=lambda y, w: np.maximum(y, 1e-8),
        phi_mpl=_gamma_phi_mpl,
        simulate=lambda rng, mu, phi, w: rng.gamma(w / phi, mu * phi / w),
        event_counts=None,
        summed_intercept=None,
    ),
}

LINKS = {
    "identity": LinkFn(
        name="identity",
        g=lambda mu: np.asarray(mu, dtype=float),
        ginv=lambda eta: np.asarray(eta, dtype=float),
        gprime=lambda mu: np.ones_like(np.asarray(mu, dtype=float)),
    ),
    "log": LinkFn(
        name="log",
        g=np.log,
        ginv=np.exp,
        gprime=lambda mu: 1.0 / np.asarray(mu, dtype=float),
    ),
    "logit": LinkFn(
        name="logit",
        g=lambda mu: np.log(mu / (1.0 - mu)),
        ginv=special.expit,
        gprime=lambda mu: 1.0 / (mu * (1.0 - mu)),
    ),
}


@dataclasses.dataclass(frozen=True)
class ModelData:
    """One GLM problem: response, design, offsets and prior weights, all finite.

    Binomial responses are proportions with the trial counts in ``weights``.
    """

    y: np.ndarray
    X: np.ndarray
    offset: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        n, p = X.shape
        if y.shape[0] != n:
            raise DesignError("y and X row counts differ")
        if n < p:
            raise DesignError("need n >= p")
        off = np.zeros(n) if self.offset is None else np.asarray(self.offset, dtype=float)
        w = np.ones(n) if self.weights is None else np.asarray(self.weights, dtype=float)
        if off.shape[0] != n or w.shape[0] != n:
            raise DesignError("offset/weights length mismatch")
        for name, v in (("y", y), ("X", X), ("offset", off), ("weights", w)):
            if not np.isfinite(v).all():
                raise DesignError(f"{name} must be finite")
        if np.any(w <= 0):
            raise DesignError("weights must be positive")
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "weights", w)
        if np.linalg.matrix_rank(X) < p:
            raise DesignError("design matrix is rank deficient")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclasses.dataclass(frozen=True)
class ScaleEstimates:
    phi_mom: float
    phi_eql: float
    phi_dev: float
    phi_mpl: float


@dataclasses.dataclass(frozen=True)
class FitResult:
    beta_hat: np.ndarray
    cov_unscaled: np.ndarray          # (X' W X)^{-1} at beta_hat
    deviance: float
    scale: Optional[ScaleEstimates]   # None when n == p
    converged: bool
    boundary: bool
    iterations: int
    n: int
    p: int

    def se(self, phi: float = 1.0) -> np.ndarray:
        return np.sqrt(phi * np.diag(self.cov_unscaled))


def _grid_nodes(axes) -> np.ndarray:
    """(m, k) array of the nodes of the rectangular grid on ``axes``, last axis fastest."""
    k = len(axes)
    nodes = np.empty([len(a) for a in axes] + [k])
    for j, a in enumerate(axes):
        nodes[..., j] = a.reshape([-1 if i == j else 1 for i in range(k)])
    return nodes.reshape(-1, k)


def _loglik_points(family: Family, link: LinkFn, data: ModelData, betas: np.ndarray,
                   phi: float) -> np.ndarray:
    """Log likelihood at each row of an (m, p) coefficient array; -inf outside the domain.

    The linear predictor is laid out (n, m), with the points on the contiguous
    axis, so the domain test and the sum over observations run along axis 0.
    """
    eta = data.X @ betas.T + data.offset[:, None]
    mu = link.ginv(eta)
    y, w = data.y[:, None], data.weights[:, None]
    ok = family.in_domain(mu).all(axis=0)
    if ok.all():
        return family.loglik(y, mu, phi, w).sum(axis=0)
    out = np.full(betas.shape[0], -np.inf)
    if ok.any():
        out[ok] = family.loglik(y, mu[:, ok], phi, w).sum(axis=0)
    return out


# Nodes per node-function call in _slab_grid, so that the (n, nodes)
# temporaries stay cache-sized: on a full 801^2 poisson grid, 2^14 and 2^16 tie
# as the fastest of 2^12 to 2^20, and 2^20 takes 1.5 times as long.
_GRID_SLAB_POINTS = 1 << 14


def _slab_grid(node_fn: Callable[[np.ndarray], np.ndarray], axes) -> np.ndarray:
    """``node_fn`` at every node of the rectangular grid on ``axes``, shaped by the axes.

    ``node_fn`` maps an (m, k) node array to its m values; it is called on
    slabs of ``_GRID_SLAB_POINTS`` nodes along the first axis.
    """
    out = np.empty([len(a) for a in axes])
    step = max(1, _GRID_SLAB_POINTS // math.prod(out.shape[1:]))
    for s in range(0, len(axes[0]), step):
        out[s:s + step] = node_fn(_grid_nodes((axes[0][s:s + step], *axes[1:]))).reshape(
            -1, *out.shape[1:])
    return out


def _summed_loglik_grid(family: Family, data: ModelData, axes, k: int):
    """Log likelihood with the flat intercept column ``k`` summed out, on the other axes' grid."""
    rest = [j for j in range(len(axes)) if j != k]
    X = data.X[:, rest]
    return _slab_grid(lambda nodes: family.summed_intercept(
        data.y, X @ nodes.T + data.offset[:, None], data.weights)[2], [axes[j] for j in rest])


def _mu_from_beta(family: Family, link: LinkFn, beta, data: ModelData):
    eta = data.X @ np.asarray(beta, dtype=float) + data.offset
    mu = link.ginv(eta)
    family.check_mu(mu)
    return mu, eta


def log_likelihood(family, link, beta, phi, data: ModelData) -> float:
    """Exact log likelihood at (beta, phi). phi is ignored by fixed-scale families."""
    family, link = _resolve(family, link)
    if not phi > 0:
        raise DomainError("phi must be positive")
    mu, _ = _mu_from_beta(family, link, beta, data)
    return float(np.sum(family.loglik(data.y, mu, phi, data.weights)))


def score(family, link, beta, phi, data: ModelData) -> np.ndarray:
    """Analytic score dll/dbeta = X' [a (y - mu) / (phi V(mu) g'(mu))]."""
    family, link = _resolve(family, link)
    mu, _ = _mu_from_beta(family, link, beta, data)
    u = data.weights * (data.y - mu) / (phi * family.variance(mu) * link.gprime(mu))
    return data.X.T @ u


def _resolve_family(family) -> Family:
    if isinstance(family, Family):
        return family
    try:
        return FAMILIES[family]
    except KeyError:
        raise DomainError(f"unknown family {family!r}") from None


def _resolve_link(link) -> LinkFn:
    if isinstance(link, LinkFn):
        return link
    try:
        return LINKS[link]
    except KeyError:
        raise DomainError(f"unknown link {link!r}") from None


def _resolve(family, link):
    return _resolve_family(family), _resolve_link(link)


def _row_deviance(family: Family, y, mu, weights):
    return np.sum(weights * family.unit_deviance(y, mu), axis=-1)


def _shared_rows(a):
    """``a`` (rows, ...) or, when its rows are all equal, its first row alone.

    A product or factorisation of that one row broadcasts to every row with
    the bits the row-by-row call gives.
    """
    if len(a) > 1 and (a == a[:1]).all():
        return a[:1]
    return a


def _back_substitute(R, b):
    """Solve the upper-triangular systems R[i] x[i] = b[i], one column at a time.

    R may hold one system for every row of b. For p <= 2 this reproduces
    LAPACK's trtrs bit for bit.
    """
    b = b.copy()
    x = np.empty_like(b)
    for j in range(b.shape[1] - 1, -1, -1):
        x[:, j] = b[:, j] / R[:, j, j]
        if j:
            b[:, :j] -= R[:, :j, j] * x[:, j, None]
    return x


@dataclasses.dataclass(frozen=True)
class BatchFit:
    """Per-replicate outcome of ``fit_irls_batch``; row r belongs to ``Y[r]``.

    Rows whose start mean left the family domain (``start_ok`` False) or that
    never accepted a step (``stepped`` False) carry NaN estimates.
    """

    beta_hat: np.ndarray       # (R, p)
    cov_unscaled: np.ndarray   # (R, p, p), (X' W X)^{-1} at beta_hat
    deviance: np.ndarray       # (R,)
    mu: np.ndarray             # (R, n) fitted means
    iterations: np.ndarray     # (R,)
    converged: np.ndarray      # (R,) bool
    boundary: np.ndarray       # (R,) bool
    start_ok: np.ndarray       # (R,) bool
    stepped: np.ndarray        # (R,) bool


def fit_irls_batch(family, link, Y, X, offset=None, weights=None) -> BatchFit:
    """Fisher scoring on every row of a response array Y (R, n) at once.

    X (n, p), the offset and the prior weights are shared. Each row follows
    exactly the path it would follow alone: its own step-halving, stopping
    rule and boundary tests; rows leave the active set as they finish. When
    every active row has the same working weights (always for gaussian/identity,
    and for a batch of one row), one QR factorisation, and at the end one
    information matrix and its inverse, serve them all.
    Convergence requires both a relative deviance change below 1e-10 and a
    score infinity-norm below 1e-8 (at phi = 1; the scale cancels from the
    score equations for all four families); a row still running after
    ``IRLS_MAX_ITER`` iterations stops unconverged. Estimates drifting past the
    divergence guard, mean underflow, step-halving failure or a singular
    information matrix set ``boundary`` instead of raising.
    """
    family, link = _resolve(family, link)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    n_rep = Y.shape[0]
    off = np.zeros(n) if offset is None else np.asarray(offset, dtype=float)
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    mu0 = family.start_mu(Y, w)
    start_ok = family.in_domain(mu0).all(axis=1)
    beta = np.full((n_rep, p), np.nan)
    eta_out = np.full((n_rep, n), np.nan)
    mu_out = np.full((n_rep, n), np.nan)
    dev_out = np.full(n_rep, np.nan)
    iterations = np.zeros(n_rep, dtype=int)
    converged = np.zeros(n_rep, dtype=bool)
    boundary = np.zeros(n_rep, dtype=bool)
    XT = X.T

    def try_step(c, y, d0):
        """Linear predictor, means, deviance and acceptance of candidate rows c."""
        e = np.matmul(X, c[:, :, None])[:, :, 0] + off
        m = link.ginv(e)
        ok = family.in_domain(m).all(axis=1) & np.isfinite(m).all(axis=1)
        if ok.all():
            d = _row_deviance(family, y, m, w)
        else:
            d = np.full(len(c), np.nan)
            d[ok] = _row_deviance(family, y[ok], m[ok], w)
        ok = np.isfinite(d)
        if d0 is not None:
            ok &= d <= d0 + 1e-8 * (np.abs(d0) + 1.0)
        return e, m, d, ok

    # State of the active rows (indices ``act``); a row's final state is
    # written out, and the row dropped, in the iteration that finishes it.
    act = np.flatnonzero(start_ok)
    y, mu = Y[act], mu0[act]
    eta = link.g(mu)
    dev = _row_deviance(family, y, mu, w)
    b = np.full((act.size, p), np.nan)
    it = 0
    for it in range(1, IRLS_MAX_ITER + 1):
        if act.size == 0:
            break
        gp = link.gprime(mu)
        W = w / (family.variance(mu) * gp**2)
        z = (eta - off) + (y - mu) * gp
        sw = np.sqrt(W)
        Q, R = np.linalg.qr(_shared_rows(sw)[:, :, None] * X)
        beta_new = _back_substitute(R, np.matmul(Q.transpose(0, 2, 1), (sw * z)[:, :, None])[:, :, 0])
        frac = 1.0
        c = beta_new if it == 1 else b + frac * (beta_new - b)
        e, m, d, ok = try_step(c, y, None if it == 1 else dev)
        failed = ~ok
        # step-halve each row whose proposal leaves the domain or worsens its
        # deviance; the first step has no previous estimate to halve toward
        if it > 1 and failed.any():
            bad = np.flatnonzero(failed)
            for _ in range(24):
                frac *= 0.5
                cb = b[bad] + frac * (beta_new[bad] - b[bad])
                eb, mb, db, ok = try_step(cb, y[bad], dev[bad])
                took = bad[ok]
                c[took], e[took], m[took], d[took] = cb[ok], eb[ok], mb[ok], db[ok]
                failed[took] = False
                bad = bad[~ok]
                if bad.size == 0:
                    break
        if failed.any():
            # a row that cannot step is at the boundary and keeps its last state
            boundary[act[failed]] = True
            keep = ~failed[:, None]
            c, e, m, d = np.where(keep, c, b), np.where(keep, e, eta), np.where(keep, m, mu), \
                np.where(failed, dev, d)
        dev_old = dev
        b, eta, mu, dev = c, e, m, d
        finished = failed
        if it > 1:
            u = w * (y - mu) / (family.variance(mu) * link.gprime(mu))
            s = np.matmul(XT, u[:, :, None])[:, :, 0]
            done = (np.abs(dev - dev_old) < 1e-10 * (np.abs(dev) + 0.1)) \
                & (np.abs(s).max(axis=1) < 1e-8) & ~failed
            converged[act[done]] = True
            finished = failed | done
        if finished.any():
            i = act[finished]
            beta[i], eta_out[i], mu_out[i], dev_out[i] = b[finished], eta[finished], mu[finished], \
                dev[finished]
            iterations[i] = it
            keep = ~finished
            act, y, b, eta, mu, dev = act[keep], y[keep], b[keep], eta[keep], mu[keep], dev[keep]
    beta[act], eta_out[act], mu_out[act], dev_out[act] = b, eta, mu, dev
    iterations[act] = it
    # an accepted step always has finite coefficients
    stepped = np.isfinite(beta).all(axis=1)
    fitted = np.flatnonzero(stepped)
    boundary[fitted] |= np.any(np.abs(beta[fitted]) > BOUNDARY_GUARD, axis=1) \
        | np.any(eta_out[fitted] < -BOUNDARY_GUARD * 45, axis=1)
    mu = mu_out[fitted]
    W = w / (family.variance(mu) * link.gprime(mu) ** 2)
    XtWX = np.matmul(XT, _shared_rows(W)[:, :, None] * X)
    cov = np.full((n_rep, p, p), np.nan)
    try:
        cov[fitted] = np.linalg.inv(XtWX)
    except np.linalg.LinAlgError:
        for i, info in zip(fitted, np.broadcast_to(XtWX, (fitted.size, p, p))):
            try:
                cov[i] = np.linalg.inv(info)
            except np.linalg.LinAlgError:
                cov[i] = np.linalg.pinv(info)
                boundary[i] = True
    return BatchFit(beta, cov, dev_out, mu_out, iterations, converged, boundary, start_ok, stepped)


def fit_irls(family, link, data: ModelData) -> FitResult:
    """Fit one model by Fisher scoring: ``fit_irls_batch`` on its single response.

    Adds the scale estimates. Raises DomainError when the start mean leaves
    the family domain and ConvergenceError when IRLS cannot take a single step.
    """
    family, link = _resolve(family, link)
    n, p = data.n, data.p
    bf = fit_irls_batch(family, link, data.y[None, :], data.X, data.offset, data.weights)
    if not bf.start_ok[0]:
        raise DomainError(f"mean outside the {family.name} family domain")
    if not bf.stepped[0]:
        raise ConvergenceError("IRLS could not take a single step")
    beta, mu, dev = bf.beta_hat[0], bf.mu[0], float(bf.deviance[0])
    boundary = bool(bf.boundary[0])
    scale = None
    if n > p and dev > 0 and not boundary:
        scale = _estimate_scales(family, data, mu, dev)
    return FitResult(
        beta_hat=beta,
        cov_unscaled=bf.cov_unscaled[0],
        deviance=dev,
        scale=scale,
        converged=bool(bf.converged[0]),
        boundary=boundary,
        iterations=int(bf.iterations[0]),
        n=n,
        p=p,
    )


def _estimate_scales(family, data, mu, dev):
    n, p = data.n, data.p
    V = family.variance(mu)
    phi_mom = float(np.sum(data.weights * (data.y - mu) ** 2 / V) / (n - p))
    phi_eql = dev / n
    phi_dev = dev / (n - p)
    return ScaleEstimates(phi_mom, phi_eql, phi_dev,
                          family.phi_mpl(data.y, mu, data.weights, p, phi_dev))


def saddlepoint_logpdf(family, y_i: float, mu_i: float, phi: float) -> float:
    """Saddlepoint log density: -log(2 pi phi V(y))/2 - d(y, mu)/(2 phi).

    Exact for gaussian; relative density error below 3% for poisson counts
    above 3. Requires V(y) > 0, so poisson y = 0 is outside the support.
    """
    family = _resolve_family(family)
    if not phi > 0:
        raise DomainError("phi must be positive")
    vy = float(family.variance(np.asarray(y_i, dtype=float)))
    if not vy > 0:
        raise SupportError("saddlepoint density needs V(y) > 0")
    family.check_mu(np.asarray(mu_i, dtype=float))
    d = float(family.unit_deviance(np.asarray(y_i, dtype=float), np.asarray(mu_i, dtype=float)))
    return -0.5 * math.log(2.0 * math.pi * phi * vy) - d / (2.0 * phi)


@dataclasses.dataclass(frozen=True)
class LikelihoodSurface:
    beta0_grid: np.ndarray
    beta1_grid: np.ndarray
    loglik: np.ndarray        # shape (len(beta0), len(beta1))
    loglik_quad: np.ndarray
    center: np.ndarray
    info: np.ndarray          # X' W X at the center
    anchored: bool            # True when centered at a user anchor, not the MLE


def likelihood_surface(family, link, data: ModelData, fit: FitResult,
                       half_widths=(3.0, 3.0), resolution=101,
                       anchor=None) -> LikelihoodSurface:
    """Log-likelihood at scale phi = 1 on a rectangular grid around the MLE (p = 2 only).

    ``half_widths`` are in SE units at phi = 1; boundary fits must supply ``anchor``.
    """
    family, link = _resolve(family, link)
    if data.p != 2:
        raise DomainError("likelihood_surface requires exactly two parameters")
    if fit.boundary and anchor is None:
        raise DomainError("boundary fit: supply an anchor point for the surface")
    if not all(0.0 < h < math.inf for h in half_widths):
        raise DomainError("surface half-widths must be finite and positive")
    center = np.asarray(anchor if anchor is not None else fit.beta_hat, dtype=float)
    mu, _ = _mu_from_beta(family, link, center, data)
    W = data.weights / (family.variance(mu) * link.gprime(mu) ** 2)
    info = data.X.T @ (W[:, None] * data.X)
    se = np.sqrt(np.diag(np.linalg.inv(info)))
    g0 = np.linspace(center[0] - half_widths[0] * se[0], center[0] + half_widths[0] * se[0], resolution)
    g1 = np.linspace(center[1] - half_widths[1] * se[1], center[1] + half_widths[1] * se[1], resolution)
    ll = _slab_grid(lambda nodes: _loglik_points(family, link, data, nodes, 1.0), (g0, g1))
    ll0 = log_likelihood(family, link, center, 1.0, data)
    diffs0 = g0[:, None] - center[0]
    diffs1 = g1[None, :] - center[1]
    quad = (
        ll0
        - 0.5 * (info[0, 0] * diffs0**2 + 2.0 * info[0, 1] * diffs0 * diffs1 + info[1, 1] * diffs1**2)
    )
    return LikelihoodSurface(g0, g1, ll, quad, center, info, anchor is not None)


def quadraticity_diagnostic(surface: LikelihoodSurface):
    """Max |ll - ll_quad| within Mahalanobis distance 2 of the center; it passes below 0.1."""
    if surface.anchored:
        raise DomainError("quadraticity diagnostic needs a surface centered at the MLE")
    d0 = surface.beta0_grid[:, None] - surface.center[0]
    d1 = surface.beta1_grid[None, :] - surface.center[1]
    m2 = (
        surface.info[0, 0] * d0**2
        + 2.0 * surface.info[0, 1] * d0 * d1
        + surface.info[1, 1] * d1**2
    )
    mask = m2 <= 4.0
    if not mask.any():
        raise DomainError("no surface node lies within Mahalanobis distance 2 of the center")
    diff = np.abs(surface.loglik - surface.loglik_quad)
    score_val = float(np.max(diff[mask]))
    return {"score": score_val, "pass": score_val < 0.1}
