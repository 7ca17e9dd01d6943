"""Special functions, deterministic RNG streams, and 1-D Gaussian mixture fitting.

Everything downstream (fits, posteriors, tail areas, replication) funnels
through the functions here so that far-tail accuracy and reproducibility are
controlled in one place.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy import special

from .errors import DegeneracyError, DomainError

__all__ = [
    "std_normal_cdf",
    "std_normal_logpdf",
    "std_normal_quantile",
    "student_t_cdf",
    "student_t_logpdf",
    "exp_integral_gamma0",
    "erfc_inverse",
    "RngStream",
    "MixtureModel1D",
    "fit_gaussian_mixture_1d",
    "mixture_tail_pi",
]


def std_normal_cdf(x):
    """Standard normal CDF, accurate to relative ~1e-10 far into the lower tail.

    Built on erfc so that values like Phi(-37) ~ 5e-300 keep full relative
    precision instead of underflowing to 0 the way 1 - erf would.
    """
    x = np.asarray(x, dtype=float)
    if np.any(np.isnan(x)):
        raise DomainError("NaN passed to std_normal_cdf")
    out = special.ndtr(x)
    return out if out.ndim else float(out)


def std_normal_logpdf(x):
    x = np.asarray(x, dtype=float)
    out = -0.5 * x * x - 0.5 * math.log(2.0 * math.pi)
    return out if out.ndim else float(out)


def std_normal_quantile(p):
    """Inverse of std_normal_cdf on (0, 1)."""
    p = np.asarray(p, dtype=float)
    if np.any(~((p > 0.0) & (p < 1.0))):
        raise DomainError("std_normal_quantile requires 0 < p < 1")
    out = special.ndtri(p)
    return out if out.ndim else float(out)


def student_t_cdf(x, nu):
    """CDF of Student's t with nu > 0 degrees of freedom."""
    if not nu > 0:
        raise DomainError("student_t_cdf requires nu > 0")
    x = np.asarray(x, dtype=float)
    out = special.stdtr(nu, x)
    return out if out.ndim else float(out)


def student_t_logpdf(x, nu, loc=0.0, scale=1.0):
    """Log density of a location-scale Student-t (nu > 0)."""
    if not nu > 0 or not scale > 0:
        raise DomainError("student_t_logpdf requires nu > 0 and scale > 0")
    z = (np.asarray(x, dtype=float) - loc) / scale
    out = (
        special.gammaln((nu + 1.0) / 2.0)
        - special.gammaln(nu / 2.0)
        - 0.5 * math.log(nu * math.pi)
        - math.log(scale)
        - (nu + 1.0) / 2.0 * np.log1p(z * z / nu)
    )
    return out if out.ndim else float(out)


def exp_integral_gamma0(x):
    """Upper incomplete gamma Gamma(0, x) = E1(x) for x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(~(x > 0.0)):
        raise DomainError("exp_integral_gamma0 requires x > 0")
    out = special.exp1(x)
    return out if out.ndim else float(out)


def erfc_inverse(p):
    """Inverse complementary error function on (0, 2).

    Satisfies erfc(erfc_inverse(p)) = p; equals -Phi^{-1}(p/2)/sqrt(2).
    """
    p = np.asarray(p, dtype=float)
    if np.any(~((p > 0.0) & (p < 2.0))):
        raise DomainError("erfc_inverse requires 0 < p < 2")
    out = special.erfcinv(p)
    return out if out.ndim else float(out)


@dataclasses.dataclass(frozen=True)
class RngStream:
    """Counter-based random stream: (seed, stream_id) -> reproducible Generator.

    Distinct stream_ids under the same seed are statistically independent
    (Philox keyed streams), so parallel replicates can each own a stream and
    the combined run stays deterministic regardless of scheduling.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed % (1 << 64), self.stream_id % (1 << 64)],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, stream_id: int) -> "RngStream":
        return RngStream(self.seed, stream_id)


@dataclasses.dataclass(frozen=True)
class MixtureModel1D:
    """Univariate Gaussian mixture: (weight, mean, sd) per component."""

    weights: np.ndarray
    means: np.ndarray
    sds: np.ndarray
    loglik: float
    bic: float
    n_iter: int

    @property
    def count(self) -> int:
        return len(self.weights)

    @property
    def components(self):
        return list(zip(self.weights.tolist(), self.means.tolist(), self.sds.tolist()))

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)[..., None]
        comp = (
            np.log(self.weights)
            - 0.5 * ((x - self.means) / self.sds) ** 2
            - np.log(self.sds)
            - 0.5 * math.log(2.0 * math.pi)
        )
        out = special.logsumexp(comp, axis=-1)
        return out if np.ndim(out) else float(out)


def _em_batch(x, w, m, s, tol, max_iter, sd_floor):
    """EM on a batch of starting points simultaneously.

    ``w``, ``m``, ``s`` have shape (n_starts, g). The working arrays have
    shape (active starts, g, n), with the draws on the innermost, contiguous
    axis: the E step's log-sum-exp is a max-shift over the short component
    axis (underflow-safe for far-out samples), and the M-step sums run along
    the draws. Each start freezes once its own log likelihood stalls
    (relative gain below ``tol``) or after ``max_iter`` iterations. Returns
    (w, m, s, ll, iters, ll_path) with ll of shape (n_starts,); ll_path
    tracks start 0 only.
    """
    n = x.size
    S = w.shape[0]
    s = np.maximum(s, sd_floor)
    ll = np.full(S, -np.inf)
    iters = np.zeros(S, dtype=int)
    active = np.ones(S, dtype=bool)
    ll_path = []
    half_log_2pi = 0.5 * math.log(2.0 * math.pi)
    for it in range(1, max_iter + 1):
        idx = np.flatnonzero(active)
        # E step: log component densities, then responsibilities, in place
        r = x - m[idx, :, None]
        r /= s[idx, :, None]
        r *= r
        r *= -0.5
        r += (np.log(w[idx]) - np.log(s[idx]) - half_log_2pi)[:, :, None]
        top = r.max(axis=1)
        r -= top[:, None, :]
        np.exp(r, out=r)
        tot = r.sum(axis=1)
        r /= tot[:, None, :]
        ll_new = (np.log(tot) + top).sum(axis=1)
        # M step: sums over the draws axis
        nk = np.maximum(r.sum(axis=2), 1e-300)
        mk = (r @ x) / nk
        dev = x - mk[:, :, None]
        dev *= dev
        dev *= r
        w[idx] = nk / n
        m[idx] = mk
        s[idx] = np.maximum(np.sqrt(dev.sum(axis=2) / nk), sd_floor)
        done = (ll_new - ll[idx] < tol * (np.abs(ll_new) + 1.0)) & (it > 1)
        ll[idx] = ll_new
        iters[idx] = it
        if active[0]:
            ll_path.append(float(ll[0]))
        active[idx[done]] = False
        if not active.any():
            break
    return w, m, s, ll, iters, ll_path


def fit_gaussian_mixture_1d(samples, g_max=5, *, n_restarts=10, tol=1e-8,
                            max_iter=500, stream=None, return_ll_path=False):
    """Fit unequal-variance Gaussian mixtures for G = 1..g_max, pick best BIC.

    G = 1 is fitted in closed form (mean, population sd, normal log
    likelihood; ``n_iter`` 1, a one-entry ll path). Each G > 1 runs EM
    (``_em_batch``) from quantile-spaced means with pooled sd and equal
    weights, plus ``n_restarts`` random restarts; every start stops on its
    own relative log-likelihood gain below ``tol`` or at ``max_iter``. The
    component-sd floor is 1e-6 x sample sd to keep components from
    collapsing on a point. The scan over G stops once BIC worsens.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 50:
        raise DegeneracyError("need at least 50 samples for mixture fitting")
    if g_max < 1:
        raise DomainError("g_max must be >= 1")
    if x.min() == x.max():
        raise DegeneracyError("all samples identical; mixture fit undefined")
    sd_all = float(x.std())
    sd_floor = 1e-6 * sd_all
    rng = (stream or RngStream(0)).generator()
    n = x.size
    # G = 1 in closed form: EM from any start lands on this fit
    mean = x.sum() / n
    sd = max(math.sqrt(((x - mean) ** 2).sum() / n), sd_floor)
    ll1 = float((-0.5 * ((x - mean) / sd) ** 2 - np.log(sd) - 0.5 * math.log(2.0 * math.pi)).sum())
    best = MixtureModel1D(np.ones(1), np.array([mean]), np.array([sd]), ll1,
                          -2.0 * ll1 + 2.0 * math.log(n), 1)
    best_path = [ll1]
    for g in range(2, g_max + 1):
        means0 = [np.quantile(x, (np.arange(g) + 0.5) / g)]
        sds0 = [np.full(g, sd_all)]
        for _ in range(n_restarts):
            idx = rng.choice(n, size=g, replace=False)
            means0.append(x[idx].astype(float))
            sds0.append(np.full(g, sd_all) * rng.uniform(0.3, 1.5))
        S = len(means0)
        w, m, s, ll, iters, path = _em_batch(x, np.full((S, g), 1.0 / g), np.array(means0),
                                             np.array(sds0), tol, max_iter, sd_floor)
        k_free = 3 * g - 1
        i_best = int(np.argmax(ll))
        bic = -2.0 * float(ll[i_best]) + k_free * math.log(n)
        if bic < best.bic:
            order = np.argsort(m[i_best])
            best = MixtureModel1D(w[i_best][order], m[i_best][order], s[i_best][order],
                                  float(ll[i_best]), bic, int(iters[i_best]))
            best_path = path if i_best == 0 else []
        else:
            # BIC is unimodal in G here in practice; once it worsens, larger G
            # only adds redundant components, so stop scanning
            break
    if return_ll_path:
        return best, best_path
    return best


def mixture_tail_pi(model: MixtureModel1D) -> float:
    """Two-sided tail area sum_k w_k * 2 Phi(-|m_k|/s_k) from a fitted mixture.

    The component means are taken relative to the reference value (callers
    subtract beta0 before fitting), matching the smoothed tail-area recipe
    used for MCMC output.
    """
    z = np.abs(model.means) / model.sds
    return float(np.sum(model.weights * 2.0 * std_normal_cdf(-z)))
