"""Special functions, deterministic RNG streams, and 1-D Gaussian mixture fitting.

Everything downstream (fits, posteriors, tail areas, replication) funnels
through the functions here so that far-tail accuracy and reproducibility are
controlled in one place.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
from scipy import special

from .errors import DegeneracyError, DomainError

__all__ = [
    "std_normal_cdf",
    "std_normal_logcdf",
    "std_normal_quantile",
    "student_t_cdf",
    "student_t_logpdf",
    "two_sided_tail",
    "gauss_legendre",
    "RngStream",
    "MixtureModel1D",
    "MixtureStage",
    "fit_gaussian_mixture_1d",
    "MIN_MIXTURE_SAMPLES",
    "mixture_tails",
]

MIN_MIXTURE_SAMPLES = 1000                      # fewest draws the mixture fit takes
EM_TOL = 1e-8                                   # relative log-likelihood gain that ends an EM start
EM_MAX_ITER = 500                               # most EM iterations of one start
MIXTURE_G_MAX = 5                               # most mixture components tried
MIXTURE_RESTARTS = 10                           # random EM starts per G, beside the quantile start


def std_normal_cdf(x):
    """Standard normal CDF by ``scipy.special.ndtr``.

    The lower tail comes from erfc rather than 1 - erf, which would
    underflow to 0. Against mpmath its relative error is below 5e-15 on
    [-5, 8], up to 6.3e-14 on [-20, -5], and at most 2.3e-13 (near
    x = -37.26) down to x = -37.5 (Phi ~ 5e-308), as the rounding of x/sqrt(2)
    is amplified by x^2.
    """
    x = np.asarray(x, dtype=float)
    if np.any(np.isnan(x)):
        raise DomainError("NaN passed to std_normal_cdf")
    out = special.ndtr(x)
    return out if out.ndim else float(out)


def std_normal_logcdf(x):
    """log Phi(x), finite far past the point where Phi(x) underflows (log Phi(-40) ~ -804.6)."""
    x = np.asarray(x, dtype=float)
    if np.any(np.isnan(x)):
        raise DomainError("NaN passed to std_normal_logcdf")
    out = special.log_ndtr(x)
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
    if nu == 1.0:
        # the Cauchy CDF; stdtr's nu = 1 branch loses absolute accuracy near 0
        # (off by 1.6e-9 at x = 1e-8)
        out = np.arctan2(1.0, -x) / math.pi
    else:
        out = special.stdtr(nu, x)
    return out if out.ndim else float(out)


def two_sided_tail(center, scale, beta0=0.0, dof=None):
    """Two-sided tail min(1, 2 F(-|center - beta0| / scale)) of a symmetric law, elementwise.

    F is the standard normal CDF when ``dof`` is None and ``student_t_cdf``
    with ``dof`` degrees of freedom otherwise. This is both the Wald p-value
    and the pi-value of a normal or t posterior centred at ``center``.
    """
    z = -np.abs(np.asarray(center, dtype=float) - beta0) / scale
    out = np.minimum(2.0 * (std_normal_cdf(z) if dof is None else student_t_cdf(z, dof)), 1.0)
    return out if out.ndim else float(out)


def student_t_logpdf(x, nu, scale=1.0):
    """Log density of a Student-t (nu > 0) centred at 0 with scale ``scale``."""
    if not nu > 0 or not scale > 0:
        raise DomainError("student_t_logpdf requires nu > 0 and scale > 0")
    z = np.asarray(x, dtype=float) / scale
    out = (
        special.gammaln((nu + 1.0) / 2.0)
        - special.gammaln(nu / 2.0)
        - 0.5 * math.log(nu * math.pi)
        - math.log(scale)
        - (nu + 1.0) / 2.0 * np.log1p(z * z / nu)
    )
    return out if out.ndim else float(out)


@functools.cache
def gauss_legendre(n: int):
    """Read-only n-point Gauss-Legendre nodes and weights on [-1, 1].

    Built on first use: ``leggauss`` runs an eigensolver, whose library code
    would otherwise add to the resident memory of every process that
    imports piglm.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@dataclasses.dataclass(frozen=True)
class RngStream:
    """Counter-based random stream: (seed, stream_id) -> reproducible Generator.

    Distinct stream_ids under the same seed are statistically independent
    (Philox keyed streams). The replication harness gives each purpose a child
    stream and draws its rows in replicate order, so replicate r is the same at any n_sim.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed % (1 << 64), self.stream_id % (1 << 64)],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, stream_id: int) -> "RngStream":
        """Stream id parent_id * K + stream_id mod 2^64: K is odd, so distinct parents
        have distinct children, and stream 0's child i is stream i."""
        return RngStream(self.seed, (self.stream_id * 0x9E3779B97F4A7C15 + stream_id) % (1 << 64))


@dataclasses.dataclass(frozen=True)
class MixtureStage:
    """One G of the BIC scan: its best start's BIC, the EM iterations of each
    start and how many starts stopped because they could not clear the BIC bar."""

    g: int
    bic: float
    start_iters: tuple
    n_barred: int


@dataclasses.dataclass(frozen=True)
class MixtureModel1D:
    """Univariate Gaussian mixture: (weight, mean, sd) per component.

    ``stages`` holds one ``MixtureStage`` per G tried, G = 1 first.
    """

    weights: np.ndarray
    means: np.ndarray
    sds: np.ndarray
    loglik: float
    bic: float
    n_iter: int
    stages: tuple = ()

    @property
    def count(self) -> int:
        return len(self.weights)


def _runs(x):
    """Runs of equal consecutive draws: (one value per run, run lengths as floats).

    A Metropolis chain repeats its state at every rejection; the EM log
    likelihood of repeated values is the count-weighted sum over the runs.
    """
    starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    return x[starts], np.diff(np.append(starts, x.size)).astype(float)


def _em_batch(values, counts, w, m, s, sd_floor, bar):
    """EM on a batch of starting points simultaneously, over weighted points.

    ``values`` holds the distinct points and ``counts`` how many draws each
    stands for; the log likelihood and the M-step sums weight each point by
    its count (with every count 1.0 this is plain EM on the draws, bit for
    bit). ``w``, ``m``, ``s`` have shape (n_starts, g). The working arrays
    have shape (active starts, g, points), with the points on the innermost,
    contiguous axis: the E step's log-sum-exp is a max-shift over the short
    component axis (underflow-safe for far-out samples), and the M-step sums
    run along the points. Each start freezes once its own log likelihood stalls
    (relative gain below ``EM_TOL``), after ``EM_MAX_ITER`` iterations, or, from
    iteration 20 on, once it cannot reach ``bar`` (the log likelihood that
    beats the best BIC so far): ll + gain * (iterations left) + 2 < bar, with
    gain its latest step. While its gains do not grow, such a start ends
    below the bar even at the cap, so it cannot change the fit chosen; the
    20-iteration warm-up and the 2-nat margin cover the early steps, where
    gains can still grow. Returns (w, m, s, ll, iters, barred), the last
    three of shape (n_starts,).
    """
    n = counts.sum()
    S = w.shape[0]
    s = np.maximum(s, sd_floor)
    ll = np.full(S, -np.inf)
    iters = np.zeros(S, dtype=int)
    active = np.ones(S, dtype=bool)
    barred = np.zeros(S, dtype=bool)
    half_log_2pi = 0.5 * math.log(2.0 * math.pi)
    for it in range(1, EM_MAX_ITER + 1):
        idx = np.flatnonzero(active)
        # E step: log component densities, then responsibilities, in place
        r = values - m[idx, :, None]
        r /= s[idx, :, None]
        r *= r
        r *= -0.5
        r += (np.log(w[idx]) - np.log(s[idx]) - half_log_2pi)[:, :, None]
        top = r.max(axis=1)
        r -= top[:, None, :]
        np.exp(r, out=r)
        tot = r.sum(axis=1)
        top += np.log(tot)                  # each point's log likelihood
        top *= counts
        ll_new = top.sum(axis=1)
        r /= tot[:, None, :]
        # M step: count-weighted sums over the points axis
        r *= counts
        nk = np.maximum(r.sum(axis=2), 1e-300)
        mk = (r @ values) / nk
        dev = values - mk[:, :, None]
        dev *= dev
        dev *= r
        w[idx] = nk / n
        m[idx] = mk
        s[idx] = np.maximum(np.sqrt(dev.sum(axis=2) / nk), sd_floor)
        gain = ll_new - ll[idx]
        done = (gain < EM_TOL * (np.abs(ll_new) + 1.0)) & (it > 1)
        if it >= 20:
            lost = ll_new + gain * (EM_MAX_ITER - it) + 2.0 < bar
            barred[idx[lost & ~done]] = True
            done |= lost
        ll[idx] = ll_new
        iters[idx] = it
        active[idx[done]] = False
        if not active.any():
            break
    return w, m, s, ll, iters, barred


def fit_gaussian_mixture_1d(samples, *, stream=None):
    """Fit unequal-variance Gaussian mixtures for G = 1..MIXTURE_G_MAX, pick best BIC.

    G = 1 is fitted in closed form (mean, population sd, normal log
    likelihood; ``n_iter`` 1). Each G > 1 runs EM (``_em_batch``) from
    quantile-spaced means with pooled sd and equal weights, plus
    ``MIXTURE_RESTARTS`` random restarts; every start stops on its own relative
    log-likelihood gain below ``EM_TOL``, at ``EM_MAX_ITER`` iterations, or
    once it cannot beat the best BIC so far. The EM runs on the draws' runs
    of repeated values, one point per run weighted by its length, which gives
    the same log likelihood as the draws themselves; starts, restarts and the
    BIC's n come from the draws. The component-sd floor is 1e-6 x sample sd;
    a start that ends with a component at the floor has collapsed onto a
    point, a likelihood singularity, and cannot win. If every start of a G
    collapses, that G's BIC is +inf and the scan stops. The scan over G
    stops once BIC worsens. The model's ``stages`` record every G tried; the
    BIC of a G that lost is where its starts stopped. A NaN or infinite draw,
    or fewer than ``MIN_MIXTURE_SAMPLES`` draws, raise ``DomainError``;
    identical draws raise ``DegeneracyError``.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if not np.isfinite(x).all():
        raise DomainError("mixture fitting needs finite samples")
    if x.size < MIN_MIXTURE_SAMPLES:
        raise DomainError(f"mixture fitting needs at least {MIN_MIXTURE_SAMPLES} samples")
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
    stages = [MixtureStage(1, best.bic, (1,), 0)]
    values, counts = _runs(x)
    for g in range(2, MIXTURE_G_MAX + 1):
        means0 = [np.quantile(x, (np.arange(g) + 0.5) / g)]
        sds0 = [np.full(g, sd_all)]
        for _ in range(MIXTURE_RESTARTS):
            idx = rng.choice(n, size=g, replace=False)
            means0.append(x[idx].astype(float))
            sds0.append(np.full(g, sd_all) * rng.uniform(0.3, 1.5))
        S = len(means0)
        k_free = 3 * g - 1
        bar = (k_free * math.log(n) - best.bic) / 2.0
        w, m, s, ll, iters, barred = _em_batch(
            values, counts, np.full((S, g), 1.0 / g), np.array(means0), np.array(sds0),
            sd_floor, bar=bar)
        # a component at the sd floor sits on a likelihood singularity: that
        # start collapsed onto a point and cannot win
        ll[(s <= sd_floor).any(axis=1)] = -np.inf
        i_best = int(np.argmax(ll))
        bic = -2.0 * float(ll[i_best]) + k_free * math.log(n)
        stages.append(MixtureStage(g, bic, tuple(iters.tolist()), int(barred.sum())))
        if bic < best.bic:
            order = np.argsort(m[i_best])
            best = MixtureModel1D(w[i_best][order], m[i_best][order], s[i_best][order],
                                  float(ll[i_best]), bic, int(iters[i_best]))
        else:
            # BIC is unimodal in G here in practice; once it worsens, larger G
            # only adds redundant components, so stop scanning
            break
    return dataclasses.replace(best, stages=tuple(stages))


def mixture_tails(model: MixtureModel1D):
    """Mixture mass below 0 and at or above 0: (sum w Phi(-m/s), sum w Phi(m/s)).

    Callers subtract the reference value beta0 before fitting, so 0 is beta0.
    """
    z = model.means / model.sds
    return (float(np.sum(model.weights * std_normal_cdf(-z))),
            float(np.sum(model.weights * std_normal_cdf(z))))
