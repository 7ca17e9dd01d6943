"""Replication machinery: the predictive pi-value, the replicate p-value density,
and a hierarchical Monte Carlo harness that re-runs the analysis on simulated
replicate studies.

Under exact replication with a well-estimated scale, the predictive posterior
for the replicate-study coefficient is N(beta_init, 3 Sigma_init), which gives
``predictive_pi``, and the replicate ML estimator is marginally
N(beta_init, 2 Sigma_init); the induced density of the replicate -log10 p
follows in closed form.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import math
from typing import Optional

import numpy as np
from scipy import special

from .errors import DomainError, HarnessError
from .glm import FitResult, ModelData, _resolve, fit_irls_batch
from .inference import pi_value_from_grid
from .numerics import (RngStream, gauss_legendre, std_normal_cdf, std_normal_logcdf,
                       std_normal_quantile, two_sided_tail)
from .posterior import _summed_intercept, grid_posterior, laplace_posterior, vectorized_loglik
from .priors import PriorSpec, ScalePriorSpec

__all__ = [
    "ReplicationConfig",
    "ReplicationReport",
    "RpdCurve",
    "predictive_pi",
    "rpd_pdf",
    "rpd_cdf",
    "rpd_median",
    "rpd_moments",
    "rpd_curve",
    "run_replication",
    "MIN_N_SIM",
]

MIN_N_SIM = 100                                 # fewest replicates the harness runs
MIN_EVENTS = 1                                  # fewest events per observation of a kept replicate
BAYES_RESOLUTION = 201                          # grid nodes per axis of a replicate's Bayes pi
LN10 = math.log(10.0)
LN2 = math.log(2.0)
_TINY = np.finfo(float).tiny
_RPD_HALF_WIDTH = 30.0 * math.sqrt(2.0)


def predictive_pi(pi_init: float) -> float:
    """Map an initial pi-value to the replicate's: 2 Phi(Phi^{-1}(pi/2)/sqrt(3))."""
    if not 0.0 < pi_init <= 1.0:
        raise DomainError("pi_init must be in (0, 1]")
    if pi_init == 1.0:
        return 1.0
    _check_pi_init(pi_init)
    return 2.0 * float(std_normal_cdf(std_normal_quantile(pi_init / 2.0) / math.sqrt(3.0)))


def _check_pi_init(pi_init: float) -> None:
    if not 0.0 < pi_init < 1.0:
        raise DomainError("pi_init must be in (0, 1)")
    if pi_init / 2.0 == 0.0:
        raise DomainError(f"pi_init {pi_init!r} is too small: pi_init/2 underflows to 0")


def _z_init(pi_init: float) -> float:
    return -float(std_normal_quantile(pi_init / 2.0))


def _c_of_x(x):
    """Phi^{-1}(10^{-x}/2), the (negative) z whose two-sided tail is 10^{-x}.

    Taken from log(10^{-x}/2), so it stays exact past the underflow of 10^{-x}.
    """
    return np.asarray(special.ndtri_exp(-np.asarray(x, dtype=float) * LN10 - LN2))


def _log10p_values(log10p):
    """``log10p`` as a 1-d array, and whether it came in as a scalar; each value must be >= 0."""
    x = np.asarray(log10p, dtype=float)
    if np.any(x < 0):
        raise DomainError("log10p must be >= 0")
    return np.atleast_1d(x), x.ndim == 0


def rpd_pdf(log10p, pi_init: float):
    """Density of x = -log10 of the replicate two-sided p-value.

    Jacobian 10^{-x} exp(erfcinv(10^{-x})^2) ln10 sqrt(pi/2) times the two
    reflected normal densities N(+-Phi^{-1}(10^{-x}/2) | Phi^{-1}(pi_init/2),
    sd sqrt(2)).
    """
    _check_pi_init(pi_init)
    x, scalar = _log10p_values(log10p)
    c = _c_of_x(x)
    t = std_normal_quantile(pi_init / 2.0)
    sd = math.sqrt(2.0)
    # log of the Jacobian |dz/dx| = 10^{-x} e^{erfcinv(10^{-x})^2} ln10 sqrt(pi/2)
    log_jac = -x * LN10 + 0.5 * c * c + math.log(LN10) + 0.5 * math.log(math.pi / 2.0)
    dens = np.exp(log_jac - 0.5 * ((c - t) / sd) ** 2 - math.log(sd) - 0.5 * math.log(2 * math.pi)) \
        + np.exp(log_jac - 0.5 * ((-c - t) / sd) ** 2 - math.log(sd) - 0.5 * math.log(2 * math.pi))
    return float(dens[0]) if scalar else dens


def rpd_cdf(log10p, pi_init: float):
    """P(-log10 p_rep <= x), closed two-term normal-CDF form."""
    _check_pi_init(pi_init)
    x, scalar = _log10p_values(log10p)
    c = _c_of_x(x)
    t = _z_init(pi_init)
    sd = math.sqrt(2.0)
    out = std_normal_cdf((-c - t) / sd) - std_normal_cdf((c - t) / sd)
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out


def rpd_median(pi_init: float) -> float:
    """Median replicate p-value, the image of the generating normal's median.

    The replicate z is symmetric about the initial z, whose image is pi_init.
    (The folded |z| mapping makes the cdf at -log10 pi_init differ from 0.5 by
    Phi(-sqrt(2) z_init) -- negligible for small pi_init, visible for large.)
    """
    _check_pi_init(pi_init)
    return pi_init


def rpd_moments(pi_init: float) -> dict:
    """Mean and sd of the replicate p-value in -log10 and raw scales.

    The replicate z is N(z_init, 2), with two-sided p(z) = 2 Phi(-|z|) and
    x(z) = -log10 p(z) taken from log Phi, so x stays exact far past the
    underflow of p. All four moments are one weighted sum on 64 fixed
    Gauss-Legendre nodes per piece over z_init +- 30 sqrt(2), split at the
    kink z = 0, at z_init/3, where the raw-moment integrand peaks, and at
    z_init. The log10 variance is taken about -log10 pi_init, so it does not
    cancel in the far tail.
    """
    _check_pi_init(pi_init)
    nodes, weights = gauss_legendre(64)
    t = _z_init(pi_init)
    # 0 < t < 38.5 for any double pi_init, so the kink lies inside the range
    cuts = np.array([t - _RPD_HALF_WIDTH, 0.0, t / 3.0, t, t + _RPD_HALF_WIDTH])
    lo, hi = cuts[:-1, None], cuts[1:, None]
    z = (0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)).ravel()
    w = (0.5 * (hi - lo) * weights).ravel() * np.exp(
        -0.25 * (z - t) ** 2 - 0.5 * math.log(4.0 * math.pi))
    log_p = LN2 + std_normal_logcdf(-np.abs(z))
    shift = -math.log10(pi_init)
    dx = -log_p / LN10 - shift
    integrands = np.stack([dx, dx * dx, np.exp(log_p), np.exp(2.0 * log_p)])
    m_dx, m_dx2, m_raw, m_raw2 = (integrands @ w).tolist()
    return {
        "mean_log10": shift + m_dx,
        "sd_log10": math.sqrt(max(m_dx2 - m_dx**2, 0.0)),
        "mean_raw": m_raw,
        "sd_raw": math.sqrt(max(m_raw2 - m_raw**2, 0.0)),
    }


@dataclasses.dataclass(frozen=True)
class RpdCurve:
    grid: np.ndarray
    pdf: np.ndarray
    cdf: np.ndarray
    tail_mass: float               # analytic mass beyond the grid cap
    mean_log10: float
    sd_log10: float
    mean_raw: float
    sd_raw: float

    @property
    def total_mass(self) -> float:
        return float(np.trapezoid(self.pdf, self.grid)) + self.tail_mass


def rpd_curve(pi_init: float, cap: float = 30.0, resolution: int = 2001) -> RpdCurve:
    """Tabulated replicate p-value density/CDF on -log10 p in [0, cap].

    ``cap`` sets the tabulation range only; the moments come from
    ``rpd_moments``, which take the whole replicate distribution.
    """
    if not 0.0 < cap < math.inf:
        raise DomainError("rpd cap must be finite and positive")
    grid = np.linspace(0.0, cap, resolution)
    pdf = rpd_pdf(grid, pi_init)
    cdf = rpd_cdf(grid, pi_init)
    tail = 1.0 - float(rpd_cdf(cap, pi_init))
    mom = rpd_moments(pi_init)
    return RpdCurve(grid, pdf, cdf, tail, mom["mean_log10"], mom["sd_log10"],
                    mom["mean_raw"], mom["sd_raw"])


@dataclasses.dataclass(frozen=True)
class ReplicationConfig:
    n_sim: int
    seed: RngStream
    analyses: tuple = ("ml",)                       # 'ml', 'bayes_flat', ('bayes_student_t', df, scale)
    target_index: int = -1                          # coefficient whose p/pi is summarized
    scale_prior: Optional[ScalePriorSpec] = None    # sets the phi marginal; None is jeffreys
    n_workers: int = 1                              # accepted only as 1; see __post_init__

    def __post_init__(self):
        if self.n_sim < MIN_N_SIM:
            raise DomainError(f"n_sim must be >= {MIN_N_SIM}")
        if self.n_workers != 1:
            # replicates are fitted in one batch; the thread pool measured slower than serial
            raise DomainError("n_workers must be 1")
        if not self.analyses:
            raise DomainError("at least one analysis required")
        for tag in self.analyses:
            if tag != "ml":
                _bayes_prior(tag)           # raises on an unknown tag or a bad prior


@dataclasses.dataclass(frozen=True)
class ReplicationReport:
    """The replicates as arrays: one row per replicate, or per kept replicate.

    ``results`` maps each analysis result (``ml_estimates``, ``ml_p``,
    ``<key>_pi``) to its values, row k belonging to replicate ``kept[k]``.
    """

    failure_reason: np.ndarray                      # (R,) "" for a kept replicate
    beta_g: np.ndarray                              # (R, p) generating coefficients
    phi_g: np.ndarray                               # (R,) generating scale
    kept: np.ndarray                                # (K,) indices of the kept replicates
    results: dict                                   # name -> values aligned with kept
    summaries: dict
    failure_counts: dict                            # replicates per failure reason

    @functools.cached_property
    def records(self) -> list:
        """One dict per replicate, built on first read; later reads return the same list."""
        records = [{"replicate": r, "failed": bool(reason), "failure_reason": reason,
                    "beta_g": self.beta_g[r], "phi_g": self.phi_g[r]}
                   for r, reason in enumerate(self.failure_reason)]
        for k, i in enumerate(self.kept):
            records[i].update((name, values[k]) for name, values in self.results.items())
        return records


def _bayes_prior(tag):
    """Summary key and target-coefficient prior (None: flat) of a Bayes analysis
    tag; DomainError for any other tag."""
    if tag == "bayes_flat":
        return tag, None
    if isinstance(tag, tuple) and len(tag) == 3 and tag[0] == "bayes_student_t":
        return tag[0], PriorSpec("test_invchisq", beta0=0.0, nu0=tag[1], s=tag[2])
    raise DomainError(f"unknown analysis {tag!r}")


def _simulate(family, link, data: ModelData, initial: FitResult, scale, config):
    """Draw every replicate's generating parameters and response as arrays.

    Exact replication: replicate r is generated by one draw (beta_g, phi_g) of
    the initial posterior. Each purpose fills one row per replicate, in
    replicate order, from its own child stream of the seed: phi_g (1: draws of
    the scale marginal ``scale``, or ones when it is None), beta_g (2) and the
    responses (4, around the means of the fitted link), so replicate r does
    not depend on n_sim. Returns beta_g (R, p), phi_g (R,), the responses
    (R, n) and the failure reasons ("" for none).
    """
    n_sim, seed, L = config.n_sim, config.seed, np.linalg.cholesky(initial.cov_unscaled)
    phi_g = np.ones(n_sim) if scale is None else scale.sample(n_sim, seed.child(1))
    z = seed.child(2).generator().standard_normal((n_sim, data.p))
    beta_g = initial.beta_hat + np.sqrt(phi_g)[:, None] * (z @ L.T)
    mu = link.ginv(beta_g @ data.X.T + data.offset)
    in_domain = family.in_domain(mu).all(axis=1)
    y = np.full(mu.shape, np.nan)
    # stream 3 is unused: responses stay on stream 4, so a seed keeps its replicates
    y[in_domain] = family.simulate(seed.child(4).generator(), mu[in_domain],
                                   phi_g[in_domain, None], data.weights)
    reasons = np.full(n_sim, "", dtype=object)
    if family.event_counts is not None:
        events = family.event_counts(y, data.weights)
        reasons[(events < MIN_EVENTS).any(axis=1)] = "too few events"
    reasons[~np.isfinite(y).all(axis=1)] = "simulation overflow"
    reasons[~in_domain] = "mean outside family domain"
    return beta_g, phi_g, y, reasons


def _fit_failure_reasons(bf) -> np.ndarray:
    """Per-replicate failure reason of a batch fit ("" for a usable fit)."""
    reasons = np.full(bf.converged.shape, "", dtype=object)
    reasons[~bf.converged] = "non-convergence"
    reasons[bf.boundary] = "boundary"
    reasons[~(bf.start_ok & bf.stepped)] = "fit error"
    return reasons


def run_replication(initial: FitResult, family, link, data: ModelData,
                    config: ReplicationConfig) -> ReplicationReport:
    """Hierarchical replicate simulation: draw generating parameters from the
    initial posterior (phi from ``laplace_posterior``'s scale marginal),
    simulate replicate data on the initial design, fit, re-run each
    configured analysis, and summarize.

    Every replicate is simulated first, as arrays with one child stream of the
    config's seed per purpose (see ``_simulate``), so the result is
    deterministic given the seed and replicate r is the same at any n_sim. One
    ``fit_irls_batch`` call then decides the replicates every analysis keeps
    and each one's plug-in scale phi_r = D_r/(n - p) (1 for known scale). The
    ML analysis takes Wald p-values at phi_r (a p that underflows past the
    smallest normal double gets its -log10 quantiles from log Phi of the Wald
    z, so the far tail stays exact); each Bayes analysis takes the
    grid pi-value at phi_r, its prior on the target, over +-8 se of the initial
    fit at its plug-in scale. Failed replicates are flagged with a reason
    ("mean outside family domain" when the link maps the generating
    coefficients off the family's means, "simulation overflow" when the
    sampler cannot draw a response, "too few events", "fit error" when IRLS
    took no step, "boundary", "non-convergence"), counted in
    ``failure_counts`` and excluded from summaries. A Bayes analysis whose
    target is the intercept that its grid sums out (see
    ``posterior.grid_posterior``) has no pi-value, and raises ``DomainError``
    before anything is simulated. The report holds the replicates as arrays;
    its per-replicate ``records`` are built only when read.
    """
    family, link = _resolve(family, link)
    post = laplace_posterior(initial, config.scale_prior, family)     # checks fit and dof
    j = config.target_index
    if not -data.p <= j < data.p:
        raise DomainError(f"target_index {j} out of range for p = {data.p}")
    bayes = []                                      # (summary key, per-parameter priors)
    for tag in config.analyses:
        if tag != "ml":
            key, prior = _bayes_prior(tag)
            priors = [None] * data.p
            priors[j] = prior
            summed = _summed_intercept(vectorized_loglik(family, link, data), priors)
            if summed is not None and summed.index == j % data.p:
                raise DomainError(f"target_index {j} is the intercept that the {key} grid "
                                  "sums out; it has no marginal")
            bayes.append((key, priors))
    beta_g, phi_g, y, reasons = _simulate(family, link, data, initial, post.scale_marginal, config)
    kept = np.flatnonzero(reasons == "")
    bf = fit_irls_batch(family, link, y[kept], data.X, data.offset, data.weights)
    reasons[kept] = _fit_failure_reasons(bf)
    ok = reasons[kept] == ""
    kept = kept[ok]
    if not kept.size:
        raise HarnessError("every replicate failed")
    phi = np.ones(kept.size) if family.known_scale else bf.deviance[ok] / (data.n - data.p)
    results = {}                                    # per kept replicate, in the order of kept
    if "ml" in config.analyses:
        est = results["ml_estimates"] = bf.beta_hat[ok]
        se = np.sqrt(phi[:, None] * np.diagonal(bf.cov_unscaled[ok], axis1=1, axis2=2))
        results["ml_p"] = two_sided_tail(est, se)
    bounds = [(b - 8.0 * s, b + 8.0 * s)
              for b, s in zip(initial.beta_hat, initial.se(post.phi_map))]
    for key, priors in bayes:
        pis = results[f"{key}_pi"] = []
        for i, phi_r in zip(kept, phi):
            ll = vectorized_loglik(family, link, ModelData(y=y[i], X=data.X, offset=data.offset,
                                                           weights=data.weights), phi_r)
            gp = grid_posterior(ll, priors, bounds, resolution=BAYES_RESOLUTION)
            pis.append(pi_value_from_grid(gp, j).p_or_pi if gp.proper else None)
    summaries = {"fraction_failed": 1.0 - kept.size / config.n_sim}
    if "ml" in config.analyses:
        pvals = results["ml_p"][:, j]
        # a p below the smallest normal double has lost digits or underflowed
        # to 0, so its -log10 comes from log Phi of its z
        logs = -np.log10(np.maximum(pvals, _TINY))
        far = pvals < _TINY
        logs[far] = -(LN2 + std_normal_logcdf(-np.abs(est[far, j]) / se[far, j])) / LN10
        summaries.update({
            "ml_mean": est.mean(axis=0),
            "ml_sd": est.std(axis=0, ddof=1),
            "ml_var": est.var(axis=0, ddof=1),
            "neglog10_p_quantiles": {
                q: float(np.quantile(logs, q)) for q in (0.05, 0.25, 0.5, 0.75, 0.95)
            },
            "fraction_p_below_0.05": float(np.mean(pvals < 0.05)),
        })
    for key, _ in bayes:
        pis = [pi for pi in results[f"{key}_pi"] if pi is not None]
        if pis:
            summaries[f"{key}_pi_median"] = float(np.median(pis))
    failure_counts = dict(collections.Counter(reasons[reasons != ""]))
    return ReplicationReport(reasons, beta_g, phi_g, kept, results, summaries, failure_counts)
