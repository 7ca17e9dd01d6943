"""Replication machinery: predictive posteriors, the replicate p-value density,
and a hierarchical Monte Carlo harness that re-runs the analysis on simulated
replicate studies.

Under exact replication with a well-estimated scale, the predictive posterior
for the replicate-study coefficient is N(beta_init, 3 Sigma_init) and the
replicate ML estimator is marginally N(beta_init, 2 Sigma_init); the induced
density of the replicate -log10 p follows in closed form.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

import numpy as np
from scipy import integrate

from .errors import BoundaryError, DomainError, HarnessError
from .glm import FitResult, ModelData, _resolve, fit_irls
from .inference import pi_value_from_grid, wald_pvalue
from .numerics import RngStream, std_normal_cdf, std_normal_quantile
from .posterior import LaplacePosterior, ScaleMarginal, grid_posterior, vectorized_loglik

__all__ = [
    "TranslationKernel",
    "ReplicationConfig",
    "ReplicationReport",
    "RpdCurve",
    "predictive_posterior",
    "predictive_pi",
    "rpd_pdf",
    "rpd_cdf",
    "rpd_median",
    "rpd_moments",
    "rpd_curve",
    "run_replication",
]

LN10 = math.log(10.0)


def predictive_posterior(fit: FitResult, phi: float = 1.0) -> dict:
    """Predictive distributions for an exact replicate of the fitted study.

    Returns the predictive posterior N(beta_hat, 3 Sigma) for the replicate
    coefficients and the replicate-estimator marginal N(beta_hat, 2 Sigma),
    where Sigma = phi * cov_unscaled.
    """
    if fit.boundary or not fit.converged:
        raise BoundaryError("predictive posterior needs a converged interior fit")
    sigma = phi * fit.cov_unscaled
    return {
        "predictive": LaplacePosterior(fit.beta_hat, 3.0 * sigma, "normal"),
        "replicate_estimator": LaplacePosterior(fit.beta_hat, 2.0 * sigma, "normal"),
    }


def predictive_pi(pi_init: float) -> float:
    """Map an initial pi-value to the replicate's: 2 Phi(Phi^{-1}(pi/2)/sqrt(3))."""
    if not 0.0 < pi_init <= 1.0:
        raise DomainError("pi_init must be in (0, 1]")
    if pi_init == 1.0:
        return 1.0
    return 2.0 * float(std_normal_cdf(std_normal_quantile(pi_init / 2.0) / math.sqrt(3.0)))


def _z_init(pi_init: float) -> float:
    return -float(std_normal_quantile(pi_init / 2.0))


def _c_of_x(x):
    """Phi^{-1}(10^{-x}/2), the (negative) z whose two-sided tail is 10^{-x}."""
    x = np.asarray(x, dtype=float)
    return np.asarray(std_normal_quantile(0.5 * np.power(10.0, -x)))


def rpd_pdf(log10p, pi_init: float):
    """Density of x = -log10 of the replicate two-sided p-value.

    Jacobian 10^{-x} exp(erfcinv(10^{-x})^2) ln10 sqrt(pi/2) times the two
    reflected normal densities N(+-Phi^{-1}(10^{-x}/2) | Phi^{-1}(pi_init/2),
    sd sqrt(2)).
    """
    if not 0.0 < pi_init < 1.0:
        raise DomainError("pi_init must be in (0, 1)")
    x = np.asarray(log10p, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if np.any(x < 0):
        raise DomainError("log10p must be >= 0")
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
    if not 0.0 < pi_init < 1.0:
        raise DomainError("pi_init must be in (0, 1)")
    x = np.asarray(log10p, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
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
    if not 0.0 < pi_init < 1.0:
        raise DomainError("pi_init must be in (0, 1)")
    return pi_init


def rpd_moments(pi_init: float, cap: float = 60.0) -> dict:
    """Mean and sd of the replicate p-value in -log10 and raw scales."""
    if not 0.0 < pi_init < 1.0:
        raise DomainError("pi_init must be in (0, 1)")

    def mom(f):
        val, _ = integrate.quad(lambda x: f(x) * rpd_pdf(x, pi_init), 0.0, cap,
                                limit=400, epsabs=1e-12)
        return val

    m_log = mom(lambda x: x)
    v_log = mom(lambda x: x * x) - m_log**2
    m_raw = mom(lambda x: 10.0 ** (-x))
    v_raw = mom(lambda x: 10.0 ** (-2 * x)) - m_raw**2
    return {
        "mean_log10": m_log,
        "sd_log10": math.sqrt(max(v_log, 0.0)),
        "mean_raw": m_raw,
        "sd_raw": math.sqrt(max(v_raw, 0.0)),
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
    """Tabulated replicate p-value density/CDF on -log10 p in [0, cap]."""
    grid = np.linspace(0.0, cap, resolution)
    pdf = rpd_pdf(grid, pi_init)
    cdf = rpd_cdf(grid, pi_init)
    tail = 1.0 - float(rpd_cdf(cap, pi_init))
    mom = rpd_moments(pi_init, cap=max(cap, 60.0))
    return RpdCurve(grid, pdf, cdf, tail, mom["mean_log10"], mom["sd_log10"],
                    mom["mean_raw"], mom["sd_raw"])


@dataclasses.dataclass(frozen=True)
class TranslationKernel:
    """Maps the initial study's generating parameters to the replicate's.

    'exact' passes (beta, phi) through unchanged. 'gaussian' draws
    beta_g ~ N(beta_init + bias, diag(inflation_j^2 * Sigma_init,jj));
    scale_kind 'lognormal' multiplies phi by exp(N(0, scale_sd^2)).
    """

    kind: str = "exact"
    bias: Optional[np.ndarray] = None
    inflation: Optional[np.ndarray] = None
    scale_kind: str = "exact"
    scale_sd: float = 0.0

    def __post_init__(self):
        if self.kind not in ("exact", "gaussian"):
            raise DomainError("kernel kind must be 'exact' or 'gaussian'")
        if self.scale_kind not in ("exact", "lognormal"):
            raise DomainError("scale_kind must be 'exact' or 'lognormal'")
        if self.kind == "gaussian" and self.inflation is not None:
            if np.any(np.asarray(self.inflation) <= 0):
                raise DomainError("inflation multipliers must be > 0")

    def apply(self, beta, phi, sigma_diag, rng):
        if self.kind == "gaussian":
            bias = np.zeros_like(beta) if self.bias is None else np.asarray(self.bias, dtype=float)
            infl = np.ones_like(beta) if self.inflation is None else np.asarray(self.inflation, dtype=float)
            beta = beta + bias + infl * np.sqrt(sigma_diag) * rng.standard_normal(beta.size)
        if self.scale_kind == "lognormal":
            phi = phi * math.exp(self.scale_sd * rng.standard_normal())
        return beta, phi


@dataclasses.dataclass(frozen=True)
class ReplicationConfig:
    n_sim: int
    seed: RngStream
    kernel: TranslationKernel = TranslationKernel()
    replicate_design: Optional[ModelData] = None    # default: initial design
    analyses: tuple = ("ml",)                       # 'ml', 'bayes_flat', ('bayes_student_t', df, scale)
    min_events_guard: int = 1
    target_index: int = -1                          # coefficient whose p/pi is summarized
    scale_dof: Optional[int] = None                 # override for the scale-marginal dof
    n_workers: int = 1
    bayes_resolution: int = 201

    def __post_init__(self):
        if self.n_sim < 100:
            raise DomainError("n_sim must be >= 100")
        if not self.analyses:
            raise DomainError("at least one analysis required")


@dataclasses.dataclass(frozen=True)
class ReplicationReport:
    records: list
    summaries: dict
    config: ReplicationConfig


def _bayes_priors(tag, p):
    if tag == "bayes_flat":
        return [None] * p
    if isinstance(tag, tuple) and tag and tag[0] == "bayes_student_t":
        from .priors import PriorSpec

        _, df, scale = tag
        specs = [None] * p
        specs[-1] = PriorSpec("test_invchisq", beta0=0.0, nu0=df, s=scale)
        return specs
    raise DomainError(f"unknown analysis {tag!r}")


def _one_replicate(r, family, link, data, beta_hat, cov_u, scale_marginal,
                   config: ReplicationConfig, chol):
    rng = config.seed.child(r + 1).generator()
    record = {"replicate": r, "failed": False, "failure_reason": ""}
    phi_init = 1.0
    if scale_marginal is not None:
        phi_init = float(scale_marginal.dof * scale_marginal.scale / rng.chisquare(scale_marginal.dof))
    beta_init = beta_hat + math.sqrt(phi_init) * (chol @ rng.standard_normal(len(beta_hat)))
    sigma_diag = phi_init * np.diag(cov_u)
    beta_g, phi_g = config.kernel.apply(beta_init, phi_init, sigma_diag, rng)
    record["beta_g"] = beta_g
    record["phi_g"] = phi_g
    X, off, w = data.X, data.offset, data.weights
    eta = X @ beta_g + off
    name = family.name
    try:
        if name == "poisson":
            y = rng.poisson(np.exp(eta)).astype(float)
        elif name == "binomial":
            mu = 1.0 / (1.0 + np.exp(-eta))
            y = rng.binomial(w.astype(int), mu) / w
        elif name == "gaussian":
            y = eta + rng.standard_normal(len(eta)) * np.sqrt(phi_g / w)
        else:  # gamma
            mu = np.exp(eta)
            y = rng.gamma(1.0 / phi_g, phi_g * mu)
    except ValueError:
        record["failed"] = True
        record["failure_reason"] = "simulation overflow"
        return record
    if name in ("poisson", "binomial"):
        counts = y * (w if name == "binomial" else 1.0)
        if np.any(counts < config.min_events_guard):
            record["failed"] = True
            record["failure_reason"] = "too few events"
            return record
    rep_data = ModelData(y=y, X=X, offset=off, weights=w)
    for tag in config.analyses:
        if tag == "ml":
            try:
                fit = fit_irls(family, link, rep_data)
            except Exception:
                record["failed"] = True
                record["failure_reason"] = "fit error"
                return record
            if fit.boundary or not fit.converged:
                record["failed"] = True
                record["failure_reason"] = "boundary" if fit.boundary else "non-convergence"
                return record
            phi_rep = 1.0 if family.known_scale else fit.scale.phi_dev
            record["ml_estimates"] = fit.beta_hat
            record["ml_p"] = np.array([
                wald_pvalue(fit, phi_rep, j).p_or_pi for j in range(fit.p)
            ])
        else:
            priors = _bayes_priors(tag, data.p)
            se = np.sqrt(np.diag(cov_u))
            bounds = [(b - 8.0 * s, b + 8.0 * s) for b, s in zip(beta_hat, se)]
            ll = vectorized_loglik(family, link, rep_data)
            gp = grid_posterior(ll, priors, bounds, resolution=config.bayes_resolution)
            key = tag if isinstance(tag, str) else tag[0]
            if not gp.proper:
                record[f"{key}_pi"] = None
                continue
            # marginal(-1) would integrate out every axis, so normalise the index
            rep = pi_value_from_grid(gp, config.target_index % data.p)
            record[f"{key}_pi"] = rep.p_or_pi
    return record


def run_replication(initial: FitResult, family, link, data: ModelData,
                    config: ReplicationConfig) -> ReplicationReport:
    """Hierarchical replicate simulation: draw generating parameters from the
    initial posterior, translate, simulate replicate data on the replicate
    design, re-run each configured analysis, and summarize.

    Failed replicates (boundary fits, non-convergence, fewer events than the
    guard) are flagged and excluded from summaries; the excluded fraction is
    reported. Deterministic given the config's seed: replicate r uses stream
    id r + 1 regardless of worker scheduling.
    """
    family, link = _resolve(family, link)
    if initial.boundary or not initial.converged:
        raise BoundaryError("replication harness needs a converged interior fit")
    rep_data = config.replicate_design if config.replicate_design is not None else data
    beta_hat = initial.beta_hat
    cov_u = initial.cov_unscaled
    scale_marginal = None
    if not family.known_scale:
        dof = config.scale_dof if config.scale_dof is not None else initial.n - initial.p
        scale_marginal = ScaleMarginal(dof, initial.deviance / dof)
    chol = np.linalg.cholesky(cov_u)

    def work(r):
        return _one_replicate(r, family, link, rep_data, beta_hat, cov_u,
                              scale_marginal, config, chol)

    if config.n_workers > 1:
        with ThreadPoolExecutor(max_workers=config.n_workers) as ex:
            records = list(ex.map(work, range(config.n_sim)))
    else:
        records = [work(r) for r in range(config.n_sim)]
    records.sort(key=lambda rec: rec["replicate"])
    good = [rec for rec in records if not rec["failed"]]
    if not good:
        raise HarnessError("every replicate failed")
    j = config.target_index
    summaries = {"fraction_failed": 1.0 - len(good) / len(records)}
    if any("ml_estimates" in rec for rec in good):
        est = np.array([rec["ml_estimates"] for rec in good])
        pvals = np.array([rec["ml_p"][j] for rec in good])
        logs = -np.log10(np.maximum(pvals, 1e-300))
        summaries.update({
            "ml_mean": est.mean(axis=0),
            "ml_sd": est.std(axis=0, ddof=1),
            "ml_var": est.var(axis=0, ddof=1),
            "neglog10_p_quantiles": {
                q: float(np.quantile(logs, q)) for q in (0.05, 0.25, 0.5, 0.75, 0.95)
            },
            "fraction_p_below_0.05": float(np.mean(pvals < 0.05)),
        })
    for tag in config.analyses:
        if tag == "ml":
            continue
        key = tag if isinstance(tag, str) else tag[0]
        pis = [rec.get(f"{key}_pi") for rec in good]
        pis = [x for x in pis if x is not None]
        if pis:
            summaries[f"{key}_pi_median"] = float(np.median(pis))
    return ReplicationReport(records, summaries, config)
