"""Closed-form references for the two-arm Poisson rate model.

Arm k has y_k events over exposure E_k, with log mean log E_k + alpha in the
control arm and log E_k + alpha + beta1 in the treated arm. Under flat priors
on alpha and beta1 the arm log rates u_0 = alpha and u_1 = alpha + beta1 are
independent a posteriori, with E_k e^(u_k) ~ Gamma(y_k, 1): each u_k is a
log-Gamma variable, whose n-th cumulant is the (n-1)-th polygamma of y_k,
less log E_k in the mean.

Two references are not posteriors: the conditional exact test of beta1 = 0,
and the exact law of the replicate -log10 p that the replication harness
simulates.
"""

import math

import numpy as np
from scipy import special, stats


def log_gamma_logpdf(u, y, e):
    """Log density of u = log(G / e) with G ~ Gamma(y, 1)."""
    return y * (u + math.log(e)) - e * np.exp(u) - special.gammaln(y)


def log_gamma_cumulants(y, e):
    """Mean, variance and fourth cumulant of u = log(G / e), G ~ Gamma(y, 1)."""
    return (float(special.digamma(y)) - math.log(e), float(special.polygamma(1, y)),
            float(special.polygamma(3, y)))


def flat_prior_moments(y1, e1, y0, e0):
    """Mean and sd of beta1 = u_1 - u_0: psi(y1) - psi(y0) - log(E1/E0) and
    sqrt(psi'(y1) + psi'(y0))."""
    m1, v1, _ = log_gamma_cumulants(y1, e1)
    m0, v0, _ = log_gamma_cumulants(y0, e0)
    return m1 - m0, math.sqrt(v1 + v0)


def flat_prior_pi(y1, e1, y0, e0):
    """pi-value of beta1 = 0: P(beta1 < 0) = I_x(y1, y0) at x = E1/(E1 + E0),
    which is P(Bin(y1 + y0 - 1, x) >= y1), and each tail on its own side."""
    x = e1 / (e1 + e0)
    return 2.0 * min(special.betainc(y1, y0, x), special.betainc(y0, y1, 1.0 - x))


def two_arm_joint(alpha, beta1, y1, e1, y0, e0):
    """Posterior density of (alpha, beta1) at every node of the grid alpha x beta1:
    the log-Gamma(y0, E0) density of alpha times the log-Gamma(y1, E1) density
    of alpha + beta1 (the map has unit Jacobian)."""
    a = np.asarray(alpha, dtype=float)[:, None]
    b = np.asarray(beta1, dtype=float)[None, :]
    return np.exp(log_gamma_logpdf(a, y0, e0) + log_gamma_logpdf(a + b, y1, e1))


def two_arm_counts(data):
    """(y1, E1, y0, E0) of a two-arm model with the treated arm first, as
    ``trial_model_data`` builds it, E_k = exp(offset_k)."""
    (y1, y0), (e1, e0) = data.y, np.exp(data.offset)
    return float(y1), float(e1), float(y0), float(e0)


def conditional_exact_p(y1, e1, y0, e0):
    """Conditional exact test of beta1 = 0: given N = y1 + y0 events, y1 ~ Bin(N, x)
    with x = E1/(E1 + E0).

    Returns P(Bin(N, x) >= y1), P(Bin(N, x) <= y1) and the two-sided
    min(1, 2 min(both)). The first tail is I_x(y1, y0 + 1), the flat-prior
    P(beta1 < 0) = I_x(y1, y0) with one more event in the reference arm; the
    second swaps the arms.
    """
    x, n = e1 / (e1 + e0), y1 + y0
    at_least = float(stats.binom.sf(y1 - 1, n, x))
    at_most = float(stats.binom.cdf(y1, n, x))
    return at_least, at_most, min(1.0, 2.0 * min(at_least, at_most))


def poisson_lognormal_pmf(y, k_max):
    """pmf on 0..k_max of a Poisson count whose log mean is N(log y, 1/y), as an
    80-node Gauss-Hermite sum over the log mean."""
    t, w = np.polynomial.hermite.hermgauss(80)
    lam = math.log(y) + math.sqrt(2.0 / y) * t
    k = np.arange(k_max + 1.0)[:, None]
    return np.exp(k * lam - np.exp(lam) - special.gammaln(k + 1.0)) @ w / math.sqrt(math.pi)


def harness_lattice(y1, e1, y0, e0):
    """Exact law of -log10 p of the treatment Wald test in the replication
    harness on a two-arm Poisson model, among replicates with events in both arms.

    The harness draws beta from N(beta_hat, Sigma); in the saturated two-arm
    design X Sigma X' = diag(1/y1, 1/y0), so each arm's log mean count is
    independently N(log y_k, 1/y_k) and its count is Poisson-lognormal. The
    replicate fit is exact: beta1 = log(k1/E1) - log(k0/E0) with se
    sqrt(1/k1 + 1/k0). Returns the atoms of -log10 p in increasing order, the
    CDF at each, and the mass of the count pairs with both k1, k0 >= 1.
    """
    pmfs = []
    for y in (y1, y0):
        pmf = poisson_lognormal_pmf(y, int(3 * y + 60))
        pmfs.append(pmf[:np.flatnonzero(pmf > 1e-18).max() + 1])
    k1 = np.arange(1.0, len(pmfs[0]))[:, None]
    k0 = np.arange(1.0, len(pmfs[1]))[None, :]
    mass = pmfs[0][1:, None] * pmfs[1][None, 1:]
    z = np.abs(np.log(k1 / e1) - np.log(k0 / e0)) / np.sqrt(1.0 / k1 + 1.0 / k0)
    atoms = -(special.log_ndtr(-z) + math.log(2.0)) / math.log(10.0)
    order = np.argsort(atoms, axis=None)
    cdf = np.cumsum(mass.ravel()[order])
    return atoms.ravel()[order], cdf / cdf[-1], cdf[-1]
