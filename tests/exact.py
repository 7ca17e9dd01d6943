"""Closed-form references for the two-arm Poisson rate model under flat priors.

Arm k has y_k events over exposure E_k, with log mean log E_k + alpha in the
control arm and log E_k + alpha + beta1 in the treated arm. Under flat priors
on alpha and beta1 the arm log rates u_0 = alpha and u_1 = alpha + beta1 are
independent a posteriori, with E_k e^(u_k) ~ Gamma(y_k, 1): each u_k is a
log-Gamma variable, whose n-th cumulant is the (n-1)-th polygamma of y_k,
less log E_k in the mean.
"""

import math

import numpy as np
from scipy import special


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
