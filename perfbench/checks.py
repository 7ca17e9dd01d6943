"""Reference computations made apart from piglm, and the checks that use them.

Every reference here comes from a closed form, scipy quadrature or a numpy
simulation written for the benchmark; none reads a stored copy of piglm's
output. Each ``check_*`` function returns a list of failure messages, empty
when the output is right, so that ``selftest.py`` can feed it a perturbed
output and see it fail.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
from scipy import integrate, optimize, special, stats

# Monte Carlo checks allow this many standard errors. At 5 SE a correct
# program fails a normal-approximation check about once in 1.7 million.
K_SE = 5.0
# The smoothed pi strays further than the delta method says when the EM picks
# two components; over 100 grid-draws operations the largest error was 2.7
# delta-method sds, so the pi check allows 6.
K_PI = 6.0


def _rel_close(a, b, rel, floor=0.0):
    return abs(a - b) <= rel * max(abs(a), abs(b)) + floor


def _expect(fails, ok, msg):
    if not ok:
        fails.append(msg)


# --- trial data -------------------------------------------------------------

def read_arms(csv_path, study, outcome, exposure_scale=1000.0):
    """(y1, E1, y0, E0) for a two-arm outcome, read with the csv module alone.

    E is person-years / exposure_scale, falling back to arm size when the
    exposure cell is empty.
    """
    arms = {}
    with open(csv_path, newline="") as fh:
        for row in csv.DictReader(fh):
            if row["study"] == study and row["outcome"] == outcome:
                exp_ = row["exposure"] or row["arm_size"]
                arms[int(row["treat"])] = (float(row["events"]), float(exp_) / exposure_scale)
    (y1, e1), (y0, e0) = arms[1], arms[0]
    return y1, e1, y0, e0


def two_arm_ml(y1, e1, y0, e0):
    """Closed-form ML fit of the two-arm log-rate model."""
    b0 = math.log(y0 / e0)
    b1 = math.log((y1 / e1) / (y0 / e0))
    se1 = math.sqrt(1.0 / y1 + 1.0 / y0)
    cov = np.array([[1.0 / y0, -1.0 / y0], [-1.0 / y0, 1.0 / y1 + 1.0 / y0]])
    p = 2.0 * stats.norm.sf(abs(b1) / se1)
    return {"b0": b0, "b1": b1, "se1": se1, "cov": cov, "p": p}


def flat_prior_pi(y1, e1, y0, e0):
    """Exact flat-prior pi-value: lambda_k E_k ~ Gamma(y_k), P(b1 < 0) = I_x(y1, y0)."""
    x = e1 / (e1 + e0)
    lower = special.betainc(y1, y0, x)
    upper = special.betainc(y0, y1, 1.0 - x)
    return 2.0 * min(lower, upper)


def flat_prior_moments(y1, e1, y0, e0):
    """Exact mean and sd of b1 under flat priors on both log rates."""
    mean = special.digamma(y1) - special.digamma(y0) - math.log(e1 / e0)
    sd = math.sqrt(special.polygamma(1, y1) + special.polygamma(1, y0))
    return mean, sd


def student_t_pi(y1, e1, y0, e0, df, scale, lo, hi):
    """pi-value under a flat b0 prior and a t(df, 0, scale) b1 prior.

    b0 integrates out in closed form: the b1 marginal is proportional to
    exp(b1 y1) (E0 + E1 e^b1)^-(y0 + y1) t(b1); it is integrated by quad
    over [lo, hi], the grid's b1 range.
    """
    n = y0 + y1

    def logm(b):
        return b * y1 - n * np.logaddexp(math.log(e0), math.log(e1) + b) \
            + stats.t.logpdf(b, df, 0.0, scale)

    coarse = np.linspace(lo, hi, 4001)
    vals = logm(coarse)
    peak = float(vals.max())
    mode = float(coarse[int(vals.argmax())])

    def dens(b):
        return math.exp(float(logm(b)) - peak)

    def q(a, b):
        pts = [p for p in (mode, 0.0) if a < p < b]
        return integrate.quad(dens, a, b, points=pts or None, limit=400,
                              epsabs=0.0, epsrel=1e-11)[0]

    lower, upper = q(lo, 0.0), q(0.0, hi)
    return 2.0 * min(lower, upper) / (lower + upper)


def predictive_pi(pi):
    return 2.0 * stats.norm.cdf(stats.norm.ppf(pi / 2.0) / math.sqrt(3.0))


def rpd_moments(pi):
    """Mean and sd of -log10 p_rep, with z_rep ~ N(z0, 2) and z0 = Phi^-1(1 - pi/2).

    Integrated over z by quad, split at the kink z = 0; the tail comes from
    norm.logsf so that -log10 p stays exact far out.
    """
    z0 = stats.norm.isf(pi / 2.0)
    sd = math.sqrt(2.0)

    def f(z):
        return -(math.log(2.0) + stats.norm.logsf(abs(z))) / math.log(10.0)

    lo, hi = z0 - 30.0 * sd, z0 + 30.0 * sd

    def mom(k):
        g = lambda z: f(z) ** k * stats.norm.pdf(z, z0, sd)
        parts = [(lo, min(0.0, hi)), (max(0.0, lo), hi)]
        return sum(integrate.quad(g, a, b, points=[z0] if a < z0 < b else None,
                                  limit=400, epsabs=0.0, epsrel=1e-11)[0]
                   for a, b in parts if a < b)

    m1, m2 = mom(1), mom(2)
    return m1, math.sqrt(max(m2 - m1 * m1, 0.0))


def rpd_cdf(x, pi):
    """P(-log10 p_rep <= x) for z_rep ~ N(z0, 2): P(|z_rep| <= c), 10^-x = 2 Phi(-c)."""
    z0 = stats.norm.isf(pi / 2.0)
    c = stats.norm.isf(0.5 * np.power(10.0, -np.asarray(x, dtype=float)))
    sd = math.sqrt(2.0)
    return stats.norm.cdf((c - z0) / sd) - stats.norm.cdf((-c - z0) / sd)


def ks_distance(sample, cdf):
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    f = cdf(x)
    return float(max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n)))


def batch_means_se(x, n_batches=50):
    """Standard error of the mean of an autocorrelated series by batch means."""
    x = np.asarray(x, dtype=float)
    size = x.size // n_batches
    means = x[: size * n_batches].reshape(n_batches, size).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(n_batches))


# --- per-study checks ----------------------------------------------------------

def check_fit(out, arms):
    fails = []
    payload = out["payload"]
    if arms["boundary"]:
        _expect(fails, payload["boundary"] is True, "boundary fit not reported")
        _expect(fails, "se" not in payload, "boundary fit reports a standard error")
        _expect(fails, out["flagged"], "boundary fit not flagged")
        return fails
    ref = arms["ml"]
    b = payload["beta_hat"]
    _expect(fails, abs(b[0] - ref["b0"]) < 1e-7 and abs(b[1] - ref["b1"]) < 1e-7,
            f"beta_hat {list(b)} != closed form ({ref['b0']}, {ref['b1']})")
    _expect(fails, _rel_close(payload["se"][1], ref["se1"], 1e-6),
            f"se1 {payload['se'][1]} != sqrt(1/y1 + 1/y0) = {ref['se1']}")
    _expect(fails, _rel_close(payload["p"][1], ref["p"], 1e-5),
            f"Wald p {payload['p'][1]} != norm.sf reference {ref['p']}")
    rr = payload["relative_risk"]
    lo, hi = (math.exp(ref["b1"] + s * 1.959963984540054 * ref["se1"]) for s in (-1, 1))
    _expect(fails, _rel_close(rr["estimate"], math.exp(ref["b1"]), 1e-6)
            and _rel_close(rr["ci_lower"], lo, 1e-6) and _rel_close(rr["ci_upper"], hi, 1e-6),
            f"relative risk {rr} != exp(b1 -/+ 1.96 se)")
    _expect(fails, not out["flagged"], "interior fit flagged")
    return fails


def check_laplace(out, arms):
    fails = []
    if arms["boundary"]:
        _expect(fails, out.get("error") == "BoundaryError",
                f"boundary fit gave {out.get('error') or 'a result'}, not BoundaryError")
        return fails
    pi = out["payload"]["pi"]
    _expect(fails, _rel_close(pi, out["wald_p"], 1e-12),
            f"flat-prior Laplace pi {pi} != Wald p {out['wald_p']}")
    _expect(fails, _rel_close(pi, arms["ml"]["p"], 1e-5),
            f"Laplace pi {pi} != norm.sf reference {arms['ml']['p']}")
    return fails


def check_grid_flat(out, arms):
    fails = []
    payload = out["payload"]
    if arms["boundary"]:
        _expect(fails, payload["proper"] is False and out["flagged"],
                "flat prior on a boundary outcome not flagged improper")
        return fails
    ref = arms["flat_pi"]
    _expect(fails, payload["proper"] is True, "flat-prior grid posterior marked improper")
    _expect(fails, payload["proper"] and _rel_close(payload["pi"], ref, 0.01),
            f"flat grid pi {payload.get('pi')} not within 1% of I_x(y1, y0) pi {ref}")
    return fails


def check_grid_t(out, arms):
    fails = []
    payload = out["payload"]
    ref = student_t_pi(*arms["counts"], out["df"], out["scale"], *out["b1_range"])
    _expect(fails, payload["proper"] is True, "student_t grid posterior marked improper")
    _expect(fails, payload["proper"] and _rel_close(payload["pi"], ref, 0.01),
            f"student_t grid pi {payload.get('pi')} not within 1% of quadrature {ref}")
    return fails


def check_surface(out, arms):
    fails = []
    surf = out["surface"]
    y1, e1, y0, e0 = arms["counts"]
    b0 = surf.beta0_grid[:, None]
    b1 = surf.beta1_grid[None, :]
    ref = stats.poisson.logpmf(y1, e1 * np.exp(b0 + b1)) + stats.poisson.logpmf(y0, e0 * np.exp(b0))
    err = np.max(np.abs(surf.loglik - ref) / (np.abs(ref) + 1.0))
    _expect(fails, err < 1e-9, f"surface log-likelihood off poisson.logpmf by {err:.3g}")
    c = len(surf.beta0_grid) // 2
    centre = stats.poisson.logpmf(y1, e1 * np.exp(surf.center[0] + surf.center[1])) \
        + stats.poisson.logpmf(y0, e0 * np.exp(surf.center[0]))
    _expect(fails, _rel_close(surf.loglik_quad[c, c], centre, 1e-9),
            f"quadratic surface {surf.loglik_quad[c, c]} != log-likelihood {centre} at the centre")
    return fails


def check_predict_pi(out, arms):
    pi = out["payload"]["pi_init"]
    ref = predictive_pi(pi)
    got = out["payload"]["pi_rep"]
    return [] if _rel_close(got, ref, 1e-9) else \
        [f"predictive pi {got} != 2 Phi(Phi^-1(pi/2)/sqrt 3) = {ref}"]


def check_rpd(out, arms=None):
    fails = []
    payload = out["payload"]
    _expect(fails, abs(payload["total_mass"] - 1.0) < 1e-3,
            f"rpd total mass {payload['total_mass']} != 1")
    mean, sd = rpd_moments(payload["pi_init"])
    _expect(fails, _rel_close(payload["mean_log10"], mean, 1e-4),
            f"rpd mean_log10 {payload['mean_log10']} != quadrature {mean}")
    _expect(fails, _rel_close(payload["sd_log10"], sd, 1e-4),
            f"rpd sd_log10 {payload['sd_log10']} != quadrature {sd}")
    return fails


def check_decide(out, arms=None):
    fails = []
    p = out["payload"]
    eps, eps_loss, c = out["client"]
    capital, alpha = out["analyst"]
    a = math.log(1.0 + eps) - math.log(1.0 - c)
    b = math.log(1.0 - eps_loss)
    root = optimize.brentq(lambda x: (1.0 - x / 2.0) * a + (x / 2.0) * b, 0.0, 2.0, xtol=1e-15)
    crit = min(1.0, root)
    pi = p["pi"]
    _expect(fails, _rel_close(p["pi_critical"], crit, 1e-9),
            f"pi_critical {p['pi_critical']} != utility crossing {crit}")
    _expect(fails, p["action"] == ("act" if pi < crit else "sleep"),
            f"action {p['action']} at pi {pi} with threshold {crit}")
    u_act = (1 - pi / 2) * math.log(1 + eps) + (pi / 2) * math.log(1 - eps_loss)
    u_sleep = (1 - pi / 2) * math.log(1 - c)
    _expect(fails, _rel_close(p["utilities"]["act"], u_act, 1e-12, 1e-15)
            and _rel_close(p["utilities"]["sleep"], u_sleep, 1e-12, 1e-15),
            f"utilities {p['utilities']} != ({u_act}, {u_sleep})")
    # linear analyst utility: CDQ = 1
    _expect(fails, _rel_close(p["evpi_pure"], alpha * pi, 1e-12)
            and _rel_close(p["evpi_recalibrated"], alpha * min(pi, crit), 1e-12),
            f"EVPI ({p['evpi_pure']}, {p['evpi_recalibrated']}) != alpha * pi")
    loss = alpha / (capital + alpha) * crit
    _expect(fails, _rel_close(p["recalibration_loss"]["loss"], loss, 1e-9),
            f"recalibration loss {p['recalibration_loss']['loss']} != {loss}")
    return fails


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in (obj.tolist() if isinstance(obj, np.ndarray) else obj)]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def check_json(out, arms=None):
    """Each body's JSON text parses back to its payload, float for float."""
    fails = []
    for name, (payload, text) in out["texts"].items():
        try:
            back = json.loads(text)
        except ValueError as exc:
            fails.append(f"{name}: JSON does not parse: {exc}")
            continue
        if back != _plain(payload):
            fails.append(f"{name}: JSON does not round-trip to its payload")
    return fails


# --- prior check ----------------------------------------------------------------

def prior_density(spec_kw, b):
    """The prior kernels by quadrature (the sd-mixture kinds carry the
    printed 1/sqrt(pi) normalization, which the program keeps)."""
    kind = spec_kw["kind"]
    beta0 = spec_kw.get("beta0", 0.0)
    quad = lambda f, a, c: integrate.quad(f, a, c, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    if kind == "test_fixed_sigma":
        return stats.norm.pdf(b, beta0, spec_kw["sigma"])
    if kind == "explore_fixed_sigma":
        lo, hi = spec_kw["bounds"]
        return quad(lambda c: stats.norm.pdf(b, c, spec_kw["sigma"]), lo, hi)
    if kind in ("test_uniform_sigma", "explore_uniform_sigma"):
        smin, smax = spec_kw["sigma_bounds"]
        if kind == "test_uniform_sigma":
            inner = lambda s: stats.norm.pdf(b - beta0, 0.0, s)
        else:
            lo, hi = spec_kw["bounds"]
            inner = lambda s: stats.norm.cdf((b - lo) / s) - stats.norm.cdf((b - hi) / s)
        return quad(inner, smin, smax) / ((smax - smin) * math.sqrt(math.pi))
    if kind == "test_invchisq":
        return stats.t.pdf(b, spec_kw["nu0"], beta0, spec_kw["s"])
    if kind == "explore_invchisq":
        lo, hi = spec_kw["bounds"]
        return quad(lambda c: stats.t.pdf(b - c, spec_kw["nu0"], 0.0, spec_kw["s"]), lo, hi)
    raise ValueError(kind)


def check_prior(out, arms=None):
    fails = []
    for kind, res in out["kinds"].items():
        dev = res["deviation"]
        _expect(fails, 0.0 < dev < 0.0025, f"{kind}: deviation {dev} not below 0.25%")
        for b, got in res["densities"]:
            ref = prior_density(res["spec"], b)
            _expect(fails, _rel_close(got, ref, 1e-6),
                    f"{kind}: density {got} at {b} != quadrature {ref}")
    return fails


# --- replication --------------------------------------------------------------

def _ml_slopes(report):
    good = [r for r in report.records if not r["failed"]]
    return np.array([r["ml_estimates"][-1] for r in good]), \
        np.array([r["ml_p"][-1] for r in good])


def _mean_var_fails(fails, est, mean_ref, var_ref, label):
    n = est.size
    m = est.mean()
    v = est.var(ddof=1)
    m4 = np.mean((est - m) ** 4)
    se_m = math.sqrt(v / n)
    se_v = math.sqrt(max(m4 - v * v, 0.0) / n)
    _expect(fails, abs(m - mean_ref) <= K_SE * se_m,
            f"{label}: replicate mean {m:.6g} not within {K_SE} SE ({se_m:.3g}) of {mean_ref:.6g}")
    _expect(fails, abs(v - var_ref) <= K_SE * se_v,
            f"{label}: replicate variance {v:.6g} not within {K_SE} SE ({se_v:.3g}) "
            f"of {var_ref:.6g}")


def ks_bound(n):
    """Kolmogorov critical value at 1e-6: 2 exp(-2 lambda^2) = 1e-6."""
    return math.sqrt(math.log(2e6) / 2.0) / math.sqrt(n)


def check_replication_primary(out, ref):
    fails = []
    est, pvals = _ml_slopes(out["report"])
    ml = ref["ml"]
    _mean_var_fails(fails, est, ml["b1"], 2.0 * ml["cov"][1, 1], "CREDENCE/primary")
    logs = -np.log10(pvals)
    d = ks_distance(logs, lambda x: rpd_cdf(x, ml["p"]))
    bound = ks_bound(logs.size)
    _expect(fails, d < bound, f"KS distance {d:.4f} of -log10 p to rpd_cdf above {bound:.4f}")
    return fails


def dka_failure_probability(ml, e1, e0, seed, n=400_000):
    """P(y0 = 0 or y1 = 0) with beta ~ N(beta_hat, Sigma), y ~ Poisson(E e^(X beta)).

    Simulated in numpy with the zero-count probability taken exactly given
    beta, so only the beta draw is random. Returns (estimate, its SE).
    """
    rng = np.random.default_rng([seed, 0xD4A])
    beta = rng.multivariate_normal([ml["b0"], ml["b1"]], ml["cov"], size=n)
    mu0 = e0 * np.exp(beta[:, 0])
    mu1 = e1 * np.exp(beta[:, 0] + beta[:, 1])
    q = 1.0 - (-np.expm1(-mu0)) * (-np.expm1(-mu1))
    return float(q.mean()), float(q.std(ddof=1) / math.sqrt(n))


def check_replication_dka(out, ref):
    fails = []
    report = out["report"]
    n = len(report.records)
    f = report.summaries["fraction_failed"]
    p, se_ref = ref["dka_fail"]
    se = math.sqrt(p * (1.0 - p) / n + se_ref**2)
    _expect(fails, abs(f - p) <= K_SE * se,
            f"CREDENCE/dka fraction_failed {f:.4f} not within {K_SE} SE ({se:.4f}) of {p:.4f}")
    reasons = {r["failure_reason"] for r in report.records if r["failed"]}
    _expect(fails, reasons <= {"too few events"}, f"unexpected failure reasons {reasons}")
    return fails


def gaussian_ols(y, X):
    beta, rss, *_ = np.linalg.lstsq(X, y, rcond=None)
    return beta, float(rss[0]), np.linalg.inv(X.T @ X)


def check_replication_gaussian(out, ref):
    fails = []
    beta, dev, cov_u = ref["ols"]
    n, p = ref["shape"]
    est, _ = _ml_slopes(out["report"])
    _expect(fails, out["report"].summaries["fraction_failed"] == 0.0,
            "gaussian replicates failed")
    _mean_var_fails(fails, est, beta[1], 2.0 * dev / (n - p - 2) * cov_u[1, 1], "gaussian")
    return fails


# --- posterior sampling ---------------------------------------------------------

def pi_log_sd(z, ess):
    """Delta-method sd of log(pi) when pi = 2 Phi(-|m|/s) is estimated from
    ``ess`` effective draws: Var(m/s) ~ (1 + z^2/2)/ess."""
    hazard = math.exp(stats.norm.logpdf(z) - stats.norm.logsf(z))
    return hazard * math.sqrt((1.0 + 0.5 * z * z) / ess)


def check_draws(out, ref):
    """Draw moments against the exact flat-prior moments, and the smoothed
    pi against the Beta-CDF pi, both at K_SE standard errors."""
    fails = []
    x = np.asarray(out["draws"], dtype=float)
    mean_ref, sd_ref = ref["moments"]
    n_batches = 50 if out["kind"] == "chain" else x.size
    se_m = batch_means_se(x, n_batches)
    se_var = batch_means_se((x - mean_ref) ** 2, n_batches)
    se_sd = se_var / (2.0 * sd_ref)
    ess = x.var(ddof=1) / se_m**2
    m, s = x.mean(), x.std(ddof=1)
    _expect(fails, abs(m - mean_ref) <= K_SE * se_m,
            f"draw mean {m:.6g} not within {K_SE} SE ({se_m:.3g}) of {mean_ref:.6g}")
    _expect(fails, abs(s - sd_ref) <= K_SE * se_sd,
            f"draw sd {s:.6g} not within {K_SE} SE ({se_sd:.3g}) of {sd_ref:.6g}")
    pi, pi_ref = out["pi"], ref["flat_pi"]
    bound = K_PI * pi_log_sd(abs(mean_ref) / sd_ref, ess)
    _expect(fails, pi > 0 and abs(math.log(pi / pi_ref)) <= bound,
            f"smoothed pi {pi:.4g} not within exp(+-{bound:.2f}) of Beta-CDF pi {pi_ref:.4g}")
    _expect(fails, out["method"] == "posterior_mixture",
            f"pi method {out['method']}, not posterior_mixture")
    return fails
