"""The benchmark's three workloads, run through piglm's public API.

Each operation runs the bodies of piglm's CLI subcommands in process: it
calls the public functions that the subcommand calls, in the same order, and
serialises the payload with ``io.to_json_text``. Only those calls are timed.
Each operation returns its timed seconds and a list of ``Item``s: an output,
the check that judges it and the reference data the check needs. Checks run
after the timed region.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Callable

import numpy as np

import piglm as pg
from piglm.numerics import RngStream

import checks

OUTCOMES = (("CREDENCE", "primary"), ("CREDENCE", "dka"),
            ("DAPA-CKD", "primary"), ("DAPA-CKD", "dka"))
CLI_SEED = 20260824            # the CLI's default --seed
Z975 = 1.959963984540054


GRID_RESOLUTION = 801          # posterior --method grid default
SURFACE_RESOLUTION = 61        # surface default
CHAIN_ITER, CHAIN_BURN_IN = 10000, 2500
DRAWS_RESOLUTION, DRAWS = 101, 1000


@dataclasses.dataclass(frozen=True)
class Sizes:
    n_sim: int = 1000               # replicate default
    draws_per_round: int = 4


FULL = Sizes()
SHORT = Sizes(n_sim=300, draws_per_round=1)    # selftest.py


@dataclasses.dataclass
class Item:
    name: str
    check: Callable
    out: dict
    ref: dict


def op_seed(seed, *path):
    """A 32-bit seed for one operation, derived from the run's --seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


# --- subcommand bodies ------------------------------------------------------------

def _finish(tr, payload, seed):
    payload["seed"] = seed
    payload["version"] = pg.__version__
    with tr.span("io.to_json_text"):
        return pg.to_json_text(payload)


def _load(tr, records, study, outcome):
    with tr.span("io.trial_model_data"):
        return pg.trial_model_data(records, study, outcome)


def _fit(tr, family, link, data):
    with tr.span("glm.fit_irls") as sp:
        res = pg.fit_irls(family, link, data)
    sp.attrs.update(case="boundary" if res.boundary else "interior",
                    iterations=res.iterations)
    return res


def body_fit(tr, records, study, outcome):
    data, meta = _load(tr, records, study, outcome)
    res = _fit(tr, "poisson", "log", data)
    payload = {"beta_hat": res.beta_hat, "cov_unscaled": res.cov_unscaled,
               "deviance": res.deviance, "converged": res.converged,
               "boundary": res.boundary, "iterations": res.iterations, "meta": meta}
    if not res.boundary:
        se = res.se(1.0)
        with tr.span("inference.wald_pvalue"):
            reports = [pg.wald_pvalue(res, 1.0, j) for j in range(res.p)]
        payload.update({
            "se": se, "z": [r.z for r in reports], "p": [r.p_or_pi for r in reports],
            "relative_risk": {"estimate": math.exp(res.beta_hat[1]),
                              "ci_lower": math.exp(res.beta_hat[1] - Z975 * se[1]),
                              "ci_upper": math.exp(res.beta_hat[1] + Z975 * se[1])},
        })
    text = _finish(tr, payload, CLI_SEED)
    return {"payload": payload, "text": text, "flagged": res.boundary or not res.converged}


def body_laplace(tr, records, study, outcome):
    data, meta = _load(tr, records, study, outcome)
    res = _fit(tr, "poisson", "log", data)
    if res.boundary:
        return {"error": "BoundaryError"}     # the CLI raises here and exits 3
    payload = {"meta": meta, "method": "laplace", "prior": "flat"}
    with tr.span("posterior.laplace_posterior"):
        post = pg.laplace_posterior(res, None, "poisson").beta_posterior
    with tr.span("inference.pi_value_analytic"):
        rep = pg.pi_value_analytic(post, 1)
    payload.update({"mean": post.mean, "sd": [post.marginal_sd(j) for j in range(post.p)],
                    "pi": rep.p_or_pi, "z": rep.z, "direction": rep.direction})
    return {"payload": payload, "text": _finish(tr, payload, CLI_SEED)}


def body_grid(tr, records, study, outcome, prior, df, scale, resolution):
    data, meta = _load(tr, records, study, outcome)
    res = _fit(tr, "poisson", "log", data)
    payload = {"meta": meta, "method": "grid", "prior": prior}
    with tr.span("posterior.vectorized_loglik"):
        ll = pg.vectorized_loglik("poisson", "log", data)
    if res.boundary:
        bounds = [(-25.0, 10.0), (-60.0, 20.0)]
    else:
        bounds = [(b - 8 * s, b + 8 * s) for b, s in zip(res.beta_hat, res.se(1.0))]
    priors = [None, None]
    if prior == "student_t":
        priors[1] = pg.PriorSpec("test_invchisq", beta0=0.0, nu0=df, s=scale)
        if tr.enabled:
            # the grid evaluates this prior on its axis; timed apart in traced runs
            with tr.span("priors.prior_logpdf", extra=True):
                pg.prior_logpdf(priors[1], np.linspace(*bounds[1], resolution))
    with tr.span("posterior.grid_posterior", points=resolution**2):
        gp = pg.grid_posterior(ll, priors, bounds, resolution=resolution)
    payload["proper"] = gp.proper
    if gp.proper:
        with tr.span("inference.pi_value_from_grid"):
            rep = pg.pi_value_from_grid(gp, 1)
        with tr.span("posterior.mean_sd"):
            mean, sd = gp.mean_sd(1)
        payload.update({"pi": rep.p_or_pi, "mean": mean, "sd": sd, "direction": rep.direction})
    else:
        payload["note"] = "posterior improper under this prior; use an informative prior"
    return {"payload": payload, "text": _finish(tr, payload, CLI_SEED),
            "flagged": not gp.proper, "df": df, "scale": scale, "b1_range": bounds[1]}


def body_surface(tr, records, study, outcome, resolution, anchor):
    data, meta = _load(tr, records, study, outcome)
    res = _fit(tr, "poisson", "log", data)
    with tr.span("glm.likelihood_surface"):
        surf = pg.likelihood_surface("poisson", "log", data, res, half_widths=(3.0, 3.0),
                                     resolution=resolution,
                                     anchor=anchor if res.boundary else None)
    payload = {"meta": meta, "boundary": res.boundary, "anchored": surf.anchored}
    if not surf.anchored:
        with tr.span("glm.quadraticity_diagnostic"):
            payload["quadraticity"] = pg.quadraticity_diagnostic(surf)
    return {"payload": payload, "text": _finish(tr, payload, CLI_SEED), "surface": surf}


def body_predict_pi(tr, pi):
    with tr.span("replication.predictive_pi"):
        payload = {"pi_init": pi, "pi_rep": pg.predictive_pi(pi)}
    return {"payload": payload, "text": _finish(tr, payload, CLI_SEED)}


def body_rpd(tr, pi):
    with tr.span("replication.rpd_curve"):
        curve = pg.rpd_curve(pi, cap=30.0, resolution=2001)
    payload = {"pi_init": pi, "mean_log10": curve.mean_log10, "sd_log10": curve.sd_log10,
               "mean_raw": curve.mean_raw, "sd_raw": curve.sd_raw,
               "total_mass": curve.total_mass}
    return {"payload": payload, "text": _finish(tr, payload, CLI_SEED)}


def body_decide(tr, pi, client, analyst):
    with tr.span("decision.decide"):
        cp = pg.ClientParams(epsilon=client[0], epsilon_loss=client[1], c=client[2])
        ap = pg.AnalystParams(capital=analyst[0], alpha=analyst[1], utility="linear")
        crit = pg.pi_critical(cp)
        decision = pg.evaluate_decision(cp, pi)
        payload = {"pi": pi, "pi_critical": crit, "action": decision["action"],
                   "utilities": decision["utilities"],
                   "evpi_pure": pg.evpi_pure(ap, pi),
                   "evpi_recalibrated": pg.evpi_recalibrated(ap, pi, crit),
                   "recalibration_loss": pg.recalibration_loss(ap, crit)}
    return {"payload": payload, "text": _finish(tr, payload, CLI_SEED),
            "client": client, "analyst": analyst}


def body_replicate(tr, family, link, data, meta, n_sim, seed, model):
    res = _fit(tr, family, link, data)
    config = pg.ReplicationConfig(n_sim=n_sim, seed=RngStream(seed), n_workers=1)
    with tr.span("replication.run_replication", model=model, n_sim=n_sim) as sp:
        report = pg.run_replication(res, family, link, data, config)
    sp.attrs["fraction_failed"] = report.summaries["fraction_failed"]
    payload = {"meta": meta, "n_sim": n_sim, "summaries": report.summaries}
    return {"payload": payload, "text": _finish(tr, payload, seed), "report": report}


# --- workloads ------------------------------------------------------------------

class Workload:
    """Set-up builds the seeded inputs; ``rounds`` yields whole rounds of
    operations; ``prepare_refs`` computes the reference values the checks need
    (outside set-up time)."""

    def __init__(self, tr, csv_path, seed, sizes):
        self.tr = tr
        self.seed = seed
        self.sizes = sizes
        self.csv_path = csv_path
        with tr.span("io.parse_trial_csv"):
            self.records = pg.parse_trial_csv(csv_path)

    def prepare_refs(self):
        pass

    def _arms(self, study, outcome):
        y1, e1, y0, e0 = checks.read_arms(self.csv_path, study, outcome)
        ref = {"counts": (y1, e1, y0, e0), "boundary": y1 == 0 or y0 == 0}
        if not ref["boundary"]:
            ref["ml"] = checks.two_arm_ml(y1, e1, y0, e0)
            ref["flat_pi"] = checks.flat_prior_pi(y1, e1, y0, e0)
        return ref


class TrialAnalysis(Workload):
    """Rounds of one ``study``, one ``prior-check`` and one ``rpd-far-tail``."""

    # the kinds and settings of acceptance criterion 10
    PRIOR_KINDS = ("test_fixed_sigma", "explore_fixed_sigma", "test_uniform_sigma",
                   "explore_uniform_sigma", "test_invchisq", "explore_invchisq")
    PRIOR_INTERVAL = (-50.0, 50.0)
    PRIOR_POINTS = (-40.0, 0.0, 35.0)

    def prepare_refs(self):
        self.arms = {so: self._arms(*so) for so in OUTCOMES}

    def rounds(self):
        r = 0
        while True:
            rng = np.random.default_rng([self.seed, r])
            yield [("study", lambda rng=rng: self.op_study(rng)),
                   ("prior-check", lambda rng=rng: self.op_prior_check(rng)),
                   ("rpd-far-tail", self.op_rpd_far_tail)]
            r += 1

    def op_study(self, rng):
        tr, rec = self.tr, self.records
        df, scale = rng.uniform(2.5, 4.0), rng.uniform(0.5, 2.0)
        client = (rng.uniform(0.005, 0.05), rng.uniform(0.2, 0.8), rng.uniform(0.0, 0.005))
        analyst = (100.0, rng.uniform(0.5, 5.0))
        items = []
        t0 = time.perf_counter()
        for so in OUTCOMES:
            arms = self.arms[so]
            y1, e1, y0, e0 = arms["counts"]
            # a continuity-corrected centre for the boundary fit's surface (--anchor)
            anchor = np.array([math.log(y0 / e0), math.log((y1 + 0.5) / e1) - math.log(y0 / e0)])
            fit = body_fit(tr, rec, *so)
            lap = body_laplace(tr, rec, *so)
            flat = body_grid(tr, rec, *so, "flat", 2.5, 1.0, GRID_RESOLUTION)
            tgrid = body_grid(tr, rec, *so, "student_t", df, scale, GRID_RESOLUTION)
            surf = body_surface(tr, rec, *so, SURFACE_RESOLUTION, anchor)
            pi = lap["payload"]["pi"] if "payload" in lap else tgrid["payload"]["pi"]
            pred = body_predict_pi(tr, pi)
            rpd = body_rpd(tr, pi)
            dec = body_decide(tr, pi, client, analyst)
            if "payload" in lap:
                lap["wald_p"] = fit["payload"]["p"][1]
            label = "/".join(so)
            bodies = {"fit": fit, "laplace": lap, "grid_flat": flat, "grid_t": tgrid,
                      "surface": surf, "predict_pi": pred, "rpd": rpd, "decide": dec}
            items += [Item(f"{label} {name}", getattr(checks, f"check_{name}"), out, arms)
                      for name, out in bodies.items()]
            texts = {name: (out["payload"], out["text"]) for name, out in bodies.items()
                     if "text" in out}
            items.append(Item(f"{label} json", checks.check_json, {"texts": texts}, arms))
        return time.perf_counter() - t0, items

    def prior_specs(self, rng):
        sigma = rng.uniform(1000.0, 1100.0)
        shape = {"fixed_sigma": {"sigma": sigma},
                 "uniform_sigma": {"sigma_bounds": (0.9 * sigma, 1.1 * sigma)},
                 "invchisq": {"nu0": 1.0, "s": sigma}}
        specs = {}
        for kind in self.PRIOR_KINDS:
            mode, kernel = kind.split("_", 1)
            specs[kind] = dict(kind=kind, **shape[kernel])
            if mode == "explore":
                specs[kind]["bounds"] = (-200.0, 200.0)
        return specs

    def op_prior_check(self, rng):
        tr = self.tr
        specs = self.prior_specs(rng)
        results = {}
        t0 = time.perf_counter()
        for kind, kw in specs.items():
            spec = pg.PriorSpec(**kw)
            res = 201 if kind in ("explore_uniform_sigma", "explore_invchisq") else 1001
            with tr.span("priors.local_uniformity_check", kind=kind):
                dev = pg.local_uniformity_check(spec, self.PRIOR_INTERVAL, res)
            payload = {"kind": kind, "interval": list(self.PRIOR_INTERVAL),
                       "max_relative_deviation": dev}
            _finish(tr, payload, CLI_SEED)
            results[kind] = {"spec": kw, "deviation": dev}
        elapsed = time.perf_counter() - t0
        for res in results.values():
            spec = pg.PriorSpec(**res["spec"])
            res["densities"] = [(b, float(pg.prior_pdf(spec, b))) for b in self.PRIOR_POINTS]
        return elapsed, [Item("prior-check", checks.check_prior, {"kinds": results}, {})]

    def op_rpd_far_tail(self):
        """``piglm rpd --pi-init 1e-100``: fails today, since rpd_moments
        integrates only over [0, 60] while the mass sits near 100."""
        t0 = time.perf_counter()
        out = body_rpd(self.tr, 1e-100)
        return time.perf_counter() - t0, [Item("rpd-far-tail", checks.check_rpd, out, {})]


def gaussian_model(seed, n=40):
    """A seeded straight-line gaussian model with unknown scale."""
    rng = np.random.default_rng([seed, 0x6A55])
    x = rng.uniform(0.0, 10.0, n)
    X = np.column_stack([np.ones(n), x])
    y = 1.0 + 0.5 * x + rng.standard_normal(n)
    return pg.ModelData(y=y, X=X)


class Replication(Workload):
    """Rounds of one ``replicate`` body (ML route) on each of three models."""

    MODELS = ("credence_primary", "credence_dka", "gaussian")

    def __init__(self, tr, csv_path, seed, sizes):
        super().__init__(tr, csv_path, seed, sizes)
        self.gauss = gaussian_model(seed)

    def prepare_refs(self):
        primary = self._arms("CREDENCE", "primary")
        dka = self._arms("CREDENCE", "dka")
        y1, e1, y0, e0 = dka["counts"]
        dka["dka_fail"] = checks.dka_failure_probability(dka["ml"], e1, e0, self.seed)
        g = self.gauss
        gref = {"ols": checks.gaussian_ols(g.y, g.X), "shape": g.X.shape}
        self.refs = {"credence_primary": primary, "credence_dka": dka, "gaussian": gref}

    def rounds(self):
        r = 0
        while True:
            yield [(m, lambda m=m, r=r: self.op_replicate(m, op_seed(self.seed, r, i)))
                   for i, m in enumerate(self.MODELS)]
            r += 1

    def op_replicate(self, model, seed):
        tr, n_sim = self.tr, self.sizes.n_sim
        t0 = time.perf_counter()
        if model == "gaussian":
            out = body_replicate(tr, "gaussian", "identity", self.gauss, {"model": "gaussian"},
                                 n_sim, seed, model)
        else:
            data, meta = _load(tr, self.records, "CREDENCE", model.split("_")[1])
            out = body_replicate(tr, "poisson", "log", data, meta, n_sim, seed, model)
        elapsed = time.perf_counter() - t0
        check = getattr(checks, "check_replication_" + model.split("_")[-1])
        return elapsed, [Item(model, check, out, self.refs[model])]


class PosteriorSampling(Workload):
    """Rounds of one ``chain`` and ``draws_per_round`` ``grid-draws``.

    The chain is the ``posterior --method metropolis`` body at the CLI's
    default seed, so every run smooths the same draws: the EM's cost on one
    10k-draw chain ranges from 7 s to 65 s with the draws, which no run of a
    minute could average out. The grid-draws streams come from --seed.
    """

    def __init__(self, tr, csv_path, seed, sizes):
        super().__init__(tr, csv_path, seed, sizes)
        self.data, _ = pg.trial_model_data(self.records, "CREDENCE", "primary")
        self.fit = pg.fit_irls("poisson", "log", self.data)

    def prepare_refs(self):
        arms = self._arms("CREDENCE", "primary")
        arms["moments"] = checks.flat_prior_moments(*arms["counts"])
        self.ref = arms

    def rounds(self):
        r = 0
        while True:
            yield [("chain", self.op_chain)] + [
                ("grid-draws", lambda k=k, r=r: self.op_grid_draws(op_seed(self.seed, r, k)))
                for k in range(self.sizes.draws_per_round)]
            r += 1

    def _traced_mixture(self, draws, stream, case):
        """Traced runs time the EM alone on the draws pi_value_from_samples got."""
        with self.tr.span("numerics.fit_gaussian_mixture_1d", case=case, extra=True) as sp:
            model = pg.fit_gaussian_mixture_1d(draws, stream=stream)
        sp.attrs.update(components=model.count, em_iterations=model.n_iter)

    def op_chain(self):
        tr = self.tr
        t0 = time.perf_counter()
        data, meta = _load(tr, self.records, "CREDENCE", "primary")
        res = _fit(tr, "poisson", "log", data)
        with tr.span("posterior.vectorized_loglik"):
            ll = pg.vectorized_loglik("poisson", "log", data)
        if tr.enabled:
            def log_post(b):
                with tr.span("posterior.loglik_single"):
                    return float(ll(b[None, :])[0])
        else:
            def log_post(b):
                return float(ll(b[None, :])[0])
        steps = CHAIN_ITER + CHAIN_BURN_IN
        with tr.span("posterior.rw_metropolis", steps=steps):
            chain = pg.rw_metropolis(log_post, res.beta_hat, res.cov_unscaled,
                                     CHAIN_ITER, CHAIN_BURN_IN, RngStream(CLI_SEED))
        draws = chain.draws[:, 1]
        with tr.span("inference.pi_value_from_samples", case="chain") as sp:
            rep = pg.pi_value_from_samples(draws, 0.0, method="mixture",
                                           stream=RngStream(CLI_SEED, 999))
        sp.attrs["method"] = rep.method
        payload = {"meta": meta, "method": "metropolis", "prior": "flat",
                   "mean": chain.draws.mean(axis=0), "sd": chain.draws.std(axis=0, ddof=1),
                   "pi": rep.p_or_pi, "acceptance_rate": chain.acceptance_rate,
                   "direction": rep.direction}
        _finish(tr, payload, CLI_SEED)
        elapsed = time.perf_counter() - t0
        if tr.enabled:
            self._traced_mixture(draws, RngStream(CLI_SEED, 999), "chain")
        out = {"kind": "chain", "draws": draws, "pi": rep.p_or_pi, "method": rep.method}
        return elapsed, [Item("chain", checks.check_draws, out, self.ref)]

    def op_grid_draws(self, seed):
        """One replicate of the Bayes replication route on the observed data."""
        tr, fit = self.tr, self.fit
        stream = RngStream(seed)
        t0 = time.perf_counter()
        with tr.span("posterior.vectorized_loglik"):
            ll = pg.vectorized_loglik("poisson", "log", self.data)
        bounds = [(b - 8.0 * s, b + 8.0 * s) for b, s in zip(fit.beta_hat, fit.se(1.0))]
        with tr.span("posterior.grid_posterior", points=DRAWS_RESOLUTION**2):
            gp = pg.grid_posterior(ll, [None, None], bounds, resolution=DRAWS_RESOLUTION)
        with tr.span("posterior.grid_sample"):
            draws = gp.sample(DRAWS, stream.child(1))[:, 1]
        with tr.span("inference.pi_value_from_samples", case="draws") as sp:
            rep = pg.pi_value_from_samples(draws, 0.0, method="mixture", stream=stream.child(2))
        sp.attrs["method"] = rep.method
        elapsed = time.perf_counter() - t0
        if tr.enabled:
            self._traced_mixture(draws, stream.child(2), "draws")
        out = {"kind": "grid-draws", "draws": draws, "pi": rep.p_or_pi, "method": rep.method}
        return elapsed, [Item("grid-draws", checks.check_draws, out, self.ref)]


WORKLOADS = {
    "trial-analysis": TrialAnalysis,
    "replication": Replication,
    "posterior-sampling": PosteriorSampling,
}
