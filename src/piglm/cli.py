"""Command-line interface.

Every subcommand writes a JSON result (and optional plot CSVs) with the RNG
seed embedded, so identical invocations produce byte-identical outputs.

Exit codes: 0 success; 2 domain/parse errors; 3 boundary or convergence
conditions not waived by --allow-boundary; 64 usage errors.
"""

from __future__ import annotations

import math
import sys

import click
import numpy as np

from . import __version__
from .decision import AnalystParams, ClientParams, evaluate_decision, evpi_pure, \
    evpi_recalibrated, pi_critical, recalibration_loss
from .errors import BoundaryError, ConvergenceError, DomainError, MixingError, \
    ParseError, PiglmError, SupportError
from .glm import fit_irls, likelihood_surface, quadraticity_diagnostic
from .inference import pi_value_analytic, pi_value_from_grid, pi_value_from_samples, \
    wald_pvalue
from .io import bundled_trials_path, emit_plot_csv, parse_trial_csv, to_json_text, \
    trial_model_data
from .numerics import MIN_MIXTURE_SAMPLES, RngStream
from .posterior import grid_posterior, laplace_posterior, rw_metropolis, vectorized_loglik
from .priors import PriorSpec, local_uniformity_check, prior_pdf
from .replication import MIN_N_SIM, ReplicationConfig, predictive_pi, rpd_curve, \
    run_replication

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_FLAGGED = 3
EXIT_USAGE = 64

# Limits on the sizes a command allocates, checked while the options are
# parsed, before any data is loaded. A 2001^2 posterior grid holds 4e6 points,
# a replicate batch holds (n_sim, n, p) arrays, and a chain stores every step.
# Lower limits: a grid axis needs two nodes for its trapezoid and its tail
# slope, the harness 100 replicates, and the metropolis pi-value's mixture 1000 draws.
MIN_RESOLUTION = 2
MAX_RESOLUTION = 2001
MAX_N_SIM = 100_000
MAX_N_ITER = 200_000


class _FloatPair(click.ParamType):
    """Exactly two comma-separated numbers, such as ``-50,50``."""

    name = "lo,hi"

    def convert(self, value, param, ctx):
        try:
            lo, hi = (float(v) for v in value.split(","))
        except ValueError:
            self.fail(f"{value!r} is not two comma-separated numbers", param, ctx)
        return lo, hi


def _load(data_path, study, outcome, exposure_scale):
    path = data_path or bundled_trials_path()
    records = parse_trial_csv(path)
    return trial_model_data(records, study, outcome, exposure_scale=exposure_scale)


def _fit_payload(fit, meta, allow_boundary):
    payload = {
        "beta_hat": fit.beta_hat,
        "cov_unscaled": fit.cov_unscaled,
        "deviance": fit.deviance,
        "converged": fit.converged,
        "boundary": fit.boundary,
        "iterations": fit.iterations,
        "meta": meta,
    }
    if fit.boundary and not allow_boundary:
        return payload
    se = fit.se(1.0)
    reports = [wald_pvalue(fit, 1.0, j) for j in range(fit.p)]
    payload.update({"se": se, "z": [r.z for r in reports], "p": [r.p_or_pi for r in reports]})
    if fit.boundary:
        payload["boundary_warning"] = "estimates diverging; values unreliable"
    else:
        rr = math.exp(fit.beta_hat[1])
        lo = math.exp(fit.beta_hat[1] - 1.959963984540054 * se[1])
        hi = math.exp(fit.beta_hat[1] + 1.959963984540054 * se[1])
        payload["relative_risk"] = {"estimate": rr, "ci_lower": lo, "ci_upper": hi}
    return payload


@click.group()
@click.version_option(__version__)
def cli():
    """GLM fits, pi-values, decision thresholds and replication analysis."""


_seed_out = [
    click.option("--seed", default=20260824, show_default=True),
    click.option("--out", "out_path", type=click.Path(), default=None,
                 help="Write the JSON result here (default: stdout)."),
]
_common = [
    click.option("--data", "data_path", type=click.Path(exists=True), default=None,
                 help="Trial CSV (defaults to the bundled SGLT2i dataset)."),
    click.option("--study", required=True),
    click.option("--outcome", required=True),
    click.option("--exposure-scale", default=1000.0, show_default=True),
    *_seed_out,
    click.option("--allow-boundary", is_flag=True,
                 help="Exit 0 and report values even for boundary fits."),
]


def _apply(options):
    def decorate(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return decorate


common_options = _apply(_common)
seed_out_options = _apply(_seed_out)


def _finish(payload, out_path, seed, flagged=False, allow=False):
    payload["seed"] = seed
    payload["version"] = __version__
    text = to_json_text(payload)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)
    if flagged and not allow:
        raise SystemExit(EXIT_FLAGGED)


@cli.command()
@common_options
def fit(data_path, study, outcome, exposure_scale, seed, out_path, allow_boundary):
    """Poisson rate-ratio fit with Wald p-values and relative risks."""
    data, meta = _load(data_path, study, outcome, exposure_scale)
    res = fit_irls("poisson", "log", data)
    payload = _fit_payload(res, meta, allow_boundary)
    _finish(payload, out_path, seed, flagged=res.boundary or not res.converged,
            allow=allow_boundary)


@cli.command()
@common_options
@click.option("--method", type=click.Choice(["laplace", "grid", "metropolis"]),
              default="laplace", show_default=True)
@click.option("--prior", type=click.Choice(["flat", "student_t"]), default="flat",
              show_default=True, help="Treatment-effect prior for the grid method.")
@click.option("--prior-df", default=2.5, show_default=True)
@click.option("--prior-scale", default=1.0, show_default=True)
@click.option("--resolution", default=801, show_default=True,
              type=click.IntRange(MIN_RESOLUTION, MAX_RESOLUTION))
@click.option("--n-iter", default=80000, show_default=True,
              type=click.IntRange(MIN_MIXTURE_SAMPLES, MAX_N_ITER))
@click.option("--burn-in", default=20000, show_default=True, type=click.IntRange(0, MAX_N_ITER))
def posterior(data_path, study, outcome, exposure_scale, seed, out_path,
              allow_boundary, method, prior, prior_df, prior_scale, resolution,
              n_iter, burn_in):
    """Posterior for the treatment effect with its pi-value."""
    data, meta = _load(data_path, study, outcome, exposure_scale)
    res = fit_irls("poisson", "log", data)
    payload = {"meta": meta, "method": method, "prior": prior}
    flagged = False
    if method == "laplace":
        if res.boundary:
            raise BoundaryError("analytic posterior unavailable for a boundary fit")
        post = laplace_posterior(res, None, "poisson").beta_posterior
        rep = pi_value_analytic(post, 1)
        payload.update({"mean": post.mean, "sd": [post.marginal_sd(j) for j in range(post.p)],
                        "pi": rep.p_or_pi, "z": rep.z, "direction": rep.direction})
    elif method == "grid":
        ll = vectorized_loglik("poisson", "log", data)
        if res.boundary:
            bounds = [(-25.0, 10.0), (-60.0, 20.0)]
        else:
            se = res.se(1.0)
            bounds = [(b - 8 * s, b + 8 * s) for b, s in zip(res.beta_hat, se)]
        priors = [None, None]
        if prior == "student_t":
            priors[1] = PriorSpec("test_invchisq", beta0=0.0, nu0=prior_df, s=prior_scale)
        gp = grid_posterior(ll, priors, bounds, resolution=resolution)
        payload["proper"] = gp.proper
        if gp.proper:
            rep = pi_value_from_grid(gp, 1)
            mean, sd = gp.mean_sd(1)
            payload.update({"pi": rep.p_or_pi, "mean": mean, "sd": sd,
                            "direction": rep.direction})
        else:
            payload["note"] = "posterior improper under this prior; use an informative prior"
            flagged = True
    else:
        if res.boundary:
            raise BoundaryError("sampler initialization needs an interior fit")
        ll = vectorized_loglik("poisson", "log", data)
        chain = rw_metropolis(lambda b: float(ll(b[None, :])[0]), res.beta_hat,
                              res.cov_unscaled, n_iter, burn_in, RngStream(seed))
        draws = chain.draws[:, 1]
        rep = pi_value_from_samples(draws, 0.0, method="mixture",
                                    stream=RngStream(seed, 999))
        payload.update({
            "mean": chain.draws.mean(axis=0),
            "sd": chain.draws.std(axis=0, ddof=1),
            "pi": rep.p_or_pi,
            "acceptance_rate": chain.acceptance_rate,
            "direction": rep.direction,
        })
    _finish(payload, out_path, seed, flagged=flagged, allow=allow_boundary)


@cli.command()
@common_options
@click.option("--half-width", default=3.0, show_default=True)
@click.option("--resolution", default=61, show_default=True,
              type=click.IntRange(MIN_RESOLUTION, MAX_RESOLUTION))
@click.option("--anchor", type=_FloatPair(), default=None,
              help="b0,b1 center for boundary fits.")
@click.option("--grid-out", type=click.Path(), default=None,
              help="Write the surface grid CSV here.")
def surface(data_path, study, outcome, exposure_scale, seed, out_path,
            allow_boundary, half_width, resolution, anchor, grid_out):
    """Log-likelihood surface and quadraticity diagnostic."""
    data, meta = _load(data_path, study, outcome, exposure_scale)
    res = fit_irls("poisson", "log", data)
    surf = likelihood_surface("poisson", "log", data, res,
                              half_widths=(half_width, half_width),
                              resolution=resolution, anchor=anchor)
    payload = {"meta": meta, "boundary": res.boundary, "anchored": surf.anchored}
    if not surf.anchored:
        payload["quadraticity"] = quadraticity_diagnostic(surf)
    if grid_out:
        rows = []
        for i, b0 in enumerate(surf.beta0_grid):
            for j, b1 in enumerate(surf.beta1_grid):
                rows.append((float(b0), float(b1), float(surf.loglik[i, j]),
                             float(surf.loglik_quad[i, j])))
        emit_plot_csv(grid_out, ("beta0", "beta1", "loglik", "loglik_quad"), rows)
        payload["grid_csv"] = grid_out
    _finish(payload, out_path, seed, flagged=res.boundary, allow=allow_boundary)


@cli.command()
@click.option("--epsilon", required=True, type=float)
@click.option("--epsilon-loss", required=True, type=float)
@click.option("--cost", "c", required=True, type=float)
@click.option("--pi", "pi_val", required=True, type=float)
@click.option("--analyst-capital", default=100.0, show_default=True)
@click.option("--alpha", default=1.0, show_default=True)
@click.option("--utility", type=click.Choice(["linear", "log"]), default="linear",
              show_default=True)
@seed_out_options
def decide(epsilon, epsilon_loss, c, pi_val, analyst_capital, alpha, utility,
           seed, out_path):
    """Critical threshold, EVPI, and the act/sleep decision."""
    client = ClientParams(epsilon=epsilon, epsilon_loss=epsilon_loss, c=c)
    analyst = AnalystParams(capital=analyst_capital, alpha=alpha, utility=utility)
    crit = pi_critical(client)
    decision = evaluate_decision(client, pi_val)
    payload = {
        "pi": pi_val,
        "pi_critical": crit,
        "action": decision["action"],
        "utilities": decision["utilities"],
        "evpi_pure": evpi_pure(analyst, pi_val),
        "evpi_recalibrated": evpi_recalibrated(analyst, pi_val, crit),
        "recalibration_loss": recalibration_loss(analyst, crit),
    }
    _finish(payload, out_path, seed)


@cli.command(name="predict-pi")
@click.option("--pi", "pi_val", required=True, type=float)
@seed_out_options
def predict_pi_cmd(pi_val, seed, out_path):
    """Predictive replicate pi-value for an initial pi-value."""
    _finish({"pi_init": pi_val, "pi_rep": predictive_pi(pi_val)}, out_path, seed)


@cli.command()
@click.option("--pi-init", required=True, type=float)
@click.option("--cap", default=30.0, show_default=True)
@click.option("--resolution", default=2001, show_default=True,
              type=click.IntRange(MIN_RESOLUTION, MAX_RESOLUTION))
@seed_out_options
@click.option("--curve-out", type=click.Path(), default=None,
              help="Write the (x, pdf, cdf) curve CSV here.")
def rpd(pi_init, cap, resolution, seed, out_path, curve_out):
    """Replicate p-value density: moments and optional curve CSV."""
    curve = rpd_curve(pi_init, cap=cap, resolution=resolution)
    payload = {
        "pi_init": pi_init,
        "mean_log10": curve.mean_log10,
        "sd_log10": curve.sd_log10,
        "mean_raw": curve.mean_raw,
        "sd_raw": curve.sd_raw,
        "total_mass": curve.total_mass,
    }
    if curve_out:
        rows = list(zip(curve.grid.tolist(), curve.pdf.tolist(), curve.cdf.tolist()))
        emit_plot_csv(curve_out, ("x", "pdf", "cdf"), rows)
        payload["curve_csv"] = curve_out
    _finish(payload, out_path, seed)


@cli.command()
@common_options
@click.option("--n-sim", default=1000, show_default=True,
              type=click.IntRange(MIN_N_SIM, MAX_N_SIM))
def replicate(data_path, study, outcome, exposure_scale, seed, out_path,
              allow_boundary, n_sim):
    """Hierarchical replicate simulation (ML analysis of each replicate)."""
    data, meta = _load(data_path, study, outcome, exposure_scale)
    res = fit_irls("poisson", "log", data)
    config = ReplicationConfig(n_sim=n_sim, seed=RngStream(seed))
    report = run_replication(res, "poisson", "log", data, config)
    payload = {"meta": meta, "n_sim": n_sim, "summaries": report.summaries}
    _finish(payload, out_path, seed)


@cli.command()
@click.option("--kind", required=True)
@click.option("--beta0", default=0.0, show_default=True)
@click.option("--bounds", type=_FloatPair(), default=None,
              help="lo,hi center bounds (explore/flat kinds).")
@click.option("--sigma", default=None, type=float)
@click.option("--sigma-bounds", type=_FloatPair(), default=None, help="lo,hi prior-sd bounds.")
@click.option("--nu0", default=None, type=float)
@click.option("--scale-s", default=None, type=float)
@click.option("--interval", type=_FloatPair(), default="-50,50", show_default=True,
              help="Interval for the local-uniformity check and density grid.")
@click.option("--resolution", default=1001, show_default=True,
              type=click.IntRange(MIN_RESOLUTION, MAX_RESOLUTION))
@seed_out_options
@click.option("--grid-out", type=click.Path(), default=None)
def priors(kind, beta0, bounds, sigma, sigma_bounds, nu0, scale_s, interval,
           resolution, seed, out_path, grid_out):
    """Prior density grid and local-uniformity diagnostic."""
    spec = PriorSpec(kind=kind, beta0=beta0, bounds=bounds, sigma=sigma,
                     sigma_bounds=sigma_bounds, nu0=nu0, s=scale_s)
    lo, hi = interval
    deviation = local_uniformity_check(spec, (lo, hi), resolution)
    payload = {"kind": kind, "interval": [lo, hi],
               "max_relative_deviation": deviation}
    if grid_out:
        grid = np.linspace(lo, hi, resolution)
        dens = prior_pdf(spec, grid)
        emit_plot_csv(grid_out, ("beta", "density"),
                      list(zip(grid.tolist(), np.asarray(dens).tolist())))
        payload["grid_csv"] = grid_out
    _finish(payload, out_path, seed)


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except SystemExit as exc:
        return exc.code or 0
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except click.ClickException as exc:
        exc.show()
        return EXIT_DOMAIN
    except (ParseError, DomainError, SupportError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_DOMAIN
    except (BoundaryError, ConvergenceError, MixingError) as exc:
        click.echo(f"flagged: {exc}", err=True)
        return EXIT_FLAGGED
    except PiglmError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_DOMAIN
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
