"""piglm benchmark: one seeded workload, timed end to end or traced per module.

    python3 perfbench/run.py --workload trial-analysis --seed 1 --seconds 25 --trace 0

Run from the repository root. The package is imported from ``src/`` next to
this directory. Rounds of the workload's operations run until ``--seconds``
have passed; the last round is always finished. Every operation's output is
checked against references computed apart from piglm (``checks.py``). The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``). A summary goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 5
# rpd_moments truncates its integral at 60, so ``rpd --pi-init 1e-100`` gives
# a wrong mean; the operation stays in the workload and is counted as failed
KNOWN_FAILING = ("rpd-far-tail",)

MODULES = ("io", "glm", "posterior", "inference", "numerics", "replication", "priors",
           "decision")


def end_to_end_metrics(setup_samples, round_times):
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "round_s": (statistics.median(round_times), "s"),
    }


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def per_layer_metrics(tr, op_times, n_rounds, n_sim):
    """Per-layer figures from the spans of a traced run; 0 where the workload
    makes no such call."""
    from workloads import GRID_RESOLUTION, Replication, TrialAnalysis

    def med(name, scale=1.0, **kw):
        return tr.median(name, scale, skip_ops=KNOWN_FAILING, **kw)

    def rate(name, work):
        spans = tr.select(name, KNOWN_FAILING)
        return _ratio(sum(sp.attrs[work] for sp in spans), sum(sp.duration for sp in spans))

    def op_median(kind):
        return statistics.median(op_times[kind]) if op_times.get(kind) else 0.0

    m = {
        "io.parse_trial_csv_ms": (med("io.parse_trial_csv", 1e3), "ms"),
        "io.to_json_text_ms": (med("io.to_json_text", 1e3), "ms"),
        "glm.fit_irls_interior_us": (med("glm.fit_irls", 1e6, case="interior"), "us"),
        "glm.fit_irls_boundary_us": (med("glm.fit_irls", 1e6, case="boundary"), "us"),
        "glm.fit_irls_iterations_interior":
            (med("glm.fit_irls", value="iterations", case="interior"), "count"),
        "glm.fit_irls_iterations_boundary":
            (med("glm.fit_irls", value="iterations", case="boundary"), "count"),
        "glm.likelihood_surface_ms": (med("glm.likelihood_surface", 1e3), "ms"),
        "posterior.grid_posterior_ms":
            (med("posterior.grid_posterior", 1e3, points=GRID_RESOLUTION**2), "ms"),
        "posterior.grid_points_per_s": (rate("posterior.grid_posterior", "points"), "1/s"),
        "posterior.grid_sample_ms": (med("posterior.grid_sample", 1e3), "ms"),
        "posterior.vectorized_loglik_single_us": (med("posterior.loglik_single", 1e6), "us"),
        "posterior.rw_metropolis_steps_per_s": (rate("posterior.rw_metropolis", "steps"), "1/s"),
        "posterior.laplace_posterior_us": (med("posterior.laplace_posterior", 1e6), "us"),
        "inference.pi_value_from_grid_ms": (med("inference.pi_value_from_grid", 1e3), "ms"),
        "inference.pi_value_from_samples_chain_ms":
            (med("inference.pi_value_from_samples", 1e3, case="chain"), "ms"),
        "inference.pi_value_from_samples_draws_ms":
            (med("inference.pi_value_from_samples", 1e3, case="draws"), "ms"),
        "inference.mixture_fallbacks":
            (sum(sp.attrs["method"] != "posterior_mixture"
                 for sp in tr.select("inference.pi_value_from_samples")), "count"),
        "numerics.fit_gaussian_mixture_1d_chain_ms":
            (med("numerics.fit_gaussian_mixture_1d", 1e3, case="chain"), "ms"),
        "numerics.fit_gaussian_mixture_1d_draws_ms":
            (med("numerics.fit_gaussian_mixture_1d", 1e3, case="draws"), "ms"),
        "numerics.mixture_components_chain":
            (med("numerics.fit_gaussian_mixture_1d", value="components", case="chain"), "count"),
        "numerics.em_iterations_chain":
            (med("numerics.fit_gaussian_mixture_1d", value="em_iterations", case="chain"),
             "count"),
    }
    for model in Replication.MODELS:
        spans = tr.select("replication.run_replication", model=model)
        m[f"replication.replicate_us.{model}"] = (
            statistics.median(sp.duration / sp.attrs["n_sim"] for sp in spans) * 1e6
            if spans else 0.0, "us")
    m["replication.fraction_failed.credence_dka"] = (
        med("replication.run_replication", value="fraction_failed", model="credence_dka"),
        "ratio")
    m["replication.rpd_curve_ms"] = (med("replication.rpd_curve", 1e3), "ms")
    m["replication.predictive_pi_us"] = (med("replication.predictive_pi", 1e6), "us")
    for kind in TrialAnalysis.PRIOR_KINDS:
        m[f"priors.local_uniformity_check_ms.{kind}"] = (
            med("priors.local_uniformity_check", 1e3, kind=kind), "ms")
    m["priors.prior_logpdf_ms"] = (med("priors.prior_logpdf", 1e3), "ms")
    m["decision.decide_us"] = (med("decision.decide", 1e6), "us")
    busy = dict.fromkeys(MODULES, 0.0)
    for sp, self_t in zip(tr.spans, tr.self_times()):
        if sp.op is not None and tr.op_kinds[sp.op] not in KNOWN_FAILING \
                and not sp.attrs.get("extra"):
            busy[sp.module] += self_t
    for mod in MODULES:
        m[f"{mod}.busy_s"] = (busy[mod] / n_rounds, "s")
    rep_time = sum(sum(op_times.get(k, [])) for k in Replication.MODELS)
    rep_count = sum(len(op_times.get(k, [])) for k in Replication.MODELS) * n_sim
    m.update({
        "op.study_analysis_s": (op_median("study"), "s"),
        "op.prior_check_s": (op_median("prior-check"), "s"),
        "op.replicates_per_s": (_ratio(rep_count, rep_time), "1/s"),
        "op.chain_pi_s": (op_median("chain"), "s"),
        "op.grid_draws_pi_s": (op_median("grid-draws"), "s"),
    })
    return m


def setup_probe_samples(workload, seed):
    """Seconds from process start to the first operation, in fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def run_workload(wl, tr, seconds):
    attempted = failed = 0
    correct = True
    messages = []
    op_times = {}
    round_times = []
    start = time.perf_counter()
    for ops in wl.rounds():
        round_time = 0.0
        for kind, fn in ops:
            tr.begin_op(kind)
            try:
                elapsed, items = fn()
                fails = [f"{it.name}: {msg}" for it in items for msg in it.check(it.out, it.ref)]
            except Exception as exc:  # a crash fails the operation; the run goes on
                elapsed = 0.0
                fails = [f"{kind}: {type(exc).__name__}: {exc}"]
                traceback.print_exc(file=sys.stderr)
            tr.end_op()
            attempted += 1
            if fails:
                failed += 1
                correct = correct and kind in KNOWN_FAILING
                messages += [m for m in fails if m not in messages]
            op_times.setdefault(kind, []).append(elapsed)
            if kind not in KNOWN_FAILING:
                round_time += elapsed
        round_times.append(round_time)
        if time.perf_counter() - start >= seconds:
            break
    return {"attempted": attempted, "failed": failed, "correct": correct,
            "messages": messages, "op_times": op_times, "round_times": round_times}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "piglm" / "__init__.py").is_file():
        print(f"error: piglm sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    csv_path = SRC / "piglm" / "data" / "sglt2i_trials.csv"
    make = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        make(Tracer(False), csv_path, args.seed, workloads.FULL)
        print(time.monotonic(), flush=True)
        return 0

    # a traced run reports no set-up time, so it skips the probes
    setup_samples = [] if args.trace else setup_probe_samples(args.workload, args.seed)
    tr = Tracer(args.trace == 1)
    wl = make(tr, csv_path, args.seed, workloads.FULL)
    wl.prepare_refs()
    res = run_workload(wl, tr, args.seconds)

    for msg in res["messages"][:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    summary = {k: f"{statistics.median(v):.4f} s x{len(v)}" for k, v in res["op_times"].items()}
    print(f"{args.workload} seed {args.seed}: rounds {len(res['round_times'])}, "
          f"ops {summary}, setup samples {[round(s, 3) for s in setup_samples]}",
          file=sys.stderr)
    if args.trace:
        metrics = per_layer_metrics(tr, res["op_times"], len(res["round_times"]),
                                    workloads.FULL.n_sim)
        OUT_DIR.mkdir(exist_ok=True)
        tr.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = end_to_end_metrics(setup_samples, res["round_times"])
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
