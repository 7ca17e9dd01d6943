"""Short mode: the benchmark's own test.

    python3 perfbench/selftest.py

Runs one round of every workload at reduced size (fewer replicates, one
grid-draws operation), traced. Every check must pass on
piglm's real output and fail on each perturbed copy of it: a scaled pi, a
shifted estimate, a flipped flag. The known-failing ``rpd-far-tail`` check
must fail on the real output. It also checks that ``BENCHMARK.json`` names
exactly the metrics that ``run.py`` prints. Exits 1 on any miss.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys

import numpy as np

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def edit_at(path, fn):
    """Replace the value at ``path`` (keys into nested dicts, lists, arrays) by fn(value)."""
    def f(out):
        obj = out
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = fn(obj.get(path[-1]) if isinstance(obj, dict) else obj[path[-1]])
    return f


def scale(path, factor):
    return edit_at(path, lambda v: v * factor)


def shift(path, delta):
    return edit_at(path, lambda v: v + delta)


def setter(path, value):
    return edit_at(path, lambda v: value)


def surface_shift(field):
    def f(out):
        surf = out["surface"]
        arr = getattr(surf, field).copy()
        c = arr.shape[0] // 2
        arr[c, c] += 0.01
        out["surface"] = dataclasses.replace(surf, **{field: arr})
    return f


def records_edit(fn):
    """Apply ``fn`` to the successful replicates' slopes and p-values."""
    def f(out):
        report = out["report"]
        good = [r for r in report.records if not r["failed"]]
        est = np.array([r["ml_estimates"][-1] for r in good])
        p = np.array([r["ml_p"][-1] for r in good])
        est, p = fn(est, p)
        for r, e, q in zip(good, est, p):
            r["ml_estimates"] = np.append(r["ml_estimates"][:-1], e)
            r["ml_p"] = np.append(r["ml_p"][:-1], q)
    return f


def draws_edit(fn):
    def f(out):
        out["draws"] = fn(np.asarray(out["draws"], dtype=float))
    return f


def widen(est, p):
    return est.mean() + PI * (est - est.mean()), p


# perturbations per check: (label, edit, a word the failure message must hold)
PI = 1.5
PERTURB = {
    "fit": [("beta_hat[1] + 0.05", shift(("payload", "beta_hat", 1), 0.05), "beta_hat"),
            ("se x 1.5", scale(("payload", "se", 1), PI), "se1"),
            ("p x 1.5", scale(("payload", "p", 1), PI), "Wald p"),
            ("relative risk x 1.5", scale(("payload", "relative_risk", "estimate"), PI),
             "relative risk"),
            ("flagged", setter(("flagged",), True), "flagged")],
    "fit/boundary": [("boundary false", setter(("payload", "boundary"), False), "boundary"),
                     ("se reported", setter(("payload", "se"), [1.0, 1.0]), "standard error"),
                     ("not flagged", setter(("flagged",), False), "flagged")],
    "laplace": [("pi x 1.5", scale(("payload", "pi"), PI), "Laplace pi")],
    "laplace/boundary": [("no error", setter(("error",), None), "BoundaryError")],
    "grid_flat": [("pi x 1.5", scale(("payload", "pi"), PI), "flat grid pi"),
                  ("improper", setter(("payload", "proper"), False), "improper")],
    "grid_flat/boundary": [("proper", setter(("payload", "proper"), True), "improper")],
    "grid_t": [("pi x 1.5", scale(("payload", "pi"), PI), "student_t grid pi"),
               ("improper", setter(("payload", "proper"), False), "improper")],
    "surface": [("loglik node + 0.01", surface_shift("loglik"), "poisson.logpmf"),
                ("quadratic centre + 0.01", surface_shift("loglik_quad"), "quadratic")],
    "predict_pi": [("pi_rep x 1.5", scale(("payload", "pi_rep"), PI), "predictive")],
    "rpd": [("mass x 1.5", scale(("payload", "total_mass"), PI), "mass"),
            ("mean x 1.5", scale(("payload", "mean_log10"), PI), "mean_log10"),
            ("sd x 1.5", scale(("payload", "sd_log10"), PI), "sd_log10")],
    "decide": [("pi_critical x 1.5", scale(("payload", "pi_critical"), PI), "pi_critical"),
               ("action flipped", lambda o: o["payload"].update(
                   action={"act": "sleep", "sleep": "act"}[o["payload"]["action"]]), "action"),
               ("u_act x 1.5", scale(("payload", "utilities", "act"), PI), "utilities"),
               ("evpi x 1.5", scale(("payload", "evpi_pure"), PI), "EVPI"),
               ("loss x 1.5", scale(("payload", "recalibration_loss", "loss"), PI),
                "recalibration")],
    "json": [("payload edited after emit",
              lambda o: next(iter(o["texts"].values()))[0].update(seed=-1), "round-trip"),
             ("text cut short",
              lambda o: o["texts"].update(cut=({}, next(iter(o["texts"].values()))[1][:-5])),
              "parse")],
    "prior-check": [("deviation -> 0.003", lambda o: [r.update(deviation=0.003)
                                                     for r in o["kinds"].values()], "deviation"),
                    ("density x 1.5", lambda o: [
                        r.update(densities=[(b, d * PI) for b, d in r["densities"]])
                        for r in o["kinds"].values()], "density")],
    "credence_primary": [("slopes + 0.1", records_edit(lambda e, p: (e + 0.1, p)), "mean"),
                         ("spread x 1.5", records_edit(widen), "variance"),
                         ("p x 10", records_edit(lambda e, p: (e, np.minimum(10 * p, 1.0))), "KS")],
    "credence_dka": [("fraction_failed + 0.25", lambda o: o["report"].summaries.update(
                         fraction_failed=o["report"].summaries["fraction_failed"] + 0.25),
                      "fraction_failed"),
                     ("failure reason", lambda o: [r.update(failure_reason="boundary")
                                                   for r in o["report"].records if r["failed"]][:1],
                      "reasons")],
    "gaussian": [("slopes + 0.1", records_edit(lambda e, p: (e + 0.1, p)), "mean"),
                 ("spread x 1.5", records_edit(widen), "variance"),
                 ("a replicate failed",
                  lambda o: o["report"].summaries.update(fraction_failed=0.01), "failed")],
    "draws": [("draws + 0.05", draws_edit(lambda x: x + 0.05), "draw mean"),
              ("spread x 1.5", draws_edit(lambda x: x.mean() + PI * (x - x.mean())), "draw sd"),
              ("pi x 50", scale(("pi",), 50.0), "smoothed pi"),
              ("empirical method", setter(("method",), "posterior_empirical"), "method")],
}


def perturbation_key(item):
    if item.check is workloads.checks.check_draws:
        return "draws"
    name = item.name.split()[-1]
    if item.ref.get("boundary") and f"{name}/boundary" in PERTURB:
        return f"{name}/boundary"
    return name


def main():
    problems = []
    tr = Tracer(True)
    op_times, n_rounds = {}, 0
    for name, make in workloads.WORKLOADS.items():
        wl = make(tr, run.SRC / "piglm" / "data" / "sglt2i_trials.csv", 7, workloads.SHORT)
        wl.prepare_refs()
        n_rounds += 1
        for kind, fn in next(wl.rounds()):
            tr.begin_op(kind)
            elapsed, items = fn()
            tr.end_op()
            op_times.setdefault(kind, []).append(elapsed)
            for item in items:
                fails = item.check(item.out, item.ref)
                if kind in run.KNOWN_FAILING:
                    if not fails:
                        problems.append(f"{item.name}: known fault no longer shows; "
                                        "move the operation out of KNOWN_FAILING")
                    continue
                if fails:
                    problems.append(f"{item.name}: fails on the real output: {fails}")
                key = perturbation_key(item)
                if key not in PERTURB:
                    problems.append(f"{item.name}: no perturbation registered ({key})")
                    continue
                for label, edit, word in PERTURB[key]:
                    out = copy.deepcopy(item.out)
                    edit(out)
                    bad = item.check(out, item.ref)
                    if not any(word in msg for msg in bad):
                        problems.append(f"{item.name}: '{label}' not rejected "
                                        f"(expected '{word}', got {bad})")
                    else:
                        print(f"ok  {item.name}: rejects {label}")
        print(f"ran {name}", flush=True)

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = set(run.end_to_end_metrics([1.0], [1.0]))
    layer = set(run.per_layer_metrics(tr, op_times, n_rounds, workloads.SHORT.n_sim))
    for key, names in (("end_to_end", e2e), ("per_layer", layer)):
        listed = {m["name"] for m in bench[key]}
        if listed != names:
            problems.append(f"BENCHMARK.json {key} differs from run.py: "
                            f"missing {sorted(names - listed)}, extra {sorted(listed - names)}")
    if set(w["name"] for w in bench["workloads"]) != set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
