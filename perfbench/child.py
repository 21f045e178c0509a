"""One workload in a fresh process: set up, run timed units, check outputs.

Started by run.py, never by hand. It writes its result as JSON to ``--out``.
``--spawned-at`` is the parent's CLOCK_MONOTONIC reading just before the
process was started, so set-up time includes interpreter start and imports.
"""
from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings

import numpy as np

# the whole toolkit, as a CLI user loads it; part of set-up time
import biocompass.cli  # noqa: F401
from biocompass import baselines, data, evaluation, model

import speed
import tracer as tracer_mod
import workloads

# a converged fit stops at gradient norm 1e-6; the closed-form gradient at
# the returned solution must agree to this bound
ORACLE_GRAD_TOL = 1e-5

# taken before the traced run wraps it: the checks write the report files of
# units that do not write them, and that time belongs to no layer
emit_report = evaluation.emit_report


class Checks:
    """Light hooks, installed in every run: time each training task and
    each logistic-regression fit between two speed probes (the host's
    slowdown during the part is taken as their mean), check each fit
    against the gradient oracle, and keep every predicted probability for
    the output checks made after each unit."""

    def __init__(self, probe_kind: str):
        self.probe_kind = probe_kind
        # [optimizer steps, seconds, host slowdown] per train_model call
        self.train_tasks = []
        self.probs = []
        self.fits = []
        self.overhead_s = 0.0   # probe and oracle time inside a unit

    def probe(self) -> float:
        t0 = time.perf_counter()
        slowdown = speed.slowdown(self.probe_kind)
        self.overhead_s += time.perf_counter() - t0
        return slowdown

    def install(self) -> None:
        train_model = evaluation.train_model
        sig_train = inspect.signature(train_model)

        def timed_train(*args, **kwargs):
            before = self.probe()
            t0 = time.perf_counter()
            history = train_model(*args, **kwargs)
            t1 = time.perf_counter()
            slowdown = (before + self.probe()) / 2
            t2 = time.perf_counter()
            bound = sig_train.bind(*args, **kwargs)
            cfg, idx = bound.arguments["cfg"], bound.arguments["train_idx"]
            steps = cfg.epochs * math.ceil(len(idx) / cfg.batch_size)
            self.train_tasks.append([steps, t1 - t0, slowdown])
            self.overhead_s += time.perf_counter() - t2
            return history

        evaluation.train_model = timed_train

        for cls in (model.Model, baselines.LinearModel):
            self._keep_probs(cls)

        fit_logreg = baselines.fit_logreg
        sig_fit = inspect.signature(fit_logreg)

        def checked_fit(*args, **kwargs):
            before = self.probe()
            t0 = time.perf_counter()
            lm = fit_logreg(*args, **kwargs)
            t1 = time.perf_counter()
            slowdown = (before + self.probe()) / 2
            t2 = time.perf_counter()
            bound = sig_fit.bind(*args, **kwargs)
            bound.apply_defaults()
            self.fits.append({"s": t1 - t0, "slowdown": slowdown,
                              **oracle(bound.arguments, lm)})
            self.overhead_s += time.perf_counter() - t2
            return lm

        baselines.fit_logreg = checked_fit

    def _keep_probs(self, cls) -> None:
        predict = cls.predict_proba

        def kept(*args, **kwargs):
            probs = predict(*args, **kwargs)
            self.probs.append(probs)
            return probs

        cls.predict_proba = kept


def oracle(args: dict, lm) -> dict:
    """Convergence flag and the closed-form L2-logreg gradient norm at the
    returned solution, computed here in numpy as the optimality oracle."""
    x = (np.atleast_2d(args["features"]) - lm.feature_mean) / lm.feature_std
    y = np.asarray(args["labels"], dtype=np.float64)
    n = len(y)
    resid = 1.0 / (1.0 + np.exp(-(x @ lm.weights + lm.bias))) - y
    g_w = x.T @ resid / n + args["l2"] / n * lm.weights
    g_b = resid.mean()
    norm = float(np.sqrt(g_w @ g_w + g_b * g_b))
    finite = bool(np.all(np.isfinite(lm.weights)) and np.isfinite(lm.bias))
    return {"converged": bool(lm.converged), "grad_norm": norm,
            "ok": finite and (not lm.converged or norm <= ORACLE_GRAD_TOL)}


def check_reports(reports: dict, n_folds: int, n_seeds: int, out_dir: str
                  ) -> tuple[int, list]:
    """Rows that fail the report checks, and why."""
    failed, why = 0, []
    for key, report in reports.items():
        expected = n_folds * n_seeds
        rows = len(report.rows)
        if rows != expected:
            failed += expected
            why.append(f"{key}: {rows} rows, expected {expected}")
            continue
        report_dir = os.path.join(out_dir, key)
        if not os.path.isdir(report_dir):
            emit_report(report, report_dir)
        perfold = evaluation.read_perfold_csv(
            os.path.join(report_dir, "perfold.csv"))
        re_agg = evaluation.aggregate_rows(
            perfold, report.bucket_of_group(), report.group_sizes,
            report.weighted)
        published = {}
        with open(os.path.join(report_dir, "aggregate.csv")) as f:
            next(f)
            for line in f:
                bucket, metric, mean, lo, hi, n = line.strip().split(",")
                published[(bucket, metric)] = (float(mean), float(lo),
                                               float(hi), int(n))
        flat = {(b, m): tup for b, ms in re_agg.items()
                for m, tup in ms.items()}
        if len(perfold) != expected or flat != published:
            failed += expected
            why.append(f"{key}: perfold.csv does not re-aggregate to "
                       "aggregate.csv")
    return failed, why


def bad_probs(probs: list) -> int:
    return sum(1 for p in probs
               if not np.all(np.isfinite(p)) or np.any(p <= 0.0)
               or np.any(p >= 1.0))


def measure(args, size, state, checks, max_units: int | None) -> dict:
    """Run the reference units, then more units until the next one would
    end past --seconds, checking each unit's outputs outside the timed
    region."""
    n_folds = len(state.plan.folds)
    walls, parts, reference_reports = [], [], []
    attempted = failed = 0
    failures = []
    start = time.perf_counter()
    unit = 0
    while True:
        out_dir = os.path.join(args.workdir, f"unit{unit}")
        seeds = workloads.unit_seeds(unit, args.seed)
        checks.probs.clear()
        n_fits_before = len(checks.fits)
        n_tasks_before = len(checks.train_tasks)
        overhead_before = checks.overhead_s
        t0 = time.perf_counter()
        try:
            reports = workloads.run_unit(args.workload, size, state, seeds,
                                         out_dir)
        except Exception:
            traceback.print_exc()
            failures.append(f"unit {unit} raised")
            attempted += 1
            failed += 1
            break
        walls.append(time.perf_counter() - t0
                     - (checks.overhead_s - overhead_before))

        n_seeds = len(seeds)
        fits = checks.fits[n_fits_before:]
        # the unit's parts: each logistic-regression fit of the baselines,
        # each train_model call (fold x seed x config) of the others
        if args.workload == "baselines_loco":
            attempted += len(fits)
            parts.append([[1, f["s"], f["slowdown"]] for f in fits])
        else:
            attempted += n_folds * n_seeds * len(reports)
            parts.append(checks.train_tasks[n_tasks_before:])
        unit_failed, why = check_reports(reports, n_folds, n_seeds, out_dir)
        n_bad = bad_probs(checks.probs)
        if n_bad:
            unit_failed += n_bad
            why.append(f"{n_bad} prediction(s) outside (0, 1)")
        bad_fits = sum(1 for f in fits if not f["ok"])
        if bad_fits:
            unit_failed += bad_fits
            why.append(f"{bad_fits} fit(s) non-finite or failing the "
                       "gradient oracle")
        failed += unit_failed
        failures += [f"unit {unit}: {w}" for w in why]
        if unit < workloads.REFERENCE_UNITS:
            reference_reports.append(reports)
        shutil.rmtree(out_dir, ignore_errors=True)
        unit += 1
        if max_units is not None and unit >= max_units:
            break
        if (unit >= workloads.REFERENCE_UNITS
                and time.perf_counter() - start
                + statistics.median(walls) > args.seconds):
            break
    quality = None
    if len(reference_reports) == workloads.REFERENCE_UNITS:
        quality = workloads.quality(args.workload, reference_reports)
    return {"unit_wall_s": walls, "unit_parts": parts, "quality": quality,
            "attempted": attempted, "failed": min(failed, attempted),
            "failures": failures}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", required=True,
                   choices=("setup", "measure", "trace"))
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--workdir", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--untraced-wall-s", type=float, default=0.0)
    p.add_argument("--trace-file")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    warnings.simplefilter("ignore")

    size = workloads.sizes(args.smoke)[args.workload]
    tracer = None
    if args.mode == "trace":
        tracer = tracer_mod.Tracer()
        tracer.install()
    checks = Checks(workloads.PROBE[args.workload])
    checks.install()
    state = workloads.setup(args.workload, size, args.workdir)
    result = {"setup_s": time.monotonic() - args.spawned_at}
    if args.mode != "setup":
        result.update(measure(args, size, state, checks,
                              max_units=1 if tracer else None))
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        result["host"] = tracer_mod.host_info()
    if tracer is not None and result["unit_wall_s"]:
        result["layers"] = tracer.metrics(
            checks.fits,
            speed.at_full_speed(result["unit_wall_s"],
                                result["unit_parts"])[0],
            args.untraced_wall_s)
        tracer.write(args.trace_file, {
            "workload": args.workload, "seed": args.seed,
            "host": result["host"]})
    with open(args.out, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
