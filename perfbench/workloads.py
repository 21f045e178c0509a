"""The four benchmark workloads.

Each workload has three parts:

* ``prepare`` runs in the benchmark's parent process before any timing and
  writes input files (the wide cohort CSV);
* ``setup`` runs in the measured child and is what a user pays before the
  first library call: the dataset in memory and the fold plan built;
* ``run_unit`` is one unit of timed work: the library calls that
  ``biocompass eval`` / ``ablate`` / ``baselines`` make, through the report
  files the command writes itself.

All library calls go through module attributes (``evaluation.run_ablation``,
``data.load_csv``...) so that the traced run's wrappers see them.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

from biocompass import baselines, data, evaluation

PROTOCOL = "loco"
LR = 1e-2
# Every cohort is drawn with this data seed, as in acceptance criterion 7.
DATA_SEED = 0
# Units every run makes, whatever --seconds says. Unit u < REFERENCE_UNITS
# trains with model seed u, so ROC-AUC, the seed-mean over these units, is
# the same number on every run of the same code; later units take their
# model seeds from --seed and only add timing samples.
REFERENCE_UNITS = 5


@dataclass(frozen=True)
class Size:
    """Run length and input size of one workload."""
    epochs: int = 0            # training epochs per fold x seed task
    n_genes: int = 512
    samples_per_cohort: tuple = data.SyntheticSpec().samples_per_cohort


# Training runs 3 epochs at lr=1e-2, not criterion 7's 150 at 2e-3: at
# 2e-3, 3 epochs learn next to nothing (ROC-AUC near 0.5).
#
# The wide panel keeps eight cohorts (two per treatment) so that LOCO
# always trains on the held-out cohort's treatment; with four cohorts every
# LOCO fold is also a leave-one-treatment-out fold and scores chance.
#
# The baselines run the library's default l2 (the one `biocompass
# baselines` uses) on a smaller cohort than the default: on the default
# 512-gene cohort 7 of the 8 expression fits run to the 5000-iteration cap
# and one model seed takes about 75 s. On 64 genes x 4 cohorts x 60 samples
# every fit converges, the expression fits after about 800-1100 gradient
# steps, and fit_logreg is still about 97% of the unit.
FULL = {
    "ablate_loco": Size(epochs=3),
    "wide_panel_pft": Size(epochs=3, n_genes=16000,
                           samples_per_cohort=(25,) * 8),
    "wide_panel_fft": Size(epochs=3, n_genes=16000,
                           samples_per_cohort=(25,) * 8),
    "baselines_loco": Size(n_genes=64, samples_per_cohort=(60,) * 4),
}

SMOKE = {
    "ablate_loco": Size(epochs=1, n_genes=24, samples_per_cohort=(12,) * 8),
    "wide_panel_pft": Size(epochs=1, n_genes=64,
                           samples_per_cohort=(10,) * 8),
    "wide_panel_fft": Size(epochs=1, n_genes=64,
                           samples_per_cohort=(10,) * 8),
    "baselines_loco": Size(n_genes=40, samples_per_cohort=(20,) * 4),
}


# the speed probe (speed.py) whose kind of work dominates each workload's
# training parts
PROBE = {"ablate_loco": "dispatch", "wide_panel_pft": "stream",
         "wide_panel_fft": "stream", "baselines_loco": "dispatch"}


def sizes(smoke: bool) -> dict:
    return SMOKE if smoke else FULL


def spec(size: Size) -> data.SyntheticSpec:
    return data.SyntheticSpec(n_cohorts=len(size.samples_per_cohort),
                              samples_per_cohort=size.samples_per_cohort,
                              n_genes=size.n_genes, seed=DATA_SEED)


def csv_path(workdir: str) -> str:
    return os.path.join(workdir, "cohort.csv")


def prepare(name: str, size: Size, workdir: str) -> None:
    """Write the inputs that the measured process reads from disk."""
    if name.startswith("wide_panel"):
        data.write_csv(data.generate_synthetic(spec(size)), csv_path(workdir))


@dataclass
class State:
    dataset: data.Dataset
    plan: data.FoldPlan


def setup(name: str, size: Size, workdir: str) -> State:
    if name.startswith("wide_panel"):
        dataset = data.load_csv(csv_path(workdir))
    else:
        dataset = data.generate_synthetic(spec(size))
    return State(dataset, data.split_by_group(
        dataset, evaluation.PROTOCOL_KEYS[PROTOCOL]))


def unit_seeds(unit: int, seed: int) -> list:
    """The one model seed of a unit; no two units share a seed, so no unit
    re-does the work of another."""
    if unit < REFERENCE_UNITS:
        return [unit]
    return [1000 * (abs(seed) + 1) + unit]


def run_unit(name: str, size: Size, state: State, seeds: list,
             out_dir: str) -> dict:
    """One unit of timed work; returns config or method name -> report.
    Like `biocompass baselines`, the baselines unit writes no emit_report
    files; the output checks write them afterwards, untimed."""
    ds = state.dataset
    if name == "baselines_loco":
        results = baselines.run_baselines(ds, PROTOCOL, seeds)
        return {r.method: r.report for r in results}
    train_cfg = evaluation.TrainConfig(
        epochs=size.epochs, lr=LR,
        mode="fft" if name == "wide_panel_fft" else "pft")
    kwargs = dict(model_cfg=evaluation.make_model_config(ds),
                  weights=evaluation.LossWeights(), train_cfg=train_cfg,
                  jobs=1)
    if name == "ablate_loco":
        reports = evaluation.run_ablation(ds, PROTOCOL, seeds, **kwargs)
    else:
        reports = {"eval": evaluation.run_protocol(ds, PROTOCOL, seeds,
                                                   **kwargs)}
    for key, report in reports.items():
        evaluation.emit_report(report, os.path.join(out_dir, key))
    return reports


def quality(name: str, units: list) -> dict:
    """All-bucket, seed-mean LOCO ROC-AUC of the workload's headline model
    over the reference units, plus the gated-minus-ungated gain on the
    ablation. ``units`` holds each reference unit's reports."""
    def auc(key):
        return sum(reports[key].aggregates()["all"]["roc_auc"][0]
                   for reports in units) / len(units)

    if name == "ablate_loco":
        return {"roc_auc": auc("full"),
                "gating_gain": auc("full") - auc("no_gating")}
    return {"roc_auc": auc("lr_expression" if name == "baselines_loco"
                           else "eval")}
