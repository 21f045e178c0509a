"""Command-line entry point.

Commands: synth, train, eval, ablate, baselines, schema. Every flag has a
config-file (YAML) equivalent; flags override the file. BIOCOMPASS_SEED is
the fallback seed when neither is given.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, asdict

import numpy as np
import yaml

from . import baselines as baselines_mod
from . import data as data_mod
from . import evaluation as eval_mod
from .evaluation import (AblationConfig, TrainConfig, make_model_config,
                         run_protocol, run_ablation, emit_report,
                         train_model, BUCKETS, METRIC_NAMES)
from .model import Model, build_checked
from .objective import LossWeights


# the types a config file may give each top-level key (exact: a YAML
# `true` is not a job count)
VALUE_TYPES = {
    "dataset_csv": (str, type(None)),
    **dict.fromkeys(("synthetic", "model", "weights", "train", "ablation"),
                    (dict,)),
    "protocol": (str,),
    "seeds": (list,),
    "out_dir": (str,),
    "jobs": (int,),
    "weighted": (bool,),
    "signatures_file": (str, type(None)),
}


@dataclass
class ExperimentConfig:
    dataset_csv: str | None = None
    synthetic: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    weights: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    ablation: dict = field(default_factory=dict)
    protocol: str = "loco"
    seeds: list = field(default_factory=lambda: [0, 1, 2, 3])
    out_dir: str = "out"
    jobs: int = 1
    weighted: bool = False
    signatures_file: str | None = None

    def __post_init__(self):
        for name, kinds in VALUE_TYPES.items():
            value = getattr(self, name)
            if type(value) not in kinds:
                raise ValueError(
                    f"config key {name!r} must be of type "
                    f"{' or '.join(k.__name__ for k in kinds)}, "
                    f"got {type(value).__name__}")
        if any(type(s) is not int for s in self.seeds):
            raise ValueError(f"config key 'seeds' must be a list of integers, "
                             f"got {self.seeds!r}")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as f:
            raw = yaml.safe_load(f) or {}
        if not isinstance(raw, dict):
            raise ValueError(f"config file must be a mapping, "
                             f"got {type(raw).__name__}")
        return build_checked(cls, raw, "config file")

    def loss_weights(self) -> LossWeights:
        return build_checked(LossWeights, self.weights, "config section 'weights'")

    def train_config(self) -> TrainConfig:
        return build_checked(TrainConfig, self.train, "config section 'train'")

    def ablation_config(self) -> AblationConfig:
        return build_checked(AblationConfig, self.ablation,
                             "config section 'ablation'")

    def model_config(self, dataset: data_mod.Dataset):
        return build_checked(make_model_config, self.model,
                             "config section 'model'", dataset=dataset)

    def synthetic_spec(self) -> data_mod.SyntheticSpec:
        return build_checked(data_mod.SyntheticSpec,
                             _synth_kwargs(self.synthetic),
                             "config section 'synthetic'")

    def load_dataset(self) -> data_mod.Dataset:
        if self.dataset_csv:
            return data_mod.load_csv(self.dataset_csv)
        return data_mod.generate_synthetic(self.synthetic_spec())


def _synth_kwargs(d: dict) -> dict:
    d = dict(d)
    if "samples_per_cohort" in d:
        d["samples_per_cohort"] = tuple(d["samples_per_cohort"])
    if "active_concepts" in d:
        d["active_concepts"] = {k: tuple(v) for k, v in d["active_concepts"].items()}
    return d


def _build_config(args) -> ExperimentConfig:
    cfg = (ExperimentConfig.from_file(args.config) if args.config
           else ExperimentConfig())
    if getattr(args, "dataset", None):
        cfg.dataset_csv = args.dataset
    if getattr(args, "out_dir", None):
        cfg.out_dir = args.out_dir
    if getattr(args, "protocol", None):
        cfg.protocol = args.protocol
    if getattr(args, "jobs", None):
        cfg.jobs = args.jobs
    if getattr(args, "weighted", False):
        cfg.weighted = True
    if getattr(args, "seed_list", None):
        cfg.seeds = [int(s) for s in args.seed_list.split(",")]
    elif not args.config and os.environ.get("BIOCOMPASS_SEED"):
        cfg.seeds = [int(os.environ["BIOCOMPASS_SEED"])]
    if getattr(args, "mode", None):
        cfg.train["mode"] = args.mode
    for flag in ("gating", "pathway", "aux", "alignment"):
        if getattr(args, f"disable_{flag}", False):
            cfg.ablation[f"disable_{flag}"] = True
    return cfg


def _add_common(parser) -> None:
    parser.add_argument("--config", help="YAML experiment config")
    parser.add_argument("--dataset", help="cohort CSV path")
    parser.add_argument("--out-dir", dest="out_dir")
    parser.add_argument("--seed-list", dest="seed_list",
                        help="comma-separated seeds")
    parser.add_argument("--jobs", type=int, help="fold x seed parallelism")
    parser.add_argument("--protocol", choices=("loco", "locto", "loto"))
    parser.add_argument("--weighted", action="store_true",
                        help="sample-weighted fold means")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--pft", dest="mode", action="store_const", const="pft")
    mode.add_argument("--fft", dest="mode", action="store_const", const="fft")
    for flag in ("gating", "pathway", "aux", "alignment"):
        parser.add_argument(f"--disable-{flag}", dest=f"disable_{flag}",
                            action="store_true")


def cmd_synth(args) -> int:
    cfg = _build_config(args)
    dataset = data_mod.generate_synthetic(cfg.synthetic_spec())
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "synthetic.csv")
    data_mod.write_csv(dataset, path)
    print(f"wrote {len(dataset)} samples to {path}")
    return 0


def cmd_train(args) -> int:
    cfg = _build_config(args)
    dataset = cfg.load_dataset()
    model_cfg = cfg.model_config(dataset)
    train_cfg = cfg.train_config()
    seed = cfg.seeds[0]
    model_cfg, weights = cfg.ablation_config().apply(model_cfg,
                                                     cfg.loss_weights())
    x_norm, _ = data_mod.normalize(dataset, np.arange(len(dataset)))
    model = Model(model_cfg, seed=seed)
    history = train_model(model, dataset, np.arange(len(dataset)), x_norm,
                          weights, train_cfg, seed)
    os.makedirs(cfg.out_dir, exist_ok=True)
    ckpt = os.path.join(cfg.out_dir, "model.npz")
    model.save(ckpt)
    curve = os.path.join(cfg.out_dir, "training_curve.csv")
    keys = [k for k in history[0] if k != "epoch"]
    with open(curve, "w") as f:
        f.write("epoch," + ",".join(keys) + "\n")
        for rec in history:
            f.write(f"{rec['epoch']}," + ",".join(repr(rec[k]) for k in keys)
                    + "\n")
            print(f"epoch={rec['epoch']} " +
                  " ".join(f"{k}={rec[k]:.6f}" for k in keys))
    print(f"checkpoint: {ckpt}\ncurve: {curve}")
    return 0


def cmd_eval(args) -> int:
    cfg = _build_config(args)
    dataset = cfg.load_dataset()
    report = run_protocol(
        dataset, cfg.protocol, cfg.seeds,
        model_cfg=cfg.model_config(dataset),
        weights=cfg.loss_weights(), train_cfg=cfg.train_config(),
        ablation=cfg.ablation_config(), weighted=cfg.weighted, jobs=cfg.jobs)
    emit_report(report, cfg.out_dir)
    _print_aggregate(report)
    return 0


def _print_aggregate(report) -> None:
    agg = report.aggregates()
    for bucket in BUCKETS:
        for metric in METRIC_NAMES:
            if metric in agg.get(bucket, {}):
                mean, lo, hi, n = agg[bucket][metric]
                print(f"{bucket:6s} {metric:10s} {mean:.4f} "
                      f"[{lo:.4f}, {hi:.4f}] (n={n})")


def cmd_ablate(args) -> int:
    cfg = _build_config(args)
    dataset = cfg.load_dataset()
    reports = run_ablation(
        dataset, cfg.protocol, cfg.seeds,
        model_cfg=cfg.model_config(dataset),
        weights=cfg.loss_weights(), train_cfg=cfg.train_config(),
        weighted=cfg.weighted, jobs=cfg.jobs)
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "ablation.csv"), "w") as f:
        f.write("config,metric,mean,ci_low,ci_high,n\n")
        for name, report in reports.items():
            emit_report(report, os.path.join(cfg.out_dir, name))
            agg = report.aggregates()["all"]
            for metric in METRIC_NAMES:
                if metric in agg:
                    mean, lo, hi, n = agg[metric]
                    f.write(f"{name},{metric},{mean!r},{lo!r},{hi!r},{n}\n")
            print(f"--- {name} ---")
            _print_aggregate(report)
    return 0


def cmd_baselines(args) -> int:
    cfg = _build_config(args)
    dataset = cfg.load_dataset()
    sigs = (baselines_mod.parse_signature_file(cfg.signatures_file)
            if cfg.signatures_file else None)
    results = baselines_mod.run_baselines(dataset, cfg.protocol, cfg.seeds,
                                          signatures=sigs)
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "baselines_perfold.csv"), "w") as f:
        f.write("method,fold_id,group_value,seed,metric,value\n")
        for res in results:
            for r in res.report.rows:
                for metric in METRIC_NAMES:
                    v = r.metrics.get(metric)
                    cell = "NA" if v is None else repr(v)
                    f.write(f"{res.method},{r.fold_id},{r.group},{r.seed},"
                            f"{metric},{cell}\n")
    with open(os.path.join(cfg.out_dir, "baselines_aggregate.csv"), "w") as f:
        f.write("method,bucket,metric,mean,ci_low,ci_high,n\n")
        for res in results:
            agg = res.report.aggregates()
            for bucket in BUCKETS:
                for metric in METRIC_NAMES:
                    if metric in agg.get(bucket, {}):
                        mean, lo, hi, n = agg[bucket][metric]
                        f.write(f"{res.method},{bucket},{metric},{mean!r},"
                                f"{lo!r},{hi!r},{n}\n")
            print(f"--- {res.method} ---")
            _print_aggregate(res.report)
    return 0


def cmd_schema(args) -> int:
    cfg = _build_config(args)
    dataset = cfg.load_dataset()
    dims = dataset.dims
    print(f"samples: {len(dataset)}")
    for k, v in dims.items():
        print(f"{k}: {v}")
    print(f"cohorts: {sorted(set(map(str, dataset.cohort_ids)))}")
    print(f"cancer_types: {sorted(set(map(str, dataset.cancer_types)))}")
    print(f"treatments: {sorted(set(map(str, dataset.treatment_tokens)))}")
    return 0


COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "baselines": cmd_baselines,
    "schema": cmd_schema,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="biocompass",
        description="Treatment-gated concept bottleneck training and "
                    "evaluation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        _add_common(p)
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
