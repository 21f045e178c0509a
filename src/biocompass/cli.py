"""Command-line entry point.

Commands: synth, train, eval, ablate, baselines, schema. Every flag has a
config-file (YAML) equivalent; flags override the file. BIOCOMPASS_SEED is
the fallback seed when neither is given, read only by the commands that
take seeds (train, eval, ablate, baselines).
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import baselines as baselines_mod
from . import data as data_mod
from . import evaluation as eval_mod
from .evaluation import (PROTOCOL_KEYS, AblationConfig, TrainConfig,
                         make_model_config, run_protocol, run_ablation,
                         emit_report, fold_inputs, train_model,
                         aggregate_cells, write_aggregate_csv,
                         write_perfold_csv)
from .model import Model, build_checked
from .objective import LossWeights

# the seeds of eval, ablate and baselines when none are given
DEFAULT_SEEDS = (0, 1, 2, 3)


@dataclass
class ExperimentConfig:
    dataset_csv: str | None = None
    synthetic: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    weights: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    ablation: dict = field(default_factory=dict)
    protocol: str = "loco"
    seeds: list = field(default_factory=lambda: list(DEFAULT_SEEDS))
    out_dir: str = "out"
    jobs: int = 1
    weighted: bool = False
    signatures_file: str | None = None

    def __post_init__(self):
        if any(type(s) is not int for s in self.seeds):
            raise ValueError(f"'seeds' must be a list of integers, "
                             f"got {self.seeds!r}")
        if not self.seeds:
            raise ValueError("'seeds' must not be empty")
        if min(self.seeds) < 0:
            raise ValueError(f"'seeds' must be nonnegative, got {self.seeds}")
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"'seeds' must not repeat a seed, "
                             f"got {self.seeds}")
        if self.jobs < 1:
            raise ValueError(f"'jobs' must be >= 1, got {self.jobs}")
        if self.protocol not in PROTOCOL_KEYS:
            raise ValueError(f"'protocol' must be one of "
                             f"{', '.join(PROTOCOL_KEYS)}, "
                             f"got {self.protocol!r}")

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
    """YAML lists as the tuples `SyntheticSpec` holds; any other value is
    left for `build_checked` to reject."""
    d = dict(d)
    if isinstance(d.get("samples_per_cohort"), list):
        d["samples_per_cohort"] = tuple(d["samples_per_cohort"])
    if isinstance(d.get("active_concepts"), dict):
        d["active_concepts"] = {k: tuple(v) if isinstance(v, list) else v
                                for k, v in d["active_concepts"].items()}
    return d


def _read_config(path) -> dict:
    """The YAML mapping of a config file; an empty file is `{}`."""
    import yaml  # only --config reads YAML
    with open(path) as f:
        raw = yaml.safe_load(f) or {}
    if not isinstance(raw, dict):
        raise ValueError(f"config file must be a mapping, "
                         f"got {type(raw).__name__}")
    return raw


def _seed(token: str, source: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{source}: seed {token!r} is not an integer"
                         ) from None


def _build_config(args, seeds=None) -> ExperimentConfig:
    """The config file (or the defaults) with the flags applied on top; the
    result is rebuilt with `replace`, so a flag value passes the same checks
    as a value from the file. A command that takes seeds passes `seeds`,
    the seeds it runs when none are given: then BIOCOMPASS_SEED applies when
    neither the file nor `--seed-list` sets the seeds, and `seeds` when
    it is not set either. A command that reads no seed passes None and
    BIOCOMPASS_SEED is not read."""
    raw = _read_config(args.config) if args.config else {}
    cfg = build_checked(ExperimentConfig, raw, "config file")
    flags = {}
    if getattr(args, "dataset", None):
        flags["dataset_csv"] = args.dataset
    if getattr(args, "out_dir", None):
        flags["out_dir"] = args.out_dir
    if getattr(args, "protocol", None):
        flags["protocol"] = args.protocol
    if getattr(args, "jobs", None) is not None:
        flags["jobs"] = args.jobs
    if getattr(args, "weighted", False):
        flags["weighted"] = True
    if getattr(args, "seed_list", None):
        flags["seeds"] = [_seed(s, "--seed-list")
                          for s in args.seed_list.split(",")]
    elif seeds is not None and "seeds" not in raw:
        env = os.environ.get("BIOCOMPASS_SEED")
        flags["seeds"] = ([_seed(env, "BIOCOMPASS_SEED")] if env
                          else list(seeds))
    if getattr(args, "mode", None):
        cfg.train["mode"] = args.mode
    for flag in ("gating", "pathway", "aux", "alignment"):
        if getattr(args, f"disable_{flag}", False):
            cfg.ablation[f"disable_{flag}"] = True
    return replace(cfg, **flags)


def _add_flags(parser, flags) -> None:
    """Register the named flags, and only those, on a subcommand."""
    add = parser.add_argument
    if "config" in flags:
        add("--config", help="YAML experiment config")
    if "dataset" in flags:
        add("--dataset", help="cohort CSV path")
    if "out_dir" in flags:
        add("--out-dir")
    if "seed_list" in flags:
        add("--seed-list", help="comma-separated seeds")
    if "jobs" in flags:
        add("--jobs", type=int, help="fold x seed parallelism")
    if "protocol" in flags:
        add("--protocol", choices=("loco", "locto", "loto"))
    if "weighted" in flags:
        add("--weighted", action="store_true",
            help="sample-weighted fold means")
    if "mode" in flags:
        mode = parser.add_mutually_exclusive_group()
        for name in ("pft", "fft"):
            mode.add_argument(f"--{name}", dest="mode", action="store_const",
                              const=name)
    if "disable" in flags:
        for flag in ("gating", "pathway", "aux", "alignment"):
            add(f"--disable-{flag}", action="store_true")


def cmd_synth(args) -> int:
    cfg = _build_config(args)
    dataset = data_mod.generate_synthetic(cfg.synthetic_spec())
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "synthetic.csv")
    data_mod.write_csv(dataset, path)
    print(f"wrote {len(dataset)} samples to {path}")
    return 0


def cmd_train(args) -> int:
    cfg = _build_config(args, seeds=[0])
    if len(cfg.seeds) > 1:
        source = ("--seed-list" if args.seed_list
                  else "config key 'seeds'")
        raise ValueError(f"train trains one model, but {source} gives "
                         f"seeds {cfg.seeds}")
    [seed] = cfg.seeds
    dataset = cfg.load_dataset()
    model_cfg = cfg.model_config(dataset)
    train_cfg = cfg.train_config()
    model_cfg, weights = cfg.ablation_config().apply(model_cfg,
                                                     cfg.loss_weights())
    model = Model(model_cfg, seed=seed)
    train_idx = np.arange(len(dataset))
    stats = data_mod.fit_normalization(dataset.log_expression, train_idx)
    x_norm, table = fold_inputs(model, dataset, stats, train_cfg.mode)
    history = train_model(model, dataset, train_idx, x_norm, weights,
                          train_cfg, seed, pooled=table)
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
    cfg = _build_config(args, seeds=DEFAULT_SEEDS)
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
    for bucket, metric, mean, lo, hi, n in aggregate_cells(report):
        print(f"{bucket:6s} {metric:10s} {mean:.4f} [{lo:.4f}, {hi:.4f}] "
              f"(n={n})")


def cmd_ablate(args) -> int:
    cfg = _build_config(args, seeds=DEFAULT_SEEDS)
    enabled = [k for k, v in asdict(cfg.ablation_config()).items() if v]
    if enabled:
        raise ValueError(
            "ablate runs every ablation configuration itself and takes no "
            "disable_* setting: got "
            + ", ".join(f"{k} (--{k.replace('_', '-')})" for k in enabled))
    train_cfg = cfg.train_config()
    dataset = cfg.load_dataset()
    reports = run_ablation(
        dataset, cfg.protocol, cfg.seeds,
        model_cfg=cfg.model_config(dataset),
        weights=cfg.loss_weights(), train_cfg=train_cfg,
        weighted=cfg.weighted, jobs=cfg.jobs)
    if train_cfg.mode == "pft":
        print("note: no_pathway reports full's runs: under PFT the pathway "
              "head reads the frozen pooled embedding, so the pathway loss "
              "trains only pathway.* and cannot change a prediction; every "
              "configuration trains without it")
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "ablation.csv"), "w") as f:
        f.write("config,metric,mean,ci_low,ci_high,n\n")
        for name, report in reports.items():
            emit_report(report, os.path.join(cfg.out_dir, name))
            for bucket, metric, mean, lo, hi, n in aggregate_cells(report):
                if bucket == "all":
                    f.write(f"{name},{metric},{mean!r},{lo!r},{hi!r},{n}\n")
            print(f"--- {name} ---")
            _print_aggregate(report)
    return 0


def cmd_baselines(args) -> int:
    cfg = _build_config(args, seeds=DEFAULT_SEEDS)
    sigs = (baselines_mod.parse_signature_file(cfg.signatures_file)
            if cfg.signatures_file else None)
    dataset = cfg.load_dataset()
    results = baselines_mod.run_baselines(dataset, cfg.protocol, cfg.seeds,
                                          signatures=sigs,
                                          weighted=cfg.weighted)
    os.makedirs(cfg.out_dir, exist_ok=True)
    reports = [((res.method,), res.report) for res in results]
    write_perfold_csv(os.path.join(cfg.out_dir, "baselines_perfold.csv"),
                      reports, lead_header=("method",))
    write_aggregate_csv(os.path.join(cfg.out_dir, "baselines_aggregate.csv"),
                        reports, lead_header=("method",))
    for res in results:
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


_RUN_FLAGS = ("config", "dataset", "out_dir", "seed_list")
_ALL_FLAGS = (*_RUN_FLAGS, "jobs", "protocol", "weighted", "mode", "disable")

# each command with the flags it reads
COMMANDS = {
    "synth": (cmd_synth, ("config", "out_dir")),
    "train": (cmd_train, (*_RUN_FLAGS, "mode", "disable")),
    "eval": (cmd_eval, _ALL_FLAGS),
    "ablate": (cmd_ablate, _ALL_FLAGS),
    "baselines": (cmd_baselines, (*_RUN_FLAGS, "protocol", "weighted")),
    "schema": (cmd_schema, ("config", "dataset")),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="biocompass",
        description="Treatment-gated concept bottleneck training and "
                    "evaluation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        _add_flags(sub.add_parser(name), flags)
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command][0](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
