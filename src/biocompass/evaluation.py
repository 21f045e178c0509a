"""Metrics, leave-one-group-out protocol driver, seed aggregation with 95%
confidence intervals, the ablation runner, and report emission."""
from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy import stats as scipy_stats

from . import diffcore
from .data import Dataset, normalize, split_by_group
from .diffcore import Adam, Tape, zero_grads
from .model import Model, ModelConfig, EncoderConfig
from .objective import BatchTargets, LossWeights, composite_loss

METRIC_NAMES = ("accuracy", "roc_auc", "f1", "precision", "recall")
BUCKETS = ("all", "small", "large")
SMALL_COHORT_THRESHOLD = 50

PROTOCOL_KEYS = {"loco": "cohort", "locto": "cancer_type", "loto": "treatment"}


# ---- metrics ----------------------------------------------------------


def roc_auc(scores, labels):
    """Rank-statistic ROC-AUC: (#{pos>neg} + 0.5 * #ties) / (#pos * #neg).

    Returns None when only one class is present (fold reported NA upstream).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        warnings.warn("roc_auc undefined: test labels contain a single class")
        return None
    ranks = scipy_stats.rankdata(scores)  # ties share their average rank
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def threshold_metrics(probs, labels, threshold: float = 0.5) -> dict:
    """accuracy / precision / recall / f1 at a fixed probability threshold;
    zero-denominator cases are defined as 0 with a warning."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    preds = (probs >= threshold).astype(np.int64)
    tp = int(np.sum((preds == 1) & (labels == 1)))
    fp = int(np.sum((preds == 1) & (labels == 0)))
    fn = int(np.sum((preds == 0) & (labels == 1)))
    tn = int(np.sum((preds == 0) & (labels == 0)))
    accuracy = (tp + tn) / len(labels)
    if tp + fp == 0:
        warnings.warn("precision undefined (no positive predictions); using 0")
        precision = 0.0
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        warnings.warn("recall undefined (no positive labels); using 0")
        recall = 0.0
    else:
        recall = tp / (tp + fn)
    if precision + recall == 0:
        f1 = 0.0
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return {"accuracy": accuracy, "precision": precision, "recall": recall, "f1": f1}


def compute_metrics(probs, labels, threshold: float = 0.5) -> dict:
    out = threshold_metrics(probs, labels, threshold)
    out["roc_auc"] = roc_auc(probs, labels)
    return out


def aggregate_seeds(values) -> tuple[float, float, float]:
    """Two-sided Student-t 95% interval across seeds (unclipped)."""
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n == 0:
        raise ValueError("aggregate_seeds needs at least one value")
    mean = float(values.mean())
    if n == 1:
        warnings.warn("single seed: confidence interval degenerates to the mean")
        return mean, mean, mean
    s = float(values.std(ddof=1))
    t = float(scipy_stats.t.ppf(0.975, n - 1))
    half = t * s / float(np.sqrt(n))
    return mean, mean - half, mean + half


# ---- training ---------------------------------------------------------


@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 32
    epochs: int = 100
    mode: str = "pft"
    threshold: float = 0.5


def _targets_slice(dataset: Dataset, idx: np.ndarray) -> BatchTargets:
    return BatchTargets(
        response=dataset.response[idx].astype(np.float64),
        pathway=dataset.pathway[idx],
        pathway_mask=dataset.pathway_mask[idx],
        biomarkers=dataset.biomarkers[idx],
        biomarker_mask=dataset.biomarker_mask[idx],
        aux={"tide": dataset.tide[idx], "ipres": dataset.ipres[idx],
             "pheno": dataset.pheno[idx]},
        aux_masks={"tide": dataset.tide_mask[idx], "ipres": dataset.ipres_mask[idx],
                   "pheno": dataset.pheno_mask[idx]},
    )


def train_model(model: Model, dataset: Dataset, train_idx: np.ndarray,
                x_norm: np.ndarray, weights: LossWeights, cfg: TrainConfig,
                seed: int) -> list:
    """Minibatch training on one fold's training rows; returns per-epoch
    mean loss breakdowns.

    With the encoder frozen, pooling is the same at every step, so the
    training rows are pooled once, outside the step tapes, and each step
    starts from its rows of that table."""
    model.set_mode(cfg.mode)
    params = model.parameters()
    opt = Adam(params, lr=cfg.lr)
    rng = np.random.default_rng(seed)
    train_idx = np.asarray(train_idx)
    pooled = None
    if not model.params["encoder.gene_embedding"].trainable:
        pooled = model.pooled_batch(Tape(), x_norm[train_idx]).data
    history = []
    for epoch in range(cfg.epochs):
        perm = rng.permutation(len(train_idx))
        sums, n_batches = {}, 0
        for start in range(0, len(perm), cfg.batch_size):
            pos = perm[start:start + cfg.batch_size]
            batch = train_idx[pos]
            tape = Tape()
            zero_grads(params)
            if pooled is None:
                out = model.forward(tape, x_norm[batch],
                                    dataset.treatments[batch])
            else:
                out = model.head(tape, tape.constant(pooled[pos]),
                                 dataset.treatments[batch])
            total, breakdown = composite_loss(
                tape, out, _targets_slice(dataset, batch), weights)
            diffcore.backward(total, tape)
            opt.step()
            for k, v in breakdown.as_dict().items():
                sums[k] = sums.get(k, 0.0) + v
            n_batches += 1
        history.append({"epoch": epoch,
                        **{k: v / n_batches for k, v in sums.items()}})
    return history


# ---- protocol driver --------------------------------------------------


@dataclass
class AblationConfig:
    disable_gating: bool = False
    disable_pathway: bool = False
    disable_aux: bool = False
    disable_alignment: bool = False

    def apply(self, model_cfg: ModelConfig, weights: LossWeights
              ) -> tuple[ModelConfig, LossWeights]:
        if self.disable_gating:
            model_cfg = replace(model_cfg, gating_enabled=False)
        return model_cfg, LossWeights(
            cls=weights.cls,
            pathway=0.0 if self.disable_pathway else weights.pathway,
            align=0.0 if self.disable_alignment else weights.align,
            aux=0.0 if self.disable_aux else weights.aux,
        )


@dataclass
class FoldSeedResult:
    fold_id: int
    group: str
    seed: int
    metrics: dict  # metric name -> float or None (NA)


@dataclass
class MetricsReport:
    protocol: str
    key: str
    rows: list
    group_sizes: dict
    seeds: list
    weighted: bool = False

    def bucket_of_group(self) -> dict:
        return {g: ("small" if n < SMALL_COHORT_THRESHOLD else "large")
                for g, n in self.group_sizes.items()}

    def aggregates(self) -> dict:
        return aggregate_rows(self.rows, self.bucket_of_group(),
                              self.group_sizes, self.weighted)


def aggregate_rows(rows, bucket_of_group: dict, group_sizes: dict | None = None,
                   weighted: bool = False) -> dict:
    """bucket -> metric -> (mean, ci_low, ci_high, n_seeds).

    Per seed: mean metric across the bucket's folds (NA folds excluded,
    optionally sample-weighted); then a t-interval across seeds, clipped to
    [0, 1] for reporting.
    """
    seeds = sorted({r.seed for r in rows})
    out = {}
    for bucket in BUCKETS:
        out[bucket] = {}
        for metric in METRIC_NAMES:
            per_seed = []
            for seed in seeds:
                vals, wts = [], []
                for r in rows:
                    if r.seed != seed:
                        continue
                    if bucket != "all" and bucket_of_group[r.group] != bucket:
                        continue
                    v = r.metrics.get(metric)
                    if v is None:
                        continue
                    vals.append(v)
                    wts.append(group_sizes[r.group] if weighted and group_sizes
                               else 1.0)
                if vals:
                    per_seed.append(float(np.average(vals, weights=wts)))
            if not per_seed:
                continue
            mean, lo, hi = aggregate_seeds(per_seed)
            out[bucket][metric] = (mean, max(lo, 0.0), min(hi, 1.0), len(per_seed))
    return out


def make_model_config(dataset: Dataset, token_dim: int = 16,
                      gate_hidden: int = 16) -> ModelConfig:
    """Model config with the target dims taken from the dataset schema."""
    dims = dataset.dims
    return ModelConfig(
        encoder=EncoderConfig(gene_count=dims["G"], token_dim=token_dim),
        gate_hidden=gate_hidden,
        biomarker_dim=dims["d_b"],
        tide_dim=dims["d_T"],
        ipres_dim=dims["d_I"],
        pheno_dim=dims["d_P"],
    )


def _run_fold_seed(dataset: Dataset, fold, fold_id: int, seed: int,
                   model_cfg: ModelConfig, weights: LossWeights,
                   train_cfg: TrainConfig) -> FoldSeedResult:
    x_norm, _ = normalize(dataset, fold.train_idx)
    model = Model(model_cfg, seed=seed)
    train_model(model, dataset, fold.train_idx, x_norm, weights, train_cfg, seed)
    probs = model.predict_proba(x_norm[fold.test_idx],
                                dataset.treatments[fold.test_idx])
    metrics = compute_metrics(probs, dataset.response[fold.test_idx],
                              train_cfg.threshold)
    return FoldSeedResult(fold_id=fold_id, group=fold.group, seed=seed,
                          metrics=metrics)


def _run_task(args):
    return _run_fold_seed(*args)


def run_protocol(dataset: Dataset, protocol: str, seeds,
                 model_cfg: ModelConfig | None = None,
                 weights: LossWeights | None = None,
                 train_cfg: TrainConfig | None = None,
                 ablation: AblationConfig | None = None,
                 weighted: bool = False, jobs: int = 1) -> MetricsReport:
    """For each fold x seed: fresh model init, training on the fold's training
    rows with training-only normalization statistics, metrics on the test rows."""
    if protocol not in PROTOCOL_KEYS:
        raise ValueError(f"unknown protocol: {protocol!r}")
    key = PROTOCOL_KEYS[protocol]
    plan = split_by_group(dataset, key)
    model_cfg = model_cfg or make_model_config(dataset)
    weights = weights or LossWeights()
    train_cfg = train_cfg or TrainConfig()
    if ablation is not None:
        model_cfg, weights = ablation.apply(model_cfg, weights)

    tasks = [(dataset, fold, fold_id, seed, model_cfg, weights, train_cfg)
             for fold_id, fold in enumerate(plan.folds)
             for seed in seeds]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_task, tasks))
    else:
        results = [_run_task(t) for t in tasks]
    results.sort(key=lambda r: (r.fold_id, r.seed))
    sizes = {fold.group: len(fold.test_idx) for fold in plan.folds}
    return MetricsReport(protocol=protocol, key=key, rows=results,
                         group_sizes=sizes, seeds=list(seeds), weighted=weighted)


ABLATION_CONFIGS = {
    "full": AblationConfig(),
    "no_gating": AblationConfig(disable_gating=True),
    "no_pathway": AblationConfig(disable_pathway=True),
    "no_auxiliary": AblationConfig(disable_aux=True),
    "no_alignment": AblationConfig(disable_alignment=True),
}


def run_ablation(dataset: Dataset, protocol: str, seeds, **kwargs) -> dict:
    """Full model plus the four one-component-off configurations."""
    return {name: run_protocol(dataset, protocol, seeds, ablation=ab, **kwargs)
            for name, ab in ABLATION_CONFIGS.items()}


# ---- report emission --------------------------------------------------


def emit_report(report: MetricsReport, out_dir) -> None:
    if not report.rows:
        raise ValueError("cannot emit an empty report")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "perfold.csv"), "w") as f:
        f.write("fold_id,group_value,seed,metric,value\n")
        for r in report.rows:
            for metric in METRIC_NAMES:
                v = r.metrics.get(metric)
                cell = "NA" if v is None else repr(v)
                f.write(f"{r.fold_id},{r.group},{r.seed},{metric},{cell}\n")
    with open(os.path.join(out_dir, "aggregate.csv"), "w") as f:
        f.write("bucket,metric,mean,ci_low,ci_high,n\n")
        agg = report.aggregates()
        for bucket in BUCKETS:
            for metric in METRIC_NAMES:
                if metric not in agg.get(bucket, {}):
                    continue
                mean, lo, hi, n = agg[bucket][metric]
                f.write(f"{bucket},{metric},{mean!r},{lo!r},{hi!r},{n}\n")
    for metric in METRIC_NAMES:
        _write_metric_svg(report, metric,
                          os.path.join(out_dir, f"{metric}.svg"))


def _write_metric_svg(report: MetricsReport, metric: str, path) -> None:
    """Dot-with-error-bars chart: per-group mean across seeds with a 95% CI."""
    groups = sorted({r.group for r in report.rows})
    width, height = 640, 360
    left, right, top, bottom = 70, 20, 20, 60
    plot_w = width - left - right
    plot_h = height - top - bottom
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    # axes and 0/0.5/1 gridlines
    for frac in (0.0, 0.5, 1.0):
        y = top + plot_h * (1.0 - frac)
        lines.append(f'<line x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" '
                     f'y2="{y:.1f}" stroke="#cccccc"/>')
        lines.append(f'<text x="{left - 8}" y="{y + 4:.1f}" font-size="11" '
                     f'text-anchor="end">{frac:.1f}</text>')
    for gi, group in enumerate(groups):
        vals = [r.metrics[metric] for r in report.rows
                if r.group == group and r.metrics.get(metric) is not None]
        x = left + plot_w * (gi + 0.5) / len(groups)
        lines.append(f'<text x="{x:.1f}" y="{height - bottom + 16}" '
                     f'font-size="10" text-anchor="middle">{group}</text>')
        if not vals:
            lines.append(f'<text x="{x:.1f}" y="{top + plot_h / 2:.1f}" '
                         f'font-size="10" text-anchor="middle">NA</text>')
            continue
        mean, lo, hi = aggregate_seeds(vals)
        lo, hi = max(lo, 0.0), min(hi, 1.0)
        y_mean = top + plot_h * (1.0 - mean)
        y_lo = top + plot_h * (1.0 - lo)
        y_hi = top + plot_h * (1.0 - hi)
        lines.append(f'<line x1="{x:.1f}" y1="{y_lo:.1f}" x2="{x:.1f}" '
                     f'y2="{y_hi:.1f}" stroke="#1f77b4" stroke-width="1.5"/>')
        lines.append(f'<circle cx="{x:.1f}" cy="{y_mean:.1f}" r="4" '
                     f'fill="#1f77b4"/>')
    lines.append(f'<text x="{left + plot_w / 2:.1f}" y="{height - 8}" '
                 f'font-size="12" text-anchor="middle">{metric} '
                 f'({report.protocol.upper()}, mean of {len(report.seeds)} '
                 f'seeds, 95% CI)</text>')
    lines.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_perfold_csv(path) -> list:
    """Re-ingest an emitted per-fold CSV into FoldSeedResult rows."""
    rows = {}
    with open(path) as f:
        header = f.readline().strip().split(",")
        if header != ["fold_id", "group_value", "seed", "metric", "value"]:
            raise ValueError(f"unexpected perfold header: {header}")
        for line in f:
            fold_id, group, seed, metric, value = line.strip().split(",")
            key = (int(fold_id), group, int(seed))
            rows.setdefault(key, {})[metric] = (
                None if value == "NA" else float(value))
    return [FoldSeedResult(fold_id=k[0], group=k[1], seed=k[2], metrics=m)
            for k, m in sorted(rows.items())]
