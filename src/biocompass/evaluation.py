"""Metrics, leave-one-group-out protocol driver, seed aggregation with 95%
confidence intervals, the ablation runner, and report emission."""
from __future__ import annotations

import csv
import math
import operator
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import diffcore
from .data import (Dataset, NormalizationStats, apply_normalization,
                   fold_statistics, split_by_group)
from .diffcore import (Adam, Constant, NonFiniteError, Tape, check_labels,
                       zero_grads)
from .model import (AUX_TASKS, SIDE_HEADS, Model, ModelConfig, EncoderConfig,
                    treatment_constant)
from .objective import BatchTargets, LossWeights, composite_loss

METRIC_NAMES = ("accuracy", "roc_auc", "f1", "precision", "recall")
BUCKETS = ("all", "small", "large")
SMALL_COHORT_THRESHOLD = 50

PROTOCOL_KEYS = {"loco": "cohort", "locto": "cancer_type", "loto": "treatment"}


# The 97.5% Student-t quantile `scipy.special.stdtrit(df, 0.975)` for df
# 1-39, i.e. 2-40 seeds: scipy.special adds about 0.2 s to a start-up,
# so it is imported only for more seeds.
T_975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078,
    2.7764451051977934, 2.5705818356363146, 2.4469118511449786,
    2.364624251592784, 2.306004135204166, 2.262157162798205,
    2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776,
    2.1199052992212546, 2.1098155778333156, 2.1009220402410382,
    2.0930240544083087, 2.085963447265864, 2.0796138447276795,
    2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846,
    2.0484071417952454, 2.045229642132703, 2.0422724563012378,
    2.039513446396408, 2.0369333434601016, 2.0345152974493383,
    2.0322445093177186, 2.030107928250343, 2.0280940009804502,
    2.0261924630291093, 2.0243941639119694, 2.022690920036761,
)


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
    ranks = _average_ranks(scores)
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks in which tied values share their average rank, as
    `scipy.stats.rankdata` computes them. `count[d]` is the number of values
    at or below the d-th smallest distinct value, so that value's tie run
    holds ranks count[d-1]+1..count[d] and each member gets their mean.
    A NaN makes every rank NaN, as in `rankdata`."""
    if np.isnan(values).any():
        return np.full(len(values), np.nan)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.r_[True, ordered[1:] != ordered[:-1]]
    dense = np.empty(len(values), dtype=np.intp)
    dense[order] = np.cumsum(first)
    count = np.r_[np.flatnonzero(first), len(values)]
    return 0.5 * (count[dense] + count[dense - 1] + 1)


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
    if n - 1 <= len(T_975):
        t = T_975[n - 2]
    else:
        from scipy.special import stdtrit
        t = float(stdtrit(n - 1, 0.975))
    s = float(values.std(ddof=1))
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

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            # a float would fail late, in range(), or truncate; True is 1;
            # a numpy integer is taken as the int it holds
            try:
                if isinstance(value, bool):
                    raise TypeError
                value = operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an int, got {value!r} "
                                 f"({type(value).__name__})") from None
            setattr(self, name, value)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if not math.isfinite(self.lr):
            raise ValueError(f"lr must be finite, got {self.lr}")
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if not 0 < self.threshold < 1:
            raise ValueError(
                f"threshold must be in (0, 1), got {self.threshold}")
        if self.mode not in ("pft", "fft"):
            raise ValueError(f"mode must be 'pft' or 'fft', got {self.mode!r}")


def _step_table(dataset: Dataset, train_idx: np.ndarray
                ) -> tuple[np.ndarray, list]:
    """The arrays that a training step reads besides its input rows, one
    row per training row, joined into one [n, k] table, and the width of
    each. They come in the order `_RecordedStep` binds them: the treatment
    rows, checked by `treatment_constant`, the label column, checked by
    `check_labels`, then each target block and its mask (`BatchTargets`
    order, the auxiliary tasks in AUX_TASKS order). A non-finite cell in
    the table, masked or not, is a NonFiniteError naming its block and
    dataset row."""
    targets = ("pathway", "pathway_mask", "biomarkers", "biomarker_mask",
               *AUX_TASKS, *(f"{task}_mask" for task in AUX_TASKS))
    blocks = [treatment_constant(dataset.treatments[train_idx]).data,
              check_labels(dataset.response[train_idx])[:, None],
              *(getattr(dataset, name)[train_idx] for name in targets)]
    table = np.concatenate(blocks, axis=1)
    # finite values sum to a finite value unless the sum overflows, so
    # only a sum that is not finite calls for a scan
    with np.errstate(all="ignore"):
        total = np.add.reduce(table, axis=None)
    if not math.isfinite(total):
        for name, block in zip(targets, blocks[2:]):
            bad = ~np.isfinite(block).all(axis=1)
            if bad.any():
                raise NonFiniteError(f"non-finite value in {name} at "
                                     f"dataset row {train_idx[bad.argmax()]}")
    return table, [b.shape[1] for b in blocks]


class _RecordedStep:
    """The forward pass and loss of one training step, recorded once for
    one batch size and replayed for every later batch of that size.

    The tape reads its batch from `Constant` slots over two buffers of its
    own, which each step gathers its rows into: `x`, the input rows, and
    `rows`, the step's rows of the `_step_table`, whose fixed column views
    are the other slots."""

    def __init__(self, step, inputs: np.ndarray, table: np.ndarray,
                 widths: list, batch: np.ndarray, pos: np.ndarray, heads,
                 weights: LossWeights):
        self.inputs, self.table = inputs, table
        self.x = np.take(inputs, batch, axis=0)
        self.rows = np.take(table, pos, axis=0)
        treatments, labels, pathway, pathway_mask, bio, bio_mask, *aux = (
            Constant.prechecked(view) for view in
            np.split(self.rows, np.cumsum(widths)[:-1], axis=1))
        n = len(AUX_TASKS)
        targets = BatchTargets(
            response=labels, pathway=pathway, pathway_mask=pathway_mask,
            biomarkers=bio, biomarker_mask=bio_mask,
            aux=dict(zip(AUX_TASKS, aux[:n])),
            aux_masks=dict(zip(AUX_TASKS, aux[n:])))
        self.tape = Tape()
        out = step(self.tape, Constant.prechecked(self.x), treatments, heads)
        self.total, self.breakdown = composite_loss(self.tape, out, targets,
                                                    weights)

    def replay(self, batch: np.ndarray, pos: np.ndarray) -> None:
        """Gather rows `batch` of the inputs and rows `pos` of the table
        into the slots' buffers, and replay the tape."""
        # mode="raise" would gather into a temporary and copy it over; the
        # rows were indexed at loop entry, so "wrap" reads the same ones
        np.take(self.inputs, batch, axis=0, out=self.x, mode="wrap")
        np.take(self.table, pos, axis=0, out=self.rows, mode="wrap")
        self.tape.replay()


def train_model(model: Model, dataset: Dataset, train_idx: np.ndarray,
                x_norm: np.ndarray | None, weights: LossWeights,
                cfg: TrainConfig, seed: int,
                pooled: np.ndarray | None = None) -> list:
    """Minibatch training on one fold's training rows; returns per-epoch
    mean loss breakdowns. Adam trains the parameters that a step reaches
    (`Model.reached_parameters`), the encoder only under FFT.

    Each step feeds its rows of `inputs` to `Model.forward` when the
    encoder trains, `inputs` being `x_norm`, and to `Model.head` when it is
    frozen, `inputs` being the table of pooled rows: `pooled` (from
    `fold_inputs`, and then `x_norm` may be None), or else `x_norm`'s
    training rows pooled once. The first step of each batch size records
    that call and `composite_loss` on a tape (`_RecordedStep`); every
    later step of that size gathers its own rows, of `inputs` and of the
    `_step_table` joined at loop entry, into the recording's buffers and
    replays it. Every check runs once, at loop entry, before any parameter
    changes: a finiteness scan of the training rows of `inputs`, the
    gate's checks on the treatment rows (`treatment_constant`), the BCE's
    on the labels (`check_labels`) and a finiteness check of the joined
    target and mask blocks."""
    model.set_mode(cfg.mode)
    heads = tuple(h for h in SIDE_HEADS if getattr(weights, h) > 0)
    params = model.reached_parameters(heads)
    opt = Adam(params, lr=cfg.lr)
    rng = np.random.default_rng(seed)
    train_idx = np.asarray(train_idx)
    frozen = not model.params["encoder.gene_embedding"].trainable
    if pooled is not None and not frozen:
        raise ValueError("a pooled table needs a frozen encoder (PFT)")
    inputs, name = ((x_norm, "x_norm") if pooled is None
                    else (pooled, "the pooled table"))
    if not np.isfinite(inputs)[train_idx].all():
        raise NonFiniteError(
            f"non-finite value in the training rows of {name}")
    if frozen and pooled is None:
        pooled_rows = model.pooled_batch(
            Tape(), Constant.prechecked(x_norm[train_idx])).data
        inputs = np.zeros((len(x_norm), pooled_rows.shape[1]))
        inputs[train_idx] = pooled_rows
    step = model.head if frozen else model.forward
    table, widths = _step_table(dataset, train_idx)
    recorded = {}   # batch size -> _RecordedStep
    history = []
    for epoch in range(cfg.epochs):
        perm = rng.permutation(len(train_idx))
        order = train_idx[perm]
        sums, n_batches = {}, 0
        for start in range(0, len(perm), cfg.batch_size):
            rows = slice(start, start + cfg.batch_size)
            pos, batch = perm[rows], order[rows]
            zero_grads(params)
            graph = recorded.get(len(batch))
            if graph is None:
                graph = recorded[len(batch)] = _RecordedStep(
                    step, inputs, table, widths, batch, pos, heads, weights)
            else:
                graph.replay(batch, pos)
            diffcore.backward(graph.total, graph.tape)
            opt.step()
            for k, v in graph.breakdown.as_dict().items():
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


def fold_inputs(model: Model, dataset: Dataset, stats: NormalizationStats,
                mode: str) -> tuple[np.ndarray | None, np.ndarray | None]:
    """`(x_norm, table)`, what `train_model` reads for one fold, z-scored
    with `stats`, which the caller fit on the fold's training rows only
    (`fold_statistics` for a protocol run, `fit_normalization` for one).

    Under FFT the encoder trains, so each step pools the z-scored panel
    `x_norm` on its tape, and there is no table. Under PFT the encoder is
    frozen and a sample's pooled row is the same at every step: `table`
    holds every sample's, test rows included, pooled once by `model`
    straight from log-expression (`Model.pooled_normalized`), and no panel
    is z-scored."""
    logged = dataset.log_expression
    if mode != "pft":
        return apply_normalization(logged, stats), None
    return None, model.pooled_normalized(logged, stats)


def _run_fold_seed(dataset: Dataset, fold, fold_id: int,
                   stats: NormalizationStats, seed: int, runs: list,
                   train_cfg: TrainConfig) -> list:
    """One fold x seed task: build the fold's inputs once from its
    normalisation statistics `stats` (`fold_inputs`, from the task's first
    model), then train each (model config, loss weights) pair of `runs`
    from a fresh initialisation on the training rows and score it on the
    test rows. Returns one FoldSeedResult per run.

    Under FFT every run trains on the one z-scored panel and is scored with
    `predict_proba` on its test rows. Under PFT every run trains on the one
    pooled table, as `Model(cfg, seed)` draws the frozen embedding first
    and the runs differ only in gating and loss weights, and is scored on
    the table's test rows through `Model.head`, the call that a training
    step records."""
    test_idx = fold.test_idx
    treatments = dataset.treatments[test_idx]
    results = []
    for i, (model_cfg, weights) in enumerate(runs):
        model = Model(model_cfg, seed=seed)
        if i == 0:
            x_norm, table = fold_inputs(model, dataset, stats, train_cfg.mode)
        train_model(model, dataset, fold.train_idx, x_norm, weights,
                    train_cfg, seed, pooled=table)
        if table is None:
            probs = model.predict_proba(x_norm[test_idx], treatments)
        else:
            pooled = Constant(table[test_idx],
                              context="the test rows of the pooled table")
            probs = model.head(Tape(), pooled, treatments,
                               heads=()).prob.data.ravel()
        metrics = compute_metrics(probs, dataset.response[test_idx],
                                  train_cfg.threshold)
        results.append(FoldSeedResult(fold_id=fold_id, group=fold.group,
                                      seed=seed, metrics=metrics))
    return results


# the dataset of a --jobs worker process, set once by `_init_worker`
_WORKER_DATASET = None


def _init_worker(dataset: Dataset) -> None:
    global _WORKER_DATASET
    _WORKER_DATASET = dataset


def _run_task(args):
    """One fold x seed task in a --jobs worker, on the worker's dataset."""
    return _run_fold_seed(_WORKER_DATASET, *args)


def _distinct_runs(ablations, model_cfg: ModelConfig, weights: LossWeights,
                   mode: str) -> tuple[list, list]:
    """The (model config, loss weights) pairs to train, and for each
    ablation the index of the pair whose runs it reports.

    Under PFT the pathway head reads the frozen pooled embedding, so the
    pathway loss moves only `pathway.*` and cannot change a prediction:
    each configuration trains with pathway weight 0, which skips that head
    and its loss, and configurations that differ only in that weight
    report the same runs."""
    runs, keys, index = [], [], []
    for ab in ablations:
        key = ab.apply(model_cfg, weights)
        if mode == "pft":
            key = (key[0], replace(key[1], pathway=0.0))
        if key not in keys:
            keys.append(key)
        index.append(keys.index(key))
    return keys, index


def _run_configs(dataset: Dataset, protocol: str, seeds, ablations,
                 model_cfg: ModelConfig | None = None,
                 weights: LossWeights | None = None,
                 train_cfg: TrainConfig | None = None,
                 weighted: bool = False, jobs: int = 1) -> list:
    """One MetricsReport per ablation, from fold x seed tasks that each
    train every distinct configuration (see `_run_fold_seed`). Every fold's
    normalisation statistics come from one `fold_statistics` pass over the
    panel, made before the tasks, and each task carries its fold's."""
    if protocol not in PROTOCOL_KEYS:
        raise ValueError(f"unknown protocol: {protocol!r}")
    key = PROTOCOL_KEYS[protocol]
    plan = split_by_group(dataset, key)
    model_cfg = model_cfg or make_model_config(dataset)
    weights = weights or LossWeights()
    train_cfg = train_cfg or TrainConfig()
    runs, index = _distinct_runs(ablations, model_cfg, weights,
                                 train_cfg.mode)

    stats = fold_statistics(dataset.log_expression, plan)
    tasks = [(fold, fold_id, stats[fold_id], seed, runs, train_cfg)
             for fold_id, fold in enumerate(plan.folds)
             for seed in seeds]
    # the pool starts all its workers at once, so it gets no more than tasks
    workers = min(jobs, len(tasks))
    if workers > 1:
        # each worker receives the dataset once, not once per task
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(dataset,)) as pool:
            results = list(pool.map(_run_task, tasks))
    else:
        results = [_run_fold_seed(dataset, *t) for t in tasks]
    sizes = {fold.group: len(fold.test_idx) for fold in plan.folds}
    reports = []
    for i in range(len(runs)):
        rows = sorted((task[i] for task in results),
                      key=lambda r: (r.fold_id, r.seed))
        reports.append(MetricsReport(protocol=protocol, key=key, rows=rows,
                                     group_sizes=sizes, seeds=list(seeds),
                                     weighted=weighted))
    return [reports[i] for i in index]


def run_protocol(dataset: Dataset, protocol: str, seeds,
                 model_cfg: ModelConfig | None = None,
                 weights: LossWeights | None = None,
                 train_cfg: TrainConfig | None = None,
                 ablation: AblationConfig | None = None,
                 weighted: bool = False, jobs: int = 1) -> MetricsReport:
    """For each fold x seed: fresh model init, training on the fold's training
    rows with training-only normalization statistics, metrics on the test rows.
    Under PFT the training leaves out the pathway term (see `_distinct_runs`)."""
    [report] = _run_configs(dataset, protocol, seeds,
                            [ablation or AblationConfig()],
                            model_cfg=model_cfg, weights=weights,
                            train_cfg=train_cfg, weighted=weighted, jobs=jobs)
    return report


ABLATION_CONFIGS = {
    "full": AblationConfig(),
    "no_gating": AblationConfig(disable_gating=True),
    "no_pathway": AblationConfig(disable_pathway=True),
    "no_auxiliary": AblationConfig(disable_aux=True),
    "no_alignment": AblationConfig(disable_alignment=True),
}


def run_ablation(dataset: Dataset, protocol: str, seeds, **kwargs) -> dict:
    """Full model plus the four one-component-off configurations, trained
    fold by fold on one `fold_statistics` pass; takes `run_protocol`'s
    keywords except `ablation`. Under PFT every
    configuration trains without the pathway term and `no_pathway` reports
    `full`'s runs (see `_distinct_runs`)."""
    reports = _run_configs(dataset, protocol, seeds,
                           list(ABLATION_CONFIGS.values()), **kwargs)
    return dict(zip(ABLATION_CONFIGS, reports))


# ---- report emission --------------------------------------------------


PERFOLD_HEADER = ["fold_id", "group_value", "seed", "metric", "value"]


def write_perfold_csv(path, reports, lead_header=()) -> None:
    """One record per row x metric of each (lead cells, MetricsReport) pair
    of `reports`, under `lead_header` + PERFOLD_HEADER. csv quotes a cell
    that needs it, such as a group name with a comma; an NA metric is "NA"."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow([*lead_header, *PERFOLD_HEADER])
        for lead, report in reports:
            for r in report.rows:
                for metric in METRIC_NAMES:
                    v = r.metrics.get(metric)
                    writer.writerow([*lead, r.fold_id, r.group, r.seed, metric,
                                     "NA" if v is None else repr(v)])


def aggregate_cells(report: MetricsReport):
    """(bucket, metric, mean, ci_low, ci_high, n) for each cell of
    `report.aggregates()`, in BUCKETS x METRIC_NAMES order; a metric that
    is NA in every fold of a bucket has no cell."""
    agg = report.aggregates()
    return ((b, m, *agg[b][m]) for b in BUCKETS for m in METRIC_NAMES
            if m in agg[b])


def write_aggregate_csv(path, reports, lead_header=()) -> None:
    """One record per `aggregate_cells` cell of each (lead cells,
    MetricsReport) pair of `reports`, floats as `repr` writes them; csv
    quotes a cell that needs it, such as a method name with a comma."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow([*lead_header, "bucket", "metric", "mean", "ci_low",
                         "ci_high", "n"])
        for lead, report in reports:
            for bucket, metric, mean, lo, hi, n in aggregate_cells(report):
                writer.writerow([*lead, bucket, metric,
                                 repr(mean), repr(lo), repr(hi), n])


def emit_report(report: MetricsReport, out_dir) -> None:
    if not report.rows:
        raise ValueError("cannot emit an empty report")
    os.makedirs(out_dir, exist_ok=True)
    write_perfold_csv(os.path.join(out_dir, "perfold.csv"), [((), report)])
    write_aggregate_csv(os.path.join(out_dir, "aggregate.csv"), [((), report)])
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
                     f'font-size="10" text-anchor="middle">{_xml_text(group)}'
                     f'</text>')
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


def _xml_text(text: str) -> str:
    """`text` with the characters XML reserves in element content escaped."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def read_perfold_csv(path) -> list:
    """Re-ingest an emitted per-fold CSV into FoldSeedResult rows."""
    rows = {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != PERFOLD_HEADER:
            raise ValueError(f"unexpected perfold header: {header}")
        for fold_id, group, seed, metric, value in reader:
            key = (int(fold_id), group, int(seed))
            rows.setdefault(key, {})[metric] = (
                None if value == "NA" else float(value))
    return [FoldSeedResult(fold_id=k[0], group=k[1], seed=k[2], metrics=m)
            for k, m in sorted(rows.items())]
