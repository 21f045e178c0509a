"""Biomarker-signature and simple-ML baselines.

Three signature kinds: mean over a gene set, sum of pairwise expression-ratio
indicators, and the first principal component of a gene set. Each signature
feeds an L2 logistic regression, fitted by scipy's L-BFGS-B on the loss and
gradient of the differentiation core, recorded once per fit and replayed at
each evaluation; there are also plain LR baselines on precomputed biomarker
columns and on expression (optionally PCA-compressed first). Principal axes
come from one thin SVD of the centred training rows.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import diffcore
from .data import Dataset, fit_normalization, apply_normalization, split_by_group
from .diffcore import Constant, Tape, Tensor, check_labels
from .evaluation import (FoldSeedResult, MetricsReport, PROTOCOL_KEYS,
                         compute_metrics)

L2 = 1.0              # L2 penalty of every baseline's logistic regression
PCA_COMPONENTS = 8    # principal axes kept by pca_lr_expression
MAX_ITERS = 5000      # L-BFGS-B iteration cap of fit_logreg
GRAD_TOL = 1e-6       # gradient 2-norm at which a fit counts as converged


class SignatureError(ValueError):
    """A signature cannot be scored on this dataset."""


@dataclass
class SignatureDef:
    name: str
    kind: str  # gene_set_mean | gene_pair_ratio_sum | pc1
    genes: tuple = ()        # for gene_set_mean / pc1
    pairs: tuple = ()        # for gene_pair_ratio_sum: ((a, b), ...)

    def __post_init__(self):
        if self.kind not in ("gene_set_mean", "gene_pair_ratio_sum", "pc1"):
            raise ValueError(f"unknown signature kind: {self.kind!r}")
        if self.kind == "gene_pair_ratio_sum":
            if not self.pairs:
                raise ValueError(f"signature {self.name}: no gene pairs")
        elif not self.genes:
            raise ValueError(f"signature {self.name}: empty gene list")


def parse_signature_file(path) -> list:
    """One signature per block (blank-line separated):

        name <id>
        kind gene_set_mean | pc1 | gene_pair_ratio_sum
        genes A B C            # or, for pairs:
        pairs A:B C:D

    A malformed line raises ValueError naming the path and line; a block
    that lacks a field or fails `SignatureDef`'s checks names the line it
    starts on.
    """
    defs = []
    block: dict = {}
    start = 0  # the line the current block starts on

    def flush():
        if not block:
            return
        where = f"{path}: block at line {start}"
        for key in ("name", "kind"):
            if key not in block:
                raise ValueError(f"{where}: missing {key!r} line")
        try:
            defs.append(SignatureDef(name=block["name"], kind=block["kind"],
                                     genes=tuple(block.get("genes", ())),
                                     pairs=tuple(block.get("pairs", ()))))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        block.clear()

    with open(path) as f:
        for line_no, line in enumerate(f, 1):
            line = line.split("#")[0].strip()
            if not line:
                flush()
                continue
            if not block:
                start = line_no
            key, *rest = line.split()
            where = f"{path}: line {line_no}"
            if key in block:  # e.g. a missing blank line between blocks
                raise ValueError(f"{where}: second {key!r} line in the "
                                 f"block at line {start}")
            if key in ("name", "kind"):
                if len(rest) != 1:
                    raise ValueError(f"{where}: {key!r} takes one value, "
                                     f"got {len(rest)}")
                block[key] = rest[0]
            elif key == "genes":
                block[key] = rest
            elif key == "pairs":
                pairs = [tuple(p.split(":")) for p in rest]
                for p, pair in zip(rest, pairs):
                    if len(pair) != 2 or not all(pair):
                        raise ValueError(f"{where}: gene pair {p!r} is not "
                                         f"of the form A:B")
                block[key] = pairs
            else:
                raise ValueError(f"{where}: unknown signature field {key!r}")
    flush()
    return defs


def _resolve_genes(dataset: Dataset, sig: SignatureDef, genes) -> list:
    index = {g: i for i, g in enumerate(dataset.gene_names)}
    found = [index[g] for g in genes if g in index]
    missing = len(genes) - len(found)
    if missing:
        warnings.warn(f"signature {sig.name}: {missing} gene(s) not in dataset, "
                      "dropped")
    if not found:
        raise SignatureError(f"signature {sig.name}: all genes missing")
    return found


def principal_axes(rows: np.ndarray, k: int) -> tuple:
    """Column means of `rows` and, as the columns of a [G, min(k, n, G)]
    matrix, its k leading principal axes: the right singular vectors of the
    centred rows. Each axis is signed so that its first entry is >= 0."""
    mean = rows.mean(axis=0)
    _, _, vt = np.linalg.svd(rows - mean, full_matrices=False)
    axes = vt[:k].T
    return mean, np.where(axes[0] < 0, -axes, axes)


def signature_score(dataset: Dataset, sig: SignatureDef,
                    train_idx: np.ndarray) -> np.ndarray:
    """One score per sample. Mean and PC1 kinds work on the signature's genes,
    log expression standardized on the training rows; pair-ratio indicators
    compare log expression directly (z-scoring would break cross-gene
    comparability)."""
    logged = dataset.log_expression
    if sig.kind == "gene_pair_ratio_sum":
        score = np.zeros(len(dataset))
        kept = 0
        for a, b in sig.pairs:
            try:
                ia = _resolve_genes(dataset, sig, [a])[0]
                ib = _resolve_genes(dataset, sig, [b])[0]
            except SignatureError:
                continue
            score += (logged[:, ia] > logged[:, ib]).astype(np.float64)
            kept += 1
        if kept == 0:
            raise SignatureError(f"signature {sig.name}: no resolvable pairs")
        return score
    train = np.asarray(train_idx)
    genes = logged[:, _resolve_genes(dataset, sig, sig.genes)]
    z = apply_normalization(genes, fit_normalization(genes, train))
    if sig.kind == "gene_set_mean":
        return z.mean(axis=1)
    # pc1: leading axis of the training rows, signed to load positively on
    # the first gene in the set
    _, axes = principal_axes(z[train], 1)
    return z @ axes[:, 0]


# ---- logistic regression ---------------------------------------------


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float
    feature_mean: np.ndarray
    feature_std: np.ndarray
    converged: bool = False

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        x = (np.atleast_2d(features) - self.feature_mean) / self.feature_std
        return Tape().sigmoid(Constant(x @ self.weights + self.bias)).data


def fit_logreg(features: np.ndarray, labels: np.ndarray, l2: float = L2,
               seed: int = 0) -> LinearModel:
    """L2-regularized logistic regression on standardized features, minimized
    by L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) on the loss and gradient that
    the differentiation core computes, plus the penalty added in numpy.
    `converged` means the gradient's 2-norm at the returned solution is at
    most `GRAD_TOL`.

    The standardized features and the labels are checked once per fit,
    with the checks of `tape.constant` (finite) and `Tape.bce`
    (`check_labels`). The loss is recorded once, at the starting point;
    each evaluation binds `theta` into the weight and bias leaves and
    replays it, so a non-finite `theta` is caught by the replay's check
    of the `linear` output."""
    # imported here: scipy.optimize adds about 0.3 s to every CLI start-up
    from scipy.optimize import minimize

    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.float64)
    if len(set(labels.tolist())) < 2:
        raise ValueError("logistic regression needs both classes in training")
    n, d = features.shape
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    x = Constant((features - mean) / std)
    y = Constant.prechecked(check_labels(labels)[:, None])
    c = 0.5 * l2 / n
    rng = np.random.default_rng(seed)
    theta0 = np.append(0.01 * rng.normal(size=d), 0.0)
    tape = Tape()
    w, b = Tensor(theta0[:d, None]), Tensor(theta0[d:])
    loss = tape.bce(tape.sigmoid(tape.linear(x, w, b)), y)

    def loss_and_grad(theta):
        w.data, b.data = theta[:d, None], theta[d:]
        w.grad = b.grad = None
        tape.replay()
        diffcore.backward(loss, tape)
        value = loss.data + np.sum(w.data * w.data) * c
        grad_w = w.grad[:, 0] + 2.0 * c * theta[:d]
        return float(value), np.concatenate([grad_w, b.grad])

    # gtol bounds each gradient entry, so the 2-norm is at most GRAD_TOL
    res = minimize(loss_and_grad, theta0, jac=True, method="L-BFGS-B",
                   options={"maxiter": MAX_ITERS, "ftol": 0.0,
                            "gtol": GRAD_TOL / np.sqrt(d + 1)})
    return LinearModel(weights=res.x[:d].copy(), bias=float(res.x[d]),
                       feature_mean=mean, feature_std=std,
                       converged=bool(np.linalg.norm(res.jac) <= GRAD_TOL))


# ---- baseline runner --------------------------------------------------


def default_signatures(dataset: Dataset) -> list:
    """Small placeholder signatures over the dataset's leading genes; real
    gene lists come from a signature definition file."""
    g = dataset.gene_names
    defs = []
    if len(g) >= 10:
        defs.append(SignatureDef("sig_mean10", "gene_set_mean", genes=tuple(g[:10])))
    if len(g) >= 20:
        defs.append(SignatureDef("sig_pc1_20", "pc1", genes=tuple(g[10:30])))
    if len(g) >= 40:
        pairs = tuple((g[30 + 2 * j], g[31 + 2 * j]) for j in range(5))
        defs.append(SignatureDef("sig_pairs5", "gene_pair_ratio_sum", pairs=pairs))
    return defs


@dataclass
class BaselineResult:
    method: str
    report: MetricsReport


def _pca_features(x: np.ndarray, train_idx: np.ndarray) -> np.ndarray:
    mean, axes = principal_axes(x[train_idx], PCA_COMPONENTS)
    return (x - mean) @ axes


def run_baselines(dataset: Dataset, protocol: str, seeds,
                  signatures: list | None = None,
                  weighted: bool = False) -> list:
    """Per baseline: fold-wise feature construction (training-fold fitted),
    logistic regression, and the shared metric suite; `weighted` as in
    `run_protocol`. A fold whose training labels hold one class is skipped
    with a warning."""
    if protocol not in PROTOCOL_KEYS:
        raise ValueError(f"unknown protocol: {protocol!r}")
    plan = split_by_group(dataset, PROTOCOL_KEYS[protocol])
    sizes = {fold.group: len(fold.test_idx) for fold in plan.folds}
    if signatures is None:
        signatures = default_signatures(dataset)

    methods = [(f"sig_{s.name}" if not s.name.startswith("sig") else s.name,
                ("signature", s)) for s in signatures]
    if dataset.biomarkers.shape[1] > 0:
        methods.append(("lr_biomarkers", ("biomarkers", None)))
    methods.append(("lr_expression", ("expression", None)))
    methods.append(("pca_lr_expression", ("pca_expression", None)))

    results = []
    for method_name, (kind, sig) in methods:
        rows = []
        for fold_id, fold in enumerate(plan.folds):
            try:
                feats = _baseline_features(dataset, kind, sig, fold.train_idx)
            except SignatureError as exc:
                warnings.warn(f"{method_name}: {exc}; skipped")
                break
            train_y = dataset.response[fold.train_idx]
            if len(np.unique(train_y)) < 2:
                warnings.warn(f"{method_name} fold {fold.group}: training "
                              "labels hold a single class; fold skipped")
                continue
            for seed in seeds:
                lm = fit_logreg(feats[fold.train_idx], train_y, seed=seed)
                probs = lm.predict_proba(feats[fold.test_idx])
                rows.append(FoldSeedResult(
                    fold_id=fold_id, group=fold.group, seed=seed,
                    metrics=compute_metrics(probs,
                                            dataset.response[fold.test_idx])))
        if rows:
            results.append(BaselineResult(
                method=method_name,
                report=MetricsReport(protocol=protocol,
                                     key=PROTOCOL_KEYS[protocol], rows=rows,
                                     group_sizes=sizes, seeds=list(seeds),
                                     weighted=weighted)))
    return results


def _baseline_features(dataset: Dataset, kind: str, sig, train_idx
                       ) -> np.ndarray:
    if kind == "signature":
        return signature_score(dataset, sig, train_idx)[:, None]
    if kind == "biomarkers":
        return _filled_biomarkers(dataset, np.asarray(train_idx))
    logged = dataset.log_expression
    if kind == "expression":
        return logged
    if kind == "pca_expression":
        return _pca_features(logged, np.asarray(train_idx))
    raise ValueError(f"unknown baseline kind: {kind!r}")


def _filled_biomarkers(dataset: Dataset, train_idx: np.ndarray) -> np.ndarray:
    """Biomarker columns with each masked cell set to its column's observed
    mean over the training rows; a column no training row observes is 0
    throughout."""
    seen = dataset.biomarker_mask > 0
    counts = seen[train_idx].sum(axis=0)
    fill = (np.where(seen[train_idx], dataset.biomarkers[train_idx], 0.0)
            .sum(axis=0) / np.maximum(counts, 1))
    return np.where(seen & (counts > 0), dataset.biomarkers, fill)
