"""Biomarker-signature and simple-ML baselines.

Three signature kinds: mean over a gene set, sum of pairwise expression-ratio
indicators, and the first principal component of a gene set (power iteration).
Each signature feeds an L2 logistic regression, fitted by scipy's L-BFGS-B on
the loss and gradient of the differentiation core; there are also plain LR
baselines on precomputed biomarker columns and on expression (optionally
PCA-compressed first).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import diffcore
from .data import Dataset, fit_normalization, apply_normalization, split_by_group
from .diffcore import Tape, Tensor
from .evaluation import (FoldSeedResult, MetricsReport, PROTOCOL_KEYS,
                         compute_metrics)


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
    """
    defs = []
    block: dict = {}

    def flush():
        if not block:
            return
        pairs = tuple(tuple(p.split(":")) for p in block.get("pairs", []))
        defs.append(SignatureDef(name=block["name"], kind=block["kind"],
                                 genes=tuple(block.get("genes", ())),
                                 pairs=pairs))
        block.clear()

    with open(path) as f:
        for line in f:
            line = line.split("#")[0].strip()
            if not line:
                flush()
                continue
            key, *rest = line.split()
            if key in ("name", "kind"):
                block[key] = rest[0]
            elif key in ("genes", "pairs"):
                block[key] = rest
            else:
                raise ValueError(f"{path}: unknown signature field {key!r}")
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


def power_iteration_pc1(cov: np.ndarray, seed: int = 0, max_iters: int = 500,
                        tol: float = 1e-10) -> np.ndarray:
    """Leading eigenvector of a symmetric PSD matrix by power iteration."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=cov.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(max_iters):
        w = cov @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return v
        w /= norm
        if np.linalg.norm(w - v) < tol or np.linalg.norm(w + v) < tol:
            v = w
            break
        v = w
    return v


def signature_score(dataset: Dataset, sig: SignatureDef,
                    train_idx: np.ndarray) -> np.ndarray:
    """One score per sample. Mean and PC1 kinds work on training-standardized
    log expression; pair-ratio indicators compare log expression directly
    (z-scoring would break cross-gene comparability)."""
    stats = fit_normalization(dataset.expression, np.asarray(train_idx))
    logged = np.log2(dataset.expression + 1.0)
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
    idx = _resolve_genes(dataset, sig, sig.genes)
    z = apply_normalization(dataset.expression, stats)[:, idx]
    if sig.kind == "gene_set_mean":
        return z.mean(axis=1)
    # pc1: leading component of the training-fold covariance, sign fixed to
    # correlate positively with the first gene in the set
    train = np.asarray(train_idx)
    centered = z[train] - z[train].mean(axis=0)
    cov = centered.T @ centered / max(len(train) - 1, 1)
    v = power_iteration_pc1(cov)
    if v[0] < 0:
        v = -v
    return z @ v


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
        return diffcore._stable_sigmoid(x @ self.weights + self.bias)


def fit_logreg(features: np.ndarray, labels: np.ndarray, l2: float = 1.0,
               max_iters: int = 5000, grad_tol: float = 1e-6,
               seed: int = 0) -> LinearModel:
    """L2-regularized logistic regression on standardized features, minimized
    by L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) on the loss and gradient that
    the differentiation core computes. `converged` means the gradient's
    2-norm at the returned solution is at most `grad_tol`."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.float64)
    if len(set(labels.tolist())) < 2:
        raise ValueError("logistic regression needs both classes in training")
    n, d = features.shape
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    x = (features - mean) / std

    def loss_and_grad(theta):
        tape = Tape()
        w, b = Tensor(theta[:d, None]), Tensor(theta[d:])
        logits = tape.add_bias(tape.matmul(tape.constant(x), w), b)
        loss = tape.bce(tape.sigmoid(logits), labels[:, None])
        if l2 > 0:
            loss = tape.add(loss, tape.scale(tape.sum_squares(w), 0.5 * l2 / n))
        diffcore.backward(loss, tape)
        return float(loss.data), np.concatenate([w.grad[:, 0], b.grad])

    rng = np.random.default_rng(seed)
    theta0 = np.append(0.01 * rng.normal(size=d), 0.0)
    # gtol bounds each gradient entry, so the 2-norm is at most grad_tol
    res = minimize(loss_and_grad, theta0, jac=True, method="L-BFGS-B",
                   options={"maxiter": max_iters, "ftol": 0.0,
                            "gtol": grad_tol / np.sqrt(d + 1)})
    return LinearModel(weights=res.x[:d].copy(), bias=float(res.x[d]),
                       feature_mean=mean, feature_std=std,
                       converged=bool(np.linalg.norm(res.jac) <= grad_tol))


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


def _pca_features(x: np.ndarray, train_idx: np.ndarray, n_components: int,
                  seed: int = 0) -> np.ndarray:
    train = x[train_idx]
    mean = train.mean(axis=0)
    centered = train - mean
    cov = centered.T @ centered / max(len(train_idx) - 1, 1)
    comps = []
    for k in range(n_components):
        v = power_iteration_pc1(cov, seed=seed + k)
        comps.append(v)
        lam = float(v @ cov @ v)
        cov = cov - lam * np.outer(v, v)   # deflation
    basis = np.stack(comps, axis=1)
    return (x - mean) @ basis


def run_baselines(dataset: Dataset, protocol: str, seeds,
                  signatures: list | None = None, l2: float = 1.0,
                  pca_components: int = 8) -> list:
    """Per baseline: fold-wise feature construction (training-fold fitted),
    logistic regression, and the shared metric suite."""
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
                feats = _baseline_features(dataset, kind, sig, fold.train_idx,
                                           pca_components)
            except SignatureError as exc:
                warnings.warn(f"{method_name}: {exc}; skipped")
                break
            for seed in seeds:
                train_y = dataset.response[fold.train_idx]
                try:
                    lm = fit_logreg(feats[fold.train_idx], train_y, l2=l2,
                                    seed=seed)
                except ValueError as exc:
                    warnings.warn(f"{method_name} fold {fold.group}: {exc}; "
                                  "fold skipped")
                    continue
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
                                     group_sizes=sizes, seeds=list(seeds))))
    return results


def _baseline_features(dataset: Dataset, kind: str, sig, train_idx,
                       pca_components: int) -> np.ndarray:
    if kind == "signature":
        return signature_score(dataset, sig, train_idx)[:, None]
    if kind == "biomarkers":
        return dataset.biomarkers
    logged = np.log2(dataset.expression + 1.0)
    if kind == "expression":
        return logged
    if kind == "pca_expression":
        return _pca_features(logged, np.asarray(train_idx), pca_components)
    raise ValueError(f"unknown baseline kind: {kind!r}")
