"""Cohort schema, CSV ingestion, normalization, group splits, and a synthetic
cohort generator with planted treatment-dependent signal.

CSV layout (one row per sample): reserved columns
`sample_id, cohort_id, cancer_type, treatment, response`, expression columns
`expr_<gene>`, pathway columns `pw_1..pw_42`, biomarker columns `bm_*`, and
auxiliary target columns `tide_*, ipres_*, pheno_*`. Empty cells mark missing
values; missingness is tracked in masks, never zero-filled.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .model import N_PATHWAYS, TreatmentTarget, BASE_TARGETS

RESERVED_COLUMNS = ("sample_id", "cohort_id", "cancer_type", "treatment", "response")

SYNTH_TREATMENTS = ("PD-1", "PD-L1", "CTLA-4", "CTLA-4+PD-1")
SYNTH_CANCER_TYPES = ("BLCA", "KIRC", "SKCM", "STAD")


class SchemaError(ValueError):
    """A row or column violates the cohort CSV contract."""


@dataclass
class CohortRecord:
    sample_id: str
    cohort_id: str
    cancer_type: str
    treatment: TreatmentTarget
    expression: np.ndarray
    response: int
    pathway: np.ndarray | None = None
    biomarkers: np.ndarray | None = None
    tide: np.ndarray | None = None
    ipres: np.ndarray | None = None
    pheno: np.ndarray | None = None


@dataclass
class Dataset:
    """Immutable column-oriented cohort table with per-group missingness masks."""

    gene_names: list
    sample_ids: list
    cohort_ids: np.ndarray       # [N] str
    cancer_types: np.ndarray     # [N] str
    treatment_tokens: np.ndarray  # [N] str
    treatments: np.ndarray       # [N, 3] multi-hot
    expression: np.ndarray       # [N, G] TPM
    response: np.ndarray         # [N] in {0,1}
    pathway: np.ndarray          # [N, 42]; 0 where missing
    pathway_mask: np.ndarray     # [N, 42] in {0,1}
    biomarkers: np.ndarray       # [N, d_b]
    biomarker_mask: np.ndarray
    tide: np.ndarray
    tide_mask: np.ndarray
    ipres: np.ndarray
    ipres_mask: np.ndarray
    pheno: np.ndarray
    pheno_mask: np.ndarray
    biomarker_names: list = field(default_factory=list)

    def __len__(self):
        return len(self.sample_ids)

    @property
    def dims(self) -> dict:
        return {
            "G": self.expression.shape[1],
            "d_b": self.biomarkers.shape[1],
            "d_T": self.tide.shape[1],
            "d_I": self.ipres.shape[1],
            "d_P": self.pheno.shape[1],
        }

    def record(self, i: int) -> CohortRecord:
        def opt(values, mask):
            return values[i] if mask[i].any() else None
        return CohortRecord(
            sample_id=self.sample_ids[i],
            cohort_id=str(self.cohort_ids[i]),
            cancer_type=str(self.cancer_types[i]),
            treatment=TreatmentTarget.from_token(str(self.treatment_tokens[i])),
            expression=self.expression[i],
            response=int(self.response[i]),
            pathway=opt(self.pathway, self.pathway_mask),
            biomarkers=opt(self.biomarkers, self.biomarker_mask),
            tide=opt(self.tide, self.tide_mask),
            ipres=opt(self.ipres, self.ipres_mask),
            pheno=opt(self.pheno, self.pheno_mask),
        )

    def group_values(self, key: str) -> np.ndarray:
        if key == "cohort":
            return self.cohort_ids
        if key == "cancer_type":
            return self.cancer_types
        if key == "treatment":
            return self.treatment_tokens
        raise ValueError(f"unknown group key: {key!r}")


@dataclass
class Fold:
    group: str
    test_idx: np.ndarray
    train_idx: np.ndarray


@dataclass
class FoldPlan:
    key: str
    folds: list


def split_by_group(dataset: Dataset, key: str) -> FoldPlan:
    """One fold per distinct group value: test = group, train = complement."""
    values = dataset.group_values(key)
    groups = sorted(set(str(v) for v in values))
    if len(groups) < 2:
        raise ValueError(
            f"leave-one-group-out needs >= 2 distinct {key} values, got {groups}")
    all_idx = np.arange(len(dataset))
    folds = []
    for g in groups:
        mask = values == g
        folds.append(Fold(group=g, test_idx=all_idx[mask], train_idx=all_idx[~mask]))
    return FoldPlan(key=key, folds=folds)


# ---- normalization ----------------------------------------------------


@dataclass
class NormalizationStats:
    mean: np.ndarray
    std: np.ndarray   # zero-variance genes clamped to 1


def fit_normalization(tpm: np.ndarray, train_idx: np.ndarray) -> NormalizationStats:
    if len(train_idx) == 0:
        raise ValueError("normalization needs a nonempty training set")
    logged = np.log2(tpm[train_idx] + 1.0)
    mean = logged.mean(axis=0)
    std = logged.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return NormalizationStats(mean=mean, std=std)


def apply_normalization(tpm: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    return (np.log2(tpm + 1.0) - stats.mean) / stats.std


def normalize(dataset: Dataset, train_idx: np.ndarray
              ) -> tuple[np.ndarray, NormalizationStats]:
    """log2(TPM+1) then per-gene z-score with statistics fit on training rows
    only; test rows are transformed with the training statistics."""
    stats = fit_normalization(dataset.expression, np.asarray(train_idx))
    return apply_normalization(dataset.expression, stats), stats


# ---- CSV ingestion ----------------------------------------------------


def _parse_float_block(row: dict, cols: list, row_no: int) -> tuple[np.ndarray, np.ndarray]:
    values = np.zeros(len(cols))
    mask = np.zeros(len(cols))
    for j, col in enumerate(cols):
        cell = row[col].strip()
        if cell == "":
            continue
        try:
            values[j] = float(cell)
        except ValueError:
            raise SchemaError(f"row {row_no}: column {col!r} is not numeric: {cell!r}")
        mask[j] = 1.0
    return values, mask


def _reject_cells(path, bad: np.ndarray, cols: list, what: str) -> None:
    """SchemaError naming the first flagged cell of an assembled block."""
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise SchemaError(f"{path}: row {i + 2}: {what} in column {cols[j]!r}")


def load_csv(path) -> Dataset:
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: empty file, header row required")
        header = reader.fieldnames
        seen = set()
        for col in header:
            if col in seen:
                raise SchemaError(f"{path}: duplicate column {col!r} in header")
            seen.add(col)
        for col in RESERVED_COLUMNS:
            if col not in header:
                raise SchemaError(f"{path}: missing reserved column {col!r}")
        expr_cols = [c for c in header if c.startswith("expr_")]
        pw_cols = [c for c in header if c.startswith("pw_")]
        bm_cols = [c for c in header if c.startswith("bm_")]
        tide_cols = [c for c in header if c.startswith("tide_")]
        ipres_cols = [c for c in header if c.startswith("ipres_")]
        pheno_cols = [c for c in header if c.startswith("pheno_")]
        if not expr_cols:
            raise SchemaError(f"{path}: no expr_ columns found")
        if pw_cols and len(pw_cols) != N_PATHWAYS:
            raise SchemaError(
                f"{path}: expected {N_PATHWAYS} pw_ columns, found {len(pw_cols)}")

        rows = {k: [] for k in ("sample_id", "cohort_id", "cancer_type",
                                "treatment", "response", "expr", "pw", "pw_m",
                                "bm", "bm_m", "tide", "tide_m", "ipres",
                                "ipres_m", "pheno", "pheno_m")}
        n_cols = len(header)
        sample_rows = {}
        for row_no, row in enumerate(reader, start=2):
            if None in row or any(v is None for v in row.values()):
                raise SchemaError(f"{path}: row {row_no}: ragged row "
                                  f"(expected {n_cols} cells)")
            for key in ("sample_id", "cohort_id", "cancer_type"):
                if not row[key].strip():
                    raise SchemaError(f"{path}: row {row_no}: empty {key}")
            try:
                treatment = TreatmentTarget.from_token(row["treatment"])
            except ValueError as exc:
                raise SchemaError(f"{path}: row {row_no}: {exc}")
            resp = row["response"].strip()
            if resp not in ("0", "1"):
                raise SchemaError(
                    f"{path}: row {row_no}: response must be 0 or 1, got {resp!r}")
            sample_id = row["sample_id"].strip()
            if sample_id in sample_rows:
                raise SchemaError(
                    f"{path}: row {row_no}: duplicate sample_id {sample_id!r} "
                    f"(first in row {sample_rows[sample_id]})")
            sample_rows[sample_id] = row_no
            expr, expr_mask = _parse_float_block(row, expr_cols, row_no)
            if not expr_mask.all():
                missing = expr_cols[int(np.argmin(expr_mask))]
                raise SchemaError(
                    f"{path}: row {row_no}: expression cell {missing!r} is empty")
            rows["sample_id"].append(sample_id)
            rows["cohort_id"].append(row["cohort_id"].strip())
            rows["cancer_type"].append(row["cancer_type"].strip())
            rows["treatment"].append(treatment.token())
            rows["response"].append(int(resp))
            rows["expr"].append(expr)
            for name, cols in (("pw", pw_cols), ("bm", bm_cols),
                               ("tide", tide_cols), ("ipres", ipres_cols),
                               ("pheno", pheno_cols)):
                vals, mask = _parse_float_block(row, cols, row_no)
                rows[name].append(vals)
                rows[name + "_m"].append(mask)

    if not rows["sample_id"]:
        raise SchemaError(f"{path}: no data rows")

    expression = np.asarray(rows["expr"])
    _reject_cells(path, ~np.isfinite(expression), expr_cols, "non-finite TPM")
    _reject_cells(path, expression < 0, expr_cols, "negative TPM")

    def block(name, cols):
        values = np.asarray(rows[name])
        _reject_cells(path, ~np.isfinite(values), cols, "non-finite value")
        return values, np.asarray(rows[name + "_m"])

    pw, pw_m = block("pw", pw_cols)
    bm, bm_m = block("bm", bm_cols)
    tide, tide_m = block("tide", tide_cols)
    ipres, ipres_m = block("ipres", ipres_cols)
    pheno, pheno_m = block("pheno", pheno_cols)
    tokens = np.asarray(rows["treatment"], dtype=object)
    return Dataset(
        gene_names=[c[len("expr_"):] for c in expr_cols],
        sample_ids=rows["sample_id"],
        cohort_ids=np.asarray(rows["cohort_id"], dtype=object),
        cancer_types=np.asarray(rows["cancer_type"], dtype=object),
        treatment_tokens=tokens,
        treatments=np.stack([TreatmentTarget.from_token(str(t)).multihot()
                             for t in tokens]),
        expression=expression,
        response=np.asarray(rows["response"], dtype=np.int64),
        pathway=pw, pathway_mask=pw_m,
        biomarkers=bm, biomarker_mask=bm_m,
        tide=tide, tide_mask=tide_m,
        ipres=ipres, ipres_mask=ipres_m,
        pheno=pheno, pheno_mask=pheno_m,
        biomarker_names=[c[len("bm_"):] for c in bm_cols],
    )


def write_csv(dataset: Dataset, path) -> None:
    header = list(RESERVED_COLUMNS)
    header += [f"expr_{g}" for g in dataset.gene_names]
    header += [f"pw_{j + 1}" for j in range(dataset.pathway.shape[1])]
    bm_names = dataset.biomarker_names or [
        f"b{j + 1}" for j in range(dataset.biomarkers.shape[1])]
    header += [f"bm_{n}" for n in bm_names]
    header += [f"tide_{j + 1}" for j in range(dataset.tide.shape[1])]
    header += [f"ipres_{j + 1}" for j in range(dataset.ipres.shape[1])]
    header += [f"pheno_{j + 1}" for j in range(dataset.pheno.shape[1])]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for i in range(len(dataset)):
            row = [dataset.sample_ids[i], str(dataset.cohort_ids[i]),
                   str(dataset.cancer_types[i]), str(dataset.treatment_tokens[i]),
                   str(int(dataset.response[i]))]
            row += [repr(float(v)) for v in dataset.expression[i]]
            for values, mask in ((dataset.pathway[i], dataset.pathway_mask[i]),
                                 (dataset.biomarkers[i], dataset.biomarker_mask[i]),
                                 (dataset.tide[i], dataset.tide_mask[i]),
                                 (dataset.ipres[i], dataset.ipres_mask[i]),
                                 (dataset.pheno[i], dataset.pheno_mask[i])):
                row += [repr(float(v)) if m else "" for v, m in zip(values, mask)]
            writer.writerow(row)


# ---- synthetic generator ----------------------------------------------


def default_active_concepts() -> dict:
    """Disjoint latent pairs per treatment target: each treatment's response
    is driven by its own latents, so treatment-blind models dilute signal."""
    return {
        "PD-1": (0, 1),
        "PD-L1": (2, 3),
        "CTLA-4": (4, 5),
        "CTLA-4+PD-1": (6, 7),
    }


@dataclass
class SyntheticSpec:
    n_cohorts: int = 8
    samples_per_cohort: tuple = (60, 70, 80, 90, 30, 35, 40, 45)
    n_genes: int = 512
    n_latents: int = 8
    signal_strength: float = 3.0
    noise_scale: float = 0.7
    seed: int = 0
    biomarker_dim: int = 8
    tide_dim: int = 1
    ipres_dim: int = 1
    pheno_dim: int = 3
    active_concepts: dict = field(default_factory=default_active_concepts)

    def __post_init__(self):
        if self.signal_strength < 0:
            raise ValueError("signal_strength must be nonnegative")
        if len(self.samples_per_cohort) != self.n_cohorts:
            raise ValueError("samples_per_cohort length must equal n_cohorts")


@dataclass
class SyntheticTruth:
    """Generator internals kept for oracle checks (never fed to models)."""
    latents: np.ndarray        # [N, K]
    logits: np.ndarray         # [N] signal part incl. noise draw
    oracle_scores: np.ndarray  # [N] noise-free treatment-aware score


def generate_synthetic_with_truth(spec: SyntheticSpec
                                  ) -> tuple[Dataset, SyntheticTruth]:
    rng = np.random.default_rng(spec.seed)
    K = spec.n_latents
    G = spec.n_genes

    gene_loadings = rng.normal(0.0, 1.0, size=(G, K)) / np.sqrt(K)
    gene_base = rng.uniform(3.0, 6.0, size=G)
    pathway_map = rng.normal(0.0, 1.0, size=(K, N_PATHWAYS))
    biomarker_map = rng.normal(0.0, 1.0, size=(K, spec.biomarker_dim))
    aux_maps = {
        "tide": rng.normal(0.0, 1.0, size=(K, spec.tide_dim)),
        "ipres": rng.normal(0.0, 1.0, size=(K, spec.ipres_dim)),
        "pheno": rng.normal(0.0, 1.0, size=(K, spec.pheno_dim)),
    }

    all_latents, all_logits, all_oracle = [], [], []
    cols = {k: [] for k in ("sid", "cohort", "cancer", "treat", "resp", "expr",
                            "pw", "bm", "tide", "ipres", "pheno")}
    for c in range(spec.n_cohorts):
        n = spec.samples_per_cohort[c]
        cohort_id = f"cohort_{c + 1:02d}"
        cancer = SYNTH_CANCER_TYPES[c % len(SYNTH_CANCER_TYPES)]
        treatment = SYNTH_TREATMENTS[c % len(SYNTH_TREATMENTS)]
        active = spec.active_concepts.get(treatment, ())
        z = rng.normal(0.0, 1.0, size=(n, K))
        oracle = spec.signal_strength * z[:, list(active)].sum(axis=1) \
            if active else np.zeros(n)
        logits = oracle + spec.noise_scale * rng.normal(0.0, 1.0, size=n)
        prob = 1.0 / (1.0 + np.exp(-logits))
        resp = (rng.random(n) < prob).astype(np.int64)

        log2tpm = gene_base + z @ gene_loadings.T \
            + 0.5 * spec.noise_scale * rng.normal(0.0, 1.0, size=(n, G))
        cols["expr"].append(np.maximum(np.exp2(log2tpm) - 1.0, 0.0))
        cols["pw"].append(z @ pathway_map
                          + 0.3 * rng.normal(0.0, 1.0, size=(n, N_PATHWAYS)))
        cols["bm"].append(z @ biomarker_map
                          + 0.3 * rng.normal(0.0, 1.0, size=(n, spec.biomarker_dim)))
        for task in ("tide", "ipres", "pheno"):
            cols[task].append(z @ aux_maps[task]
                              + 0.3 * rng.normal(0.0, 1.0,
                                                 size=(n, aux_maps[task].shape[1])))
        cols["sid"].extend(f"{cohort_id}_s{j + 1:03d}" for j in range(n))
        cols["cohort"].extend([cohort_id] * n)
        cols["cancer"].extend([cancer] * n)
        cols["treat"].extend([treatment] * n)
        cols["resp"].append(resp)
        all_latents.append(z)
        all_logits.append(logits)
        all_oracle.append(oracle)

    expr = np.vstack(cols["expr"])
    n_total = expr.shape[0]
    tokens = np.asarray(cols["treat"], dtype=object)
    dataset = Dataset(
        gene_names=[f"g{j + 1:04d}" for j in range(G)],
        sample_ids=cols["sid"],
        cohort_ids=np.asarray(cols["cohort"], dtype=object),
        cancer_types=np.asarray(cols["cancer"], dtype=object),
        treatment_tokens=tokens,
        treatments=np.stack([TreatmentTarget.from_token(str(t)).multihot()
                             for t in tokens]),
        expression=expr,
        response=np.concatenate(cols["resp"]),
        pathway=np.vstack(cols["pw"]),
        pathway_mask=np.ones((n_total, N_PATHWAYS)),
        biomarkers=np.vstack(cols["bm"]),
        biomarker_mask=np.ones((n_total, spec.biomarker_dim)),
        tide=np.vstack(cols["tide"]),
        tide_mask=np.ones((n_total, spec.tide_dim)),
        ipres=np.vstack(cols["ipres"]),
        ipres_mask=np.ones((n_total, spec.ipres_dim)),
        pheno=np.vstack(cols["pheno"]),
        pheno_mask=np.ones((n_total, spec.pheno_dim)),
        biomarker_names=[f"b{j + 1}" for j in range(spec.biomarker_dim)],
    )
    truth = SyntheticTruth(
        latents=np.vstack(all_latents),
        logits=np.concatenate(all_logits),
        oracle_scores=np.concatenate(all_oracle),
    )
    return dataset, truth


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    dataset, _ = generate_synthetic_with_truth(spec)
    return dataset
