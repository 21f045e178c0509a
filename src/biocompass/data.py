"""Cohort schema, CSV ingestion, normalization, group splits, and a synthetic
cohort generator with planted treatment-dependent signal.

CSV layout (one row per sample): reserved columns
`sample_id, cohort_id, cancer_type, treatment, response`, expression columns
`expr_<gene>`, pathway columns `pw_1..pw_42`, biomarker columns `bm_*`, and
auxiliary target columns `tide_*, ipres_*, pheno_*`. Empty cells mark missing
values; missingness is tracked in masks, never zero-filled. A file without
`pw_` columns loads all 42 pathway scores as missing, so every dataset has
every target block.
"""
from __future__ import annotations

import csv
import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import AUX_TASKS, N_PATHWAYS, TreatmentTarget

RESERVED_COLUMNS = ("sample_id", "cohort_id", "cancer_type", "treatment", "response")

SYNTH_TREATMENTS = ("PD-1", "PD-L1", "CTLA-4", "CTLA-4+PD-1")
SYNTH_CANCER_TYPES = ("BLCA", "KIRC", "SKCM", "STAD")


class SchemaError(ValueError):
    """A row or column violates the cohort CSV contract."""


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

    @cached_property
    def log_expression(self) -> np.ndarray:
        """Read-only log2(TPM+1), computed on first use and kept: every fold's
        normalisation and every baseline starts from it. The log is taken in
        place on the shifted copy, so no second panel-sized array is made."""
        logged = self.expression + 1.0
        np.log2(logged, out=logged)
        logged.flags.writeable = False
        return logged

    def __getstate__(self):
        """The fields without the cached `log_expression`: a copy, such as
        a --jobs worker's, computes its own, read-only, on first use."""
        state = dict(self.__dict__)
        state.pop("log_expression", None)
        return state

    @property
    def dims(self) -> dict:
        return {
            "G": self.expression.shape[1],
            "d_b": self.biomarkers.shape[1],
            "d_T": self.tide.shape[1],
            "d_I": self.ipres.shape[1],
            "d_P": self.pheno.shape[1],
        }

    def group_values(self, key: str) -> np.ndarray:
        if key == "cohort":
            return self.cohort_ids
        if key == "cancer_type":
            return self.cancer_types
        if key == "treatment":
            return self.treatment_tokens
        raise ValueError(f"unknown group key: {key!r}")


@dataclass(frozen=True)
class Fold:
    group: str
    test_idx: np.ndarray
    train_idx: np.ndarray


@dataclass(frozen=True)
class FoldPlan:
    """A leave-one-group-out plan over rows grouped by `key`: `groups` holds
    the distinct group values, sorted, as strings, and `labels` each row's
    index into `groups`. Fold k tests on the rows labelled k and trains on
    the others, so the test sets partition the rows."""
    key: str
    groups: tuple
    labels: np.ndarray

    def __post_init__(self):
        labels, n_groups = self.labels, len(self.groups)
        if n_groups < 2:
            raise ValueError(f"leave-one-group-out needs >= 2 distinct "
                             f"{self.key} values, got {list(self.groups)}")
        if labels.dtype.kind not in "iu" or not (
                len(labels) and 0 <= labels.min() and labels.max() < n_groups):
            raise ValueError(f"labels must be integers in [0, {n_groups})")
        empty = np.bincount(labels, minlength=n_groups) == 0
        if empty.any():
            raise ValueError(f"group {self.groups[int(np.argmax(empty))]!r} "
                             f"labels no row")

    @property
    def folds(self) -> list:
        rows = np.arange(len(self.labels))
        return [Fold(group=g, test_idx=rows[self.labels == k],
                     train_idx=rows[self.labels != k])
                for k, g in enumerate(self.groups)]


def split_by_group(dataset: Dataset, key: str) -> FoldPlan:
    """One fold per distinct group value, compared as strings: test =
    group, train = complement."""
    groups, labels = np.unique(dataset.group_values(key).astype(str),
                               return_inverse=True)
    return FoldPlan(key=key, groups=tuple(map(str, groups)), labels=labels)


# ---- normalization ----------------------------------------------------


@dataclass
class NormalizationStats:
    """Per-gene z-score statistics of a fold's training rows. A gene that
    is constant there gets mean = its value and std = 1, so it z-scores to
    0 on those rows and to its plain difference elsewhere. Any other gene
    whose std is 0 gets std 1 too."""
    mean: np.ndarray
    std: np.ndarray


def _clamp_constant(mean, std, lo, hi) -> NormalizationStats:
    """`mean` and `std` with each gene whose training min `lo` equals its
    max `hi` set to that value and 1, and a zero std set to 1."""
    constant = lo == hi
    return NormalizationStats(mean=np.where(constant, lo, mean),
                              std=np.where(constant | (std == 0.0), 1.0, std))


def fit_normalization(logged: np.ndarray, train_idx: np.ndarray) -> NormalizationStats:
    """Per-gene mean and std of log2(TPM+1) values over the training rows."""
    # np.mean's and np.std's own steps, done in place on the one gathered
    # copy of the training rows, so the bits are theirs
    train = logged[train_idx]
    n = len(train)
    if n == 0:
        raise ValueError("normalization needs a nonempty training set")
    lo, hi = train.min(axis=0), train.max(axis=0)
    mean = np.add.reduce(train, axis=0) / n
    train -= mean
    train *= train
    std = np.sqrt(np.add.reduce(train, axis=0) / n)
    return _clamp_constant(mean, std, lo, hi)


def fold_statistics(logged: np.ndarray, plan: FoldPlan
                    ) -> list[NormalizationStats]:
    """`fit_normalization` of every fold of a leave-one-group-out `plan`,
    in fold order, from one pass over `logged`, whose rows are the plan's.

    A fold's training rows are the other groups' rows, so each group's
    rows are read once, for their count, per-gene min and max, and the
    mean and centred sum of squares of `rows - pivot`, `pivot` being the
    panel's first row. Each fold then combines the other groups' moments
    as Chan, Golub & LeVeque (1979) combine partial sums: the count-weighted
    mean of the group means, and the groups' sums of squares plus each
    group's count times its mean's squared distance from that mean. Working
    relative to the pivot keeps a gene's rounding error at the scale of its
    spread, not of its mean. Agrees with `fit_normalization` to rounding,
    not to the bit. A panel with another row count than the plan is a
    ValueError."""
    if len(logged) != len(plan.labels):
        raise ValueError(f"the plan has {len(plan.labels)} rows, "
                         f"the panel {len(logged)}")
    tests = [fold.test_idx for fold in plan.folds]
    pivot = logged[0]
    count = np.array([len(test) for test in tests], dtype=np.float64)
    lo, hi, mean, m2 = (np.empty((len(tests), logged.shape[1]))
                        for _ in range(4))
    # every group's rows go through one buffer; `take` skips its bounds
    # checks (the plan's labels index its rows, as many as the panel's)
    # and so writes into `out` unbuffered
    buffer = np.empty((int(count.max()), logged.shape[1]))
    for k, test in enumerate(tests):
        rows = np.take(logged, test, axis=0, out=buffer[:len(test)],
                       mode="clip")
        np.minimum.reduce(rows, axis=0, out=lo[k])
        np.maximum.reduce(rows, axis=0, out=hi[k])
        rows -= pivot
        np.add.reduce(rows, axis=0, out=mean[k])
        mean[k] /= len(test)
        rows -= mean[k]
        rows *= rows
        np.add.reduce(rows, axis=0, out=m2[k])

    out = []
    for k in range(len(tests)):
        others = np.arange(len(tests)) != k
        weight = np.where(others, count, 0.0)
        n = weight.sum()
        fold_mean = weight @ mean / n
        spread = mean - fold_mean
        spread *= spread
        fold_m2 = others.astype(np.float64) @ m2 + weight @ spread
        out.append(_clamp_constant(pivot + fold_mean, np.sqrt(fold_m2 / n),
                                   lo[others].min(axis=0),
                                   hi[others].max(axis=0)))
    return out


def apply_normalization(logged: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    """z-score log2(TPM+1) values with the given statistics."""
    out = logged - stats.mean
    out /= stats.std
    return out


def normalize(dataset: Dataset, train_idx: np.ndarray
              ) -> tuple[np.ndarray, NormalizationStats]:
    """log2(TPM+1) then per-gene z-score with statistics fit on training rows
    only; test rows are transformed with the training statistics."""
    logged = dataset.log_expression
    stats = fit_normalization(logged, np.asarray(train_idx))
    return apply_normalization(logged, stats), stats


# ---- CSV ingestion ----------------------------------------------------


def _parse_float_block(cells: list, cols: list, row_no: int, path,
                       values: np.ndarray, mask: np.ndarray) -> None:
    """Write one row's cells of a numeric block into `values` and their
    presence into `mask`, both rows of preallocated matrices.

    A block of numbers converts in one numpy assignment, whose str -> float64
    cast accepts the strings `float()` accepts and gives the same bits. A
    block with an empty or non-numeric cell takes the per-cell loop, which
    marks empty cells missing and names a non-numeric cell's row and column."""
    try:
        values[:] = cells
        mask[:] = 1.0
        return
    except ValueError:
        pass
    values[:] = 0.0
    mask[:] = 0.0
    for j, (col, cell) in enumerate(zip(cols, cells)):
        cell = cell.strip()
        if cell == "":
            continue
        try:
            values[j] = float(cell)
        except ValueError:
            raise SchemaError(f"{path}: row {row_no}: column {col!r} "
                              f"is not numeric: {cell!r}")
        mask[j] = 1.0


def _reject_cells(path, bad: np.ndarray, cols: list, what: str) -> None:
    """SchemaError naming the first flagged cell of an assembled block."""
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise SchemaError(f"{path}: row {i + 2}: {what} in column {cols[j]!r}")


def _count_breaks(byte: np.ndarray) -> int:
    r"""The line breaks in a uint8 array: each \n, \r and \r\n once."""
    lf, cr = byte == ord("\n"), byte == ord("\r")
    return int(np.count_nonzero(lf) + np.count_nonzero(cr)
               - np.count_nonzero(cr[:-1] & lf[1:]))


def _line_breaks(path) -> int:
    r"""The line breaks of a file: each \n, \r and \r\n counts once (a \r\n
    split across two reads counts twice). csv ends a record at each, so a
    CSV has at most this many data rows after its header; blank lines and
    breaks inside quoted cells make it an overcount."""
    breaks = 0
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            breaks += _count_breaks(np.frombuffer(chunk, dtype=np.uint8))
    return breaks


def _raise_undecodable(path) -> None:
    """SchemaError naming the line (as `_line_breaks` counts them) of the
    file's first byte that is not UTF-8. Decodes the whole file, so it runs
    only after a read has failed."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = _count_breaks(np.frombuffer(raw[:exc.start], dtype=np.uint8)) + 1
        raise SchemaError(f"{path}: line {line}: byte 0x{raw[exc.start]:02x} "
                          f"is not UTF-8 ({exc.reason})") from None


def _check_field_sizes(line: str, limit: int) -> None:
    """csv's field size limit on a line that is split on commas: from each
    field start, the last comma within `limit` + 1 characters begins the
    next window, so a line costs about len(line) / limit searches."""
    start = 0
    while len(line) - start > limit:
        comma = line.rfind(",", start, start + limit + 1)
        if comma < 0:
            raise csv.Error(f"field larger than field limit ({limit})")
        start = comma + 1


def _records(path, f):
    """The CSV records of `f` (opened with newline="") with their row
    numbers, the header's being 1. Blank lines are skipped and not counted.

    A line without a `"` is split on commas once its line terminator is
    removed, which is the record csv makes of it. A line with a `"` is read
    by `csv.reader`, together with the lines that its quoted cell spans. A
    record that csv cannot parse (a cell over its field size limit, say)
    and a byte that is not UTF-8 are SchemaErrors naming the row or line."""
    row_no = 0
    limit = csv.field_size_limit()
    try:
        for line in f:
            if '"' in line:
                row = next(csv.reader(itertools.chain((line,), f)))
            else:
                # a line holds no \r or \n but its one terminator
                line = line.rstrip("\r\n")
                if not line:
                    continue
                if len(line) > limit:
                    _check_field_sizes(line, limit)
                row = line.split(",")
            if row:
                row_no += 1
                yield row_no, row
    except csv.Error as exc:
        raise SchemaError(f"{path}: row {row_no + 1}: {exc}") from None
    except UnicodeDecodeError:
        _raise_undecodable(path)
        raise


def _gather(columns: list):
    """A callable that takes a row's cells at the given column indices: one
    list slice when they are contiguous, as `write_csv` lays out each
    block, else a gather per position."""
    lo = columns[0] if columns else 0
    if columns == list(range(lo, lo + len(columns))):
        return operator.itemgetter(slice(lo, lo + len(columns)))
    return lambda row: [row[j] for j in columns]


def load_csv(path) -> Dataset:
    """Read a cohort CSV: UTF-8, with or without a byte-order mark. Lines
    without a `"` are split on commas and the rest read by `csv.reader`
    (see `_records`). Each row's numeric blocks are written straight into
    matrices sized from a first pass that counts line breaks, so loading
    holds one copy of the expression matrix plus a row's worth of text."""
    with open(path, newline="", encoding="utf-8-sig") as f:
        records = _records(path, f)
        _, header = next(records, (1, None))
        if header is None:
            raise SchemaError(f"{path}: empty file, header row required")
        position = {}
        for j, col in enumerate(header):
            if col in position:
                raise SchemaError(f"{path}: duplicate column {col!r} in header")
            position[col] = j
        for col in RESERVED_COLUMNS:
            if col not in position:
                raise SchemaError(f"{path}: missing reserved column {col!r}")
        blocks = {name: [] for name in ("expr", "pw", "bm", *AUX_TASKS)}
        for col in header:
            name, sep, _ = col.partition("_")
            if sep and name in blocks:
                blocks[name].append(col)
        if not blocks["expr"]:
            raise SchemaError(f"{path}: no expr_ columns found")
        if blocks["pw"] and len(blocks["pw"]) != N_PATHWAYS:
            raise SchemaError(f"{path}: expected {N_PATHWAYS} pw_ columns, "
                              f"found {len(blocks['pw'])}")
        # the cells of each field, taken by callables resolved once from
        # the header
        reserved = operator.itemgetter(*(position[c] for c in RESERVED_COLUMNS))
        take = {name: _gather([position[c] for c in cols])
                for name, cols in blocks.items()}

        capacity = _line_breaks(path)
        expression = np.empty((capacity, len(blocks["expr"])))
        expr_mask = np.empty(len(blocks["expr"]))  # one row, reused
        targets = {name: (np.empty((capacity, len(blocks[name]))),
                          np.empty((capacity, len(blocks[name]))))
                   for name in ("pw", "bm", *AUX_TASKS)}
        rows = {k: [] for k in ("sample_id", "cohort_id", "cancer_type",
                                "treatment", "multihot", "response")}
        n_cols = len(header)
        sample_rows = {}
        for row_no, row in records:
            if len(row) != n_cols:
                raise SchemaError(f"{path}: row {row_no}: ragged row "
                                  f"(expected {n_cols} cells)")
            sample_id, cohort_id, cancer_type, token, resp = reserved(row)
            for key, cell in (("sample_id", sample_id), ("cohort_id", cohort_id),
                              ("cancer_type", cancer_type)):
                if not cell.strip():
                    raise SchemaError(f"{path}: row {row_no}: empty {key}")
            try:
                treatment = TreatmentTarget.from_token(token)
            except ValueError as exc:
                raise SchemaError(f"{path}: row {row_no}: {exc}")
            resp = resp.strip()
            if resp not in ("0", "1"):
                raise SchemaError(
                    f"{path}: row {row_no}: response must be 0 or 1, got {resp!r}")
            sample_id = sample_id.strip()
            if sample_id in sample_rows:
                raise SchemaError(
                    f"{path}: row {row_no}: duplicate sample_id {sample_id!r} "
                    f"(first in row {sample_rows[sample_id]})")
            i = len(sample_rows)
            sample_rows[sample_id] = row_no
            _parse_float_block(take["expr"](row), blocks["expr"],
                               row_no, path, expression[i], expr_mask)
            if not expr_mask.all():
                missing = blocks["expr"][int(np.argmin(expr_mask))]
                raise SchemaError(
                    f"{path}: row {row_no}: expression cell {missing!r} is empty")
            rows["sample_id"].append(sample_id)
            rows["cohort_id"].append(cohort_id.strip())
            rows["cancer_type"].append(cancer_type.strip())
            rows["treatment"].append(treatment.token())
            rows["multihot"].append(treatment.multihot())
            rows["response"].append(int(resp))
            for name, (values, mask) in targets.items():
                _parse_float_block(take[name](row), blocks[name],
                                   row_no, path, values[i], mask[i])

    n = len(sample_rows)
    if not n:
        raise SchemaError(f"{path}: no data rows")

    # leading rows of the overcounted matrices: views, not copies
    expression = expression[:n]
    # a sum and a min scan without a temporary; only a failed scan builds
    # the cell mask that names the first bad cell (a sum of finite values
    # can overflow, and then the mask finds none)
    if not np.isfinite(expression.sum()):
        _reject_cells(path, ~np.isfinite(expression), blocks["expr"],
                      "non-finite TPM")
    if expression.min() < 0:
        _reject_cells(path, expression < 0, blocks["expr"], "negative TPM")

    def block(name):
        values, mask = (a[:n] for a in targets[name])
        _reject_cells(path, ~np.isfinite(values), blocks[name], "non-finite value")
        return values, mask

    pw, pw_m = block("pw")
    if not blocks["pw"]:  # an absent pathway block is all missing
        pw, pw_m = np.zeros((n, N_PATHWAYS)), np.zeros((n, N_PATHWAYS))
    bm, bm_m = block("bm")
    tide, tide_m = block("tide")
    ipres, ipres_m = block("ipres")
    pheno, pheno_m = block("pheno")
    return Dataset(
        gene_names=[c[len("expr_"):] for c in blocks["expr"]],
        sample_ids=rows["sample_id"],
        cohort_ids=np.asarray(rows["cohort_id"], dtype=object),
        cancer_types=np.asarray(rows["cancer_type"], dtype=object),
        treatment_tokens=np.asarray(rows["treatment"], dtype=object),
        treatments=np.stack(rows["multihot"]),
        expression=expression,
        response=np.asarray(rows["response"], dtype=np.int64),
        pathway=pw, pathway_mask=pw_m,
        biomarkers=bm, biomarker_mask=bm_m,
        tide=tide, tide_mask=tide_m,
        ipres=ipres, ipres_mask=ipres_m,
        pheno=pheno, pheno_mask=pheno_m,
        biomarker_names=[c[len("bm_"):] for c in blocks["bm"]],
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
    with open(path, "w", newline="", encoding="utf-8") as f:
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
        for name, low in [("n_cohorts", 1), ("n_genes", 1), ("n_latents", 1),
                          ("signal_strength", 0), ("noise_scale", 0),
                          ("seed", 0), ("biomarker_dim", 0), ("tide_dim", 0),
                          ("ipres_dim", 0), ("pheno_dim", 0)]:
            value = getattr(self, name)
            if not value >= low:   # a NaN fails too
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if len(self.samples_per_cohort) != self.n_cohorts:
            raise ValueError("samples_per_cohort length must equal n_cohorts")
        if not all(type(n) is int and n >= 1 for n in self.samples_per_cohort):
            raise ValueError(f"samples_per_cohort must hold integers >= 1, "
                             f"got {self.samples_per_cohort!r}")
        for treatment, latents in self.active_concepts.items():
            if treatment not in SYNTH_TREATMENTS:
                raise ValueError(f"active_concepts key {treatment!r} is not "
                                 f"one of {', '.join(SYNTH_TREATMENTS)}")
            if type(latents) is not tuple or not all(
                    type(k) is int and 0 <= k < self.n_latents for k in latents):
                raise ValueError(
                    f"active_concepts[{treatment!r}] must be a list of latent "
                    f"indices in [0, {self.n_latents}), got {latents!r}")


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
        for task in AUX_TASKS:
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
