import csv
import math
import os
import pickle
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from biocompass.data import (Dataset, FoldPlan, SchemaError,
                             SyntheticSpec, _records, fit_normalization,
                             fold_statistics, generate_synthetic,
                             generate_synthetic_with_truth, load_csv,
                             normalize, split_by_group, write_csv)
from biocompass.evaluation import roc_auc
from biocompass.model import TreatmentTarget


HEADER = ("sample_id,cohort_id,cancer_type,treatment,response,"
          "expr_a,expr_b,pw_" + ",pw_".join(str(i) for i in range(1, 43))
          + ",bm_x,tide_1,ipres_1,pheno_1")


def make_csv(tmp_path, rows, header=HEADER):
    path = tmp_path / "cohort.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


def well_formed_row(sid="s1", cohort="c1", cancer="SKCM", treat="PD-1",
                    resp="1", expr=("1.5", "2.5"), bm="0.3"):
    pw = ",".join(["0.1"] * 42)
    return ",".join([sid, cohort, cancer, treat, resp, *expr, pw, bm,
                     "0.2", "0.4", "0.6"])


class TestLoadCsv:
    def test_well_formed_three_rows(self, tmp_path):
        path = make_csv(tmp_path, [
            well_formed_row("s1", "c1"),
            well_formed_row("s2", "c1", resp="0"),
            well_formed_row("s3", "c2", treat="CTLA-4+PD-1"),
        ])
        ds = load_csv(path)
        assert len(ds) == 3
        assert ds.gene_names == ["a", "b"]
        assert ds.dims == {"G": 2, "d_b": 1, "d_T": 1, "d_I": 1, "d_P": 1}
        np.testing.assert_array_equal(ds.response, [1, 0, 1])
        assert str(ds.treatment_tokens[2]) == "CTLA-4+PD-1"
        np.testing.assert_array_equal(ds.treatments[2], [1, 0, 1])

    def test_columns_without_a_block_prefix_are_in_no_block(self, tmp_path):
        rows = [well_formed_row("s1", "c1"), well_formed_row("s2", "c2")]
        want = load_csv(make_csv(tmp_path, rows))
        # no "_" after the block name, or a longer name before it
        extra = ",expr,bm,exprs_c,tide2_1,pheno-1"
        got = load_csv(make_csv(tmp_path, [r + ",9,9,9,9,9" for r in rows],
                                header=HEADER + extra))
        assert got.gene_names == want.gene_names
        assert got.biomarker_names == want.biomarker_names
        for name in ("expression", "biomarkers", "tide", "pheno", "pathway"):
            assert (getattr(got, name).tobytes()
                    == getattr(want, name).tobytes()), name

    def test_non_binary_response_names_row(self, tmp_path):
        path = make_csv(tmp_path, [well_formed_row(),
                                   well_formed_row("s2", resp="2")])
        with pytest.raises(SchemaError, match="row 3.*response"):
            load_csv(path)

    def test_negative_tpm_rejected(self, tmp_path):
        path = make_csv(tmp_path, [well_formed_row(expr=("-1.0", "2.0"))])
        with pytest.raises(SchemaError, match="negative TPM.*expr_a"):
            load_csv(path)

    def test_unknown_treatment_rejected(self, tmp_path):
        path = make_csv(tmp_path, [well_formed_row(treat="EGFR")])
        with pytest.raises(SchemaError, match="row 2"):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = make_csv(tmp_path, [well_formed_row() + ",0.9,0.9"])
        with pytest.raises(SchemaError, match="ragged"):
            load_csv(path)

    def test_missing_pathway_columns_yield_zero_masks(self, tmp_path):
        header = ("sample_id,cohort_id,cancer_type,treatment,response,"
                  "expr_a,expr_b,bm_x")
        rows = ["s1,c1,SKCM,PD-1,1,1.0,2.0,0.5",
                "s2,c1,SKCM,PD-1,0,2.0,1.0,"]
        path = make_csv(tmp_path, rows, header=header)
        ds = load_csv(path)
        # an absent pathway block loads as 42 all-missing columns
        assert ds.pathway.shape == ds.pathway_mask.shape == (2, 42)
        assert not ds.pathway.any() and not ds.pathway_mask.any()
        assert ds.biomarker_mask[0, 0] == 1.0
        assert ds.biomarker_mask[1, 0] == 0.0  # empty cell -> missing, not 0

    def test_empty_expression_cell_rejected(self, tmp_path):
        path = make_csv(tmp_path, [well_formed_row(expr=("", "2.0"))])
        with pytest.raises(SchemaError, match="expr"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_expression_cell_rejected(self, tmp_path, cell):
        path = make_csv(tmp_path, [well_formed_row(),
                                   well_formed_row("s2", expr=("1.0", cell))])
        with pytest.raises(SchemaError, match="row 3: non-finite.*'expr_b'"):
            load_csv(path)

    @pytest.mark.parametrize("row, column", [
        (well_formed_row(bm="nan"), "bm_x"),
        (well_formed_row().replace(",0.6", ",inf"), "pheno_1"),
        (well_formed_row().replace("0.1,", "NaN,", 1), "pw_1"),
    ], ids=["bm_x", "pheno_1", "pw_1"])
    def test_non_finite_target_cell_rejected(self, tmp_path, row, column):
        path = make_csv(tmp_path, [row])
        with pytest.raises(SchemaError, match=f"row 2: non-finite.*'{column}'"):
            load_csv(path)

    def test_duplicate_sample_id_rejected(self, tmp_path):
        path = make_csv(tmp_path, [well_formed_row("s1"), well_formed_row("s2"),
                                   well_formed_row("s1", cohort="c2")])
        with pytest.raises(SchemaError,
                           match="row 4: duplicate sample_id 's1'.*row 2"):
            load_csv(path)

    def test_duplicate_column_rejected(self, tmp_path):
        header = HEADER.replace("expr_b", "expr_a")
        path = make_csv(tmp_path, [well_formed_row()], header=header)
        with pytest.raises(SchemaError, match="duplicate column 'expr_a'"):
            load_csv(path)


WIDE_GENES = [f"g{j}" for j in range(12)]
WIDE_HEADER = ("sample_id,cohort_id,cancer_type,treatment,response,"
               + ",".join(f"expr_{g}" for g in WIDE_GENES)
               + ",pw_" + ",pw_".join(str(i) for i in range(1, 43))
               + ",bm_x,bm_y,tide_1,ipres_1,pheno_1")


def wide_row(sid="s1", cohort="c1", expr=None, pw=None, bm=("0.3", "0.4"),
             aux=("0.2", "0.4", "0.6")):
    expr = expr or [f"{j + 0.5}" for j in range(len(WIDE_GENES))]
    pw = pw or ["0.1"] * 42
    return ",".join([sid, cohort, "SKCM", "PD-1", "1", *expr, *pw, *bm, *aux])


def per_cell(cells):
    """The per-cell oracle: an empty or blank cell is missing (0, mask 0),
    any other cell is `float()` of its stripped text."""
    present = [c.strip() != "" for c in cells]
    values = [float(c) if p else 0.0 for c, p in zip(cells, present)]
    return np.array(values), np.array(present, dtype=np.float64)


class TestParser:
    """The one-call-per-block conversion against the per-cell path."""

    def test_non_numeric_expression_cell_names_path_row_and_column(
            self, tmp_path):
        expr = [f"{j}.25" for j in range(len(WIDE_GENES))]
        expr[6] = "1.5x"
        path = make_csv(tmp_path, [wide_row("s1"), wide_row("s2", expr=expr)],
                        header=WIDE_HEADER)
        with pytest.raises(SchemaError) as exc:
            load_csv(path)
        assert str(exc.value) == (
            f"{path}: row 3: column 'expr_g6' is not numeric: '1.5x'")

    def test_non_numeric_target_cell_names_row_and_column(self, tmp_path):
        path = make_csv(tmp_path, [wide_row(bm=("0.3", "n/a"))],
                        header=WIDE_HEADER)
        with pytest.raises(SchemaError,
                           match="row 2: column 'bm_y' is not numeric: 'n/a'"):
            load_csv(path)

    def test_spellings_load_with_the_bits_of_float(self, tmp_path):
        expr = [" 1.5", "2.5 ", "+1", ".5", "1e3", "\t7.25", "1E-3", "0010",
                "1_000", "3.", "+.75", " 4e+2 "]
        path = make_csv(tmp_path, [wide_row(expr=expr)], header=WIDE_HEADER)
        ds = load_csv(path)
        assert ds.expression[0].tobytes() == per_cell(expr)[0].tobytes()
        np.testing.assert_array_equal(ds.expression[0][:5],
                                      [1.5, 2.5, 1.0, 0.5, 1000.0])

    def test_empty_target_cells_keep_their_masks(self, tmp_path):
        pw = ["0.1"] * 42
        pw[3] = ""
        pw[40] = "  "
        path = make_csv(tmp_path, [wide_row("s1"),
                                   wide_row("s2", pw=pw, bm=("", "0.9"),
                                            aux=("0.2", "", "0.6"))],
                        header=WIDE_HEADER)
        ds = load_csv(path)
        np.testing.assert_array_equal(ds.pathway_mask[0], np.ones(42))
        want = np.ones(42)
        want[[3, 40]] = 0.0
        np.testing.assert_array_equal(ds.pathway_mask[1], want)
        assert ds.pathway[1, 3] == 0.0 and ds.pathway[1, 40] == 0.0
        np.testing.assert_array_equal(ds.biomarker_mask, [[1, 1], [0, 1]])
        np.testing.assert_array_equal(ds.biomarkers[1], [0.0, 0.9])
        np.testing.assert_array_equal(ds.ipres_mask, [[1], [0]])
        np.testing.assert_array_equal(ds.tide_mask, [[1], [1]])

    def test_blank_line_is_skipped_and_not_counted(self, tmp_path):
        rows = [wide_row("s1"), "", wide_row("s2"), "",
                wide_row("s3").replace(",PD-1,1,", ",PD-1,7,")]
        path = make_csv(tmp_path, rows, header=WIDE_HEADER)
        with pytest.raises(SchemaError, match="row 4: response must be 0 or 1"):
            load_csv(path)
        path = make_csv(tmp_path, rows[:4], header=WIDE_HEADER)
        assert load_csv(path).sample_ids == ["s1", "s2"]

    def test_quoted_sample_id_with_comma_loads(self, tmp_path):
        path = make_csv(tmp_path, [wide_row('"pt 1, visit 2"'),
                                   wide_row("s2")], header=WIDE_HEADER)
        ds = load_csv(path)
        assert ds.sample_ids == ["pt 1, visit 2", "s2"]
        assert ds.expression.shape == (2, len(WIDE_GENES))

    def test_short_row_is_ragged(self, tmp_path):
        path = make_csv(tmp_path, [wide_row("s1"), wide_row("s2")[:-4]],
                        header=WIDE_HEADER)
        with pytest.raises(SchemaError, match="row 3: ragged row"):
            load_csv(path)

    @pytest.mark.parametrize("ending", ["\r\n", "\r"])
    def test_line_endings_load_alike(self, tmp_path, ending):
        rows = [WIDE_HEADER, wide_row("s1"), wide_row("s2", cohort="c2"),
                wide_row("s3")]
        want = load_csv(make_csv(tmp_path, rows[1:], header=rows[0]))
        path = tmp_path / "endings.csv"
        path.write_bytes(ending.join(rows).encode())
        got = load_csv(path)
        assert got.sample_ids == want.sample_ids
        assert list(got.cohort_ids) == list(want.cohort_ids)
        assert got.expression.tobytes() == want.expression.tobytes()
        assert got.pathway.tobytes() == want.pathway.tobytes()


class TestEncoding:
    def _written(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(
            n_cohorts=2, samples_per_cohort=(5, 6), n_genes=7, n_latents=2,
            seed=3, active_concepts={"PD-1": (0,), "PD-L1": (1,)}))
        path = tmp_path / "plain.csv"
        write_csv(ds, path)
        return path

    def test_byte_order_mark_loads_like_plain_file(self, tmp_path):
        plain = self._written(tmp_path)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        want, got = load_csv(plain), load_csv(bom)
        assert got.gene_names == want.gene_names
        assert got.sample_ids == want.sample_ids
        assert got.biomarker_names == want.biomarker_names
        for name in ("cohort_ids", "cancer_types", "treatment_tokens"):
            assert list(getattr(got, name)) == list(getattr(want, name)), name
        for name in ("expression", "response", "treatments", "pathway",
                     "pathway_mask", "biomarkers", "biomarker_mask", "tide",
                     "tide_mask", "ipres", "ipres_mask", "pheno", "pheno_mask"):
            assert (getattr(got, name).tobytes()
                    == getattr(want, name).tobytes()), name

    def test_non_ascii_cells_round_trip_as_utf8(self, tmp_path):
        ds = load_csv(self._written(tmp_path))
        ds.sample_ids[0] = "patient-é"
        ds.cohort_ids[0] = "Zürich"
        path = tmp_path / "utf8.csv"
        write_csv(ds, path)
        assert "patient-é,Zürich".encode("utf-8") in path.read_bytes()
        loaded = load_csv(path)
        assert loaded.sample_ids[0] == "patient-é"
        assert loaded.cohort_ids[0] == "Zürich"

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_undecodable_byte_names_its_line(self, tmp_path, ending):
        # a blank line counts as a line; a BOM does not shift the count
        rows = [WIDE_HEADER, wide_row("s1"), "", wide_row("s2"),
                wide_row("s3", cohort="c\udce9")]
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xef\xbb\xbf" + ending.join(rows).encode(
            "utf-8", "surrogateescape"))
        with pytest.raises(SchemaError) as exc:
            load_csv(path)
        assert str(exc.value) == (f"{path}: line 5: byte 0xe9 is not UTF-8 "
                                  "(invalid continuation byte)")


class TestTokenizer:
    """`_records` splits quote-free lines itself; csv.reader is its oracle."""

    def test_scattered_block_loads_like_contiguous_block(self, tmp_path):
        want = load_csv(make_csv(tmp_path, [wide_row("s1"), wide_row("s2")],
                                 header=WIDE_HEADER))
        # bm_y, expr_g1 and bm_x move to the front
        order = [60, 6, 59, *range(6), *range(7, 59), 61, 62, 63]
        table = [line.split(",") for line in
                 [WIDE_HEADER, wide_row("s1"), wide_row("s2")]]
        assert sorted(order) == list(range(len(table[0])))
        path = tmp_path / "scattered.csv"
        path.write_text("".join(",".join(r[j] for j in order) + "\n"
                                for r in table))
        got = load_csv(path)
        assert got.gene_names == ["g1", "g0", *WIDE_GENES[2:]]
        np.testing.assert_array_equal(got.expression[:, [1, 0]],
                                      want.expression[:, :2])
        np.testing.assert_array_equal(got.expression[:, 2:],
                                      want.expression[:, 2:])
        assert got.biomarker_names == ["y", "x"]
        np.testing.assert_array_equal(got.biomarkers, want.biomarkers[:, ::-1])
        assert got.pathway.tobytes() == want.pathway.tobytes()
        assert got.pheno.tobytes() == want.pheno.tobytes()


def _csv_oracle(path):
    """csv.reader's records with blank rows dropped, and the error that
    `_records` should raise in its place, or None."""
    records = []
    with open(path, newline="", encoding="utf-8-sig") as f:
        try:
            for row in csv.reader(f):
                if row:
                    records.append((len(records) + 1, row))
        except csv.Error as exc:
            return records, f"{path}: row {len(records) + 1}: {exc}"
    return records, None


@given(st.text(st.sampled_from([",", '"', "\r", "\n", " ", "0", "7", "a",
                                "Z", "é"]), max_size=80),
       st.integers(0, 12))
@settings(max_examples=400, deadline=None)
def test_records_match_csv_reader(text, limit):
    old_limit = csv.field_size_limit(limit)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cohort.csv")
            with open(path, "w", newline="", encoding="utf-8") as f:
                f.write(text)
            want, error = _csv_oracle(path)
            got = []
            with open(path, newline="", encoding="utf-8-sig") as f:
                try:
                    got.extend(_records(path, f))
                except SchemaError as exc:
                    got.append(str(exc))
    finally:
        csv.field_size_limit(old_limit)
    assert got == want + ([error] if error else [])


def test_load_peak_memory_is_about_one_expression_matrix(tmp_path):
    """Rows are parsed straight into the expression matrix: no list of row
    arrays that a final stack copies, which held two matrices at once."""
    rng = np.random.default_rng(0)
    tpm = rng.lognormal(size=(400, 1000))
    path = tmp_path / "wide.csv"
    with open(path, "w") as f:
        f.write("sample_id,cohort_id,cancer_type,treatment,response,"
                + ",".join(f"expr_g{j}" for j in range(tpm.shape[1])) + "\n")
        for i, row in enumerate(tpm):
            f.write(f"s{i},c{i % 4},SKCM,PD-1,{i % 2},"
                    + ",".join(map(repr, row.tolist())) + "\n")
    tracemalloc.start()
    try:
        ds = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.expression.tobytes() == tpm.tobytes()
    assert peak <= 1.3 * tpm.nbytes, peak / tpm.nbytes


def test_log_expression_peak_memory_is_about_one_expression_matrix(rng):
    """log2 runs in place on the shifted copy: no second panel-sized
    temporary next to the result."""
    tpm = rng.lognormal(size=(400, 1000))
    ds = _dataset_from_tpm(tpm)
    tracemalloc.start()
    try:
        logged = ds.log_expression
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert logged.tobytes() == np.log2(tpm + 1.0).tobytes()
    assert peak <= 1.3 * tpm.nbytes, peak / tpm.nbytes


def spelled(value: float, form: int, pad: str) -> str:
    text = [repr(value), f"{value:.17g}", f"{value:e}", f"{value:+.12E}",
            f"{value:.6f}"][form]
    if text.startswith("0."):
        text = text[1:]          # ".5"
    return pad + text + pad[::-1]


cell_spellings = st.builds(
    spelled, st.floats(0.0, 1e12, allow_nan=False), st.integers(0, 4),
    st.sampled_from(["", " ", "  ", "\t", " \t"]))


@given(st.lists(st.lists(cell_spellings, min_size=12, max_size=12),
                min_size=1, max_size=4),
       st.lists(st.one_of(cell_spellings, st.sampled_from(["", " "])),
                min_size=2, max_size=2))
@settings(max_examples=60, deadline=None)
def test_block_conversion_matches_per_cell_oracle(exprs, bm):
    rows = [wide_row(f"s{i}", expr=expr, bm=bm) for i, expr in enumerate(exprs)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cohort.csv")
        with open(path, "w") as f:
            f.write(WIDE_HEADER + "\n" + "\n".join(rows) + "\n")
        ds = load_csv(path)
    want = np.stack([per_cell(expr)[0] for expr in exprs])
    assert ds.expression.tobytes() == want.tobytes()
    bm_values, bm_mask = per_cell(bm)
    assert ds.biomarkers.tobytes() == np.tile(bm_values, (len(exprs), 1)).tobytes()
    assert ds.biomarker_mask.tobytes() == np.tile(bm_mask, (len(exprs), 1)).tobytes()


class TestRoundTrip:
    def test_write_then_load_preserves_data(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(
            n_cohorts=2, samples_per_cohort=(8, 9), n_genes=6, n_latents=2,
            seed=5, active_concepts={"PD-1": (0,), "PD-L1": (1,)}))
        path = tmp_path / "out.csv"
        write_csv(ds, path)
        loaded = load_csv(path)
        assert len(loaded) == len(ds)
        np.testing.assert_array_equal(loaded.response, ds.response)
        np.testing.assert_allclose(loaded.expression, ds.expression)
        np.testing.assert_allclose(loaded.pathway, ds.pathway)
        np.testing.assert_array_equal(loaded.pathway_mask, ds.pathway_mask)
        assert list(map(str, loaded.cohort_ids)) == list(map(str, ds.cohort_ids))


@st.composite
def cohort_tables(draw):
    """A small Dataset whose pw_/bm_/aux cells are each present or missing;
    a missing cell holds 0, as `load_csv` stores it."""
    n = draw(st.integers(1, 5))
    finite = st.floats(allow_nan=False, allow_infinity=False)

    def block(width):
        values = draw(arrays(np.float64, (n, width), elements=finite))
        mask = draw(arrays(np.bool_, (n, width))).astype(np.float64)
        return np.where(mask > 0, values, 0.0), mask

    treatments = draw(st.lists(st.sampled_from(["PD-1", "PD-L1", "CTLA-4",
                                                "CTLA-4+PD-1"]),
                               min_size=n, max_size=n))
    n_bm = draw(st.integers(0, 3))
    pw, pw_m = block(42)
    bm, bm_m = block(n_bm)
    tide, tide_m = block(draw(st.integers(0, 2)))
    ipres, ipres_m = block(draw(st.integers(0, 2)))
    pheno, pheno_m = block(draw(st.integers(0, 2)))
    return Dataset(
        gene_names=["a", "b", "c"],
        sample_ids=[f"s{i}" for i in range(n)],
        cohort_ids=np.array([f"c{i % 2}" for i in range(n)], object),
        cancer_types=np.array(["SKCM"] * n, object),
        treatment_tokens=np.array(treatments, object),
        treatments=np.stack([TreatmentTarget.from_token(t).multihot()
                             for t in treatments]),
        expression=draw(arrays(np.float64, (n, 3), elements=st.floats(
            0.0, 1e12, allow_nan=False))),
        response=draw(arrays(np.int64, n, elements=st.integers(0, 1))),
        pathway=pw, pathway_mask=pw_m, biomarkers=bm, biomarker_mask=bm_m,
        tide=tide, tide_mask=tide_m, ipres=ipres, ipres_mask=ipres_m,
        pheno=pheno, pheno_mask=pheno_m,
        biomarker_names=[f"m{j}" for j in range(n_bm)])


@given(cohort_tables())
@settings(max_examples=60, deadline=None)
def test_write_then_load_is_exact(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cohort.csv")
        write_csv(ds, path)
        loaded = load_csv(path)
    assert loaded.sample_ids == ds.sample_ids
    assert loaded.biomarker_names == ds.biomarker_names
    assert list(loaded.treatment_tokens) == list(ds.treatment_tokens)
    for name in ("expression", "response", "treatments", "pathway",
                 "pathway_mask", "biomarkers", "biomarker_mask", "tide",
                 "tide_mask", "ipres", "ipres_mask", "pheno", "pheno_mask"):
        got, want = getattr(loaded, name), getattr(ds, name)
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


class TestNormalize:
    def test_constant_gene_maps_to_zero(self):
        tpm = np.array([[3.0, 1.0], [3.0, 7.0], [3.0, 0.0]])
        stats = fit_normalization(np.log2(tpm + 1), np.arange(3))
        assert stats.std[0] == 1.0  # zero variance clamped
        x = (np.log2(tpm + 1) - stats.mean) / stats.std
        np.testing.assert_allclose(x[:, 0], 0.0)

    def test_zero_tpm_maps_to_zero_before_zscore(self):
        assert np.log2(0.0 + 1.0) == 0.0

    def test_training_statistics_applied_to_test_rows(self, rng):
        tpm = rng.uniform(0, 100, size=(10, 4))
        train_idx = np.arange(6)
        ds = _dataset_from_tpm(tpm)
        x, stats = normalize(ds, train_idx)
        # no leakage: recompute stats from the training subset alone
        logged = np.log2(tpm[train_idx] + 1.0)
        np.testing.assert_allclose(stats.mean, logged.mean(axis=0))
        np.testing.assert_allclose(stats.std, logged.std(axis=0))
        expected_test = (np.log2(tpm[6:] + 1.0) - stats.mean) / stats.std
        np.testing.assert_allclose(x[6:], expected_test)

    def test_log_expression_is_shared_and_read_only(self, rng):
        tpm = rng.uniform(0, 100, size=(10, 4))
        ds = _dataset_from_tpm(tpm)
        assert ds.log_expression is ds.log_expression
        with pytest.raises(ValueError, match="read-only"):
            ds.log_expression[0, 0] = 0.0
        x, stats = normalize(ds, np.arange(6))
        # the same bytes as log2 and z-score written out in one expression
        assert x.tobytes() == ((np.log2(tpm + 1.0) - stats.mean)
                               / stats.std).tobytes()

    def test_a_pickled_copy_recomputes_log_expression(self, rng):
        ds = _dataset_from_tpm(rng.uniform(0, 100, size=(10, 4)))
        logged = ds.log_expression
        copy = pickle.loads(pickle.dumps(ds))
        assert "log_expression" not in copy.__dict__
        assert copy.log_expression.tobytes() == logged.tobytes()
        assert not copy.log_expression.flags.writeable

    @pytest.mark.parametrize("case", ["shuffled", "duplicated", "single_row",
                                      "boolean_mask", "constant_column"])
    def test_statistics_are_the_bytes_of_mean_and_std(self, rng, case):
        logged = np.log2(rng.uniform(0, 100, size=(40, 7)) + 1.0)
        idx = {"shuffled": rng.permutation(40)[:25],
               "duplicated": np.array([3, 3, 8, 0, 8, 8, 21]),
               "single_row": np.array([17]),
               "boolean_mask": rng.random(40) < 0.6,
               "constant_column": np.arange(30)}[case]
        if case == "constant_column":
            logged[:, 2] = logged[0, 2]
        before = logged.tobytes()
        stats = fit_normalization(logged, idx)
        train = logged[idx]
        mean, std = train.mean(axis=0), train.std(axis=0)
        if case == "constant_column":
            # a constant gene has its value for mean and 1 for std, not
            # np.mean's and np.std's rounding residue
            mean[2], std[2] = logged[0, 2], 1.0
        assert stats.mean.tobytes() == mean.tobytes()
        assert stats.std.tobytes() == np.where(std == 0.0, 1.0, std).tobytes()
        assert logged.tobytes() == before  # the input is left alone

    def test_constant_nonzero_gene_is_clamped(self):
        """TPM 5 on every training row: mean log2(6) exactly and std 1, so
        a test row at 5.01 z-scores to its small difference, not to ~1e12."""
        tpm = np.full((450, 2), 5.0)
        tpm[:, 1] = np.arange(450.0)
        tpm[449, 0] = 5.01
        x, stats = normalize(_dataset_from_tpm(tpm), np.arange(449))
        assert stats.mean[0] == np.log2(6.0) and stats.std[0] == 1.0
        np.testing.assert_array_equal(x[:449, 0], 0.0)
        assert x[449, 0] == np.log2(6.01) - np.log2(6.0)

    def test_empty_training_set_rejected(self, rng):
        ds = _dataset_from_tpm(rng.uniform(0, 10, size=(4, 3)))
        for rows in (np.array([], dtype=int), np.zeros(4, dtype=bool)):
            with pytest.raises(ValueError, match="nonempty"):
                normalize(ds, rows)


def plan_of(labels) -> FoldPlan:
    """A leave-one-group-out plan with one fold per distinct label."""
    groups, labels = np.unique(labels, return_inverse=True)
    return FoldPlan(key="group", groups=tuple(map(str, groups)),
                    labels=labels)


class TestFoldStatistics:
    """`fold_statistics` gives each fold of a plan the statistics that
    `fit_normalization` fits on its training rows, from per-group moments."""

    @staticmethod
    def assert_matches_fit(logged, plan):
        folds = fold_statistics(logged, plan)
        assert len(folds) == len(plan.folds)
        for fold, stats in zip(plan.folds, folds):
            ref = fit_normalization(logged, fold.train_idx)
            np.testing.assert_allclose(stats.std, ref.std, rtol=1e-12, atol=0)
            assert (np.abs(stats.mean - ref.mean) <= 1e-12 * ref.std).all()

    @pytest.mark.parametrize("key", ["cohort", "cancer_type", "treatment"])
    def test_every_fold_matches_fit_normalization(self, key):
        ds = generate_synthetic(SyntheticSpec())
        self.assert_matches_fit(ds.log_expression, split_by_group(ds, key))

    def test_one_sample_group(self):
        ds = generate_synthetic(SyntheticSpec(
            n_cohorts=3, samples_per_cohort=(20, 1, 30), n_genes=64, seed=4))
        plan = split_by_group(ds, "cohort")
        assert [len(f.test_idx) for f in plan.folds] == [20, 1, 30]
        self.assert_matches_fit(ds.log_expression, plan)

    @pytest.mark.parametrize("ratio", [1e3, 1e5, 1e7])
    def test_steep_genes_match_an_exact_sum(self, rng, ratio):
        """Genes with |mean| / std = `ratio`, against means and sums of
        squares summed exactly by `math.fsum`."""
        logged = ratio * np.array([1.0, -1.0, 3.0]) + rng.normal(size=(60, 3))
        plan = plan_of(rng.integers(0, 4, size=60))
        for fold, stats in zip(plan.folds, fold_statistics(logged, plan)):
            for g in range(3):
                col = logged[fold.train_idx, g].tolist()
                mean = math.fsum(col) / len(col)
                std = math.sqrt(math.fsum((v - mean) ** 2 for v in col)
                                / len(col))
                assert abs(stats.mean[g] - mean) <= 1e-13 * abs(mean)
                assert abs(stats.std[g] - std) <= 1e-13 * std, (fold.group, g)

    def test_constant_genes_get_their_value_and_unit_std(self, rng):
        """Gene 0 is 0 everywhere and gene 1 log2(6) everywhere. Genes 2-9
        are log2(6) outside group 0, whose rows (the pivot row 0 among
        them) vary: fold 0 trains on their constant rows only."""
        logged = rng.normal(3.0, 1.0, size=(30, 10))
        logged[:, 0] = 0.0
        logged[:, 1] = np.log2(6.0)
        logged[10:, 2:] = np.log2(6.0)
        plan = plan_of(np.repeat([0, 1, 2], 10))
        folds = fold_statistics(logged, plan)
        for stats in folds:
            assert stats.mean[0] == 0.0 and stats.std[0] == 1.0
            assert stats.mean[1] == np.log2(6.0) and stats.std[1] == 1.0
        assert (folds[0].mean[2:] == np.log2(6.0)).all()
        assert (folds[0].std[2:] == 1.0).all()
        assert all((stats.std[2:] > 0.1).all() for stats in folds[1:])

    @pytest.mark.parametrize("n_groups, labels, named", [
        (1, np.zeros(12, dtype=int), ">= 2 distinct group values"),
        (3, np.r_[np.repeat([0, 1, 2], 4)[:-1], 3], r"integers in \[0, 3\)"),
        (3, np.r_[-1, np.repeat([0, 1, 2], 4)[1:]], r"integers in \[0, 3\)"),
        (3, np.repeat([0, 2], 6), "group '1' labels no row"),
        (3, np.repeat([0.0, 1.0, 2.0], 4), r"integers in \[0, 3\)"),
        (3, np.arange(12) // 4 == 1, r"integers in \[0, 3\)"),
        (3, np.array([], dtype=int), r"integers in \[0, 3\)"),
    ], ids=["one_group", "out_of_range", "negative", "empty_group",
            "float", "boolean_mask", "no_rows"])
    def test_plan_that_does_not_partition_is_refused(self, n_groups, labels,
                                                     named):
        """A plan's test sets partition its rows by construction: each
        row's label names one group, and every group labels a row."""
        with pytest.raises(ValueError, match=named):
            FoldPlan(key="group", groups=tuple(map(str, range(n_groups))),
                     labels=labels)

    def test_folds_partition_the_rows(self, rng):
        plan = plan_of(rng.integers(0, 4, size=30))
        tests = [fold.test_idx for fold in plan.folds]
        assert np.array_equal(np.sort(np.concatenate(tests)), np.arange(30))
        for fold in plan.folds:
            assert np.array_equal(
                fold.train_idx, np.setdiff1d(np.arange(30), fold.test_idx))
        with pytest.raises(AttributeError):
            plan.labels = np.zeros(30, dtype=int)
        with pytest.raises(AttributeError):
            plan.folds[0].test_idx = tests[1]

    @pytest.mark.parametrize("n_rows", [11, 13])
    def test_panel_with_other_rows_than_the_plan_is_refused(self, rng,
                                                            n_rows):
        plan = plan_of(np.repeat([0, 1, 2], 4))
        with pytest.raises(ValueError, match="the plan has 12 rows"):
            fold_statistics(rng.normal(size=(n_rows, 3)), plan)


def _dataset_from_tpm(tpm):
    n, g = tpm.shape
    empty = np.zeros((n, 0))
    return Dataset(
        gene_names=[f"g{j}" for j in range(g)],
        sample_ids=[f"s{i}" for i in range(n)],
        cohort_ids=np.array(["c1"] * (n // 2) + ["c2"] * (n - n // 2), object),
        cancer_types=np.array(["SKCM"] * n, object),
        treatment_tokens=np.array(["PD-1"] * n, object),
        treatments=np.tile([1.0, 0.0, 0.0], (n, 1)),
        expression=tpm,
        response=np.zeros(n, dtype=np.int64),
        pathway=empty, pathway_mask=empty,
        biomarkers=empty, biomarker_mask=empty,
        tide=empty, tide_mask=empty,
        ipres=empty, ipres_mask=empty,
        pheno=empty, pheno_mask=empty)


class TestSyntheticGenerator:
    def test_same_seed_identical(self):
        spec = SyntheticSpec(n_cohorts=2, samples_per_cohort=(10, 10),
                             n_genes=8, seed=3)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert a.expression.tobytes() == b.expression.tobytes()
        np.testing.assert_array_equal(a.response, b.response)

    def test_structure_mirrors_spec(self):
        ds = generate_synthetic(SyntheticSpec(seed=0))
        assert len(set(map(str, ds.cohort_ids))) == 8
        sizes = [int(np.sum(ds.cohort_ids == c))
                 for c in sorted(set(map(str, ds.cohort_ids)))]
        assert any(s < 50 for s in sizes) and any(s > 50 for s in sizes)
        assert ds.pathway.shape[1] == 42
        assert np.all(ds.expression >= 0.0)
        assert set(ds.response.tolist()) <= {0, 1}

    def test_null_signal_oracle_is_chance(self):
        spec = SyntheticSpec(signal_strength=0.0, seed=7)
        ds, truth = generate_synthetic_with_truth(spec)
        np.testing.assert_array_equal(truth.oracle_scores, 0.0)
        # a latent-based classifier carries no label information: AUC near 0.5
        score = truth.latents.sum(axis=1)
        assert 0.4 <= roc_auc(score, ds.response) <= 0.6

    def test_planted_signal_oracle_recovers(self):
        ds, truth = generate_synthetic_with_truth(SyntheticSpec(seed=0))
        held_out = ds.cohort_ids == "cohort_08"
        auc = roc_auc(truth.oracle_scores[held_out], ds.response[held_out])
        assert auc >= 0.9

    @pytest.mark.parametrize("kwargs, message", [
        (dict(signal_strength=-1.0), "signal_strength must be >= 0"),
        (dict(n_cohorts=3, samples_per_cohort=(10, 10)),
         "samples_per_cohort length must equal n_cohorts"),
        (dict(n_cohorts=0, samples_per_cohort=()), "n_cohorts must be >= 1"),
        (dict(n_cohorts=2, samples_per_cohort=(0, 10)),
         "samples_per_cohort must hold integers >= 1"),
        (dict(n_cohorts=2, samples_per_cohort=(-3, 10)),
         "samples_per_cohort must hold integers >= 1"),
        (dict(n_cohorts=2, samples_per_cohort=(10.5, 10)),
         "samples_per_cohort must hold integers >= 1"),
        (dict(n_cohorts=2, samples_per_cohort=(True, 10)),
         "samples_per_cohort must hold integers >= 1"),
        (dict(n_genes=0), "n_genes must be >= 1"),
        (dict(n_latents=0), "n_latents must be >= 1"),
        (dict(noise_scale=-1.0), "noise_scale must be >= 0"),
        (dict(seed=-1), "seed must be >= 0"),
        (dict(biomarker_dim=-1), "biomarker_dim must be >= 0"),
        (dict(tide_dim=-1), "tide_dim must be >= 0"),
        (dict(ipres_dim=-1), "ipres_dim must be >= 0"),
        (dict(pheno_dim=-1), "pheno_dim must be >= 0"),
        (dict(active_concepts={"PD1": (0, 1)}), "active_concepts key 'PD1'"),
    ])
    def test_invalid_spec_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SyntheticSpec(**kwargs)


class TestSplitByGroup:
    @pytest.fixture
    def dataset(self):
        return generate_synthetic(SyntheticSpec(seed=1))

    def test_loco_gives_eight_folds(self, dataset):
        plan = split_by_group(dataset, "cohort")
        assert len(plan.folds) == 8

    def test_cancer_types_give_four_folds(self, dataset):
        plan = split_by_group(dataset, "cancer_type")
        assert len(plan.folds) == 4

    def test_treatments_give_four_folds(self, dataset):
        plan = split_by_group(dataset, "treatment")
        assert len(plan.folds) == 4

    @pytest.mark.parametrize("key", ["cohort", "cancer_type", "treatment"])
    def test_folds_partition_dataset(self, dataset, key):
        plan = split_by_group(dataset, key)
        all_test = np.concatenate([f.test_idx for f in plan.folds])
        assert len(all_test) == len(set(all_test.tolist())) == len(dataset)
        for f in plan.folds:
            assert set(f.test_idx) & set(f.train_idx) == set()
            assert len(f.test_idx) + len(f.train_idx) == len(dataset)

    def test_single_group_rejected(self):
        ds = _dataset_from_tpm(np.ones((4, 3)))
        with pytest.raises(ValueError, match=">= 2"):
            split_by_group(ds, "treatment")
