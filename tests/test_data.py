import numpy as np
import pytest

from biocompass.data import (Dataset, SchemaError, SyntheticSpec,
                             fit_normalization, generate_synthetic,
                             generate_synthetic_with_truth, load_csv,
                             normalize, split_by_group, write_csv)
from biocompass.evaluation import roc_auc


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
        assert ds.pathway.shape == (2, 0)
        assert ds.biomarker_mask[0, 0] == 1.0
        assert ds.biomarker_mask[1, 0] == 0.0  # empty cell -> missing, not 0

    def test_missing_record_fields_surface_in_record(self, tmp_path):
        path = make_csv(tmp_path, [well_formed_row()])
        rec = load_csv(path).record(0)
        assert rec.sample_id == "s1"
        assert rec.treatment.token() == "PD-1"
        assert rec.biomarkers is not None

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


class TestNormalize:
    def test_constant_gene_maps_to_zero(self):
        tpm = np.array([[3.0, 1.0], [3.0, 7.0], [3.0, 0.0]])
        stats = fit_normalization(tpm, np.arange(3))
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

    def test_empty_training_set_rejected(self, rng):
        ds = _dataset_from_tpm(rng.uniform(0, 10, size=(4, 3)))
        with pytest.raises(ValueError, match="nonempty"):
            normalize(ds, np.array([], dtype=int))


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

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(signal_strength=-1.0)
        with pytest.raises(ValueError):
            SyntheticSpec(n_cohorts=3, samples_per_cohort=(10, 10))


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
