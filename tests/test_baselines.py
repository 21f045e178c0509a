import warnings

import numpy as np
import pytest

from biocompass.baselines import (SignatureDef, SignatureError,
                                  default_signatures, fit_logreg,
                                  parse_signature_file, power_iteration_pc1,
                                  run_baselines, signature_score)
from biocompass.data import SyntheticSpec, generate_synthetic
from biocompass.evaluation import roc_auc
from test_data import _dataset_from_tpm


class TestSignatureDef:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            SignatureDef("x", "tsne", genes=("a",))

    def test_empty_gene_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            SignatureDef("x", "gene_set_mean")

    def test_pair_kind_needs_pairs(self):
        with pytest.raises(ValueError, match="pairs"):
            SignatureDef("x", "gene_pair_ratio_sum", genes=("a", "b"))


class TestParseSignatureFile:
    def test_three_block_file(self, tmp_path):
        path = tmp_path / "sigs.txt"
        path.write_text(
            "name ifng6\n"
            "kind gene_set_mean\n"
            "genes CXCL9 CXCL10 IDO1  # trailing comment\n"
            "\n"
            "name myeloid\n"
            "kind pc1\n"
            "genes CD68 CD163\n"
            "\n"
            "name ratio\n"
            "kind gene_pair_ratio_sum\n"
            "pairs CD8A:CD4 GZMB:IL10\n")
        sigs = parse_signature_file(path)
        assert [s.name for s in sigs] == ["ifng6", "myeloid", "ratio"]
        assert sigs[0].genes == ("CXCL9", "CXCL10", "IDO1")
        assert sigs[2].pairs == (("CD8A", "CD4"), ("GZMB", "IL10"))

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("name x\nkind pc1\nweights 1 2 3\n")
        with pytest.raises(ValueError, match="weights"):
            parse_signature_file(path)


class TestSignatureScore:
    def test_single_gene_mean_is_zscored_gene(self, rng):
        tpm = rng.uniform(0, 50, size=(12, 3))
        ds = _dataset_from_tpm(tpm)
        train = np.arange(12)
        score = signature_score(ds, SignatureDef("s", "gene_set_mean",
                                                 genes=("g1",)), train)
        logged = np.log2(tpm[:, 1] + 1.0)
        expected = (logged - logged.mean()) / logged.std()
        np.testing.assert_allclose(score, expected)

    def test_two_identical_genes_match_single(self, rng):
        tpm = rng.uniform(0, 50, size=(10, 3))
        tpm[:, 2] = tpm[:, 0]
        ds = _dataset_from_tpm(tpm)
        train = np.arange(10)
        two = signature_score(ds, SignatureDef("s", "gene_set_mean",
                                               genes=("g0", "g2")), train)
        one = signature_score(ds, SignatureDef("s", "gene_set_mean",
                                               genes=("g0",)), train)
        np.testing.assert_allclose(two, one)

    def test_pair_ratio_counts_dominant_genes(self):
        tpm = np.array([[10.0, 1.0, 8.0, 2.0],
                        [1.0, 10.0, 8.0, 2.0],
                        [1.0, 10.0, 2.0, 8.0]])
        ds = _dataset_from_tpm(tpm)
        sig = SignatureDef("r", "gene_pair_ratio_sum",
                           pairs=(("g0", "g1"), ("g2", "g3")))
        score = signature_score(ds, sig, np.arange(3))
        np.testing.assert_array_equal(score, [2.0, 1.0, 0.0])

    def test_missing_genes_dropped_with_warning(self, rng):
        ds = _dataset_from_tpm(rng.uniform(0, 10, size=(6, 2)))
        sig = SignatureDef("s", "gene_set_mean", genes=("g0", "nope"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            signature_score(ds, sig, np.arange(6))
        assert any("dropped" in str(w.message) for w in caught)

    def test_all_genes_missing_is_an_error(self, rng):
        ds = _dataset_from_tpm(rng.uniform(0, 10, size=(6, 2)))
        sig = SignatureDef("s", "gene_set_mean", genes=("nope", "nada"))
        with pytest.raises(SignatureError, match="all genes missing"):
            signature_score(ds, sig, np.arange(6))

    def test_pc1_recovers_planted_direction(self, rng):
        # rank-one structure: 5 genes all driven by one latent factor
        latent = rng.normal(size=40)
        loadings = np.array([1.0, 0.8, 0.6, -0.4, 0.2])
        logged = 5.0 + np.outer(latent, loadings) + 0.01 * rng.normal(size=(40, 5))
        ds = _dataset_from_tpm(np.exp2(logged) - 1.0)
        sig = SignatureDef("p", "pc1", genes=tuple(f"g{j}" for j in range(5)))
        score = signature_score(ds, sig, np.arange(40))
        r = np.corrcoef(score, latent)[0, 1]
        assert abs(r) >= 0.999
        # sign convention: positively correlated with the first gene
        assert np.corrcoef(score, logged[:, 0])[0, 1] > 0


class TestPowerIteration:
    def test_matches_dense_eigensolver(self, rng):
        for _ in range(10):
            a = rng.normal(size=(6, 6))
            cov = a @ a.T
            v = power_iteration_pc1(cov)
            evals, evecs = np.linalg.eigh(cov)
            lead = evecs[:, -1]
            assert abs(float(v @ lead)) >= 0.999  # |cosine| to true PC1
            assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_zero_matrix_returns_unit_vector(self):
        v = power_iteration_pc1(np.zeros((4, 4)))
        assert np.linalg.norm(v) == pytest.approx(1.0)


class TestFitLogreg:
    def test_separable_data_perfect_auc(self, rng):
        x = np.vstack([rng.normal(-3.0, 0.5, size=(20, 2)),
                       rng.normal(3.0, 0.5, size=(20, 2))])
        y = np.array([0] * 20 + [1] * 20)
        lm = fit_logreg(x, y, l2=0.01)
        assert roc_auc(lm.predict_proba(x), y) == 1.0

    def test_zero_variance_feature_gets_zero_weight(self, rng):
        x = rng.normal(size=(30, 2))
        x[:, 1] = 7.0
        y = (x[:, 0] > 0).astype(int)
        lm = fit_logreg(x, y, l2=0.1)
        # at the optimum the only force on this weight is the l2 penalty,
        # so |w| <= grad_tol * n / l2
        assert abs(lm.weights[1]) <= 1e-6 * len(y) / 0.1

    def test_stronger_l2_shrinks_weights(self, rng):
        x = rng.normal(size=(40, 3))
        y = (x @ [1.0, -0.5, 0.2] > 0).astype(int)
        loose = fit_logreg(x, y, l2=0.01)
        tight = fit_logreg(x, y, l2=10.0)
        assert np.linalg.norm(tight.weights) < np.linalg.norm(loose.weights)

    def test_converges_to_small_gradient(self, rng):
        x = rng.normal(size=(25, 2))
        y = rng.integers(0, 2, size=25)
        y[:2] = [0, 1]
        lm = fit_logreg(x, y, l2=1.0)
        assert lm.converged

    def test_single_class_rejected(self, rng):
        with pytest.raises(ValueError, match="both classes"):
            fit_logreg(rng.normal(size=(10, 2)), np.ones(10))

    def test_matches_closed_form_optimum_condition(self, rng):
        # at the optimum: X^T (p - y) / n + (l2/n) w == 0
        x = rng.normal(size=(30, 3))
        y = rng.integers(0, 2, size=30)
        y[:2] = [0, 1]
        # second input: the expression features of the default cohort's
        # LOCO fold that holds out cohort_07 (410 x 512), at the CLI's l2
        ds = generate_synthetic(SyntheticSpec())
        train = ds.cohort_ids != "cohort_07"
        for x, y, l2 in [(x, y, 2.0),
                         (np.log2(ds.expression[train] + 1.0),
                          ds.response[train], 1.0)]:
            lm = fit_logreg(x, y, l2=l2)
            z = (x - lm.feature_mean) / lm.feature_std
            p = lm.predict_proba(x)
            grad = z.T @ (p - y) / len(y) + l2 / len(y) * lm.weights
            assert lm.converged
            assert np.linalg.norm(grad) <= 1e-5


@pytest.fixture(scope="module")
def baseline_dataset():
    return generate_synthetic(SyntheticSpec(
        n_cohorts=3, samples_per_cohort=(30, 30, 30), n_genes=48,
        n_latents=4, seed=11,
        active_concepts={"PD-1": (0,), "PD-L1": (1,), "CTLA-4": (2,),
                         "CTLA-4+PD-1": (3,)}))


class TestRunBaselines:
    def test_methods_and_row_counts(self, baseline_dataset):
        results = run_baselines(baseline_dataset, "loco", seeds=[0, 1])
        names = [r.method for r in results]
        assert names == ["sig_mean10", "sig_pc1_20", "sig_pairs5",
                         "lr_biomarkers", "lr_expression", "pca_lr_expression"]
        for r in results:
            assert len(r.report.rows) == 3 * 2  # folds x seeds

    def test_expression_lr_beats_null_on_planted_signal(self, baseline_dataset):
        results = run_baselines(baseline_dataset, "loco", seeds=[0])
        by_name = {r.method: r.report for r in results}
        agg = by_name["lr_expression"].aggregates()
        assert agg["all"]["roc_auc"][0] > 0.55

    def test_default_signatures_need_enough_genes(self, rng):
        ds = _dataset_from_tpm(rng.uniform(0, 10, size=(8, 12)))
        assert [s.name for s in default_signatures(ds)] == ["sig_mean10"]

    def test_unknown_protocol_rejected(self, baseline_dataset):
        with pytest.raises(ValueError, match="protocol"):
            run_baselines(baseline_dataset, "kfold", seeds=[0])
