import warnings
from dataclasses import replace

import numpy as np
import pytest

from biocompass import baselines, diffcore
from biocompass.baselines import (SignatureDef, SignatureError,
                                  _filled_biomarkers,
                                  default_signatures, fit_logreg,
                                  parse_signature_file, principal_axes,
                                  run_baselines, signature_score)
from biocompass.data import SyntheticSpec, generate_synthetic, split_by_group
from biocompass.evaluation import roc_auc
from test_data import _dataset_from_tpm


def counted_tapes(monkeypatch) -> list:
    """Every tape that the baselines build from now on: one per fit_logreg
    call, which each evaluation replays, and one per predict_proba call."""
    tapes = []

    class CountedTape(diffcore.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)
    monkeypatch.setattr(baselines, "Tape", CountedTape)
    return tapes


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
        with pytest.raises(ValueError, match="line 3: unknown signature "
                                             "field 'weights'"):
            parse_signature_file(path)

    @pytest.mark.parametrize("text, message", [
        ("name\nkind pc1\ngenes A\n", "line 1: 'name' takes one value, got 0"),
        ("name x\nkind\ngenes A\n", "line 2: 'kind' takes one value, got 0"),
        ("name x y\nkind pc1\ngenes A\n",
         "line 1: 'name' takes one value, got 2"),
        ("name x\nkind gene_pair_ratio_sum\npairs A:B G3\n",
         "line 3: gene pair 'G3' is not of the form A:B"),
        ("name x\nkind gene_pair_ratio_sum\npairs A:B:C\n",
         "line 3: gene pair 'A:B:C' is not of the form A:B"),
        ("name x\nkind gene_pair_ratio_sum\npairs A:\n",
         "line 3: gene pair 'A:' is not of the form A:B"),
        ("name x\nkind pc1\ngenes A\nname y\nkind pc1\ngenes B\n",
         "line 4: second 'name' line in the block at line 1"),
    ])
    def test_malformed_line_names_path_and_line(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            parse_signature_file(path)
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("block, message", [
        ("name x\ngenes A B\n", "missing 'kind' line"),
        ("kind pc1\ngenes A B\n", "missing 'name' line"),
        ("name x\nkind tsne\ngenes A\n", "unknown signature kind: 'tsne'"),
        ("name x\nkind pc1\ngenes\n", "signature x: empty gene list"),
    ])
    def test_bad_block_names_path_and_first_line(self, tmp_path, block,
                                                 message):
        path = tmp_path / "bad.txt"
        path.write_text("name ok\nkind pc1\ngenes A\n\n# the next one\n\n"
                        + block)
        with pytest.raises(ValueError) as exc:
            parse_signature_file(path)
        assert str(exc.value) == f"{path}: block at line 7: {message}"


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

    def test_pair_missing_a_gene_dropped_with_one_warning(self):
        tpm = np.array([[10.0, 1.0, 8.0, 2.0],
                        [1.0, 10.0, 8.0, 2.0],
                        [1.0, 10.0, 2.0, 8.0]])
        ds = _dataset_from_tpm(tpm)
        sig = SignatureDef("r", "gene_pair_ratio_sum",
                           pairs=(("g0", "g1"), ("nope", "g3"),
                                  ("g2", "g3"), ("g1", "nada")))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            score = signature_score(ds, sig, np.arange(3))
        np.testing.assert_array_equal(score, [2.0, 1.0, 0.0])
        assert [str(w.message) for w in caught] == [
            "signature r: 2 gene(s) not in dataset, dropped"]

    def test_no_resolvable_pair_is_an_error(self, rng):
        ds = _dataset_from_tpm(rng.uniform(0, 10, size=(6, 2)))
        sig = SignatureDef("r", "gene_pair_ratio_sum",
                           pairs=(("g0", "nope"), ("nada", "g1")))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(SignatureError, match="no resolvable pairs"):
                signature_score(ds, sig, np.arange(6))

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


class TestPrincipalAxes:
    @pytest.mark.parametrize("shape", [(300, 40), (40, 300)],
                             ids=["tall", "wide"])
    def test_matches_covariance_eigenvectors(self, rng, shape):
        # distinct variances per column keep the leading eigenvalues apart
        rows = rng.normal(size=shape) * np.linspace(3.0, 0.5, shape[1])
        k = 5
        mean, axes = principal_axes(rows, k)
        np.testing.assert_allclose(mean, rows.mean(axis=0))
        assert axes.shape == (shape[1], k)
        cov = np.cov(rows, rowvar=False)
        evecs = np.linalg.eigh(cov)[1][:, ::-1]
        for j in range(k):
            assert abs(float(axes[:, j] @ evecs[:, j])) >= 1 - 1e-10
        np.testing.assert_allclose(axes.T @ axes, np.eye(k), atol=1e-12)
        assert np.all(axes[0] >= 0)  # the sign rule

    def test_k_beyond_rank_returns_min_of_k_rows_and_genes(self, rng):
        rows = rng.normal(size=(4, 10))
        _, axes = principal_axes(rows, 8)
        assert axes.shape == (10, 4)
        # 4 centred rows have rank 3: those 3 axes still match the oracle
        evecs = np.linalg.eigh(np.cov(rows, rowvar=False))[1][:, ::-1]
        for j in range(3):
            assert abs(float(axes[:, j] @ evecs[:, j])) >= 1 - 1e-10
        _, axes = principal_axes(rng.normal(size=(30, 3)), 8)
        assert axes.shape == (3, 3)

    def test_constant_rows_give_unit_axes(self):
        mean, axes = principal_axes(np.full((5, 4), 2.0), 2)
        np.testing.assert_array_equal(mean, np.full(4, 2.0))
        np.testing.assert_allclose(np.linalg.norm(axes, axis=0), 1.0)


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

    def test_training_constant_feature_is_not_divided_by_rounding(self, rng):
        # 0.1's mean over 150 rows is not 0.1 to the bit, so a std from the
        # centred values is a rounding residue rather than 0
        x = np.column_stack([rng.normal(size=150), np.full(150, 0.1)])
        y = (x[:, 0] > 0).astype(int)
        lm = fit_logreg(x, y)
        assert lm.feature_mean[1] == 0.1
        assert lm.feature_std[1] == 1.0
        probs = lm.predict_proba(np.array([[0.3, 0.1], [0.3, 0.1000001]]))
        assert probs[0] == pytest.approx(probs[1], abs=1e-6)

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

    @pytest.mark.parametrize("case, error, message", [
        ("label 2", ValueError, "bce labels must be 0 or 1"),
        ("non-finite feature", diffcore.NonFiniteError,
         "non-finite value in constant"),
    ])
    def test_bad_input_raises_before_any_evaluation(self, rng, monkeypatch,
                                                    case, error, message):
        tapes = counted_tapes(monkeypatch)
        x = rng.normal(size=(20, 2))
        y = np.array([0, 1] * 10)
        if case == "label 2":
            y[-1] = 2
        else:
            x[-1, 0] = np.nan
        with pytest.raises(error, match=message):
            fit_logreg(x, y)
        assert tapes == []

    def test_inputs_are_checked_once_per_fit(self, rng, monkeypatch):
        tapes = counted_tapes(monkeypatch)
        calls = {}

        def counted_check_labels(module):
            fn = module.check_labels

            def wrapper(labels):
                calls["check_labels"] = calls.get("check_labels", 0) + 1
                return fn(labels)
            monkeypatch.setattr(module, "check_labels", wrapper)

        for module in (diffcore, baselines):
            counted_check_labels(module)
        check_finite = diffcore._check_finite

        def scan(values, context):
            calls[context] = calls.get(context, 0) + 1
            check_finite(values, context)
        monkeypatch.setattr(diffcore, "_check_finite", scan)
        evaluations = []
        run_backward = diffcore.backward

        def counted_backward(loss, tape):
            evaluations.append(tape)
            run_backward(loss, tape)
        monkeypatch.setattr(diffcore, "backward", counted_backward)
        x = rng.normal(size=(30, 3))
        y = (x[:, 0] > 0).astype(int)
        fit_logreg(x, y)
        # one recording, replayed by every L-BFGS-B evaluation
        assert len(tapes) == 1
        assert len(evaluations) > 1
        assert all(tape is tapes[0] for tape in evaluations)
        assert calls["check_labels"] == 1
        assert calls["constant"] == 1

    def test_non_finite_theta_is_named_by_the_replay(self, rng, monkeypatch):
        def one_nan_evaluation(fun, x0, **kwargs):
            theta = x0.copy()
            theta[0] = np.nan
            fun(theta)
        monkeypatch.setattr("scipy.optimize.minimize", one_nan_evaluation)
        x = rng.normal(size=(20, 2))
        y = np.array([0, 1] * 10)
        with pytest.raises(diffcore.NonFiniteError, match="linear"):
            fit_logreg(x, y)

    def test_probabilities_are_checked_and_strictly_inside_0_1(self):
        lm = baselines.LinearModel(weights=np.array([1.0]), bias=0.0,
                                   feature_mean=np.zeros(1),
                                   feature_std=np.ones(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probs = lm.predict_proba(np.array([[1000.0], [-1000.0]]))
        assert probs.tolist() == [diffcore.SIGMOID_HI, diffcore.SIGMOID_LO]
        assert ((probs > 0.0) & (probs < 1.0)).all()
        with pytest.raises(diffcore.NonFiniteError,
                           match="non-finite value in constant"):
            lm.predict_proba(np.array([[0.5], [np.nan]]))

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

    def test_weighted_aggregate_is_size_weighted_fold_mean(self):
        ds = generate_synthetic(SyntheticSpec(
            n_cohorts=3, samples_per_cohort=(20, 30, 50), n_genes=12,
            n_latents=4, seed=11,
            active_concepts={"PD-1": (0,), "PD-L1": (1,), "CTLA-4": (2,),
                             "CTLA-4+PD-1": (3,)}))
        plain = run_baselines(ds, "loco", seeds=[0])
        weighted = run_baselines(ds, "loco", seeds=[0], weighted=True)
        for p, w in zip(plain, weighted):
            assert [r.metrics for r in p.report.rows] == \
                [r.metrics for r in w.report.rows]
            sizes = w.report.group_sizes
            acc = [r.metrics["accuracy"] for r in w.report.rows]
            n = [sizes[r.group] for r in w.report.rows]
            hand = sum(a * k for a, k in zip(acc, n)) / sum(n)
            got = w.report.aggregates()["all"]["accuracy"][0]
            assert got == pytest.approx(hand, rel=1e-12), w.method
            assert p.report.aggregates()["all"]["accuracy"][0] == \
                pytest.approx(sum(acc) / len(acc), rel=1e-12)
        assert sorted(sizes.values()) == [20, 30, 50]

    def test_integer_group_values_split_like_their_strings(
            self, baseline_dataset):
        """Group values are compared as strings, so a dataset built in code
        with integer cohort ids gets the folds of their string forms."""
        ints = np.array([{"cohort_01": 10, "cohort_02": 9,
                          "cohort_03": 100}[c]
                         for c in baseline_dataset.cohort_ids])
        runs = [run_baselines(replace(baseline_dataset, cohort_ids=ids),
                              "loco", seeds=[0])
                for ids in (ints, ints.astype(str).astype(object))]
        assert [r.method for r in runs[0]] == [r.method for r in runs[1]]
        for a, b in zip(*runs):
            assert a.report.rows == b.report.rows, a.method
            assert [r.group for r in a.report.rows] == ["10", "100", "9"]

    def test_seed_error_surfaces(self, baseline_dataset):
        with pytest.raises(ValueError):
            run_baselines(baseline_dataset, "loco", seeds=[-1])

    def test_single_class_training_fold_skipped_with_warning(
            self, baseline_dataset):
        # cohort_01 all responders, the rest all non-responders: only the
        # fold that tests cohort_01 trains on a single class
        ds = replace(baseline_dataset, response=np.where(
            baseline_dataset.cohort_ids == "cohort_01", 1, 0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = run_baselines(ds, "loco", seeds=[0, 1])
        skipped = {str(w.message) for w in caught
                   if "fold skipped" in str(w.message)}
        assert all("cohort_01: training labels hold a single class" in m
                   for m in skipped) and skipped
        for r in results:
            assert {row.group for row in r.report.rows} == {"cohort_02",
                                                            "cohort_03"}
            assert len(r.report.rows) == 2 * 2


class TestBiomarkerFeatures:
    @staticmethod
    def _masked(ds, mask, hidden):
        return replace(ds, biomarkers=np.where(mask > 0, ds.biomarkers, hidden),
                       biomarker_mask=mask)

    def test_fully_observed_columns_pass_through(self, baseline_dataset):
        ds = baseline_dataset
        for fold in split_by_group(ds, "cohort").folds:
            feats = _filled_biomarkers(ds, fold.train_idx)
            assert feats.tobytes() == ds.biomarkers.tobytes()

    def test_masked_cells_take_training_mean(self, baseline_dataset):
        ds = baseline_dataset
        mask = np.ones_like(ds.biomarkers)
        mask[::3, 0] = 0.0
        fold = split_by_group(ds, "cohort").folds[0]
        train = fold.train_idx
        # column 1 unobserved on every training row, observed on test rows
        mask[train, 1] = 0.0
        feats = _filled_biomarkers(self._masked(ds, mask, 50.0), train)
        observed = train[mask[train, 0] > 0]
        np.testing.assert_allclose(feats[mask[:, 0] == 0, 0],
                                   ds.biomarkers[observed, 0].mean())
        np.testing.assert_array_equal(feats[mask[:, 0] > 0, 0],
                                      ds.biomarkers[mask[:, 0] > 0, 0])
        assert np.all(feats[:, 1] == feats[0, 1])
        np.testing.assert_array_equal(feats[:, 2:], ds.biomarkers[:, 2:])

    def test_value_under_zero_mask_does_not_change_rows(self, baseline_dataset):
        # load_csv stores 0 under a zero mask; any other stored value must
        # give the same lr_biomarkers rows
        ds = baseline_dataset
        mask = (np.random.default_rng(5).random(ds.biomarkers.shape) >= 0.2
                ).astype(float)
        runs = []
        for hidden in (0.0, 50.0, np.nan):
            masked = self._masked(ds, mask, hidden)
            for fold in split_by_group(ds, "cohort").folds:
                feats = _filled_biomarkers(masked, fold.train_idx)
                assert np.all(np.isfinite(feats))
            result = [r for r in run_baselines(masked, "loco", [0],
                                               signatures=[])
                      if r.method == "lr_biomarkers"][0]
            runs.append([row.metrics for row in result.report.rows])
        assert runs[0] == runs[1] == runs[2]
