import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biocompass import diffcore
from biocompass.data import (SyntheticSpec, generate_synthetic, normalize,
                             split_by_group)
from biocompass.diffcore import Adam, Tape, zero_grads
from biocompass.evaluation import (AblationConfig, FoldSeedResult, TrainConfig,
                                   _targets_slice, aggregate_rows,
                                   aggregate_seeds, compute_metrics,
                                   emit_report, make_model_config,
                                   read_perfold_csv, roc_auc, run_ablation,
                                   run_protocol, threshold_metrics,
                                   train_model, METRIC_NAMES)
from biocompass.model import Model
from biocompass.objective import LossWeights, composite_loss


def brute_force_auc(scores, labels):
    """All-pairs oracle: (#{pos>neg} + 0.5 #ties) / (#pos #neg)."""
    scores = np.asarray(scores, dtype=float)
    pos = scores[np.asarray(labels) == 1]
    neg = scores[np.asarray(labels) == 0]
    if len(pos) == 0 or len(neg) == 0:
        return None
    count = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                count += 1.0
            elif p == n:
                count += 0.5
    return count / (len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.3], [1, 1, 0]) == 1.0

    def test_hand_counted_pairs(self):
        assert roc_auc([0.9, 0.7, 0.6, 0.2], [1, 0, 1, 0]) == pytest.approx(0.75)

    def test_label_flip_symmetry(self, rng):
        scores = rng.normal(size=30)
        labels = rng.integers(0, 2, size=30)
        labels[:2] = [0, 1]
        auc = roc_auc(scores, labels)
        assert roc_auc(scores, 1 - labels) == pytest.approx(1.0 - auc)

    def test_single_class_is_na_with_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert roc_auc([0.1, 0.9], [1, 1]) is None
        assert any("single class" in str(w.message) for w in caught)

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 51))
            scores = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=n)
            labels = rng.integers(0, 2, size=n)
            expected = brute_force_auc(scores, labels)
            got = roc_auc(scores, labels)
            if expected is None:
                assert got is None
            else:
                assert got == expected  # exact equality, both are pair counts


class TestThresholdMetrics:
    def test_perfect_predictions(self):
        m = threshold_metrics([0.9, 0.1, 0.8, 0.2], [1, 0, 1, 0])
        assert m["accuracy"] == 1.0
        assert m["f1"] == 1.0

    def test_confusion_matrix_arithmetic(self):
        m = threshold_metrics([0.9, 0.9, 0.1, 0.1], [1, 0, 1, 0])
        assert m["precision"] == pytest.approx(0.5)
        assert m["recall"] == pytest.approx(0.5)
        assert m["f1"] == pytest.approx(0.5)

    def test_all_negative_predictions_zero_recall(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m = threshold_metrics([0.1, 0.2], [1, 1])
        assert m["recall"] == 0.0
        assert m["precision"] == 0.0

    @given(st.integers(2, 40), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_f1_is_harmonic_mean(self, n, seed):
        rng = np.random.default_rng(seed)
        probs = rng.random(n)
        labels = rng.integers(0, 2, size=n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m = threshold_metrics(probs, labels)
        assert all(0.0 <= m[k] <= 1.0 for k in m)
        if m["precision"] > 0 and m["recall"] > 0:
            h = 2 * m["precision"] * m["recall"] / (m["precision"] + m["recall"])
            assert m["f1"] == pytest.approx(h, abs=1e-12)


class TestAggregateSeeds:
    def test_constant_values_zero_width(self):
        mean, lo, hi = aggregate_seeds([0.7, 0.7, 0.7, 0.7])
        assert (mean, lo, hi) == (0.7, 0.7, 0.7)

    def test_two_seed_t_interval(self):
        mean, lo, hi = aggregate_seeds([0.6, 0.8])
        assert mean == pytest.approx(0.7)
        assert hi - mean == pytest.approx(1.27062, abs=1e-4)

    def test_four_seed_uses_t_3_1824(self):
        vals = [0.6, 0.7, 0.8, 0.9]
        mean, lo, hi = aggregate_seeds(vals)
        s = np.std(vals, ddof=1)
        assert hi - mean == pytest.approx(3.1824 * s / 2.0, abs=1e-3)

    def test_permutation_invariance(self):
        a = aggregate_seeds([0.5, 0.9, 0.7])
        b = aggregate_seeds([0.9, 0.7, 0.5])
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_single_seed_degenerate_with_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert aggregate_seeds([0.42]) == (0.42, 0.42, 0.42)
        assert caught

    def test_ci_brackets_mean(self, rng):
        for _ in range(50):
            vals = rng.random(int(rng.integers(2, 8)))
            mean, lo, hi = aggregate_seeds(vals)
            assert lo <= mean <= hi


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_synthetic(SyntheticSpec(
        n_cohorts=4, samples_per_cohort=(20, 20, 60, 60), n_genes=12,
        n_latents=4, seed=2,
        active_concepts={"PD-1": (0,), "PD-L1": (1,), "CTLA-4": (2,),
                         "CTLA-4+PD-1": (3,)}))


@pytest.fixture(scope="module")
def tiny_report(tiny_dataset):
    return run_protocol(tiny_dataset, "loco", seeds=[0, 1],
                        model_cfg=make_model_config(tiny_dataset, token_dim=4,
                                                    gate_hidden=4),
                        train_cfg=TrainConfig(epochs=3))


class TestRunProtocol:
    def test_exhaustive_fold_seed_grid(self, tiny_report):
        assert len(tiny_report.rows) == 4 * 2
        pairs = {(r.group, r.seed) for r in tiny_report.rows}
        assert len(pairs) == 8

    def test_buckets_by_test_size(self, tiny_report):
        buckets = tiny_report.bucket_of_group()
        assert sorted(buckets.values()) == ["large", "large", "small", "small"]

    def test_metrics_bounded(self, tiny_report):
        for r in tiny_report.rows:
            for k, v in r.metrics.items():
                if v is not None:
                    assert 0.0 <= v <= 1.0

    def test_determinism(self, tiny_dataset, tiny_report):
        again = run_protocol(tiny_dataset, "loco", seeds=[0, 1],
                             model_cfg=make_model_config(tiny_dataset,
                                                         token_dim=4,
                                                         gate_hidden=4),
                             train_cfg=TrainConfig(epochs=3))
        for a, b in zip(tiny_report.rows, again.rows):
            assert a.metrics == b.metrics

    def test_unknown_protocol_rejected(self, tiny_dataset):
        with pytest.raises(ValueError, match="protocol"):
            run_protocol(tiny_dataset, "bogus", seeds=[0])

    def test_ablation_runner_emits_five_configs(self, tiny_dataset):
        reports = run_ablation(tiny_dataset, "loto", seeds=[0],
                               model_cfg=make_model_config(tiny_dataset,
                                                           token_dim=4,
                                                           gate_hidden=4),
                               train_cfg=TrainConfig(epochs=2))
        assert sorted(reports) == ["full", "no_alignment", "no_auxiliary",
                                   "no_gating", "no_pathway"]
        for rep in reports.values():
            assert len(rep.rows) == 4


def train_pooling_each_batch(model, dataset, train_idx, x_norm, weights, cfg,
                             seed):
    """Reference training loop: every step runs the whole forward pass,
    pooling included, on its own tape."""
    model.set_mode(cfg.mode)
    params = model.parameters()
    opt = Adam(params, lr=cfg.lr)
    rng = np.random.default_rng(seed)
    history = []
    for epoch in range(cfg.epochs):
        order = train_idx[rng.permutation(len(train_idx))]
        sums, n_batches = {}, 0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            tape = Tape()
            zero_grads(params)
            out = model.forward(tape, x_norm[batch], dataset.treatments[batch])
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


class TestTrainModel:
    @pytest.fixture(scope="class")
    def fold_inputs(self):
        dataset = generate_synthetic(SyntheticSpec(
            n_cohorts=4, samples_per_cohort=(30, 30, 40, 40), n_genes=300,
            n_latents=4, seed=4,
            active_concepts={"PD-1": (0,), "PD-L1": (1,), "CTLA-4": (2,),
                             "CTLA-4+PD-1": (3,)}))
        fold = split_by_group(dataset, "cohort").folds[0]
        x_norm, _ = normalize(dataset, fold.train_idx)
        return dataset, fold.train_idx, x_norm

    def train_both(self, fold_inputs, mode):
        dataset, train_idx, x_norm = fold_inputs
        cfg = TrainConfig(epochs=4, lr=1e-2, mode=mode)
        cfg_model = make_model_config(dataset, token_dim=8, gate_hidden=8)
        fast, ref = Model(cfg_model, seed=3), Model(cfg_model, seed=3)
        args = (dataset, train_idx, x_norm, LossWeights(), cfg, 5)
        return (fast, train_model(fast, *args),
                ref, train_pooling_each_batch(ref, *args))

    def test_pft_pools_once_like_each_batch(self, fold_inputs):
        fast, fast_hist, ref, ref_hist = self.train_both(fold_inputs, "pft")
        # pooling all rows at once only changes BLAS summation order
        for a, b in zip(fast_hist, ref_hist):
            assert a.keys() == b.keys()
            for k in a:
                assert abs(a[k] - b[k]) <= 1e-12 * abs(b[k]), k
        for name, p in fast.params.items():
            q = ref.params[name].data
            assert np.linalg.norm(p.data - q) <= 1e-12 * np.linalg.norm(q), name
        assert (fast.params["encoder.gene_embedding"].data.tobytes()
                == Model(fast.config, seed=3)
                .params["encoder.gene_embedding"].data.tobytes())

    def test_fft_matches_each_batch_bit_for_bit(self, fold_inputs):
        fast, fast_hist, ref, ref_hist = self.train_both(fold_inputs, "fft")
        assert fast_hist == ref_hist
        for name, p in fast.params.items():
            assert p.data.tobytes() == ref.params[name].data.tobytes(), name


class TestAggregateRows:
    def test_na_fold_excluded(self):
        rows = [
            FoldSeedResult(0, "g1", 0, {"roc_auc": 0.8, "accuracy": 0.7}),
            FoldSeedResult(1, "g2", 0, {"roc_auc": None, "accuracy": 0.6}),
            FoldSeedResult(0, "g1", 1, {"roc_auc": 0.6, "accuracy": 0.7}),
            FoldSeedResult(1, "g2", 1, {"roc_auc": None, "accuracy": 0.8}),
        ]
        agg = aggregate_rows(rows, {"g1": "small", "g2": "large"},
                             {"g1": 10, "g2": 60})
        mean, lo, hi, n = agg["all"]["roc_auc"]
        assert mean == pytest.approx(0.7)
        assert n == 2
        assert agg["all"]["accuracy"][0] == pytest.approx((0.65 + 0.75) / 2)

    def test_weighted_mean(self):
        rows = [FoldSeedResult(0, "g1", 0, {"accuracy": 1.0}),
                FoldSeedResult(1, "g2", 0, {"accuracy": 0.0})]
        agg = aggregate_rows(rows, {"g1": "small", "g2": "large"},
                             {"g1": 10, "g2": 30}, weighted=True)
        assert agg["all"]["accuracy"][0] == pytest.approx(0.25)


class TestEmitReport:
    def test_files_and_round_trip(self, tiny_report, tmp_path):
        emit_report(tiny_report, tmp_path)
        assert (tmp_path / "perfold.csv").exists()
        assert (tmp_path / "aggregate.csv").exists()
        for metric in METRIC_NAMES:
            assert (tmp_path / f"{metric}.svg").exists()
        rows = read_perfold_csv(tmp_path / "perfold.csv")
        re_agg = aggregate_rows(rows, tiny_report.bucket_of_group(),
                                tiny_report.group_sizes)
        original = tiny_report.aggregates()
        for bucket in original:
            for metric in original[bucket]:
                assert re_agg[bucket][metric] == original[bucket][metric]

    def test_deterministic_bytes(self, tiny_report, tmp_path):
        emit_report(tiny_report, tmp_path / "a")
        emit_report(tiny_report, tmp_path / "b")
        for name in ("perfold.csv", "aggregate.csv", "roc_auc.svg"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_empty_report_rejected(self, tiny_report, tmp_path):
        from biocompass.evaluation import MetricsReport
        empty = MetricsReport(protocol="loco", key="cohort", rows=[],
                              group_sizes={}, seeds=[])
        with pytest.raises(ValueError, match="empty"):
            emit_report(empty, tmp_path)
