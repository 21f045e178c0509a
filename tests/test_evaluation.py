import csv
import math
import os
import pickle
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import biocompass

from biocompass import diffcore, evaluation
from biocompass.data import (Dataset, NormalizationStats, SyntheticSpec,
                             apply_normalization, fit_normalization,
                             generate_synthetic, normalize, split_by_group)
from biocompass.diffcore import Adam, Constant, Tape, zero_grads
from biocompass.evaluation import (ABLATION_CONFIGS, PROTOCOL_KEYS,
                                   AblationConfig, FoldSeedResult,
                                   MetricsReport, TrainConfig,
                                   _distinct_runs,
                                   aggregate_cells, aggregate_rows,
                                   aggregate_seeds, compute_metrics,
                                   emit_report, make_model_config,
                                   read_perfold_csv, roc_auc, run_ablation,
                                   run_protocol, threshold_metrics,
                                   train_model, write_aggregate_csv, BUCKETS,
                                   METRIC_NAMES, T_975)
from biocompass import model as model_module
from biocompass.model import Model
from biocompass.objective import BatchTargets, LossWeights, composite_loss


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

    @pytest.mark.parametrize("tied", [True, False], ids=["tied", "untied"])
    def test_matches_rankdata_auc_exactly(self, tied):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 120))
            scores = (rng.integers(0, 6, size=n) / 5.0 if tied
                      else rng.random(size=n))
            labels = rng.integers(0, 2, size=n)
            labels[:2] = [0, 1]
            n_pos = int(labels.sum())
            u = (stats.rankdata(scores)[labels == 1].sum()
                 - n_pos * (n_pos + 1) / 2.0)
            assert roc_auc(scores, labels) == float(u / (n_pos * (n - n_pos)))

    def test_nan_score_gives_nan_like_rankdata(self):
        assert np.isnan(roc_auc([0.1, np.nan, 0.3], [0, 1, 1]))


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

    @pytest.mark.parametrize("n", range(2, 41))
    def test_t_value_matches_scipy_stats(self, n):
        values = np.linspace(0.5, 0.9, n) ** 2
        mean = float(values.mean())
        half = (float(stats.t.ppf(0.975, n - 1)) * float(values.std(ddof=1))
                / float(np.sqrt(n)))
        assert aggregate_seeds(values) == (mean, mean - half, mean + half)

    def test_t_constants_are_scipy_stdtrit_bit_for_bit(self):
        from scipy.special import stdtrit
        assert len(T_975) == 39
        for df, t in enumerate(T_975, start=1):
            assert t == float(stdtrit(df, 0.975)), df

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

    def test_integer_group_values_split_like_their_strings(self,
                                                           tiny_dataset):
        """Group values are compared as strings, so a dataset built in code
        with integer cohort ids gets the folds of their string forms."""
        ints = np.array([{"cohort_01": 10, "cohort_02": 9, "cohort_03": 2,
                          "cohort_04": 100}[c]
                         for c in tiny_dataset.cohort_ids])
        reports = [run_protocol(replace(tiny_dataset, cohort_ids=ids), "loco",
                                seeds=[0], model_cfg=make_model_config(
                                    tiny_dataset, token_dim=4, gate_hidden=4),
                                train_cfg=TrainConfig(epochs=2))
                   for ids in (ints, ints.astype(str).astype(object))]
        assert reports[0].rows == reports[1].rows
        assert [r.group for r in reports[0].rows] == ["10", "100", "2", "9"]
        assert reports[0].group_sizes == reports[1].group_sizes

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


def batch_targets(dataset, batch) -> BatchTargets:
    """The targets of rows `batch`, as fresh arrays."""
    return BatchTargets(
        response=dataset.response[batch],
        pathway=dataset.pathway[batch],
        pathway_mask=dataset.pathway_mask[batch],
        biomarkers=dataset.biomarkers[batch],
        biomarker_mask=dataset.biomarker_mask[batch],
        aux={task: getattr(dataset, task)[batch]
             for task in model_module.AUX_TASKS},
        aux_masks={task: getattr(dataset, f"{task}_mask")[batch]
                   for task in model_module.AUX_TASKS})


def train_pooling_each_batch(model, dataset, train_idx, x_norm, weights, cfg,
                             seed, pooled=None):
    """Reference training loop: every step records its whole forward pass
    on a new tape, pooling included, or from its rows of the table
    `pooled` when one is given, with targets sliced from `dataset`."""
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
            if pooled is None:
                out = model.forward(tape, x_norm[batch],
                                    dataset.treatments[batch])
            else:
                out = model.head(tape, Constant(pooled[batch]),
                                 dataset.treatments[batch])
            total, breakdown = composite_loss(
                tape, out, batch_targets(dataset, batch), weights)
            diffcore.backward(total, tape)
            opt.step()
            for k, v in breakdown.as_dict().items():
                sums[k] = sums.get(k, 0.0) + v
            n_batches += 1
        history.append({"epoch": epoch,
                        **{k: v / n_batches for k, v in sums.items()}})
    return history


def recorded_graphs(n_rows, batch_size) -> int:
    """How many steps `train_model` records: one per distinct batch size."""
    return len({min(batch_size, n_rows - start)
                for start in range(0, n_rows, batch_size)})


@pytest.fixture(scope="module")
def fold_inputs():
    dataset = generate_synthetic(SyntheticSpec(
        n_cohorts=4, samples_per_cohort=(30, 30, 40, 40), n_genes=300,
        n_latents=4, seed=4,
        active_concepts={"PD-1": (0,), "PD-L1": (1,), "CTLA-4": (2,),
                         "CTLA-4+PD-1": (3,)}))
    fold = split_by_group(dataset, "cohort").folds[0]
    x_norm, _ = normalize(dataset, fold.train_idx)
    return dataset, fold.train_idx, x_norm


class TestTrainConfig:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["lr", "epochs", "batch_size",
                                      "threshold"])
    def test_non_finite_value_rejected(self, name, value):
        # an infinite lr would pass `lr > 0` and fail only at the first
        # step, as a non-finite value in `linear`
        with pytest.raises(ValueError, match=rf"^{name} must be .*, got "):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name, value, shown", [
        ("epochs", 2.5, "2.5 (float)"), ("batch_size", 8.5, "8.5 (float)"),
        ("epochs", True, "True (bool)"), ("batch_size", False, "False (bool)"),
        ("epochs", 3.0, "3.0 (float)"), ("batch_size", "32", "'32' (str)"),
        ("epochs", np.float64(3.0), f"{np.float64(3.0)!r} (float64)")])
    def test_count_that_is_not_an_int_rejected(self, name, value, shown):
        # a float used to fail only inside run_protocol, as a TypeError
        # from range(), and epochs=True trained one epoch
        with pytest.raises(ValueError) as raised:
            TrainConfig(**{name: value})
        assert str(raised.value) == f"{name} must be an int, got {shown}"

    def test_int_counts_accepted(self):
        cfg = TrainConfig(epochs=2, batch_size=8)
        assert (cfg.epochs, cfg.batch_size) == (2, 8)

    def test_numpy_int_counts_accepted_as_ints(self):
        # a count computed with numpy, say over np.arange in a sweep
        cfg = TrainConfig(epochs=np.int64(3), batch_size=np.int32(8))
        assert (cfg.epochs, cfg.batch_size) == (3, 8)
        assert type(cfg.epochs) is int and type(cfg.batch_size) is int


class TestTrainModel:
    @pytest.mark.parametrize("mode", ["pft", "fft"])
    def test_gradients_on_a_step_tape_never_share_memory(
            self, fold_inputs, monkeypatch, mode):
        # `Tensor.accumulate` keeps a first write without copying it, so
        # every backward must hand each tensor an array of its own
        dataset, train_idx, x_norm = fold_inputs
        model = Model(make_model_config(dataset), seed=0)
        checked = []
        backward = diffcore.backward

        def checking_backward(loss, tape):
            backward(loss, tape)
            tensors = [out for out, _ in tape._records]
            tensors += [p.tensor for p in model.params.values()]
            grads = [t.grad for t in tensors
                     if isinstance(t.grad, np.ndarray)]
            for i, g in enumerate(grads):
                for h in grads[i + 1:]:
                    assert not np.shares_memory(g, h)
            checked.append(len(grads))

        monkeypatch.setattr(diffcore, "backward", checking_backward)
        train_model(model, dataset, train_idx, x_norm, LossWeights(),
                    TrainConfig(epochs=1, batch_size=len(train_idx),
                                mode=mode), seed=0)
        # one step, with gradients on a few dozen tensors
        assert len(checked) == 1 and checked[0] > 20

    @pytest.mark.parametrize("mode, with_table", [("pft", True),
                                                  ("pft", False),
                                                  ("fft", False)])
    def test_steps_call_head_under_pft_and_forward_under_fft(
            self, fold_inputs, monkeypatch, mode, with_table):
        """With the encoder frozen a step starts from pooled rows, so its
        recording calls `Model.head` and never `Model.forward`; with the
        encoder trained it calls `Model.forward`, which calls `head`."""
        dataset, train_idx, x_norm = fold_inputs
        calls = []
        for name in ("forward", "head"):
            def counted(self, *args, _name=name, _method=getattr(Model, name),
                        **kwargs):
                calls.append(_name)
                return _method(self, *args, **kwargs)
            monkeypatch.setattr(Model, name, counted)
        model = Model(make_model_config(dataset, token_dim=8, gate_hidden=8),
                      seed=3)
        table = (model.pooled_normalized(
            dataset.log_expression,
            fit_normalization(dataset.log_expression, train_idx))
            if with_table else None)
        cfg = TrainConfig(epochs=2, mode=mode)
        train_model(model, dataset, train_idx, x_norm, LossWeights(), cfg, 5,
                    pooled=table)
        # one recorded step per batch size: every other step is a replay
        graphs = recorded_graphs(len(train_idx), cfg.batch_size)
        assert graphs == 2
        step = ["head"] if mode == "pft" else ["forward", "head"]
        assert calls == step * graphs

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

    @pytest.mark.parametrize("mode", ["pft", "fft"])
    def test_non_finite_training_row_raises_before_any_step(self, fold_inputs,
                                                             mode):
        dataset, train_idx, x_norm = fold_inputs
        cfg = TrainConfig(epochs=1, lr=1e-2, mode=mode)
        model_cfg = make_model_config(dataset, token_dim=8, gate_hidden=8)
        # the row that the first epoch (seed 5) visits last: a check made
        # only when its batch comes up would let earlier batches train
        perm = np.random.default_rng(5).permutation(len(train_idx))
        bad = x_norm.copy()
        bad[train_idx[perm[-1]], 7] = np.inf
        model = Model(model_cfg, seed=3)
        before = {n: p.data.copy() for n, p in model.params.items()}
        with pytest.raises(diffcore.NonFiniteError):
            train_model(model, dataset, train_idx, bad, LossWeights(), cfg, 5)
        for name, p in model.params.items():
            assert np.array_equal(p.data, before[name]), name
        # a non-finite test row is not a training row
        bad = x_norm.copy()
        bad[np.setdiff1d(np.arange(len(dataset)), train_idx)[0], 7] = np.nan
        train_model(Model(model_cfg, seed=3), dataset, train_idx, bad,
                    LossWeights(), cfg, 5)


def with_varied_masks(dataset, seed=0):
    """`dataset` with every target mask drawn at random, so that masks, like
    labels and target values, differ from batch to batch."""
    rng = np.random.default_rng(seed)
    masks = ("pathway_mask", "biomarker_mask",
             *(f"{task}_mask" for task in model_module.AUX_TASKS))
    return replace(dataset, **{
        name: (rng.random(getattr(dataset, name).shape) < 0.6).astype(float)
        for name in masks})


class TestReplayedSteps:
    """`train_model` records one step per batch size and replays it with
    each later batch bound into its slots; the reference records a new
    tape at every step. Under FFT, and under PFT from the same pooled
    table, the two agree bit for bit; under PFT from `x_norm` the
    reference pools each batch on its own, which changes only BLAS
    summation order."""

    @pytest.mark.parametrize("inputs", ["pft table", "pft x_norm", "fft"])
    @pytest.mark.parametrize("config", list(ABLATION_CONFIGS))
    def test_every_config_trains_like_a_new_tape_per_step(
            self, fold_inputs, inputs, config):
        dataset, train_idx, x_norm = fold_inputs
        dataset = with_varied_masks(dataset)
        mode = inputs.split()[0]
        model_cfg, weights = ABLATION_CONFIGS[config].apply(
            make_model_config(dataset, token_dim=8, gate_hidden=8),
            LossWeights(pathway=0.1, align=0.3, aux=0.2))
        cfg = TrainConfig(epochs=3, lr=1e-2, mode=mode)
        assert len(train_idx) % cfg.batch_size
        fast, ref = Model(model_cfg, seed=3), Model(model_cfg, seed=3)
        table = None
        if inputs == "pft table":
            table = fast.pooled_normalized(
                dataset.log_expression,
                fit_normalization(dataset.log_expression, train_idx))
        args = (dataset, train_idx, x_norm, weights, cfg, 5)
        fast_hist = train_model(fast, *args, pooled=table)
        ref_hist = train_pooling_each_batch(ref, *args, pooled=table)
        if inputs == "pft x_norm":
            for a, b in zip(fast_hist, ref_hist):
                assert a.keys() == b.keys()
                for k in a:
                    assert abs(a[k] - b[k]) <= 1e-12 * abs(b[k]), k
            for name, p in fast.params.items():
                q = ref.params[name].data
                assert (np.linalg.norm(p.data - q)
                        <= 1e-12 * np.linalg.norm(q)), name
            return
        assert fast_hist == ref_hist
        for name, p in fast.params.items():
            assert p.data.tobytes() == ref.params[name].data.tobytes(), name


class TestPooledTable:
    """Under PFT a task pools every sample once, straight from
    log-expression (`Model.pooled_normalized`), and trains each
    configuration on that table instead of on `x_norm`."""

    @pytest.mark.parametrize("config", list(ABLATION_CONFIGS))
    def test_every_config_trains_like_the_x_norm_path(self, fold_inputs,
                                                      config):
        dataset, train_idx, x_norm = fold_inputs
        stats = fit_normalization(dataset.log_expression, train_idx)
        model_cfg, weights = ABLATION_CONFIGS[config].apply(
            make_model_config(dataset, token_dim=8, gate_hidden=8),
            LossWeights())
        cfg = TrainConfig(epochs=4, lr=1e-2, mode="pft")
        fast, ref = Model(model_cfg, seed=3), Model(model_cfg, seed=3)
        table = fast.pooled_normalized(dataset.log_expression, stats)
        fast_hist = train_model(fast, dataset, train_idx, None, weights, cfg,
                                5, pooled=table)
        ref_hist = train_model(ref, dataset, train_idx, x_norm, weights, cfg,
                               5)
        # the folded z-score only changes how each pooled value is summed
        for a, b in zip(fast_hist, ref_hist):
            assert a.keys() == b.keys()
            for k in a:
                assert abs(a[k] - b[k]) <= 1e-12 * abs(b[k]), k
        for name, p in fast.params.items():
            q = ref.params[name].data
            assert np.linalg.norm(p.data - q) <= 1e-12 * np.linalg.norm(q), name

    def test_non_finite_training_row_raises_before_any_step(self,
                                                             fold_inputs):
        dataset, train_idx, _ = fold_inputs
        stats = fit_normalization(dataset.log_expression, train_idx)
        cfg = TrainConfig(epochs=1, lr=1e-2, mode="pft")
        model_cfg = make_model_config(dataset, token_dim=8, gate_hidden=8)
        # the row that the first epoch (seed 5) visits last
        perm = np.random.default_rng(5).permutation(len(train_idx))
        bad = dataset.log_expression.copy()
        bad[train_idx[perm[-1]], 7] = np.nan
        model = Model(model_cfg, seed=3)
        before = {n: p.data.copy() for n, p in model.params.items()}
        table = model.pooled_normalized(bad, stats)
        with pytest.raises(diffcore.NonFiniteError,
                           match="training rows of the pooled table"):
            train_model(model, dataset, train_idx, None, LossWeights(), cfg,
                        5, pooled=table)
        for name, p in model.params.items():
            assert np.array_equal(p.data, before[name]), name
        # a non-finite test row is not a training row
        bad = dataset.log_expression.copy()
        bad[np.setdiff1d(np.arange(len(dataset)), train_idx)[0], 7] = np.nan
        model = Model(model_cfg, seed=3)
        train_model(model, dataset, train_idx, None, LossWeights(), cfg, 5,
                    pooled=model.pooled_normalized(bad, stats))

    def test_trained_encoder_refuses_a_table(self, fold_inputs):
        dataset, train_idx, x_norm = fold_inputs
        stats = fit_normalization(dataset.log_expression, train_idx)
        model = Model(make_model_config(dataset, token_dim=8, gate_hidden=8),
                      seed=3)
        table = model.pooled_normalized(dataset.log_expression, stats)
        with pytest.raises(ValueError, match="frozen encoder"):
            train_model(model, dataset, train_idx, x_norm, LossWeights(),
                        TrainConfig(epochs=1, mode="fft"), 5, pooled=table)

    @pytest.mark.parametrize("mode, n_runs", [("pft", 4), ("fft", 5)])
    def test_every_run_of_a_task_draws_one_embedding(self, tiny_dataset,
                                                      mode, n_runs):
        """`_run_fold_seed` pools a task's one table from its first model,
        so every run it trains must draw that model's frozen embedding."""
        runs, _ = _distinct_runs(
            ABLATION_CONFIGS.values(),
            make_model_config(tiny_dataset, token_dim=4, gate_hidden=4),
            LossWeights(), mode)
        assert len(runs) == n_runs
        assert all(cfg.encoder == runs[0][0].encoder for cfg, _ in runs)
        for seed in (0, 1, 7):
            first, *rest = (Model(cfg, seed=seed)
                            .params["encoder.gene_embedding"].data.tobytes()
                            for cfg, _ in runs)
            assert all(emb == first for emb in rest), seed

    def test_test_rows_z_score_like_the_whole_panel(self, fold_inputs):
        dataset, train_idx, _ = fold_inputs
        logged = dataset.log_expression
        stats = fit_normalization(logged, train_idx)
        test_idx = np.setdiff1d(np.arange(len(dataset)), train_idx)
        assert (apply_normalization(logged[test_idx], stats).tobytes()
                == apply_normalization(logged, stats)[test_idx].tobytes())


def with_row(dataset, column, row, value):
    """`dataset` with `value` written into row `row` of `column`."""
    values = getattr(dataset, column).copy()
    values[row] = value
    return replace(dataset, **{column: values})


# the input checks that train_model runs at loop entry: the mutation, and
# the error that the step's primitive raises on the raw array
LOOP_INPUT_CASES = {
    "label 2": (lambda ds, row: with_row(ds, "response", row, 2),
                ValueError, "bce labels must be 0 or 1"),
    "empty multi-hot": (
        lambda ds, row: with_row(ds, "treatments", row, [0.0, 0.0, 0.0]),
        ValueError, "every sample needs at least one treatment target bit"),
    "multi-hot entry 2": (
        lambda ds, row: with_row(ds, "treatments", row, [2.0, 0.0, 0.0]),
        ValueError, "has an entry other than 0 or 1"),
    "multi-hot entry 0.5": (
        lambda ds, row: with_row(ds, "treatments", row, [0.5, 0.5, 0.0]),
        ValueError, "has an entry other than 0 or 1"),
    "multi-hot width 4": (
        lambda ds, row: replace(ds, treatments=np.hstack(
            [ds.treatments, np.zeros((len(ds), 1))])),
        ValueError, "treatment multi-hot width must be 3"),
    "non-finite multi-hot": (
        lambda ds, row: with_row(ds, "treatments", row, [np.nan, 1.0, 0.0]),
        diffcore.NonFiniteError, "non-finite value in constant"),
}


class TestLoopInputChecks:
    @pytest.mark.parametrize("mode", ["pft", "fft"])
    @pytest.mark.parametrize("case", list(LOOP_INPUT_CASES))
    def test_bad_row_raises_before_any_step(self, fold_inputs, mode, case):
        dataset, train_idx, x_norm = fold_inputs
        mutate, error, message = LOOP_INPUT_CASES[case]
        # the row that the first epoch (seed 5) visits last, as above
        perm = np.random.default_rng(5).permutation(len(train_idx))
        bad = mutate(dataset, train_idx[perm[-1]])
        cfg = TrainConfig(epochs=1, lr=1e-2, mode=mode)
        model = Model(make_model_config(dataset, token_dim=8, gate_hidden=8),
                      seed=3)
        before = {n: p.data.copy() for n, p in model.params.items()}
        with pytest.raises(error, match=message):
            train_model(model, bad, train_idx, x_norm, LossWeights(), cfg, 5)
        for name, p in model.params.items():
            assert np.array_equal(p.data, before[name]), name

    @pytest.mark.parametrize("mode", ["pft", "fft"])
    def test_checks_run_once_per_call(self, fold_inputs, monkeypatch, mode):
        dataset, train_idx, x_norm = fold_inputs
        calls = {}

        def count(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        # each module's own reference: the primitives', and the loop's
        for module in (diffcore, evaluation):
            count(module, "check_labels")
        for module in (model_module, evaluation):
            count(module, "treatment_constant")
        check_finite = diffcore._check_finite

        def scan(values, context):
            calls[context] = calls.get(context, 0) + 1
            check_finite(values, context)
        monkeypatch.setattr(diffcore, "_check_finite", scan)

        model_cfg = make_model_config(dataset, token_dim=8, gate_hidden=8)
        steps = math.ceil(len(train_idx) / TrainConfig().batch_size)
        assert steps > 1
        per_call = []
        for epochs in (1, 3):
            calls.clear()
            train_model(Model(model_cfg, seed=3), dataset, train_idx, x_norm,
                        LossWeights(), TrainConfig(epochs=epochs, mode=mode),
                        5)
            assert calls["check_labels"] == 1
            assert calls["treatment_constant"] == 1
            per_call.append(calls.get("constant", 0))
        # no constant of the step is scanned: the count does not grow with
        # the steps taken
        assert per_call[0] == per_call[1]


# the Model method that builds each side head, and the gate's
HEAD_METHODS = {"pathway": "predict_pathways", "align": "project_concepts",
                 "aux": "predict_aux", "gating": "gate"}


def switched_off(dataset, off):
    """Model config and loss weights with one side head (weight 0) or the
    gate switched off."""
    model_cfg = make_model_config(dataset, token_dim=8, gate_hidden=8)
    if off == "gating":
        return replace(model_cfg, gating_enabled=False), LossWeights()
    return model_cfg, replace(LossWeights(), **{off: 0.0})


class TestTrainsOnlyWhatTheLossReads:
    @pytest.mark.parametrize("mode", ["pft", "fft"])
    @pytest.mark.parametrize("off", list(HEAD_METHODS))
    def test_unread_part_is_not_built_or_trained(self, fold_inputs,
                                                 monkeypatch, mode, off):
        dataset, train_idx, x_norm = fold_inputs
        model_cfg, weights = switched_off(dataset, off)
        cfg = TrainConfig(epochs=2, lr=1e-2, mode=mode)
        calls = dict.fromkeys(HEAD_METHODS.values(), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(Model, name, counted(name,
                                                     getattr(Model, name)))
        optimizers = []

        class RecordedAdam(Adam):
            def __init__(self, params, **kwargs):
                super().__init__(params, **kwargs)
                optimizers.append(self)

        monkeypatch.setattr(evaluation, "Adam", RecordedAdam)
        model = Model(model_cfg, seed=3)
        before = {n: p.data.copy() for n, p in model.params.items()}
        train_model(model, dataset, train_idx, x_norm, weights, cfg, 5)
        graphs = recorded_graphs(len(train_idx), cfg.batch_size)
        for part, name in HEAD_METHODS.items():
            assert calls[name] == (0 if part == off else graphs), part
        [opt] = optimizers
        trained = {p.name for p, _ in opt._slots}
        for name, p in model.params.items():
            group = name.split(".")[0]
            kept = group == off or (group == "encoder" and mode == "pft")
            assert (name in trained) != kept, name
            assert (p.data.tobytes() == before[name].tobytes()) == kept, name

    @pytest.mark.parametrize("off", list(HEAD_METHODS))
    def test_fft_matches_a_step_that_builds_every_head(self, fold_inputs,
                                                       off):
        """The reference loop builds all three side heads and Adam trains
        every parameter; leaving the unread ones out changes no bit."""
        dataset, train_idx, x_norm = fold_inputs
        model_cfg, weights = switched_off(dataset, off)
        cfg = TrainConfig(epochs=2, lr=1e-2, mode="fft")
        fast, ref = Model(model_cfg, seed=3), Model(model_cfg, seed=3)
        args = (dataset, train_idx, x_norm, weights, cfg, 5)
        assert train_model(fast, *args) == train_pooling_each_batch(ref, *args)
        for name, p in fast.params.items():
            assert p.data.tobytes() == ref.params[name].data.tobytes(), name


def pathway_mse_grads(model, dataset, x_norm, idx, mode) -> dict:
    """Gradient of the pathway term alone (the masked `tape.mse` that
    `composite_loss` records) into each parameter, with the pooled
    embedding entering the step as `train_model` feeds it."""
    model.set_mode(mode)
    tape = Tape()
    if mode == "pft":
        pooled = tape.constant(model.pooled_batch(Tape(), x_norm[idx]).data)
    else:
        pooled = model.pooled_batch(tape, x_norm[idx])
    out = model.head(tape, pooled, dataset.treatments[idx])
    loss = tape.mse(out.pathway_pred, dataset.pathway[idx],
                    dataset.pathway_mask[idx])
    diffcore.backward(loss, tape)
    return {name: p.grad for name, p in model.params.items()}


class TestPathwayUnderPft:
    """Under PFT the pathway head reads the frozen pooled embedding, so the
    pathway loss trains only `pathway.*`; `run_protocol` and `run_ablation`
    rely on this to train every configuration without that loss."""

    def test_pathway_loss_moves_only_pathway_params(self, tiny_dataset):
        fold = split_by_group(tiny_dataset, "cohort").folds[0]
        x_norm, _ = normalize(tiny_dataset, fold.train_idx)
        model_cfg = make_model_config(tiny_dataset, token_dim=4, gate_hidden=4)
        idx = fold.train_idx[:32]
        grads = pathway_mse_grads(Model(model_cfg, seed=0), tiny_dataset,
                                   x_norm, idx, "pft")
        for name, g in grads.items():
            if name.startswith("pathway."):
                assert np.any(g != 0.0), name
            else:
                assert np.all(g == 0.0), name
        grads = pathway_mse_grads(Model(model_cfg, seed=0), tiny_dataset,
                                   x_norm, idx, "fft")
        assert np.any(grads["encoder.gene_embedding"] != 0.0)

    @pytest.mark.parametrize("mode", ["pft", "fft"])
    def test_no_pathway_rows_equal_full_only_under_pft(self, tiny_dataset,
                                                       mode):
        kwargs = dict(model_cfg=make_model_config(tiny_dataset, token_dim=4,
                                                  gate_hidden=4),
                      train_cfg=TrainConfig(epochs=2, lr=1e-2, mode=mode))
        full = run_protocol(tiny_dataset, "loco", [0], **kwargs)
        no_pathway = run_protocol(tiny_dataset, "loco", [0],
                                  ablation=AblationConfig(disable_pathway=True),
                                  **kwargs)
        same = ([r.metrics for r in full.rows]
                == [r.metrics for r in no_pathway.rows])
        assert same == (mode == "pft")


def reference_report(dataset, protocol, seeds, model_cfg, weights,
                     train_cfg) -> MetricsReport:
    """`run_protocol` written out as a loop of `train_model` calls with the
    given loss weights, pathway weight included."""
    key = PROTOCOL_KEYS[protocol]
    folds = split_by_group(dataset, key).folds
    rows = []
    for fold_id, fold in enumerate(folds):
        for seed in seeds:
            x_norm, _ = normalize(dataset, fold.train_idx)
            model = Model(model_cfg, seed=seed)
            train_model(model, dataset, fold.train_idx, x_norm, weights,
                        train_cfg, seed)
            probs = model.predict_proba(x_norm[fold.test_idx],
                                        dataset.treatments[fold.test_idx])
            rows.append(FoldSeedResult(fold_id, fold.group, seed,
                                       compute_metrics(
                                           probs,
                                           dataset.response[fold.test_idx],
                                           train_cfg.threshold)))
    return MetricsReport(protocol=protocol, key=key, rows=rows,
                         group_sizes={f.group: len(f.test_idx) for f in folds},
                         seeds=list(seeds))


class TestPftTrainsWithoutPathwayTerm:
    @pytest.fixture(scope="class")
    def model_cfg(self, tiny_dataset):
        return make_model_config(tiny_dataset, token_dim=4, gate_hidden=4)

    def test_reports_equal_training_with_the_pathway_term(
            self, tiny_dataset, model_cfg, tmp_path):
        train_cfg = TrainConfig(epochs=2, lr=1e-2, mode="pft")
        weights = LossWeights()
        expected = {
            name: report_bytes(
                reference_report(tiny_dataset, "loco", [0, 1],
                                 *ab.apply(model_cfg, weights), train_cfg),
                tmp_path / "reference" / name)
            for name, ab in ABLATION_CONFIGS.items()}
        assert expected["full"] != expected["no_gating"]
        for name in ("full", "no_gating"):
            report = run_protocol(tiny_dataset, "loco", [0, 1],
                                  model_cfg=model_cfg, weights=weights,
                                  train_cfg=train_cfg,
                                  ablation=ABLATION_CONFIGS[name])
            assert report_bytes(report, tmp_path / "protocol" / name) \
                == expected[name], name
        reports = run_ablation(tiny_dataset, "loco", [0, 1],
                               model_cfg=model_cfg, weights=weights,
                               train_cfg=train_cfg)
        for name, report in reports.items():
            assert report_bytes(report, tmp_path / "ablation" / name) \
                == expected[name], name

    @pytest.mark.parametrize("mode, pathway", [("pft", 0.0), ("fft", 0.1)])
    def test_full_trains_the_pathway_term_only_under_fft(
            self, tiny_dataset, model_cfg, monkeypatch, mode, pathway):
        seen = []
        train = evaluation.train_model

        def recorded(model, dataset, train_idx, x_norm, weights, cfg, seed,
                     **kwargs):
            seen.append(weights.pathway)
            return train(model, dataset, train_idx, x_norm, weights, cfg,
                         seed, **kwargs)

        monkeypatch.setattr(evaluation, "train_model", recorded)
        run_protocol(tiny_dataset, "loco", [0], model_cfg=model_cfg,
                     weights=LossWeights(pathway=0.1),
                     train_cfg=TrainConfig(epochs=1, mode=mode))
        assert seen == [pathway] * 4


def report_bytes(report, out_dir) -> bytes:
    emit_report(report, out_dir)
    return b"".join((out_dir / name).read_bytes()
                    for name in ("perfold.csv", "aggregate.csv"))


class TestRunAblation:
    @pytest.fixture(scope="class")
    def kwargs(self, tiny_dataset):
        return dict(model_cfg=make_model_config(tiny_dataset, token_dim=4,
                                                gate_hidden=4))

    @pytest.mark.parametrize("mode", ["pft", "fft"])
    def test_equals_independent_protocol_runs(self, tiny_dataset, kwargs,
                                              tmp_path, mode):
        train_cfg = TrainConfig(epochs=2, lr=1e-2, mode=mode)
        expected = {
            name: report_bytes(
                run_protocol(tiny_dataset, "loco", [0, 1], ablation=ab,
                             train_cfg=train_cfg, **kwargs),
                tmp_path / "protocol" / name)
            for name, ab in ABLATION_CONFIGS.items()}
        for jobs in (1, 2):
            reports = run_ablation(tiny_dataset, "loco", [0, 1],
                                   train_cfg=train_cfg, jobs=jobs, **kwargs)
            assert list(reports) == list(ABLATION_CONFIGS)
            for name, report in reports.items():
                got = report_bytes(report, tmp_path / f"jobs{jobs}" / name)
                assert got == expected[name], (jobs, name)

    def test_jobs_send_the_dataset_once_per_worker(self, tiny_dataset,
                                                    kwargs, monkeypatch,
                                                    tmp_path):
        """With --jobs the dataset travels in the pool's initializer
        arguments, and a task carries only its fold, the fold's statistics,
        its seed and its runs."""
        import concurrent.futures

        sent = {}

        class InlinePool:
            """Runs each task in this process after a pickle round trip,
            as a worker would receive it."""

            def __init__(self, max_workers, initializer, initargs):
                sent["initargs"] = initargs
                initializer(*pickle.loads(pickle.dumps(initargs)))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                sent["tasks"] = [pickle.dumps(t) for t in tasks]
                return [fn(pickle.loads(t)) for t in sent["tasks"]]

        monkeypatch.setattr(evaluation, "_WORKER_DATASET", None)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlinePool)
        train_cfg = TrainConfig(epochs=1, lr=1e-2)
        pooled = run_ablation(tiny_dataset, "loco", [0, 1], jobs=2,
                              train_cfg=train_cfg, **kwargs)
        [dataset] = sent["initargs"]
        assert dataset is tiny_dataset
        assert len(sent["tasks"]) == 4 * 2
        for task in sent["tasks"]:
            parts = pickle.loads(task)
            assert not any(isinstance(part, Dataset) for part in parts)
            assert sum(isinstance(part, NormalizationStats)
                       for part in parts) == 1
        inline = run_ablation(tiny_dataset, "loco", [0, 1], jobs=1,
                              train_cfg=train_cfg, **kwargs)
        for name in ABLATION_CONFIGS:
            assert (report_bytes(pooled[name], tmp_path / "jobs2" / name)
                    == report_bytes(inline[name], tmp_path / "jobs1" / name))

    def test_pft_scores_each_run_on_its_task_table(self, tiny_dataset,
                                                   kwargs, monkeypatch):
        """Under PFT no run z-scores its test rows or pools them on a tape;
        its probabilities are `predict_proba`'s on the z-scored test rows."""
        trained, scored = [], []

        def recorded_train(model, dataset, train_idx, *args, **kw):
            trained.append((model, train_idx))
            return train(model, dataset, train_idx, *args, **kw)

        def recorded_metrics(probs, *args):
            scored.append(probs)
            return metrics(probs, *args)

        def refused(*args, **kw):
            raise AssertionError("PFT pools only through pooled_normalized")

        train, metrics = evaluation.train_model, evaluation.compute_metrics
        monkeypatch.setattr(evaluation, "train_model", recorded_train)
        monkeypatch.setattr(evaluation, "compute_metrics", recorded_metrics)
        monkeypatch.setattr(Model, "pooled_batch", refused)
        monkeypatch.setattr("biocompass.data.apply_normalization", refused)
        run_ablation(tiny_dataset, "loco", [0, 1],
                     train_cfg=TrainConfig(epochs=2, lr=1e-2), **kwargs)
        monkeypatch.undo()
        assert len(trained) == len(scored) == 4 * 2 * 4
        logged = tiny_dataset.log_expression
        for (model, train_idx), probs in zip(trained, scored):
            test_idx = np.setdiff1d(np.arange(len(tiny_dataset)), train_idx)
            x_test = apply_normalization(logged[test_idx],
                                         fit_normalization(logged, train_idx))
            expected = model.predict_proba(x_test,
                                           tiny_dataset.treatments[test_idx])
            np.testing.assert_allclose(probs, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("mode, trained", [("pft", 4), ("fft", 5)])
    def test_normalises_once_and_skips_no_pathway_under_pft(
            self, tiny_dataset, kwargs, monkeypatch, mode, trained):
        calls = {"fold_statistics": [], "apply_normalization": [],
                 "train_model": []}
        tables = []

        def counted(name, fn):
            def wrapper(*args, **kw):
                calls[name].append((args, kw))
                return fn(*args, **kw)
            return wrapper

        def table(model, *args):
            tables.append(pooled_normalized(model, *args))
            return tables[-1]

        for name in calls:
            monkeypatch.setattr(evaluation, name,
                                counted(name, getattr(evaluation, name)))
        pooled_normalized = Model.pooled_normalized
        monkeypatch.setattr(Model, "pooled_normalized", table)
        run_ablation(tiny_dataset, "loco", [0, 1],
                     train_cfg=TrainConfig(epochs=1, mode=mode), **kwargs)
        tasks = 4 * 2  # folds x seeds
        # one pass over the panel for every fold's statistics
        assert len(calls["fold_statistics"]) == 1
        assert len(calls["train_model"]) == tasks * trained
        if mode == "fft":
            assert len(calls["apply_normalization"]) == tasks
            # the configs of a task train on that task's one x_norm
            shared = [args[3] for args, _ in calls["train_model"]]
        else:
            # one pooled table per task, and no N x G normalised matrix
            assert calls["apply_normalization"] == []
            assert len(tables) == tasks
            assert all(args[3] is None for args, _ in calls["train_model"])
            shared = [kw["pooled"] for _, kw in calls["train_model"]]
            assert all(shared[t * trained] is tables[t] for t in range(tasks))
        for t in range(tasks):
            task = shared[t * trained:(t + 1) * trained]
            assert all(x is task[0] for x in task)

    @pytest.mark.parametrize("mode", ["pft", "fft"])
    def test_fits_no_fold_on_its_own(self, tiny_dataset, kwargs, monkeypatch,
                                     mode):
        """Every fold's statistics come from `fold_statistics`: a run
        completes with the per-fold fits patched to raise."""
        def refused(*args, **kw):
            raise AssertionError("a fold was normalised on its own")

        for name in ("fit_normalization", "normalize"):
            monkeypatch.setattr(f"biocompass.data.{name}", refused)
            monkeypatch.setattr(evaluation, name, refused, raising=False)
        reports = run_ablation(tiny_dataset, "loco", [0],
                               train_cfg=TrainConfig(epochs=1, mode=mode),
                               **kwargs)
        assert all(len(r.rows) == 4 for r in reports.values())


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


class TestAggregateCells:
    @staticmethod
    def _report():
        """Two seeds over a small and a large group; roc_auc is NA in
        every fold."""
        sizes = {"g1": 10, "g2": 60}
        rows = [FoldSeedResult(i, g, seed,
                               {**{m: 0.1 * (i + 2 * seed + 1)
                                   for m in METRIC_NAMES}, "roc_auc": None})
                for i, g in enumerate(sizes) for seed in (0, 1)]
        return MetricsReport(protocol="loco", key="cohort", rows=rows,
                             group_sizes=sizes, seeds=[0, 1])

    def test_yields_the_aggregates_in_bucket_metric_order(self):
        report = self._report()
        agg = report.aggregates()
        cells = list(aggregate_cells(report))
        assert [(b, m) for b, m, *_ in cells] == [
            (b, m) for b in BUCKETS for m in METRIC_NAMES if m != "roc_auc"]
        assert all(tuple(rest) == agg[b][m] for b, m, *rest in cells)
        assert len(cells) == sum(len(agg[b]) for b in agg)

    def test_csv_round_trips_a_lead_cell_with_a_comma(self, tmp_path):
        report = self._report()
        path = tmp_path / "aggregate.csv"
        write_aggregate_csv(path, [(("sig_a,b",), report)],
                            lead_header=("method",))
        with open(path, newline="") as f:
            records = list(csv.reader(f))
        assert records[0] == ["method", "bucket", "metric", "mean", "ci_low",
                              "ci_high", "n"]
        assert records[1:] == [
            ["sig_a,b", b, m, repr(mean), repr(lo), repr(hi), str(n)]
            for b, m, mean, lo, hi, n in aggregate_cells(report)]
        assert path.read_text().splitlines()[1].startswith('"sig_a,b",all,')


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

    @staticmethod
    def _awkward_report():
        """Group names as a quoted CSV cell can bring them in."""
        from biocompass.evaluation import MetricsReport
        groups = ["A,<b>&", 'say "hi"', "plain"]
        rows = [FoldSeedResult(i, g, seed, {"accuracy": 0.25 * (i + seed),
                                            "roc_auc": None if i == 1 else 0.5,
                                            "f1": 0.1, "precision": 0.2,
                                            "recall": 0.3})
                for i, g in enumerate(groups) for seed in (0, 1)]
        return MetricsReport(protocol="loco", key="cohort", rows=rows,
                             group_sizes={g: 10 for g in groups}, seeds=[0, 1])

    def test_awkward_group_names_round_trip(self, tmp_path):
        report = self._awkward_report()
        emit_report(report, tmp_path)
        back = read_perfold_csv(tmp_path / "perfold.csv")
        assert [(r.fold_id, r.group, r.seed, r.metrics) for r in back] == \
            [(r.fold_id, r.group, r.seed, r.metrics) for r in report.rows]
        lines = (tmp_path / "perfold.csv").read_text().splitlines()
        assert lines[1] == '0,"A,<b>&",0,accuracy,0.0'
        assert lines[-1] == "2,plain,1,recall,0.3"

    def test_awkward_group_names_give_well_formed_svg(self, tmp_path):
        import xml.etree.ElementTree as ET
        emit_report(self._awkward_report(), tmp_path)
        for metric in METRIC_NAMES:
            root = ET.parse(tmp_path / f"{metric}.svg").getroot()
            labels = {t.text for t in
                      root.iter("{http://www.w3.org/2000/svg}text")}
            assert {"A,<b>&", 'say "hi"', "plain"} <= labels, metric

    def test_empty_report_rejected(self, tiny_report, tmp_path):
        from biocompass.evaluation import MetricsReport
        empty = MetricsReport(protocol="loco", key="cohort", rows=[],
                              group_sizes={}, seeds=[])
        with pytest.raises(ValueError, match="empty"):
            emit_report(empty, tmp_path)


def test_cli_import_leaves_scipy_stats_unloaded():
    """`scipy.stats` costs about 0.6 s to import, on every run's start-up."""
    src = os.path.dirname(os.path.dirname(biocompass.__file__))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, biocompass.cli; "
         "print('scipy.stats' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, check=True)
    assert out.stdout.strip() == "False"


IMPORT_PROBE = """
import sys, warnings
import biocompass.cli
print(*(name in sys.modules
        for name in ("scipy", "yaml", "concurrent.futures.process")))
from biocompass.data import SyntheticSpec, generate_synthetic
from biocompass.evaluation import (TrainConfig, aggregate_seeds, emit_report,
                                   make_model_config, run_protocol)
ds = generate_synthetic(SyntheticSpec(
    n_cohorts=2, samples_per_cohort=(20, 20), n_genes=12, n_latents=2,
    active_concepts={"PD-1": (0,), "PD-L1": (1,)}))
warnings.simplefilter("ignore")  # single seed, degenerate intervals
report = run_protocol(ds, "loco", seeds=[0],
                      model_cfg=make_model_config(ds, token_dim=4,
                                                  gate_hidden=4),
                      train_cfg=TrainConfig(epochs=1))
emit_report(report, sys.argv[1])
print("scipy" in sys.modules)
aggregate_seeds([0.5, 0.75])
print("scipy.special" in sys.modules)
aggregate_seeds([0.5, 0.75] * 20 + [0.6])
print("scipy.special" in sys.modules)
"""


def test_cli_import_loads_no_scipy_yaml_or_process_pool(tmp_path):
    """Each is imported by the code that needs it: scipy by baselines and
    intervals over more than 40 seeds, yaml by --config, the process pool
    by jobs > 1. A one-seed run through its report and a two-seed interval
    never load scipy."""
    src = os.path.dirname(os.path.dirname(biocompass.__file__))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, check=True)
    assert out.stdout.split("\n")[:4] == ["False False False", "False",
                                          "False", "True"]
    assert (tmp_path / "aggregate.csv").exists()
