import io
import json

import numpy as np
import pytest

from biocompass.diffcore import NonFiniteError, Tape, backward, zero_grads
from biocompass import model as model_module
from biocompass.data import apply_normalization, fit_normalization
from biocompass.model import (EncoderConfig, Model, TreatmentTarget,
                              N_CONCEPTS, N_PATHWAYS, treatment_constant)
from biocompass.objective import LossWeights
from conftest import composite_scalar, random_batch, tiny_model_config


class TestTreatmentTarget:
    def test_single_target(self):
        t = TreatmentTarget.from_token("PD-1")
        assert t.bits == (1, 0, 0)
        assert t.token() == "PD-1"

    def test_combination_sets_two_bits(self):
        t = TreatmentTarget.from_token("CTLA-4+PD-1")
        assert t.bits == (1, 0, 1)
        assert t.token() == "CTLA-4+PD-1"

    def test_unknown_token_rejected(self):
        with pytest.raises(ValueError, match="unknown treatment"):
            TreatmentTarget.from_token("EGFR")

    def test_empty_multihot_rejected(self):
        with pytest.raises(ValueError):
            TreatmentTarget((0, 0, 0))


class TestConcepts:
    def test_zero_pooled_zero_bias_gives_ln2(self):
        model = Model(tiny_model_config(), seed=0)
        tape = Tape()
        c = model.concepts(tape, tape.constant(np.zeros((1, 3))))
        np.testing.assert_allclose(c.data, np.full((1, N_CONCEPTS), np.log(2.0)))

    def test_nonnegative_on_random_inputs(self, rng):
        model = Model(tiny_model_config(), seed=1)
        tape = Tape()
        c = model.concepts(tape, tape.constant(rng.normal(size=(8, 3))))
        assert np.all(c.data >= 0.0)

    def test_hand_computed_toy(self):
        model = Model(tiny_model_config(), seed=0)
        w = np.zeros((3, N_CONCEPTS))
        w[0, 0], w[1, 1] = 2.0, -1.0
        model.params["bottleneck.w"].tensor.data = w
        model.params["bottleneck.b"].tensor.data = np.zeros(N_CONCEPTS)
        tape = Tape()
        c = model.concepts(tape, tape.constant([[1.0, 2.0, 3.0]]))
        assert c.data[0, 0] == pytest.approx(np.log1p(np.exp(2.0)))
        assert c.data[0, 1] == pytest.approx(np.log1p(np.exp(-2.0)))
        assert c.data[0, 2] == pytest.approx(np.log(2.0))

    def test_always_44_dimensional(self, rng):
        model = Model(tiny_model_config(), seed=0)
        tape = Tape()
        c = model.concepts(tape, tape.constant(rng.normal(size=(5, 3))))
        assert c.data.shape == (5, N_CONCEPTS)


class TestGate:
    def test_zero_concepts_stay_zero(self, rng):
        model = Model(tiny_model_config(), seed=2)
        tape = Tape()
        c = tape.constant(np.zeros((2, N_CONCEPTS)))
        _, gated = model.gate(tape, c, np.array([[1, 0, 0], [0, 1, 1]], float))
        np.testing.assert_array_equal(gated.data, np.zeros((2, N_CONCEPTS)))

    def test_zero_weights_give_half_gates(self, rng):
        model = Model(tiny_model_config(), seed=2)
        for name in ("gating.w1", "gating.b1", "gating.w2", "gating.b2",
                     "gating.treatment_embedding"):
            model.params[name].tensor.data[:] = 0.0
        tape = Tape()
        c_vals = rng.normal(size=(3, N_CONCEPTS))
        gates, gated = model.gate(tape, tape.constant(c_vals),
                                  np.array([[1, 0, 0]] * 3, float))
        np.testing.assert_allclose(gates.data, 0.5)
        np.testing.assert_allclose(gated.data, 0.5 * c_vals)

    def test_hand_computed_single_bit(self):
        cfg = tiny_model_config(gate_hidden=2)
        model = Model(cfg, seed=0)
        model.params["gating.treatment_embedding"].tensor.data = np.array(
            [[1.0, -1.0], [0.0, 0.0], [0.0, 0.0]])
        model.params["gating.w1"].tensor.data = np.array([[0.5, 0.2], [0.1, 0.3]])
        model.params["gating.b1"].tensor.data = np.array([0.1, 0.0])
        w2 = np.zeros((2, N_CONCEPTS))
        w2[0, 0], w2[1, 1] = 1.0, 2.0
        model.params["gating.w2"].tensor.data = w2
        model.params["gating.b2"].tensor.data = np.zeros(N_CONCEPTS)
        c_vals = np.ones((1, N_CONCEPTS))
        tape = Tape()
        gates, gated = model.gate(tape, tape.constant(c_vals),
                                  np.array([[1, 0, 0]], float))
        # e_t = [1, -1]; h = relu([1*0.5 - 0.1 + 0.1, 1*0.2 - 0.3]) = [0.5, 0]
        h = np.maximum([1 * 0.5 - 1 * 0.1 + 0.1, 1 * 0.2 - 1 * 0.3 + 0.0], 0.0)
        expected = 1.0 / (1.0 + np.exp(-(h @ w2)))
        np.testing.assert_allclose(gates.data[0], expected, atol=1e-12)
        np.testing.assert_allclose(gated.data, gates.data * c_vals)

    def test_empty_multihot_rejected(self):
        model = Model(tiny_model_config(), seed=0)
        tape = Tape()
        with pytest.raises(ValueError, match="at least one treatment"):
            model.gate(tape, tape.constant(np.zeros((1, N_CONCEPTS))),
                       np.zeros((1, 3)))

    @pytest.mark.parametrize("rows, bad_row", [
        ([[2, 0, 0]], 0),
        ([[0.5, 0.5, 0]], 0),
        ([[1, 0, 0], [0, 1, 1], [1, -1, 1], [3, 0, 0]], 2),
    ])
    def test_non_binary_multihot_rejected(self, rows, bad_row):
        # each of these rows sums to >= 1, which the empty-row check passes
        model = Model(tiny_model_config(), seed=0)
        with pytest.raises(ValueError, match=f"row {bad_row} has an entry "
                                             "other than 0 or 1"):
            model.predict_proba(np.zeros((len(rows), 5)),
                                np.array(rows, dtype=float))

    def test_checked_constant_is_not_checked_again(self, monkeypatch):
        model = Model(tiny_model_config(), seed=0)
        raw = np.array([[1, 0, 0], [0, 1, 1]], float)
        expected = model.predict_proba(np.ones((2, 5)), raw)
        checked = treatment_constant(raw)

        def refuse(treatments):
            raise AssertionError("checked twice")
        monkeypatch.setattr(model_module, "treatment_constant", refuse)
        tape = Tape()
        out = model.forward(tape, np.ones((2, 5)), checked, heads=())
        assert out.prob.data.ravel().tobytes() == expected.tobytes()

    def test_gate_bound_and_shrinkage(self, rng):
        model = Model(tiny_model_config(), seed=5)
        tape = Tape()
        c_vals = rng.normal(size=(6, N_CONCEPTS))
        gates, gated = model.gate(tape, tape.constant(c_vals),
                                  np.array([[0, 1, 0]] * 6, float))
        assert np.all(gates.data > 0.0) and np.all(gates.data < 1.0)
        assert np.all(np.abs(gated.data) <= np.abs(c_vals))
        nonzero = c_vals != 0.0
        assert np.all(np.sign(gated.data[nonzero]) == np.sign(c_vals[nonzero]))

    def test_treatment_sensitivity(self, rng):
        model = Model(tiny_model_config(), seed=9)
        tape = Tape()
        c = tape.constant(rng.normal(size=(1, N_CONCEPTS)))
        g1, _ = model.gate(tape, c, np.array([[1, 0, 0]], float))
        g2, _ = model.gate(tape, c, np.array([[0, 0, 1]], float))
        assert not np.allclose(g1.data, g2.data)


class TestHeads:
    def test_classify_zero_weights_gives_half(self):
        model = Model(tiny_model_config(), seed=0)
        model.params["classifier.w"].tensor.data[:] = 0.0
        model.params["classifier.b"].tensor.data[:] = 0.0
        tape = Tape()
        prob = model.classify(tape, tape.constant(np.ones((2, N_CONCEPTS))))
        np.testing.assert_allclose(prob.data, 0.5)

    def test_classify_monotone_in_positive_weight(self):
        model = Model(tiny_model_config(), seed=0)
        model.params["classifier.w"].tensor.data[:] = 0.0
        model.params["classifier.w"].tensor.data[7, 0] = 1.0
        tape = Tape()
        lo = np.full((1, N_CONCEPTS), 0.3)
        hi = lo.copy()
        hi[0, 7] = 2.0
        p_lo = model.classify(tape, tape.constant(lo)).data[0, 0]
        p_hi = model.classify(tape, tape.constant(hi)).data[0, 0]
        assert p_hi > p_lo

    def test_classify_hand_computed(self):
        model = Model(tiny_model_config(), seed=0)
        model.params["classifier.w"].tensor.data[:] = 0.0
        model.params["classifier.w"].tensor.data[0, 0] = 0.5
        model.params["classifier.b"].tensor.data[:] = -0.25
        tape = Tape()
        c = np.zeros((1, N_CONCEPTS))
        c[0, 0] = 2.0
        prob = model.classify(tape, tape.constant(c))
        assert prob.data[0, 0] == pytest.approx(1 / (1 + np.exp(-0.75)))

    def test_pathway_output_always_42(self, rng):
        model = Model(tiny_model_config(), seed=0)
        tape = Tape()
        out = model.predict_pathways(tape, tape.constant(rng.normal(size=(4, 3))))
        assert out.data.shape == (4, N_PATHWAYS)

    def test_pathway_zero_everything_gives_zero(self):
        model = Model(tiny_model_config(), seed=0)
        for name in ("pathway.w1", "pathway.b1", "pathway.w2", "pathway.b2"):
            model.params[name].tensor.data[:] = 0.0
        tape = Tape()
        out = model.predict_pathways(tape, tape.constant(np.zeros((2, 3))))
        np.testing.assert_array_equal(out.data, np.zeros((2, N_PATHWAYS)))

    def test_pathway_single_hidden_unit_hand_check(self):
        cfg = tiny_model_config(pathway_hidden=1)
        model = Model(cfg, seed=0)
        model.params["pathway.w1"].tensor.data = np.array([[1.0], [2.0], [0.0]])
        model.params["pathway.b1"].tensor.data = np.array([0.5])
        w2 = np.zeros((1, N_PATHWAYS))
        w2[0, 0] = 3.0
        model.params["pathway.w2"].tensor.data = w2
        model.params["pathway.b2"].tensor.data = np.zeros(N_PATHWAYS)
        tape = Tape()
        out = model.predict_pathways(tape, tape.constant([[1.0, 1.0, 1.0]]))
        assert out.data[0, 0] == pytest.approx(3.0 * 3.5)
        np.testing.assert_allclose(out.data[0, 1:], 0.0)

    def test_projection_identity_and_zero(self, rng):
        cfg = tiny_model_config(biomarker_dim=N_CONCEPTS)
        model = Model(cfg, seed=0)
        c_vals = rng.normal(size=(3, N_CONCEPTS))
        tape = Tape()
        model.params["align.w"].tensor.data = np.eye(N_CONCEPTS)
        np.testing.assert_allclose(
            model.project_concepts(tape, tape.constant(c_vals)).data, c_vals)
        model.params["align.w"].tensor.data = np.zeros((N_CONCEPTS, N_CONCEPTS))
        np.testing.assert_array_equal(
            model.project_concepts(tape, tape.constant(c_vals)).data,
            np.zeros((3, N_CONCEPTS)))

    def test_aux_dims_follow_config(self, rng):
        cfg = tiny_model_config(tide_dim=2, ipres_dim=3, pheno_dim=4)
        model = Model(cfg, seed=0)
        tape = Tape()
        aux = model.predict_aux(tape, tape.constant(rng.normal(size=(2, N_CONCEPTS))))
        assert aux["tide"].data.shape == (2, 2)
        assert aux["ipres"].data.shape == (2, 3)
        assert aux["pheno"].data.shape == (2, 4)


class TestForward:
    def test_wrong_gene_count_rejected(self):
        model = Model(tiny_model_config(), seed=0)
        with pytest.raises(ValueError, match="gene count"):
            model.pooled_batch(Tape(), np.zeros((2, 7)))
        with pytest.raises(ValueError, match="gene count"):
            model.pooled_normalized(np.zeros((2, 7)), None)

    def test_gating_ablation_equivalence(self, rng):
        cfg = tiny_model_config(gating_enabled=False)
        model = Model(cfg, seed=4)
        x, treatments, _ = random_batch(rng)
        tape = Tape()
        out = model.forward(tape, x, treatments)
        assert out.gates is None
        assert out.concepts_gated is out.concepts_raw
        # classifier on raw concepts equals the forward probability
        tape2 = Tape()
        prob = model.classify(tape2, tape2.constant(out.concepts_raw.data))
        np.testing.assert_allclose(prob.data, out.prob.data)

    @pytest.mark.parametrize("gating", [True, False])
    def test_predict_proba_is_forward_prob_without_side_heads(
            self, rng, monkeypatch, gating):
        model = Model(tiny_model_config(gating_enabled=gating), seed=4)
        x, treatments, _ = random_batch(rng, batch=6)
        expected = model.forward(Tape(), x, treatments).prob.data.ravel()

        def refuse(*args, **kwargs):
            raise AssertionError("predict_proba built a side head")

        for name in ("predict_pathways", "project_concepts", "predict_aux"):
            monkeypatch.setattr(Model, name, refuse)
        assert (model.predict_proba(x, treatments).tobytes()
                == expected.tobytes())

    def test_head_builds_only_the_side_heads_asked_for(self, rng):
        model = Model(tiny_model_config(), seed=4)
        x, treatments, _ = random_batch(rng)
        tape = Tape()
        out = model.head(tape, model.pooled_batch(tape, x), treatments,
                         heads=("align",))
        assert out.pathway_pred is None and out.aux is None
        assert out.projection.shape == (3, 2)
        full = model.forward(Tape(), x, treatments)
        assert out.prob.data.tobytes() == full.prob.data.tobytes()

    def test_reached_parameters_drop_unread_heads_and_off_gate(self):
        def groups(params):
            return {p.name.split(".")[0] for p in params}

        model = Model(tiny_model_config(), seed=0)
        assert model.reached_parameters() == model.parameters()
        assert groups(model.reached_parameters(("align",))) == {
            "encoder", "bottleneck", "gating", "align", "classifier"}
        ungated = Model(tiny_model_config(gating_enabled=False), seed=0)
        assert groups(ungated.reached_parameters(())) == {
            "encoder", "bottleneck", "classifier"}

    def test_pft_encoder_gradients_zero(self, rng):
        model = Model(tiny_model_config(), seed=4)
        model.set_mode("pft")
        x, treatments, targets = random_batch(rng)
        total, tape = composite_scalar(model, x, treatments, targets,
                                       LossWeights())
        backward(total, tape)
        for p in model.encoder_parameters():
            assert not p.trainable

    def test_fft_encoder_gradient_nonzero(self, rng):
        model = Model(tiny_model_config(), seed=4)
        model.set_mode("fft")
        x, treatments, targets = random_batch(rng)
        zero_grads(model.parameters())
        total, tape = composite_scalar(model, x, treatments, targets,
                                       LossWeights())
        backward(total, tape)
        emb = model.params["encoder.gene_embedding"]
        assert np.any(emb.grad != 0.0)
        # spot-check one embedding entry against central differences
        flat = emb.tensor.data.ravel()
        idx = int(np.argmax(np.abs(emb.grad)))

        def f():
            t, _ = composite_scalar(model, x, treatments, targets, LossWeights())
            return float(t.data)

        h = 1e-5
        orig = flat[idx]
        flat[idx] = orig + h
        up = f()
        flat[idx] = orig - h
        down = f()
        flat[idx] = orig
        assert emb.grad.ravel()[idx] == pytest.approx((up - down) / (2 * h),
                                                      rel=1e-4)

    @pytest.mark.parametrize("row", [[0.0, 0.0, 0.0], [np.nan, 1.0, 0.0, 0.0]])
    def test_ungated_model_refuses_the_rows_the_gated_model_refuses(self,
                                                                    row):
        raised = []
        for gating in (True, False):
            model = Model(tiny_model_config(gating_enabled=gating), seed=0)
            with pytest.raises(ValueError) as exc:
                model.predict_proba(np.ones((1, 5)), [row])
            raised.append((type(exc.value), str(exc.value)))
        assert raised[0] == raised[1]

    def test_ungated_probabilities_do_not_read_the_treatments(self, rng):
        model = Model(tiny_model_config(gating_enabled=False), seed=4)
        x, treatments, _ = random_batch(rng, batch=6)
        tape = Tape()
        expected = model.classify(
            tape, model.concepts(tape, model.pooled_batch(tape, x)))
        assert (model.predict_proba(x, treatments).tobytes()
                == expected.data.ravel().tobytes())


def folded_inputs(steep_ratio=None):
    """A log-expression panel of 60 samples x 40 genes, the statistics of
    its first 45 rows and a model over it. Gene 3 is constant on the
    training rows (std clamped to 1). With `steep_ratio`, gene 5 sits near
    1e4 with |mean| / std of about `steep_ratio`."""
    rng = np.random.default_rng(7)
    logged = np.log2(rng.lognormal(2.0, 1.5, size=(60, 40)) + 1.0)
    logged[:45, 3] = 2.5
    if steep_ratio is not None:
        logged[:, 5] = 1e4 + 1e4 / steep_ratio * rng.standard_normal(60)
    stats = fit_normalization(logged, np.arange(45))
    model = Model(tiny_model_config(
        encoder=EncoderConfig(gene_count=40, token_dim=4)), seed=2)
    return logged, stats, model


def folded_error(logged, stats, model) -> float:
    """max |pooled_normalized - pooled_batch of the z-scored panel|, over
    the largest reference value."""
    ref = model.pooled_batch(Tape(), apply_normalization(logged, stats)).data
    got = model.pooled_normalized(logged, stats)
    return float(np.abs(got - ref).max() / np.abs(ref).max())


class TestPooledNormalized:
    def test_matches_pooling_the_z_scored_panel(self):
        logged, stats, model = folded_inputs()
        assert stats.std[3] == 1.0
        assert folded_error(logged, stats, model) <= 1e-13

    def test_steep_gene_is_centred_before_pooling(self, monkeypatch):
        logged, stats, model = folded_inputs(steep_ratio=1e10)
        assert abs(stats.mean[5]) / stats.std[5] > 1e9
        assert folded_error(logged, stats, model) <= 1e-13
        # folded like every other gene, it cancels far beyond that bound
        monkeypatch.setattr(model_module, "STEEP_RATIO", np.inf)
        assert folded_error(logged, stats, model) > 1e-9


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        model = Model(tiny_model_config(), seed=11)
        model.set_mode("pft")
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = Model.load(path)
        assert loaded.config == model.config
        for name, p in model.params.items():
            q = loaded.params[name]
            assert p.data.tobytes() == q.data.tobytes(), name
            assert p.trainable == q.trainable

    def test_unknown_config_key_rejected(self, tmp_path):
        # a 0.1.0 checkpoint: its config carries options this version lacks
        model = Model(tiny_model_config(), seed=0)
        path = tmp_path / "model.npz"
        model.save(path)
        with np.load(path) as data:
            arrays = dict(data)
        config = json.loads(bytes(arrays["config"]).decode())
        config["encoder"].update(pooling="mean", hidden_dims=[])
        config.update(classifier_hidden=0, aux_on_gated=False)
        arrays["config"] = np.frombuffer(json.dumps(config).encode(),
                                         dtype=np.uint8)
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        path.write_bytes(buf.getvalue())
        with pytest.raises(ValueError, match="pooling"):
            Model.load(path)

    def test_non_finite_parameter_rejected(self, tmp_path):
        model = Model(tiny_model_config(), seed=0)
        path = tmp_path / "model.npz"
        model.save(path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["param/gating.w1"][0, 0] = np.nan
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        path.write_bytes(buf.getvalue())
        with pytest.raises(NonFiniteError,
                           match="checkpoint parameter gating.w1"):
            Model.load(path)

    def test_pft_invariance_of_encoder_output(self, rng):
        from biocompass.evaluation import TrainConfig, train_model
        from biocompass.data import SyntheticSpec, generate_synthetic, normalize
        ds = generate_synthetic(SyntheticSpec(
            n_cohorts=2, samples_per_cohort=(12, 12), n_genes=5, n_latents=2,
            seed=1, active_concepts={"PD-1": (0,), "PD-L1": (1,)}))
        from biocompass.evaluation import make_model_config
        model = Model(make_model_config(ds, token_dim=3, gate_hidden=2), seed=0)
        x_norm, _ = normalize(ds, np.arange(len(ds)))
        before = model.pooled_batch(Tape(), x_norm).data.copy()
        train_model(model, ds, np.arange(len(ds)), x_norm, LossWeights(),
                    TrainConfig(epochs=3, mode="pft"), seed=0)
        after = model.pooled_batch(Tape(), x_norm).data
        assert before.tobytes() == after.tobytes()
