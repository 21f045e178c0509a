import numpy as np
import pytest

from biocompass import diffcore
from biocompass.diffcore import Tape, backward, zero_grads
from biocompass.model import Model, N_CONCEPTS
from biocompass.objective import (BatchTargets, LossWeights, alignment_loss,
                                  auxiliary_loss, composite_loss, pathway_loss)
from conftest import composite_scalar, random_batch, tiny_model_config


class TestLossWeights:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            LossWeights(cls=1.0, pathway=-0.1)

    def test_zero_cls_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            LossWeights(cls=0.0)


class TestPathwayLoss:
    def test_identical_targets_zero(self, rng):
        tape = Tape()
        p = rng.normal(size=(3, 42))
        assert float(pathway_loss(tape, tape.constant(p), p).data) == 0.0

    def test_single_sample_hand_value(self):
        tape = Tape()
        pred = np.zeros((1, 42))
        target = np.zeros((1, 42))
        target[0, :2] = [1.0, 2.0]
        loss = pathway_loss(tape, tape.constant(pred), target)
        assert float(loss.data) == pytest.approx(5.0)

    def test_fully_masked_batch_zero(self, rng):
        tape = Tape()
        loss = pathway_loss(tape, tape.constant(rng.normal(size=(2, 42))),
                            rng.normal(size=(2, 42)), np.zeros((2, 42)))
        assert float(loss.data) == 0.0


class TestAlignmentLoss:
    def test_matching_projection_zero(self, rng):
        tape = Tape()
        b = rng.normal(size=(3, 2))
        assert float(alignment_loss(tape, tape.constant(b), b).data) == 0.0

    def test_single_sample_hand_value(self):
        tape = Tape()
        loss = alignment_loss(tape, tape.constant([[1.0, -1.0]]),
                              np.zeros((1, 2)))
        assert float(loss.data) == pytest.approx(2.0)

    def test_batch_mean_invariance_under_row_duplication(self, rng):
        proj = rng.normal(size=(3, 2))
        target = rng.normal(size=(3, 2))
        tape = Tape()
        single = float(alignment_loss(tape, tape.constant(proj), target).data)
        doubled = float(alignment_loss(
            tape, tape.constant(np.vstack([proj, proj])),
            np.vstack([target, target])).data)
        assert doubled == pytest.approx(single)

    def test_dim_mismatch_rejected(self, rng):
        tape = Tape()
        with pytest.raises(ValueError, match="shape"):
            alignment_loss(tape, tape.constant(np.zeros((2, 3))),
                           np.zeros((2, 2)))


class TestAuxiliaryLoss:
    def test_all_matched_zero(self, rng):
        tape = Tape()
        t = {k: rng.normal(size=(2, 2)) for k in ("tide", "ipres", "pheno")}
        preds = {k: tape.constant(v) for k, v in t.items()}
        per_task, total = auxiliary_loss(tape, preds, t, {})
        assert float(total.data) == 0.0
        assert all(float(v.data) == 0.0 for v in per_task.values())

    def test_single_task_off_by_one(self):
        tape = Tape()
        preds = {"tide": tape.constant([[1.0]]), "ipres": tape.constant([[0.0]]),
                 "pheno": tape.constant([[0.0]])}
        targets = {"tide": np.array([[0.0]]), "ipres": np.array([[0.0]]),
                   "pheno": np.array([[0.0]])}
        per_task, total = auxiliary_loss(tape, preds, targets, {})
        assert float(per_task["tide"].data) == pytest.approx(1.0)
        assert float(total.data) == pytest.approx(1.0)

    def test_fully_missing_task_contributes_zero(self, rng):
        tape = Tape()
        preds = {k: tape.constant(rng.normal(size=(2, 1)))
                 for k in ("tide", "ipres", "pheno")}
        targets = {k: rng.normal(size=(2, 1)) for k in ("tide", "ipres", "pheno")}
        masks = {"tide": np.zeros((2, 1)), "ipres": np.ones((2, 1)),
                 "pheno": np.ones((2, 1))}
        per_task, total = auxiliary_loss(tape, preds, targets, masks)
        assert float(per_task["tide"].data) == 0.0
        assert float(total.data) == pytest.approx(
            float(per_task["ipres"].data) + float(per_task["pheno"].data))


class TestCompositeLoss:
    def test_only_cls_enabled_total_equals_cls(self, rng):
        model = Model(tiny_model_config(), seed=0)
        x, treatments, targets = random_batch(rng)
        weights = LossWeights(cls=1.0, pathway=0.0, align=0.0, aux=0.0)
        tape = Tape()
        out = model.forward(tape, x, treatments)
        total, breakdown = composite_loss(tape, out, targets, weights)
        assert breakdown.total == pytest.approx(breakdown.cls, rel=1e-12)

    def test_breakdown_invariant(self, rng):
        model = Model(tiny_model_config(), seed=0)
        x, treatments, targets = random_batch(rng)
        weights = LossWeights(1.0, 0.4, 0.3, 0.2)
        tape = Tape()
        out = model.forward(tape, x, treatments)
        total, b = composite_loss(tape, out, targets, weights)
        expected = (weights.cls * b.cls + weights.pathway * b.pathway
                    + weights.align * b.align
                    + weights.aux * (b.aux_tide + b.aux_ipres + b.aux_pheno))
        assert b.total == pytest.approx(expected, rel=1e-12)

    def test_one_sample_hand_built_sum(self):
        model = Model(tiny_model_config(), seed=0)
        x = np.array([[0.5, -0.5, 1.0, 0.0, 0.2]])
        treatments = np.array([[1.0, 0.0, 0.0]])
        targets = BatchTargets(
            response=np.array([1.0]),
            pathway=np.full((1, 42), 0.1), pathway_mask=np.ones((1, 42)),
            biomarkers=np.array([[0.2, -0.3]]), biomarker_mask=np.ones((1, 2)),
            aux={"tide": np.array([[0.1]]), "ipres": np.array([[-0.1]]),
                 "pheno": np.array([[0.0, 0.1]])},
            aux_masks={"tide": np.ones((1, 1)), "ipres": np.ones((1, 1)),
                       "pheno": np.ones((1, 2))})
        tape = Tape()
        out = model.forward(tape, x, treatments)
        total, b = composite_loss(tape, out, targets, LossWeights(1, 1, 1, 1))
        # recompute each term independently with plain numpy
        prob = out.prob.data[0, 0]
        cls = -np.log(prob)
        pathway = np.sum((out.pathway_pred.data - 0.1) ** 2)
        align = np.sum((out.projection.data - targets.biomarkers) ** 2)
        aux = sum(np.sum((out.aux[k].data - targets.aux[k]) ** 2)
                  for k in ("tide", "ipres", "pheno"))
        assert b.total == pytest.approx(cls + pathway + align + aux, rel=1e-10)

    def test_disabling_gating_changes_only_cls(self, rng):
        from dataclasses import replace
        x, treatments, targets = random_batch(rng)
        weights = LossWeights(1.0, 0.5, 0.5, 0.5)
        model = Model(tiny_model_config(), seed=3)
        tape = Tape()
        out = model.forward(tape, x, treatments)
        _, with_gate = composite_loss(tape, out, targets, weights)
        ungated = Model(tiny_model_config(gating_enabled=False), seed=3)
        tape = Tape()
        out2 = ungated.forward(tape, x, treatments)
        _, without_gate = composite_loss(tape, out2, targets, weights)
        assert with_gate.cls != pytest.approx(without_gate.cls)
        assert with_gate.pathway == pytest.approx(without_gate.pathway, rel=1e-12)
        assert with_gate.align == pytest.approx(without_gate.align, rel=1e-12)
        assert with_gate.aux_tide == pytest.approx(without_gate.aux_tide, rel=1e-12)

    @pytest.mark.parametrize("disabled,param_prefix", [
        ("pathway", "pathway."),
        ("align", "align."),
        ("aux", "aux."),
    ])
    def test_zero_weight_blocks_gradients(self, rng, disabled, param_prefix):
        model = Model(tiny_model_config(), seed=2)
        x, treatments, targets = random_batch(rng)
        kwargs = {"cls": 1.0, "pathway": 0.5, "align": 0.5, "aux": 0.5}
        kwargs[disabled] = 0.0
        zero_grads(model.parameters())
        total, tape = composite_scalar(model, x, treatments, targets,
                                       LossWeights(**kwargs))
        backward(total, tape)
        for name, p in model.params.items():
            if name.startswith(param_prefix):
                np.testing.assert_array_equal(p.grad, np.zeros_like(p.grad),
                                              err_msg=name)

    def test_structurally_disabled_gating_has_zero_gradients(self, rng):
        model = Model(tiny_model_config(gating_enabled=False), seed=2)
        x, treatments, targets = random_batch(rng)
        zero_grads(model.parameters())
        total, tape = composite_scalar(model, x, treatments, targets,
                                       LossWeights(1.0, 0.5, 0.5, 0.5))
        backward(total, tape)
        for name, p in model.params.items():
            if name.startswith("gating."):
                np.testing.assert_array_equal(p.grad, np.zeros_like(p.grad))

    def test_composite_gradient_linearity(self, rng):
        # gradient of the weighted sum == weighted sum of per-term gradients
        model = Model(tiny_model_config(), seed=8)
        x, treatments, targets = random_batch(rng)
        probe = model.params["bottleneck.w"]

        def grad_for(weights):
            zero_grads(model.parameters())
            total, tape = composite_scalar(model, x, treatments, targets, weights)
            backward(total, tape)
            return probe.grad.copy()

        g_cls = grad_for(LossWeights(1.0, 0.0, 0.0, 0.0))
        g_all = grad_for(LossWeights(1.0, 0.7, 0.0, 0.0))
        zero_grads(model.parameters())
        # pathway head does not touch bottleneck.w, so difference must vanish
        np.testing.assert_allclose(g_all, g_cls, atol=1e-10)
        g_aux = grad_for(LossWeights(1.0, 0.0, 0.0, 1.0))
        g_half = grad_for(LossWeights(1.0, 0.0, 0.0, 0.5))
        np.testing.assert_allclose(g_half, 0.5 * (g_cls + g_aux), atol=1e-10)
