"""The four training loss terms and their weighted composite.

Classification (BCE) is always on; the pathway-consistency, concept-alignment
and auxiliary regression terms can each be disabled exactly by setting their
weight to zero, which also keeps gradients out of the corresponding head.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffcore import Tape, Tensor
from .model import ForwardOutputs


@dataclass
class LossWeights:
    cls: float = 1.0
    pathway: float = 0.1
    align: float = 0.1
    aux: float = 0.1

    def __post_init__(self):
        for name in ("cls", "pathway", "align", "aux"):
            if getattr(self, name) < 0:
                raise ValueError(f"loss weight {name} must be nonnegative")
        if self.cls <= 0:
            raise ValueError("classification weight must be positive")


@dataclass
class LossBreakdown:
    cls: float
    pathway: float
    align: float
    aux_tide: float
    aux_ipres: float
    aux_pheno: float
    total: float

    def as_dict(self) -> dict:
        return {
            "cls": self.cls, "pathway": self.pathway, "align": self.align,
            "aux_tide": self.aux_tide, "aux_ipres": self.aux_ipres,
            "aux_pheno": self.aux_pheno, "total": self.total,
        }


@dataclass
class BatchTargets:
    """Per-batch supervision; any target group may be missing (mask of zeros)."""
    response: np.ndarray                 # [B] in {0,1}
    pathway: np.ndarray | None = None    # [B, 42]
    pathway_mask: np.ndarray | None = None
    biomarkers: np.ndarray | None = None  # [B, d_b]
    biomarker_mask: np.ndarray | None = None
    aux: dict | None = None              # task -> [B, d_k]
    aux_masks: dict | None = None


def pathway_loss(tape: Tape, pred: Tensor, target: np.ndarray,
                 mask: np.ndarray | None = None) -> Tensor:
    """Squared error between predicted and external pathway scores,
    summed over the 42 features and averaged over the batch."""
    return tape.mse(pred, target, mask)


def alignment_loss(tape: Tape, projection: Tensor, biomarkers: np.ndarray,
                   mask: np.ndarray | None = None) -> Tensor:
    """Distance between projected concepts and biomarker scores, divided by
    the batch size so folds of different sizes are comparable."""
    return tape.mse(projection, biomarkers, mask)


def auxiliary_loss(tape: Tape, preds: dict, targets: dict, masks: dict
                   ) -> tuple[dict, Tensor]:
    """Per-task masked squared error plus the summed total."""
    per_task = {}
    for task in ("tide", "ipres", "pheno"):
        if task not in targets or targets[task] is None:
            continue
        per_task[task] = tape.mse(preds[task], targets[task], masks.get(task))
    if not per_task:
        return per_task, tape.constant(0.0)
    terms = list(per_task.values())
    return per_task, tape.weighted_sum(terms, [1.0] * len(terms))


def composite_loss(tape: Tape, outputs: ForwardOutputs, targets: BatchTargets,
                   weights: LossWeights) -> tuple[Tensor, LossBreakdown]:
    """Weighted sum of the enabled terms; returns the tape node and a
    float breakdown. Terms with weight zero are skipped entirely so their
    heads receive no gradient."""
    # the classifier emits a [B, 1] column
    cls = tape.bce(outputs.prob, targets.response[:, None])
    terms, term_weights = [cls], [weights.cls]

    pathway_val = 0.0
    if weights.pathway > 0 and targets.pathway is not None:
        pw = pathway_loss(tape, outputs.pathway_pred, targets.pathway,
                          targets.pathway_mask)
        pathway_val = float(pw.data)
        terms.append(pw)
        term_weights.append(weights.pathway)

    align_val = 0.0
    if weights.align > 0 and targets.biomarkers is not None:
        al = alignment_loss(tape, outputs.projection, targets.biomarkers,
                            targets.biomarker_mask)
        align_val = float(al.data)
        terms.append(al)
        term_weights.append(weights.align)

    aux_vals = {"tide": 0.0, "ipres": 0.0, "pheno": 0.0}
    if weights.aux > 0 and targets.aux:
        per_task, aux_sum = auxiliary_loss(
            tape, outputs.aux, targets.aux, targets.aux_masks or {})
        for task, term in per_task.items():
            aux_vals[task] = float(term.data)
        terms.append(aux_sum)
        term_weights.append(weights.aux)

    total = tape.weighted_sum(terms, term_weights)

    breakdown = LossBreakdown(
        cls=float(cls.data), pathway=pathway_val, align=align_val,
        aux_tide=aux_vals["tide"], aux_ipres=aux_vals["ipres"],
        aux_pheno=aux_vals["pheno"], total=float(total.data))
    return total, breakdown
