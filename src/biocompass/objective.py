"""The four training loss terms and their weighted composite.

Classification (BCE) is always on. The pathway-consistency, concept-alignment
and auxiliary regression terms are masked `tape.mse` records of a head's
output against its target block; each can be disabled exactly by setting its
weight to zero, which also keeps gradients out of the corresponding head.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffcore import Tape, Tensor
from .model import AUX_TASKS, ForwardOutputs


@dataclass
class LossWeights:
    cls: float = 1.0
    pathway: float = 0.1
    align: float = 0.1
    aux: float = 0.1

    def __post_init__(self):
        for name in ("cls", "pathway", "align", "aux"):
            # a NaN weight would fail every `> 0` test and drop its term
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"loss weight {name} must be finite, "
                                 f"got {getattr(self, name)}")
            if getattr(self, name) < 0:
                raise ValueError(f"loss weight {name} must be nonnegative")
        if self.cls <= 0:
            raise ValueError("classification weight must be positive")


BREAKDOWN_TERMS = ("cls", "pathway", "align", "aux_tide", "aux_ipres",
                   "aux_pheno", "total")


@dataclass
class LossBreakdown:
    """The loss terms of a recorded step as floats, each read from its tape
    record when asked: after `Tape.replay`, the replayed step's values. A
    term that its weight switched off reads 0.0."""
    records: dict   # term name (BREAKDOWN_TERMS) -> its tape record

    def __getattr__(self, name: str) -> float:
        if name not in BREAKDOWN_TERMS:
            raise AttributeError(name)
        return self.as_dict()[name]

    def as_dict(self) -> dict:
        records = self.records
        return {name: float(records[name].data) if name in records else 0.0
                for name in BREAKDOWN_TERMS}


@dataclass
class BatchTargets:
    """Per-batch supervision. Every block is present; a missing value has
    mask 0, and a block the dataset has no columns for is 0 wide. Each
    block is an array or a constant. The response is a [B] array of
    labels, or a [B, 1] constant column of labels that the caller has
    checked with `check_labels`, as `Tape.bce` takes them."""
    response: np.ndarray | Tensor   # [B] in {0,1}, or a [B, 1] constant
    pathway: np.ndarray | Tensor    # [B, 42]
    pathway_mask: np.ndarray | Tensor
    biomarkers: np.ndarray | Tensor  # [B, d_b]
    biomarker_mask: np.ndarray | Tensor
    aux: dict                   # task -> [B, d_k], one entry per AUX_TASKS
    aux_masks: dict


def composite_loss(tape: Tape, outputs: ForwardOutputs, targets: BatchTargets,
                   weights: LossWeights) -> tuple[Tensor, LossBreakdown]:
    """Weighted sum of the enabled terms; returns the tape node and the
    breakdown of its terms. Terms with weight zero are skipped entirely, so
    their heads receive no gradient and may be absent (None) from
    `outputs`; the auxiliary term is the unweighted sum of its per-task
    errors."""
    # the classifier emits a [B, 1] column; a constant response is one
    labels = targets.response
    if not isinstance(labels, Tensor):
        labels = labels[:, None]
    cls = tape.bce(outputs.prob, labels)
    records = {"cls": cls}   # breakdown name -> tape record
    terms, term_weights = [cls], [weights.cls]
    if weights.pathway > 0:
        records["pathway"] = tape.mse(outputs.pathway_pred, targets.pathway,
                                      targets.pathway_mask)
        terms.append(records["pathway"])
        term_weights.append(weights.pathway)
    if weights.align > 0:
        records["align"] = tape.mse(outputs.projection, targets.biomarkers,
                                    targets.biomarker_mask)
        terms.append(records["align"])
        term_weights.append(weights.align)
    if weights.aux > 0:
        per_task = [tape.mse(outputs.aux[task], targets.aux[task],
                             targets.aux_masks[task]) for task in AUX_TASKS]
        records.update(zip([f"aux_{task}" for task in AUX_TASKS], per_task))
        terms.append(tape.weighted_sum(per_task, [1.0] * len(per_task)))
        term_weights.append(weights.aux)
    records["total"] = tape.weighted_sum(terms, term_weights)
    return records["total"], LossBreakdown(records)
