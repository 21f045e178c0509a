"""Treatment-gated concept bottleneck network.

Dataflow: expression -> gene-token encoder -> 44-concept bottleneck ->
treatment gating -> classifier, with three side heads (pathway predictor on
pooled embeddings, biomarker alignment projection, auxiliary decoders on the
pre-gate concepts).
"""
from __future__ import annotations

import inspect
import io
import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .diffcore import Parameter, Tape, Tensor

N_CONCEPTS = 44
N_PATHWAYS = 42

BASE_TARGETS = ("PD-1", "PD-L1", "CTLA-4")


@dataclass(frozen=True)
class TreatmentTarget:
    """Multi-hot over the base checkpoint targets; combinations set >1 bit."""

    bits: tuple

    def __post_init__(self):
        if len(self.bits) != len(BASE_TARGETS) or not any(self.bits):
            raise ValueError(f"invalid treatment multi-hot: {self.bits}")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"treatment bits must be 0/1: {self.bits}")

    @classmethod
    def from_token(cls, token: str) -> "TreatmentTarget":
        bits = [0] * len(BASE_TARGETS)
        for part in token.split("+"):
            part = part.strip()
            if part not in BASE_TARGETS:
                raise ValueError(f"unknown treatment target token: {part!r}")
            bits[BASE_TARGETS.index(part)] = 1
        return cls(tuple(bits))

    def token(self) -> str:
        # canonical order: CTLA-4 before PD-1 for the combination, matching
        # the usual clinical naming
        names = [BASE_TARGETS[i] for i in (2, 0, 1) if self.bits[i]]
        return "+".join(names)

    def multihot(self) -> np.ndarray:
        return np.asarray(self.bits, dtype=np.float64)


@dataclass
class EncoderConfig:
    gene_count: int = 512
    token_dim: int = 16

    def __post_init__(self):
        if self.gene_count < 1 or self.token_dim < 1:
            raise ValueError("gene_count and token_dim must be positive")


@dataclass
class ModelConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    gate_hidden: int = 16          # treatment embedding / gating net width
    biomarker_dim: int = 8
    tide_dim: int = 1
    ipres_dim: int = 1
    pheno_dim: int = 3
    pathway_hidden: int = 32
    gating_enabled: bool = True

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        encoder = build_checked(EncoderConfig, d.pop("encoder"), "encoder config")
        return build_checked(cls, d, "model config", encoder=encoder)


def build_checked(target, values: dict, where: str, **fixed):
    """`target(**fixed, **values)`, where a key of `values` that `target`
    does not take is a ValueError naming `where` and the key."""
    taken = set(inspect.signature(target).parameters) - set(fixed)
    unknown = sorted(set(values) - taken)
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    return target(**fixed, **values)


@dataclass
class ForwardOutputs:
    pooled: Tensor            # [B, d_e] mean token embedding per sample
    concepts_raw: Tensor      # [B, 44] pre-gate
    gates: Tensor | None      # [B, 44] in (0,1); None when gating disabled
    concepts_gated: Tensor    # [B, 44]; == concepts_raw when gating disabled
    pathway_pred: Tensor      # [B, 42]
    projection: Tensor        # [B, d_b]
    aux: dict                 # task name -> Tensor
    prob: Tensor              # [B, 1] response probability


def _uniform_init(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


class Model:
    """All learnable parameters plus the tape-recorded forward pass."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self.params: dict[str, Parameter] = {}
        rng = np.random.default_rng(seed)
        enc = config.encoder
        d_e = enc.token_dim
        d_h = config.gate_hidden

        # scaled so mean-pooled tokens of standardized expression have
        # unit-order variance: bound/sqrt(3 * G) == 1
        emb_bound = np.sqrt(3.0 * enc.gene_count)
        self._add("encoder.gene_embedding",
                  rng.uniform(-emb_bound, emb_bound, size=(enc.gene_count, d_e)))

        self._add("bottleneck.w", _uniform_init(rng, d_e, (d_e, N_CONCEPTS)))
        self._add("bottleneck.b", np.zeros(N_CONCEPTS))

        self._add("gating.treatment_embedding",
                  _uniform_init(rng, 1, (len(BASE_TARGETS), d_h)))
        self._add("gating.w1", _uniform_init(rng, d_h, (d_h, d_h)))
        self._add("gating.b1", np.zeros(d_h))
        self._add("gating.w2", _uniform_init(rng, d_h, (d_h, N_CONCEPTS)))
        self._add("gating.b2", np.zeros(N_CONCEPTS))

        self._add("pathway.w1", _uniform_init(rng, d_e, (d_e, config.pathway_hidden)))
        self._add("pathway.b1", np.zeros(config.pathway_hidden))
        self._add("pathway.w2", _uniform_init(rng, config.pathway_hidden,
                                              (config.pathway_hidden, N_PATHWAYS)))
        self._add("pathway.b2", np.zeros(N_PATHWAYS))

        self._add("align.w", _uniform_init(rng, N_CONCEPTS,
                                           (N_CONCEPTS, config.biomarker_dim)))

        for task, dim in (("tide", config.tide_dim), ("ipres", config.ipres_dim),
                          ("pheno", config.pheno_dim)):
            self._add(f"aux.{task}_w", _uniform_init(rng, N_CONCEPTS, (N_CONCEPTS, dim)))
            self._add(f"aux.{task}_b", np.zeros(dim))

        self._add("classifier.w", _uniform_init(rng, N_CONCEPTS, (N_CONCEPTS, 1)))
        self._add("classifier.b", np.zeros(1))

    def _add(self, name: str, data) -> None:
        self.params[name] = Parameter(name, data)

    # ---- parameter plumbing -----------------------------------------

    def parameters(self):
        return list(self.params.values())

    def encoder_parameters(self):
        return [p for n, p in self.params.items() if n.startswith("encoder.")]

    def set_mode(self, mode: str) -> None:
        """"pft" freezes the encoder; "fft" trains everything."""
        if mode not in ("pft", "fft"):
            raise ValueError(f"unknown training mode: {mode!r}")
        frozen = mode == "pft"
        for p in self.encoder_parameters():
            p.trainable = not frozen

    def _p(self, name: str) -> Tensor:
        return self.params[name].tensor

    # ---- forward components -----------------------------------------

    def pooled_batch(self, tape: Tape, expression: np.ndarray) -> Tensor:
        """Mean of each sample's gene tokens x_g * Emb_g, computed for the
        whole batch as one matmul: (x @ Emb) / G."""
        expression = np.atleast_2d(np.asarray(expression, dtype=np.float64))
        enc = self.config.encoder
        if expression.shape[1] != enc.gene_count:
            raise ValueError(
                f"expression width {expression.shape[1]} != gene count {enc.gene_count}"
            )
        x = tape.constant(expression)
        return tape.scale(tape.matmul(x, self._p("encoder.gene_embedding")),
                          1.0 / enc.gene_count)

    def concepts(self, tape: Tape, pooled: Tensor) -> Tensor:
        """Nonnegative concept scores: softplus(pooled @ W_c + b_c)."""
        z = tape.add_bias(tape.matmul(pooled, self._p("bottleneck.w")),
                          self._p("bottleneck.b"))
        return tape.softplus(z)

    def gate(self, tape: Tape, concepts: Tensor, treatments: np.ndarray
             ) -> tuple[Tensor, Tensor]:
        """Per-sample gates g = sigmoid(W2 relu(W1 e_t + b1) + b2), c' = c * g."""
        treatments = np.atleast_2d(np.asarray(treatments, dtype=np.float64))
        if treatments.shape[1] != len(BASE_TARGETS):
            raise ValueError(f"treatment multi-hot width must be {len(BASE_TARGETS)}")
        if np.any(treatments.sum(axis=1) < 1):
            raise ValueError("every sample needs at least one treatment target bit")
        t = tape.constant(treatments)
        e_t = tape.matmul(t, self._p("gating.treatment_embedding"))
        h = tape.relu(tape.add_bias(tape.matmul(e_t, self._p("gating.w1")),
                                    self._p("gating.b1")))
        gates = tape.sigmoid(tape.add_bias(tape.matmul(h, self._p("gating.w2")),
                                           self._p("gating.b2")))
        return gates, tape.mul(concepts, gates)

    def classify(self, tape: Tape, concepts: Tensor) -> Tensor:
        logits = tape.add_bias(tape.matmul(concepts, self._p("classifier.w")),
                               self._p("classifier.b"))
        return tape.sigmoid(logits)

    def predict_pathways(self, tape: Tape, pooled: Tensor) -> Tensor:
        h = tape.relu(tape.add_bias(tape.matmul(pooled, self._p("pathway.w1")),
                                    self._p("pathway.b1")))
        return tape.add_bias(tape.matmul(h, self._p("pathway.w2")),
                             self._p("pathway.b2"))

    def project_concepts(self, tape: Tape, concepts: Tensor) -> Tensor:
        return tape.matmul(concepts, self._p("align.w"))

    def predict_aux(self, tape: Tape, concepts: Tensor) -> dict:
        out = {}
        for task in ("tide", "ipres", "pheno"):
            out[task] = tape.add_bias(tape.matmul(concepts, self._p(f"aux.{task}_w")),
                                      self._p(f"aux.{task}_b"))
        return out

    def forward(self, tape: Tape, expression: np.ndarray, treatments: np.ndarray
                ) -> ForwardOutputs:
        return self.head(tape, self.pooled_batch(tape, expression), treatments)

    def head(self, tape: Tape, pooled: Tensor, treatments: np.ndarray
             ) -> ForwardOutputs:
        """Everything after pooling: concepts, gate, classifier, side heads."""
        c_raw = self.concepts(tape, pooled)
        if self.config.gating_enabled:
            gates, c_gated = self.gate(tape, c_raw, treatments)
        else:
            gates, c_gated = None, c_raw
        prob = self.classify(tape, c_gated)
        return ForwardOutputs(
            pooled=pooled,
            concepts_raw=c_raw,
            gates=gates,
            concepts_gated=c_gated,
            pathway_pred=self.predict_pathways(tape, pooled),
            projection=self.project_concepts(tape, c_raw),
            aux=self.predict_aux(tape, c_raw),
            prob=prob,
        )

    def predict_proba(self, expression: np.ndarray, treatments: np.ndarray
                      ) -> np.ndarray:
        tape = Tape()
        out = self.forward(tape, expression, treatments)
        return out.prob.data.ravel()

    # ---- checkpointing ----------------------------------------------

    def save(self, path) -> None:
        arrays = {f"param/{n}": p.data for n, p in self.params.items()}
        arrays["trainable"] = np.array(
            [int(p.trainable) for p in self.params.values()], dtype=np.int64)
        buf = io.BytesIO()
        np.savez(buf, config=np.frombuffer(
            json.dumps(self.config.to_dict(), sort_keys=True).encode(), dtype=np.uint8),
            **arrays)
        with open(path, "wb") as f:
            f.write(buf.getvalue())

    @classmethod
    def load(cls, path) -> "Model":
        with np.load(path) as data:
            config = ModelConfig.from_dict(
                json.loads(bytes(data["config"]).decode()))
            model = cls(config, seed=0)
            trainable = data["trainable"]
            for i, (name, p) in enumerate(model.params.items()):
                stored = data[f"param/{name}"]
                if stored.shape != p.data.shape:
                    raise ValueError(
                        f"checkpoint shape mismatch for {name}: "
                        f"{stored.shape} vs {p.data.shape}")
                p.tensor.data = stored.copy()
                p.trainable = bool(trainable[i])
        return model
