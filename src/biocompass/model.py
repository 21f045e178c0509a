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
import typing
from dataclasses import dataclass, field, asdict

import numpy as np

from .diffcore import Constant, Parameter, Tape, Tensor

N_CONCEPTS = 44
N_PATHWAYS = 42
AUX_TASKS = ("tide", "ipres", "pheno")   # auxiliary decoder heads, in order
# the side heads, each named like its loss weight and its parameters' prefix
SIDE_HEADS = ("pathway", "align", "aux")

BASE_TARGETS = ("PD-1", "PD-L1", "CTLA-4")

# `Model.pooled_normalized` folds a gene's z-score into its embedding row
# only while |mean| <= STEEP_RATIO * std. The folded terms L_g / std_g and
# mean_g / std_g cancel to the z-score, so their rounding error grows with
# |mean| / std. With one gene of the default cohort made that steep, a ratio
# of 2e4 gave an absolute pooled error of 6e-12, 2e7 gave 5e-9 and 2e10 gave
# 5e-6 (pooled values reach 4.4). A gene above the ratio is centred
# explicitly instead, which kept the error at 1.4e-14 in each case. Over
# all LOCO folds, the default cohort's genes reach a ratio of 11.6 and the
# 16000-gene benchmark panel's 14.3. Not a setting: it only chooses how the
# same value is summed.
STEEP_RATIO = 64.0


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

    def __post_init__(self):
        for name in ("gate_hidden", "pathway_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        encoder = build_checked(EncoderConfig, d.pop("encoder"), "encoder config")
        return build_checked(cls, d, "model config", encoder=encoder)


def build_checked(target, values: dict, where: str, **fixed):
    """`target(**fixed, **values)`. A key of `values` that `target` does not
    take, a value whose type does not fit the key's annotation, and a
    ValueError from `target` itself are ValueErrors prefixed with `where`."""
    taken = set(inspect.signature(target).parameters) - set(fixed)
    unknown = sorted(set(values) - taken)
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    hints = typing.get_type_hints(target)
    for key, value in values.items():
        kinds = _value_types(hints.get(key))
        if kinds and type(value) not in kinds:
            raise ValueError(
                f"{where}: {key!r} must be of type "
                f"{' or '.join(k.__name__ for k in kinds)}, "
                f"got {type(value).__name__}")
    try:
        return target(**fixed, **values)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _value_types(hint) -> tuple:
    """The exact types a value may have for an annotation: a bool is not an
    int, an int is a float, and a list (as YAML writes it) is a tuple."""
    if hint is float:
        return (float, int)
    if hint is tuple:
        return (list, tuple)
    if isinstance(hint, type):
        return (hint,)
    return typing.get_args(hint)   # `X | None`; () for no annotation


@dataclass
class ForwardOutputs:
    """A side head that was not asked for is None."""
    pooled: Tensor                # [B, d_e] mean token embedding per sample
    concepts_raw: Tensor          # [B, 44] pre-gate
    gates: Tensor | None          # [B, 44] in (0,1); None when gating disabled
    concepts_gated: Tensor        # [B, 44]; == concepts_raw when gating disabled
    pathway_pred: Tensor | None   # [B, 42]
    projection: Tensor | None     # [B, d_b]
    aux: dict | None              # task name -> Tensor
    prob: Tensor                  # [B, 1] response probability


def treatment_constant(treatments) -> Constant:
    """The treatment multi-hot rows as a constant, after the checks that
    `Model.gate` runs on an array: one column per base target, at least one
    bit per row, finite values, and no entry other than 0 or 1 (the error
    names the first row with one)."""
    treatments = np.atleast_2d(np.asarray(treatments, dtype=np.float64))
    if treatments.shape[1] != len(BASE_TARGETS):
        raise ValueError(f"treatment multi-hot width must be {len(BASE_TARGETS)}")
    if np.any(treatments.sum(axis=1) < 1):
        raise ValueError("every sample needs at least one treatment target bit")
    # scanned before the 0/1 test, so a NaN raises NonFiniteError
    t = Constant(treatments)
    bad = (treatments != 0.0) & (treatments != 1.0)
    if bad.any():
        row = int(np.flatnonzero(bad.any(axis=1))[0])
        raise ValueError(f"treatment multi-hot row {row} has an entry other "
                         f"than 0 or 1: {treatments[row].tolist()}")
    return t


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

        for task in AUX_TASKS:
            dim = getattr(config, f"{task}_dim")
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

    def reached_parameters(self, heads=SIDE_HEADS):
        """The parameters that a loss over the classifier and the side
        heads in `heads` can send a gradient to: without `gating.*` when
        gating is off, and without the parameters of the other side heads."""
        skipped = set(SIDE_HEADS) - set(heads)
        if not self.config.gating_enabled:
            skipped.add("gating")
        return [p for n, p in self.params.items()
                if n.split(".", 1)[0] not in skipped]

    def set_mode(self, mode: str) -> None:
        """"pft" freezes the encoder; "fft" makes it trainable."""
        if mode not in ("pft", "fft"):
            raise ValueError(f"unknown training mode: {mode!r}")
        frozen = mode == "pft"
        for p in self.encoder_parameters():
            p.trainable = not frozen

    def _p(self, name: str) -> Tensor:
        return self.params[name].tensor

    # ---- forward components -----------------------------------------

    def pooled_batch(self, tape: Tape, expression: np.ndarray | Tensor
                     ) -> Tensor:
        """Mean of each sample's gene tokens x_g * Emb_g, computed for the
        whole batch as one matmul: (x @ Emb) / G. `expression` is an array,
        or a constant tensor whose values the caller has already checked."""
        x = (expression if isinstance(expression, Tensor)
             else tape.constant(np.atleast_2d(expression)))
        self._check_width(x.shape[1])
        return tape.weighted_sum(
            [tape.matmul(x, self._p("encoder.gene_embedding"))],
            [1.0 / self.config.encoder.gene_count])

    def pooled_normalized(self, logged: np.ndarray, stats) -> np.ndarray:
        """`pooled_batch` of `apply_normalization(logged, stats)`, as an
        array, without building the normalised matrix: the z-score is folded
        into the embedding, (L @ S - mean @ S) / G with S = Emb / std[:, None].
        A gene with |mean| > STEEP_RATIO * std gets a zero row in S instead,
        and its centred column ((L_g - mean_g) / std_g) is pooled on its own.
        Non-finite values are not checked here; they reach the result."""
        self._check_width(logged.shape[1])
        emb = self.params["encoder.gene_embedding"].data
        steep = np.abs(stats.mean) > STEEP_RATIO * stats.std
        scaled = emb / stats.std[:, None]
        scaled[steep] = 0.0
        pooled = logged @ scaled
        pooled -= stats.mean @ scaled
        if steep.any():
            centred = logged[:, steep] - stats.mean[steep]
            centred /= stats.std[steep]
            pooled += centred @ emb[steep]
        pooled *= 1.0 / self.config.encoder.gene_count
        return pooled

    def _check_width(self, width: int) -> None:
        genes = self.config.encoder.gene_count
        if width != genes:
            raise ValueError(f"expression width {width} != gene count {genes}")

    def concepts(self, tape: Tape, pooled: Tensor) -> Tensor:
        """Nonnegative concept scores: softplus(pooled @ W_c + b_c)."""
        z = tape.linear(pooled, self._p("bottleneck.w"), self._p("bottleneck.b"))
        return tape.softplus(z)

    def gate(self, tape: Tape, concepts: Tensor,
             treatments: np.ndarray | Tensor) -> tuple[Tensor, Tensor]:
        """Per-sample gates g = sigmoid(W2 relu(W1 e_t + b1) + b2), c' = c * g.
        `treatments` is an array, which `treatment_constant` checks, or rows
        of a constant that the caller has built with it."""
        t = (treatments if isinstance(treatments, Tensor)
             else treatment_constant(treatments))
        e_t = tape.matmul(t, self._p("gating.treatment_embedding"))
        h = tape.relu(tape.linear(e_t, self._p("gating.w1"), self._p("gating.b1")))
        gates = tape.sigmoid(tape.linear(h, self._p("gating.w2"),
                                         self._p("gating.b2")))
        return gates, tape.mul(concepts, gates)

    def classify(self, tape: Tape, concepts: Tensor) -> Tensor:
        logits = tape.linear(concepts, self._p("classifier.w"),
                             self._p("classifier.b"))
        return tape.sigmoid(logits)

    def predict_pathways(self, tape: Tape, pooled: Tensor) -> Tensor:
        h = tape.relu(tape.linear(pooled, self._p("pathway.w1"),
                                  self._p("pathway.b1")))
        return tape.linear(h, self._p("pathway.w2"), self._p("pathway.b2"))

    def project_concepts(self, tape: Tape, concepts: Tensor) -> Tensor:
        return tape.matmul(concepts, self._p("align.w"))

    def predict_aux(self, tape: Tape, concepts: Tensor) -> dict:
        out = {}
        for task in AUX_TASKS:
            out[task] = tape.linear(concepts, self._p(f"aux.{task}_w"),
                                    self._p(f"aux.{task}_b"))
        return out

    def forward(self, tape: Tape, expression: np.ndarray | Tensor,
                treatments: np.ndarray | Tensor,
                heads=SIDE_HEADS) -> ForwardOutputs:
        return self.head(tape, self.pooled_batch(tape, expression), treatments,
                         heads)

    def head(self, tape: Tape, pooled: Tensor,
             treatments: np.ndarray | Tensor,
             heads=SIDE_HEADS) -> ForwardOutputs:
        """Everything after pooling: concepts, gate, classifier, and the
        side heads named in `heads` (all of them by default). `treatments`
        pass `treatment_constant` whether or not gating is on, so a model
        without the gate refuses the rows that the gated model refuses."""
        if not isinstance(treatments, Tensor):
            treatments = treatment_constant(treatments)
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
            pathway_pred=(self.predict_pathways(tape, pooled)
                          if "pathway" in heads else None),
            projection=(self.project_concepts(tape, c_raw)
                        if "align" in heads else None),
            aux=self.predict_aux(tape, c_raw) if "aux" in heads else None,
            prob=prob,
        )

    def predict_proba(self, expression: np.ndarray, treatments: np.ndarray
                      ) -> np.ndarray:
        """Response probabilities; builds no side head."""
        tape = Tape()
        out = self.forward(tape, expression, treatments, heads=())
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
                p.tensor = Tensor(stored,
                                  context=f"checkpoint parameter {name}")
                p.trainable = bool(trainable[i])
        return model
