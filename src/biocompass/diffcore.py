"""Dense-tensor reverse-mode differentiation core.

A `Tape` records every primitive executed during a forward pass; `backward`
replays the records in reverse to accumulate gradients into the tensors that
produced the loss. Everything is float64 and single-threaded; a tape belongs
to exactly one forward/backward cycle.
"""
from __future__ import annotations

import numpy as np

BCE_EPS = 1e-7


class NonFiniteError(ValueError):
    """A NaN or Inf tried to enter or leave a primitive."""


def _check_finite(values: np.ndarray, context: str) -> None:
    if not np.all(np.isfinite(values)):
        raise NonFiniteError(f"non-finite value in {context}")


class Tensor:
    """A dense float64 array plus an optional accumulated gradient."""

    __slots__ = ("data", "grad")

    def __init__(self, data, context: str = "tensor"):
        self.data = np.asarray(data, dtype=np.float64)
        _check_finite(self.data, context)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class Parameter:
    """A named, optionally trainable tensor with persistent gradient storage."""

    def __init__(self, name: str, data, trainable: bool = True):
        self.name = name
        self.tensor = Tensor(data, context=f"parameter {name}")
        self.trainable = trainable

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data

    @property
    def grad(self) -> np.ndarray:
        if self.tensor.grad is None:
            return np.zeros_like(self.tensor.data)
        return self.tensor.grad

    def zero_grad(self) -> None:
        self.tensor.grad = None

    def __repr__(self):
        flag = "" if self.trainable else ", frozen"
        return f"Parameter({self.name}, shape={self.data.shape}{flag})"


class Tape:
    """Ordered record of primitives; replayed backward exactly once."""

    def __init__(self):
        self._records = []

    def _push(self, out: Tensor, backward_fn) -> Tensor:
        self._records.append((out, backward_fn))
        return out

    # ---- primitives -------------------------------------------------

    def constant(self, data) -> Tensor:
        """Leaf tensor that receives no gradient."""
        return Tensor(data, context="constant")

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
            raise ValueError(
                f"matmul dimension mismatch: {a.data.shape} x {b.data.shape}"
            )
        out = Tensor(a.data @ b.data, context="matmul")

        def backward(grad):
            a.accumulate(grad @ b.data.T)
            b.accumulate(a.data.T @ grad)

        return self._push(out, backward)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.shape != b.data.shape:
            raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
        out = Tensor(a.data + b.data, context="add")

        def backward(grad):
            a.accumulate(grad)
            b.accumulate(grad)

        return self._push(out, backward)

    def add_bias(self, x: Tensor, bias: Tensor) -> Tensor:
        """Row-broadcast add: x[m, n] + bias[n]."""
        if x.data.ndim != 2 or bias.data.shape != (x.data.shape[1],):
            raise ValueError(
                f"add_bias shape mismatch: {x.data.shape} vs {bias.data.shape}"
            )
        out = Tensor(x.data + bias.data, context="add_bias")

        def backward(grad):
            x.accumulate(grad)
            bias.accumulate(grad.sum(axis=0))

        return self._push(out, backward)

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.shape != b.data.shape:
            raise ValueError(f"mul shape mismatch: {a.data.shape} vs {b.data.shape}")
        out = Tensor(a.data * b.data, context="mul")

        def backward(grad):
            a.accumulate(grad * b.data)
            b.accumulate(grad * a.data)

        return self._push(out, backward)

    def scale(self, x: Tensor, factor: float) -> Tensor:
        out = Tensor(x.data * factor, context="scale")

        def backward(grad):
            x.accumulate(grad * factor)

        return self._push(out, backward)

    def relu(self, x: Tensor) -> Tensor:
        # subgradient at 0 is defined as 0
        mask = x.data > 0.0
        out = Tensor(np.where(mask, x.data, 0.0), context="relu")

        def backward(grad):
            x.accumulate(grad * mask)

        return self._push(out, backward)

    def sigmoid(self, x: Tensor) -> Tensor:
        s = _stable_sigmoid(x.data)
        out = Tensor(s, context="sigmoid")

        def backward(grad):
            x.accumulate(grad * s * (1.0 - s))

        return self._push(out, backward)

    def softplus(self, x: Tensor) -> Tensor:
        out = Tensor(np.logaddexp(0.0, x.data), context="softplus")
        s = _stable_sigmoid(x.data)

        def backward(grad):
            x.accumulate(grad * s)

        return self._push(out, backward)

    def sum_squares(self, x: Tensor) -> Tensor:
        out = Tensor(np.sum(x.data * x.data), context="sum_squares")

        def backward(grad):
            x.accumulate(2.0 * grad * x.data)

        return self._push(out, backward)

    def mse(self, pred: Tensor, target: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
        """Masked squared error: sum over feature dims, mean over the batch.

        `target` and `mask` are constants; an all-zero mask yields loss 0 with
        zero gradient (no supervised samples in the batch).
        """
        target = np.asarray(target, dtype=np.float64)
        if pred.data.shape != target.shape:
            raise ValueError(
                f"mse shape mismatch: {pred.data.shape} vs {target.shape}"
            )
        if mask is None:
            mask = np.ones_like(target)
        else:
            mask = np.asarray(mask, dtype=np.float64)
            if mask.shape != target.shape:
                raise ValueError(
                    f"mse mask shape mismatch: {mask.shape} vs {target.shape}"
                )
        batch = pred.data.shape[0]
        diff = mask * (pred.data - target)
        out = Tensor(np.sum(diff * (pred.data - target)) / batch, context="mse")

        def backward(grad):
            pred.accumulate(grad * 2.0 * diff / batch)

        return self._push(out, backward)

    def bce(self, prob: Tensor, labels: np.ndarray) -> Tensor:
        """Mean binary cross-entropy; probabilities clamped to [eps, 1-eps]."""
        labels = np.asarray(labels, dtype=np.float64)
        if prob.data.shape != labels.shape:
            raise ValueError(
                f"bce shape mismatch: {prob.data.shape} vs {labels.shape}"
            )
        if not np.all((labels == 0.0) | (labels == 1.0)):
            raise ValueError("bce labels must be 0 or 1")
        batch = labels.shape[0] if labels.ndim else 1
        clamped = np.clip(prob.data, BCE_EPS, 1.0 - BCE_EPS)
        inside = (prob.data > BCE_EPS) & (prob.data < 1.0 - BCE_EPS)
        value = -np.sum(
            labels * np.log(clamped) + (1.0 - labels) * np.log(1.0 - clamped)
        ) / batch
        out = Tensor(value, context="bce")

        def backward(grad):
            d = (clamped - labels) / (clamped * (1.0 - clamped)) / batch
            prob.accumulate(grad * d * inside)

        return self._push(out, backward)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    # keep the output strictly inside (0, 1) even where exp underflows
    return np.clip(out, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate gradients of a scalar loss into every tensor on the tape."""
    if loss.data.shape != ():
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    loss.grad = np.ones((), dtype=np.float64)
    for out, backward_fn in reversed(tape._records):
        if out.grad is not None:
            backward_fn(out.grad)


def zero_grads(params) -> None:
    for p in params:
        p.zero_grad()


class Adam:
    """Adam over the parameters that are trainable when it is built.

    Their values are packed into one contiguous vector and each parameter's
    `.data` becomes a view into it, so a step is a handful of whole-vector
    operations. `trainable` is read here, once: a parameter frozen at
    construction is never touched by `step`, and flipping the flag later has
    no effect on this optimizer.
    """

    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        trained = [p for p in self.params if p.trainable]
        self._flat = np.concatenate(
            [p.data.ravel() for p in trained] or [np.zeros(0)])
        self._slots = []   # (parameter, its slice of the flat vector)
        start = 0
        for p in trained:
            span = slice(start, start + p.data.size)
            p.tensor.data = self._flat[span].reshape(p.data.shape)
            self._slots.append((p, span))
            start = span.stop
        self._g = np.zeros_like(self._flat)
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)

    def step(self) -> None:
        g = self._g
        for p, span in self._slots:
            g[span] = 0.0 if p.tensor.grad is None else p.tensor.grad.ravel()
        if not np.all(np.isfinite(g)):
            bad = next(p for p, span in self._slots
                       if not np.all(np.isfinite(g[span])))
            raise NonFiniteError(f"non-finite gradient for parameter {bad.name}")
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        self._flat -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
