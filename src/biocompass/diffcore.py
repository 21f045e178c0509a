"""Dense-tensor reverse-mode differentiation core.

A `Tape` records every primitive executed during a forward pass; `backward`
walks the records in reverse to accumulate gradients into the tensors that
produced the loss. `Tape.replay` re-runs a recorded forward pass on new
values bound into its leaves, writing every output into one preallocated
arena, so a graph whose shapes repeat is built once and run many times.
Everything is float64 and single-threaded.
"""
from __future__ import annotations

import math

import numpy as np

BCE_EPS = 1e-7
# Adam updates its vectors this many elements at a time, so the in-place ops
# of one block find its data still in cache; 2**14 to 2**16 measured alike
# on a 16000x16 embedding
ADAM_BLOCK = 1 << 15
# sigmoid outputs stay strictly inside (0, 1), even where exp under/overflows
SIGMOID_LO = np.nextafter(0.0, 1.0)
SIGMOID_HI = np.nextafter(1.0, 0.0)


class NonFiniteError(ValueError):
    """A NaN or Inf tried to enter or leave a primitive."""


def _check_finite(values: np.ndarray, context: str) -> None:
    if not np.isfinite(values).all():
        raise NonFiniteError(f"non-finite value in {context}")


def _finite(data, context: str) -> np.ndarray:
    """`data` as a float64 array, checked to be finite. A primitive's
    float64 output is taken as it is; a 0-d value is checked as a Python
    float, a fraction of `np.isfinite`'s cost."""
    if type(data) is not np.ndarray or data.dtype != np.float64:
        data = np.asarray(data, dtype=np.float64)
    if data.ndim:
        _check_finite(data, context)
    elif not math.isfinite(data):
        raise NonFiniteError(f"non-finite value in {context}")
    return data


def check_labels(labels) -> np.ndarray:
    """`labels` as a float64 array, checked to hold only 0 and 1: the check
    `Tape.bce` runs on an array of labels."""
    labels = np.asarray(labels, dtype=np.float64)
    if not ((labels == 0.0) | (labels == 1.0)).all():
        raise ValueError("bce labels must be 0 or 1")
    return labels


class Tensor:
    """A dense float64 array plus an optional accumulated gradient.

    `store`, when set (by `Adam`, for the parameters it trains), is the
    array the gradient lives in: a slice of the optimizer's flat gradient
    vector, shaped like `data`."""

    __slots__ = ("data", "grad", "store")
    needs_grad = True

    def __init__(self, data, context: str = "tensor"):
        self.data = _finite(data, context)
        self.grad = None
        self.store = None

    @property
    def shape(self):
        return self.data.shape

    def accumulate(self, grad: np.ndarray) -> None:
        """Add `grad` to this tensor's gradient.

        `grad` is handed over: it must be a float64 array freshly computed
        for this tensor alone, which no other tensor holds and the caller
        does not touch again. The first write of a step keeps it as the
        gradient without a copy, or copies it into `store` when one is
        set; later writes add to the gradient in place."""
        if self.grad is not None:
            self.grad += grad
        elif self.store is None:
            self.grad = grad
        else:
            np.copyto(self.store, grad)
            self.grad = self.store

    def accumulate_from(self, op, *args) -> None:
        """`accumulate(op(*args))`, where `op` is a numpy function that
        takes `out=`: the first write of a step into a `store` computes
        straight into it, with no temporary."""
        if self.grad is None and self.store is not None:
            self.grad = op(*args, out=self.store)
        else:
            self.accumulate(op(*args))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class Constant(Tensor):
    """A leaf that takes no gradient: primitives skip the products meant for
    it, and whatever still reaches `accumulate` is dropped."""

    __slots__ = ()
    needs_grad = False

    def __init__(self, data, context: str = "constant"):
        super().__init__(data, context)

    def accumulate(self, grad: np.ndarray) -> None:
        pass

    @classmethod
    def prechecked(cls, data: np.ndarray) -> "Constant":
        """A constant over a float64 array that the caller has already
        found finite, built without scanning it again."""
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out.store = None
        return out


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
    """Ordered record of primitives, each kept as a forward computation and
    its backward. Recording a primitive runs its forward once; `replay`
    runs every recorded forward again, in order, on the current `.data` of
    its inputs, so the same graph serves a new batch whose values were
    rebound into the same leaves (slots). `backward` walks the records in
    reverse after a recording or a replay.

    A forward writes its output into the array it is given. Recording
    allocates that array and runs the forward under a replay's warning
    rules, so a non-finite output raises the replay's error and no numpy
    warning. At its first replay a tape moves every output into its slice
    of one float64 arena, which each replay then overwrites in place; a
    replay after new records moves them all into a new arena."""

    def __init__(self):
        self._records = []    # (output, backward), in recording order
        self._forwards = []   # (output, forward, context), in the same order
        self._arena = None    # every output's values, from the first replay
        self._bound = 0       # how many records the arena holds

    def _record(self, context: str, shape, forward, backward_fn) -> Tensor:
        """Run `forward` into a new array of `shape`, with floating-point
        warnings off as in a replay, and record its output under
        `context`, the name that its finiteness check gives."""
        data = np.empty(shape)
        with np.errstate(all="ignore"):
            forward(data)
        out = Tensor(data, context=context)
        self._records.append((out, backward_fn))
        self._forwards.append((out, forward, context))
        return out

    def replay(self) -> None:
        """Clear each recorded output's gradient and recompute its value
        from the current values of its inputs. Leaves are the caller's:
        their values are whatever was bound into them, and their gradients
        are not cleared here.

        Floating-point warnings are off for the whole pass, and the outputs
        are checked at once: the arena's sum is finite whenever they all
        are. Only a sum that is not finite is followed by a scan in
        recording order, which raises the error a new recording raises at
        the first non-finite output, and lets finite values whose sum
        overflows through."""
        if self._bound != len(self._forwards):
            self._bind_arena()
        with np.errstate(all="ignore"):
            for out, forward, _ in self._forwards:
                out.grad = None
                forward(out.data)
            total = np.add.reduce(self._arena)
        if not math.isfinite(total):
            for out, _, context in self._forwards:
                _finite(out.data, context)

    def _bind_arena(self) -> None:
        """Move every record's output into its slice of a new arena; a
        record added after an earlier replay joins it here."""
        sizes = [out.data.size for out, _, _ in self._forwards]
        self._arena = np.empty(sum(sizes))
        start = 0
        for (out, _, _), size in zip(self._forwards, sizes):
            out.data = self._arena[start:start + size].reshape(out.data.shape)
            start += size
        self._bound = len(self._forwards)

    # ---- primitives -------------------------------------------------

    def constant(self, data) -> Tensor:
        """Leaf tensor that receives no gradient."""
        return Constant(data)

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
            raise ValueError(
                f"matmul dimension mismatch: {a.data.shape} x {b.data.shape}"
            )

        def forward(out):
            np.matmul(a.data, b.data, out=out)

        def backward(grad):
            if a.needs_grad:
                a.accumulate(grad @ b.data.T)
            if b.needs_grad:
                b.accumulate_from(np.matmul, a.data.T, grad)

        return self._record("matmul", (a.data.shape[0], b.data.shape[1]),
                            forward, backward)

    def linear(self, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
        """Affine map x[m, k] @ w[k, n] + b[n] as one record."""
        if (x.data.ndim != 2 or w.data.ndim != 2
                or x.data.shape[1] != w.data.shape[0]
                or b.data.shape != (w.data.shape[1],)):
            raise ValueError(
                f"linear shape mismatch: {x.data.shape} @ {w.data.shape} "
                f"+ {b.data.shape}"
            )

        def forward(out):
            np.matmul(x.data, w.data, out=out)
            out += b.data

        def backward(grad):
            if x.needs_grad:
                x.accumulate(grad @ w.data.T)
            if w.needs_grad:
                w.accumulate_from(np.matmul, x.data.T, grad)
            if b.needs_grad:
                b.accumulate_from(np.add.reduce, grad, 0)

        return self._record("linear", (x.data.shape[0], w.data.shape[1]),
                            forward, backward)

    def weighted_sum(self, terms, weights) -> Tensor:
        """((t0 * w0 + t1 * w1) + t2 * w2) + ... over same-shaped tensors
        and float weights, as one record."""
        if not terms or len(terms) != len(weights):
            raise ValueError(
                f"weighted_sum needs one weight per term, got {len(terms)} "
                f"terms and {len(weights)} weights"
            )
        shapes = {t.data.shape for t in terms}
        if len(shapes) != 1:
            raise ValueError(f"weighted_sum shape mismatch: {sorted(shapes)}")
        (t0, w0), *rest = zip(terms, weights)

        def forward(out):
            np.multiply(t0.data, w0, out=out)
            for t, w in rest:
                out += t.data * w

        def scalar_forward(out):
            # 0-d terms, as in a sum of losses: scalars round as 0-d ufunc
            # calls do, at a fraction of their cost per step
            total = float(t0.data) * w0
            for t, w in rest:
                total += float(t.data) * w
            out[()] = total

        def backward(grad):
            for t, w in zip(terms, weights):
                t.accumulate(grad * w)

        (shape,) = shapes
        return self._record("weighted_sum", shape,
                            scalar_forward if shape == () else forward,
                            backward)

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.shape != b.data.shape:
            raise ValueError(f"mul shape mismatch: {a.data.shape} vs {b.data.shape}")

        def forward(out):
            np.multiply(a.data, b.data, out=out)

        def backward(grad):
            a.accumulate(grad * b.data)
            b.accumulate(grad * a.data)

        return self._record("mul", a.data.shape, forward, backward)

    def relu(self, x: Tensor) -> Tensor:
        mask = np.empty(x.data.shape, dtype=bool)

        def forward(out):
            # subgradient at 0 is defined as 0
            np.greater(x.data, 0.0, out=mask)
            out.fill(0.0)
            np.copyto(out, x.data, where=mask)

        def backward(grad):
            x.accumulate(grad * mask)

        return self._record("relu", x.data.shape, forward, backward)

    def sigmoid(self, x: Tensor) -> Tensor:
        s = None

        def forward(out):
            nonlocal s
            s = _sigmoid_into(x.data, out)

        def backward(grad):
            x.accumulate(grad * s * (1.0 - s))

        return self._record("sigmoid", x.data.shape, forward, backward)

    def softplus(self, x: Tensor) -> Tensor:
        s = np.empty(x.data.shape)

        def forward(out):
            _sigmoid_into(x.data, s)
            # log(1 + e^x) = max(x, 0) + log1p(e^-|x|), which never overflows
            np.abs(x.data, out=out)
            np.negative(out, out=out)
            np.exp(out, out=out)
            np.log1p(out, out=out)
            np.add(np.maximum(x.data, 0.0), out, out=out)

        def backward(grad):
            x.accumulate(grad * s)

        return self._record("softplus", x.data.shape, forward, backward)

    def mse(self, pred: Tensor, target: np.ndarray | Tensor,
            mask: np.ndarray | Tensor | None = None) -> Tensor:
        """Masked squared error: sum over feature dims, mean over the batch.

        `target` and `mask` are arrays or constants; an all-zero mask yields
        loss 0 with zero gradient (no supervised samples in the batch).
        """
        target = _as_constant(target)
        if pred.data.shape != target.data.shape:
            raise ValueError(
                f"mse shape mismatch: {pred.data.shape} vs {target.data.shape}"
            )
        if mask is not None:
            mask = _as_constant(mask)
            if mask.data.shape != target.data.shape:
                raise ValueError(
                    f"mse mask shape mismatch: {mask.data.shape} vs "
                    f"{target.data.shape}"
                )
        diff = batch = None

        def forward(out):
            nonlocal diff, batch
            batch = pred.data.shape[0]
            err = pred.data - target.data
            # no mask weighs every cell 1, and 1.0 * err is err
            diff = err if mask is None else mask.data * err
            out[()] = np.add.reduce(diff * err, axis=None) / batch

        def backward(grad):
            pred.accumulate(grad * 2.0 * diff / batch)

        return self._record("mse", (), forward, backward)

    def bce(self, prob: Tensor, labels: np.ndarray | Tensor) -> Tensor:
        """Mean binary cross-entropy; probabilities clamped to [eps, 1-eps].

        `labels` is an array, which `check_labels` checks, or a constant
        whose values the caller has checked with it."""
        if not isinstance(labels, Tensor):
            labels = Constant.prechecked(check_labels(labels))
        if prob.data.shape != labels.data.shape:
            raise ValueError(
                f"bce shape mismatch: {prob.data.shape} vs {labels.data.shape}"
            )
        clamped = inside = y = batch = None

        def forward(out):
            nonlocal clamped, inside, y, batch
            y = labels.data
            batch = y.shape[0] if y.ndim else 1
            # maximum/minimum: np.clip's values without its Python overhead
            clamped = np.minimum(np.maximum(prob.data, BCE_EPS), 1.0 - BCE_EPS)
            inside = (prob.data > BCE_EPS) & (prob.data < 1.0 - BCE_EPS)
            out[()] = -np.add.reduce(
                y * np.log(clamped) + (1.0 - y) * np.log(1.0 - clamped),
                axis=None) / batch

        def backward(grad):
            d = (clamped - y) / (clamped * (1.0 - clamped)) / batch
            prob.accumulate(grad * d * inside)

        return self._record("bce", (), forward, backward)


def _as_constant(values: np.ndarray | Tensor) -> Tensor:
    """A tensor as it is; an array as a constant over its float64 values,
    unscanned: a primitive's output check catches what is not finite."""
    if isinstance(values, Tensor):
        return values
    return Constant.prechecked(np.asarray(values, dtype=np.float64))


def _sigmoid_into(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`1 / (1 + exp(-x))` clipped to [SIGMOID_LO, SIGMOID_HI], in place in
    `out`. exp(-x) overflows to inf for x < -709.78, where 1 / (1 + inf) = 0
    is the right limit: callers run it with the overflow warning off.
    maximum/minimum give np.clip's values without its Python overhead."""
    np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    np.maximum(out, SIGMOID_LO, out=out)
    return np.minimum(out, SIGMOID_HI, out=out)


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
    `.data` becomes a view into it; likewise each one's gradient `store` is
    its slice of one flat gradient vector. Backward's first write of a step
    lands in that slice: a weight or bias gradient of `matmul`/`linear` is
    computed straight into it (`Tensor.accumulate_from`), any other is
    copied in, and later writes add to it in place. A step zeroes the
    slices of parameters that got no gradient, copies in a gradient
    assigned from outside, checks the whole gradient vector for
    finiteness (its sum, and a scan only when that is not finite), then
    runs the textbook update in place, block by block (`ADAM_BLOCK`
    elements), in two preallocated block-sized scratch vectors.
    `trainable` is read here, once: a parameter frozen at construction is
    never touched by `step`, and flipping the flag later has no effect on
    this optimizer.
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
        self._g = np.zeros_like(self._flat)
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)
        self._slots = []   # (parameter, its slice of the flat vectors)
        start = 0
        for p in trained:
            span = slice(start, start + p.data.size)
            p.tensor.data = self._flat[span].reshape(p.data.shape)
            p.tensor.store = self._g[span].reshape(p.data.shape)
            self._slots.append((p, span))
            start = span.stop
        size = self._flat.size
        s1, s2 = np.empty((2, min(ADAM_BLOCK, size)))
        self._blocks = []  # (g, m, v, flat, s1, s2) views of one block
        for lo in range(0, size, ADAM_BLOCK):
            span = slice(lo, min(lo + ADAM_BLOCK, size))
            n = span.stop - lo
            self._blocks.append((self._g[span], self._m[span], self._v[span],
                                 self._flat[span], s1[:n], s2[:n]))

    def step(self) -> None:
        for p, span in self._slots:
            grad = p.tensor.grad
            if grad is None:
                self._g[span] = 0.0
            elif grad is not p.tensor.store:  # assigned from outside
                self._g[span] = grad.ravel()
        # finite values sum to a finite value unless the sum overflows, so
        # only a sum that is not finite calls for a scan
        with np.errstate(all="ignore"):
            total = np.add.reduce(self._g)
        if not math.isfinite(total):
            for p, span in self._slots:
                if not np.isfinite(self._g[span]).all():
                    raise NonFiniteError(
                        f"non-finite gradient for parameter {p.name}")
        self.t += 1
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        b1t = 1.0 - b1 ** self.t
        b2t = 1.0 - b2 ** self.t
        for g, m, v, flat, s1, s2 in self._blocks:
            # m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
            m *= b1
            np.multiply(g, 1.0 - b1, out=s1)
            m += s1
            v *= b2
            np.multiply(g, 1.0 - b2, out=s1)
            s1 *= g
            v += s1
            # flat -= (lr*(m/b1t)) / (sqrt(v/b2t) + eps)
            np.divide(m, b1t, out=s1)
            s1 *= lr
            np.divide(v, b2t, out=s2)
            np.sqrt(s2, out=s2)
            s2 += eps
            s1 /= s2
            flat -= s1
