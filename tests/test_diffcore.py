import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from biocompass import diffcore
from biocompass.diffcore import (Adam, Constant, NonFiniteError, Parameter,
                                 Tape, Tensor, backward, zero_grads)
from conftest import finite_difference, assert_grad_close


def scalar_fd(build, param: Parameter, h=1e-5):
    def f():
        tape = Tape()
        return float(build(tape).data)
    return finite_difference(f, param.tensor.data, h)


def analytic_grad(build, param: Parameter):
    param.zero_grad()
    tape = Tape()
    loss = build(tape)
    backward(loss, tape)
    return param.grad


class TestMatmul:
    def test_identity(self):
        tape = Tape()
        a = tape.constant(np.eye(2))
        b = tape.constant([[1.0, 2.0], [3.0, 4.0]])
        out = tape.matmul(a, b)
        np.testing.assert_array_equal(out.data, [[1, 2], [3, 4]])

    def test_projection(self):
        tape = Tape()
        out = tape.matmul(tape.constant([[1.0, 0.0], [0.0, 0.0]]),
                          tape.constant([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.data, [[5, 6], [0, 0]])

    def test_shape_mismatch_names_both_shapes(self):
        tape = Tape()
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            tape.matmul(tape.constant(np.ones((2, 3))),
                        tape.constant(np.ones((2, 3))))

    def test_gradient_matches_finite_differences(self):
        a = Parameter("a", [[1.0, 2.0]])
        b = np.array([[3.0], [4.0]])

        def build(tape):
            return tape.mse(tape.matmul(a.tensor, tape.constant(b)),
                            np.zeros((1, 1)))

        # d sum-of-squares structure checked against central differences
        assert_grad_close(analytic_grad(build, a), scalar_fd(build, a))
        # hand check: the gradient of sum(a2 @ b) w.r.t. a2 is b^T
        a2 = Parameter("a2", [[1.0, 2.0]])

        def build_sum(tape):
            prod = tape.matmul(a2.tensor, tape.constant(b))
            return tape.mse(prod, prod.data - 1.0)  # sum((x - (x-1))^2) shifts by const

        backward_grad = analytic_grad(build_sum, a2)
        np.testing.assert_allclose(backward_grad, 2.0 * b.T, atol=1e-12)


class TestElementwise:
    def test_relu_sign_split(self):
        tape = Tape()
        out = tape.relu(tape.constant([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_relu_subgradient_zero_at_zero(self):
        x = Parameter("x", [0.0])

        def build(tape):
            return tape.mse(tape.relu(x.tensor), np.array([-1.0]))

        np.testing.assert_array_equal(analytic_grad(build, x), [0.0])

    def test_sigmoid_symmetry(self):
        tape = Tape()
        assert tape.sigmoid(tape.constant([0.0])).data[0] == 0.5

    def test_sigmoid_derivative_at_zero(self):
        x = Parameter("x", 0.0)

        def build(tape):
            return tape.sigmoid(x.tensor)

        assert analytic_grad(build, x) == pytest.approx(0.25)

    # inputs where exp(-x) is tiny, huge, inf (x < -709.78) or denormal
    SIGMOID_EDGES = [0.0, -0.0, 30.0, -30.0, 36.8, -36.8, 709.0, -709.0,
                     710.0, -710.0, 745.0, -745.0, 1000.0, -1000.0]

    def test_sigmoid_is_the_numpy_formula(self):
        """Bit for bit the formula of the hand-written forward oracle
        (acceptance criterion 2), clipped strictly inside (0, 1)."""
        x = np.concatenate([np.linspace(-1000.0, 1000.0, 20001),
                            self.SIGMOID_EDGES])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = Tape().sigmoid(Tensor(x)).data
        with np.errstate(over="ignore"):
            want = np.clip(1.0 / (1.0 + np.exp(-x)),
                           diffcore.SIGMOID_LO, diffcore.SIGMOID_HI)
        assert out.tobytes() == want.tobytes()
        assert out[-1] == diffcore.SIGMOID_LO and out[-2] == diffcore.SIGMOID_HI

    def test_sigmoid_within_four_ulps_of_expit(self):
        # scipy only here: the library's sigmoid does not need it
        from scipy.special import expit

        x = np.concatenate([np.linspace(-1000.0, 1000.0, 200001),
                            np.random.default_rng(0).normal(scale=10.0,
                                                            size=100000),
                            self.SIGMOID_EDGES])
        out = Tape().sigmoid(Tensor(x)).data
        ref = np.clip(expit(x), diffcore.SIGMOID_LO, diffcore.SIGMOID_HI)
        # both are positive doubles, so their bit patterns count ulps
        ulps = np.abs(out.view(np.int64) - ref.view(np.int64))
        assert ulps.max() <= 4
        assert ulps[x >= -36.0].max() <= 2

    def test_sigmoid_and_softplus_of_a_0d_input(self):
        for value in (0.5, -1000.0):
            x = Tensor(value)
            s = Tape().sigmoid(x).data
            assert s.shape == ()
            assert s == Tape().sigmoid(Tensor([value])).data[0]
            assert Tape().softplus(x).data.shape == ()

    def test_softplus_at_zero(self):
        tape = Tape()
        out = tape.softplus(tape.constant([0.0]))
        assert out.data[0] == pytest.approx(np.log(2.0), abs=1e-15)

    def test_softplus_matches_logaddexp(self):
        x = np.linspace(-800.0, 800.0, 16001)
        out = Tape().softplus(Tensor(x)).data
        np.testing.assert_allclose(out, np.logaddexp(0.0, x), rtol=4e-16, atol=0)


class TestMse:
    def test_zero_case(self):
        tape = Tape()
        t = np.array([[1.0, 2.0]])
        assert float(tape.mse(tape.constant(t), t).data) == 0.0

    def test_single_row(self):
        tape = Tape()
        loss = tape.mse(tape.constant([[0.0, 0.0]]), np.array([[1.0, 2.0]]))
        assert float(loss.data) == pytest.approx(5.0)

    def test_batch_mean(self):
        tape = Tape()
        loss = tape.mse(tape.constant([[0.0], [0.0]]),
                        np.array([[2.0], [0.0]]))
        assert float(loss.data) == pytest.approx(2.0)

    def test_all_zero_mask_returns_zero_with_zero_gradient(self):
        p = Parameter("p", [[1.0, 2.0]])

        def build(tape):
            return tape.mse(p.tensor, np.array([[5.0, 6.0]]),
                            np.zeros((1, 2)))

        tape = Tape()
        assert float(tape.mse(p.tensor, np.array([[5.0, 6.0]]),
                              np.zeros((1, 2))).data) == 0.0
        np.testing.assert_array_equal(analytic_grad(build, p), np.zeros((1, 2)))


class TestBce:
    def test_symmetric_point(self):
        tape = Tape()
        loss = tape.bce(tape.constant([0.5]), np.array([1.0]))
        assert float(loss.data) == pytest.approx(np.log(2.0))

    def test_near_perfect(self):
        tape = Tape()
        loss = tape.bce(tape.constant([1.0 - 1e-7]), np.array([1.0]))
        assert float(loss.data) == pytest.approx(1e-7, rel=1e-3)

    def test_two_sample_value(self):
        tape = Tape()
        loss = tape.bce(tape.constant([0.8, 0.2]), np.array([1.0, 0.0]))
        assert float(loss.data) == pytest.approx(0.223144, abs=1e-6)

    def test_rejects_non_binary_labels(self):
        tape = Tape()
        with pytest.raises(ValueError, match="0 or 1"):
            tape.bce(tape.constant([0.5]), np.array([2.0]))

    def test_checked_constant_labels_are_not_scanned(self, monkeypatch):
        prob, labels = np.array([[0.8], [0.3]]), np.array([[1.0], [0.0]])
        expected = Tape().bce(Tape().constant(prob), labels)
        checked = Constant.prechecked(diffcore.check_labels(labels))

        def refuse(labels):
            raise AssertionError("labels checked twice")
        monkeypatch.setattr(diffcore, "check_labels", refuse)
        tape = Tape()
        loss = tape.bce(tape.constant(prob), checked)
        assert loss.data.tobytes() == expected.data.tobytes()


class TestConstant:
    def test_scan_names_the_constant(self):
        with pytest.raises(NonFiniteError, match="non-finite value in constant"):
            Constant([1.0, np.inf])


class TestBackward:
    def test_constant_loss_gives_zero_gradients(self):
        p = Parameter("p", [[1.0, 2.0]])

        def build(tape):
            tape.matmul(p.tensor, tape.constant(np.ones((2, 1))))
            return tape.constant(3.0)

        np.testing.assert_array_equal(analytic_grad(build, p), np.zeros((1, 2)))

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        out = tape.relu(tape.constant([1.0, 2.0]))
        with pytest.raises(ValueError, match="scalar"):
            backward(out, tape)

    def test_nan_rejected_at_entry(self):
        with pytest.raises(NonFiniteError):
            Tensor([np.nan])

    def test_overflowing_primitive_is_named(self):
        tape = Tape()
        big = tape.constant([[1e200]])
        # a recording lets no overflow warning out (pyproject turns one into
        # an error), and its finiteness check still fires
        with pytest.raises(NonFiniteError, match="matmul"):
            tape.matmul(big, big)
        with pytest.raises(NonFiniteError, match="weighted_sum"):
            tape.weighted_sum([big], [1e300])
        # a 0-d output is checked as a scalar
        with pytest.raises(NonFiniteError, match="mse"):
            tape.mse(big, np.zeros((1, 1)))
        for value in (np.nan, np.float64("inf"), -np.inf):
            with pytest.raises(NonFiniteError, match="tensor"):
                Tensor(value)
        for ints in ([1, 2], np.array([1, 2])):
            assert Tensor(ints).data.dtype == np.float64
            np.testing.assert_array_equal(Tensor(ints).data, [1.0, 2.0])

    def test_largest_finite_values_accepted(self):
        # the check is exact: no shortcut that overflows on a finite input
        Tensor([1e308, 1e308])

    def test_fan_out_gradients_do_not_alias(self):
        # `a` feeds two `weighted_sum`s, so its gradient is written twice,
        # the second time in place; `b` must see only its share from `y`
        a = Parameter("a", [1.0, -2.0])
        b = Parameter("b", [0.5, 3.0])
        tape = Tape()
        z = tape.weighted_sum([a.tensor], [2.0])
        y = tape.weighted_sum([a.tensor, b.tensor], [1.0, 1.0])
        # mse against zeros over a batch of 2: d/dy = y and d/dz = z
        loss = tape.weighted_sum([tape.mse(y, np.zeros(2)),
                                  tape.mse(z, np.zeros(2))], [1.0, 1.0])
        backward(loss, tape)
        dy = a.data + b.data
        np.testing.assert_array_equal(b.grad, dy)
        np.testing.assert_array_equal(a.grad, dy + 2.0 * (2.0 * a.data))

    def test_parameter_gradient_computed_into_its_store(self):
        # w and b feed two `linear`s and w one `matmul`: the first write
        # (the matmul's, as backward runs in reverse) is computed into
        # Adam's slice, the later two add to it; the values are those of
        # the same graph on plain tensors, which keep their own arrays
        rng = np.random.default_rng(0)
        xs = [rng.normal(size=(5, 3)) for _ in range(3)]
        w_vals, b_vals = rng.normal(size=(3, 2)), rng.normal(size=2)

        def run(w, b):
            tape = Tape()
            ys = [tape.linear(tape.constant(xs[0]), w, b),
                  tape.linear(tape.constant(xs[1]), w, b),
                  tape.matmul(tape.constant(xs[2]), w)]
            loss = tape.weighted_sum(
                [tape.mse(y, np.zeros((5, 2))) for y in ys], [1.0, 0.5, 2.0])
            backward(loss, tape)
            return [y.grad for y in ys]

        w, b = Parameter("w", w_vals), Parameter("b", b_vals)
        Adam([w, b])
        g = run(w.tensor, b.tensor)
        plain_w, plain_b = Tensor(w_vals), Tensor(b_vals)
        run(plain_w, plain_b)
        assert w.tensor.grad is w.tensor.store
        assert b.tensor.grad is b.tensor.store
        products = (xs[2].T @ g[2] + xs[1].T @ g[1]) + xs[0].T @ g[0]
        assert w.grad.tobytes() == products.tobytes()
        assert w.grad.tobytes() == plain_w.grad.tobytes()
        assert b.grad.tobytes() == (g[1].sum(axis=0) + g[0].sum(axis=0)).tobytes()
        assert b.grad.tobytes() == plain_b.grad.tobytes()

    def test_constant_takes_no_gradient(self):
        # a constant between two parameters: their gradients are the same
        # as with the constant's values held in a plain tensor
        w = Parameter("w", [[0.5, -1.0], [2.0, 0.25]])
        b = Parameter("b", [0.1, -0.3])
        x_vals = np.array([[1.0, 2.0], [-0.5, 0.75], [3.0, -1.0]])
        target = np.ones((3, 2))
        grads = []
        for x in (Tape().constant(x_vals), Tensor(x_vals)):
            zero_grads([w, b])
            tape = Tape()
            y = tape.linear(x, w.tensor, b.tensor)
            loss = tape.weighted_sum(
                [tape.mse(y, target), tape.mse(tape.matmul(x, w.tensor), target),
                 tape.constant(4.0)], [1.0, 0.5, 2.0])
            backward(loss, tape)
            grads.append((x.grad, w.grad.copy(), b.grad.copy()))
        (c_grad, w_c, b_c), (t_grad, w_t, b_t) = grads
        assert c_grad is None and t_grad is not None
        np.testing.assert_array_equal(w_c, w_t)
        np.testing.assert_array_equal(b_c, b_t)


def _weighted_sum_builder(i):
    """p as term i of three, the other terms constants."""
    def build(tape, p, rng):
        terms = [tape.constant(rng.normal(size=p.data.shape)) for _ in range(3)]
        terms[i] = p.tensor
        return tape.mse(tape.weighted_sum(terms, [0.3, -1.7, 2.1]),
                        rng.normal(size=p.data.shape))
    return build


PRIMITIVE_BUILDERS = {
    "matmul": lambda tape, p, rng: tape.mse(
        tape.matmul(p.tensor, tape.constant(rng.normal(size=(p.data.shape[1], 2)))),
        rng.normal(size=(p.data.shape[0], 2))),
    "linear_x": lambda tape, p, rng: tape.mse(
        tape.linear(p.tensor, tape.constant(rng.normal(size=(p.data.shape[1], 2))),
                    tape.constant(rng.normal(size=2))),
        rng.normal(size=(p.data.shape[0], 2))),
    "linear_w": lambda tape, p, rng: tape.mse(
        tape.linear(tape.constant(rng.normal(size=(3, p.data.shape[0]))),
                    p.tensor, tape.constant(rng.normal(size=p.data.shape[1]))),
        rng.normal(size=(3, p.data.shape[1]))),
    "linear_b": lambda tape, p, rng: tape.mse(
        tape.linear(tape.constant(rng.normal(size=(3, 4))),
                    tape.constant(rng.normal(size=(4, p.data.shape[0]))),
                    p.tensor),
        rng.normal(size=(3, p.data.shape[0]))),
    "mul": lambda tape, p, rng: tape.mse(
        tape.mul(p.tensor, tape.constant(rng.normal(size=p.data.shape))),
        rng.normal(size=p.data.shape)),
    "relu": lambda tape, p, rng: tape.mse(
        tape.relu(p.tensor), rng.normal(size=p.data.shape)),
    "sigmoid": lambda tape, p, rng: tape.mse(
        tape.sigmoid(p.tensor), rng.normal(size=p.data.shape)),
    "softplus": lambda tape, p, rng: tape.mse(
        tape.softplus(p.tensor), rng.normal(size=p.data.shape)),
    "bce": lambda tape, p, rng: tape.bce(
        tape.sigmoid(p.tensor), (rng.random(p.data.shape) < 0.5).astype(float)),
    **{f"weighted_sum_{i}": _weighted_sum_builder(i) for i in range(3)},
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_BUILDERS))
def test_primitive_gradients_match_finite_differences(name):
    for seed in range(10):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        # avoid the relu kink: keep values away from 0
        if name == "linear_b":
            shape = (shape[0],)
        base = rng.normal(size=shape)
        base = np.where(np.abs(base) < 1e-3, 0.1, base)
        p = Parameter("p", base)
        check_rng = np.random.default_rng(seed + 1000)
        builder = PRIMITIVE_BUILDERS[name]

        frozen = check_rng.bit_generator.state

        def build(tape):
            r = np.random.default_rng()
            r.bit_generator.state = frozen
            return builder(tape, p, r)

        assert_grad_close(analytic_grad(build, p),
                          scalar_fd(build, p))


class TestOptimizers:
    def test_frozen_param_bit_identical(self):
        p = Parameter("w", [1.0, 2.0], trainable=False)
        p.tensor.grad = np.array([5.0, -3.0])
        before = p.data.tobytes()
        Adam([p], lr=0.1).step()
        assert p.data.tobytes() == before

    def test_non_finite_gradient_names_parameter(self):
        p = Parameter("gating.w1", [1.0])
        p.tensor.grad = np.array([np.inf])
        with pytest.raises(NonFiniteError, match="gating.w1"):
            Adam([p], lr=0.1).step()

    def test_adam_first_step_magnitude(self):
        # with a constant gradient, the first bias-corrected step is lr * sign(g)
        p = Parameter("w", [1.0])
        p.tensor.grad = np.array([2.0])
        Adam([p], lr=0.01).step()
        assert p.data[0] == pytest.approx(1.0 - 0.01, abs=1e-6)

    def test_flat_adam_matches_per_parameter_adam(self):
        rng = np.random.default_rng(3)
        shapes = {"a": (3, 4), "b": (5,), "frozen": (2, 2), "no_grad": (4, 1)}
        params = [Parameter(n, rng.normal(size=s), trainable=(n != "frozen"))
                  for n, s in shapes.items()]
        frozen_before = params[2].data.tobytes()
        ref = {p.name: p.data.copy() for p in params}
        m = {n: np.zeros_like(x) for n, x in ref.items()}
        v = {n: np.zeros_like(x) for n, x in ref.items()}
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        opt = Adam(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
        for t in range(1, 21):
            zero_grads(params)
            grads = {n: rng.normal(size=s) for n, s in shapes.items()}
            grads["no_grad"] = np.zeros(shapes["no_grad"])
            for p in params:
                if p.name != "no_grad":
                    p.tensor.grad = grads[p.name].copy()
            opt.step()
            for p in params:
                if not p.trainable:
                    continue
                n, g = p.name, grads[p.name]
                m[n] = b1 * m[n] + (1.0 - b1) * g
                v[n] = b2 * v[n] + (1.0 - b2) * g * g
                ref[n] = ref[n] - lr * (m[n] / (1.0 - b1 ** t)) / (
                    np.sqrt(v[n] / (1.0 - b2 ** t)) + eps)
                assert p.data.tobytes() == ref[n].tobytes(), (n, t)
        assert params[2].data.tobytes() == frozen_before

    @staticmethod
    def _textbook(ref, m, v, g, t, lr=0.01, b1=0.9, b2=0.999, eps=1e-8):
        """One per-parameter Adam update of `ref`, `m` and `v` in place."""
        m[:] = b1 * m + (1.0 - b1) * g
        v[:] = b2 * v + (1.0 - b2) * g * g
        ref -= lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)

    def test_blocked_step_matches_per_parameter_adam(self):
        # four parameters over a bit more than three blocks, so block
        # boundaries fall inside parameters; "w" gets its gradient from
        # backward (written straight into the optimizer's vector), "a" one
        # assigned from outside, "skip" none on even steps
        block = diffcore.ADAM_BLOCK
        rng = np.random.default_rng(11)
        shapes = {"w": (block // 2 + 3, 2), "a": (block + 5,),
                  "skip": (block // 3, 3), "tail": (7,)}
        params = [Parameter(n, rng.normal(size=s)) for n, s in shapes.items()]
        assert sum(p.data.size for p in params) > 3 * block
        ref = {p.name: p.data.copy() for p in params}
        m = {n: np.zeros_like(x) for n, x in ref.items()}
        v = {n: np.zeros_like(x) for n, x in ref.items()}
        opt = Adam(params, lr=0.01)
        for t in range(1, 6):
            zero_grads(params)
            tape = Tape()
            terms = [tape.mse(tape.mul(p.tensor, tape.constant(
                rng.normal(size=p.data.shape))), rng.normal(size=p.data.shape))
                for p in params if p.name != "a"
                and (p.name != "skip" or t % 2)]
            backward(tape.weighted_sum(terms, [1.0] * len(terms)), tape)
            params[1].tensor.grad = rng.normal(size=shapes["a"])
            grads = {p.name: p.grad.copy() for p in params}
            opt.step()
            for p in params:
                self._textbook(ref[p.name], m[p.name], v[p.name],
                               grads[p.name], t)
                assert p.data.tobytes() == ref[p.name].tobytes(), (p.name, t)

    def test_non_finite_in_last_block_changes_nothing(self):
        block = diffcore.ADAM_BLOCK
        rng = np.random.default_rng(12)
        head = Parameter("head", rng.normal(size=(2 * block + 9,)))
        tail = Parameter("gating.tail", rng.normal(size=(4, 5)))
        opt = Adam([head, tail], lr=0.01)
        for bad in (False, True):
            zero_grads([head, tail])
            tape = Tape()
            backward(tape.weighted_sum(
                [tape.mse(head.tensor, np.zeros(head.data.shape)),
                 tape.mse(tape.sigmoid(tail.tensor), np.ones((4, 5)))],
                [1.0, 1.0]), tape)
            if bad:
                tail.grad[3, 4] = np.inf
                before = [x.tobytes() for x in (head.data, tail.data,
                                                opt._m, opt._v)]
                with pytest.raises(NonFiniteError, match="gating.tail"):
                    opt.step()
                assert [x.tobytes() for x in (head.data, tail.data,
                                              opt._m, opt._v)] == before
                assert opt.t == 1
            else:
                opt.step()

    def test_gradient_never_leaks_into_next_step(self):
        # step 1 gives both parameters a gradient, step 2 only "b", and
        # step 3 assigns "a" one from outside: each step must see exactly
        # that step's gradients
        rng = np.random.default_rng(13)
        a = Parameter("a", rng.normal(size=(3, 4)))
        b = Parameter("b", rng.normal(size=(4,)))
        ref = {"a": a.data.copy(), "b": b.data.copy()}
        m = {n: np.zeros_like(x) for n, x in ref.items()}
        v = {n: np.zeros_like(x) for n, x in ref.items()}
        opt = Adam([a, b], lr=0.01)
        for t, on_tape in enumerate([(a, b), (b,), ()], start=1):
            zero_grads([a, b])
            assert not a.grad.any() and not b.grad.any()
            if on_tape:
                tape = Tape()
                backward(tape.weighted_sum(
                    [tape.mse(p.tensor, np.ones(p.data.shape))
                     for p in on_tape], [1.0] * len(on_tape)), tape)
                for p in on_tape:
                    # backward wrote into the optimizer's own storage
                    assert p.tensor.grad is p.tensor.store
            else:
                a.tensor.grad = np.full((3, 4), 0.5)
            grads = {"a": a.grad.copy(), "b": b.grad.copy()}
            assert (t != 2) == bool(grads["a"].any())
            opt.step()
            for p in (a, b):
                self._textbook(ref[p.name], m[p.name], v[p.name],
                               grads[p.name], t)
                assert p.data.tobytes() == ref[p.name].tobytes(), (p.name, t)

    def test_determinism_bit_identical_runs(self):
        def run():
            rng = np.random.default_rng(7)
            p = Parameter("w", rng.normal(size=(3, 2)))
            opt = Adam([p], lr=0.01)
            for _ in range(20):
                zero_grads([p])
                tape = Tape()
                loss = tape.mse(tape.sigmoid(p.tensor), np.full((3, 2), 0.3))
                backward(loss, tape)
                opt.step()
            return p.data.tobytes()

        assert run() == run()


@given(st.lists(st.floats(-1000, 1000), min_size=1, max_size=20))
def test_sigmoid_strictly_inside_unit_interval(values):
    tape = Tape()
    out = tape.sigmoid(tape.constant(values)).data
    assert np.all(out > 0.0) and np.all(out < 1.0)


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=20))
def test_relu_nonnegative(values):
    tape = Tape()
    assert np.all(tape.relu(tape.constant(values)).data >= 0.0)


def _probabilities(rng, shape):
    """Values in [0, 1], one of them at a clamped end."""
    p = rng.random(shape)
    p.flat[rng.integers(p.size)] = float(rng.integers(2))
    return p


def _binary(rng, shape):
    return (rng.random(shape) < 0.5).astype(float)


# primitive -> (the primitive it records, build(tape, *leaves), leaves as
# (shape, draw, takes a gradient)); a non-scalar output enters the loss
# through an mse against a fixed target
REPLAY_CASES = {
    "matmul": ("matmul", lambda tape, a, b: tape.matmul(a, b),
               [((3, 4), "normal", True), ((4, 2), "normal", True)]),
    "linear": ("linear", lambda tape, x, w, b: tape.linear(x, w, b),
               [((3, 4), "normal", True), ((4, 2), "normal", True),
                ((2,), "normal", True)]),
    "weighted_sum": ("weighted_sum",
                     lambda tape, a, b, c: tape.weighted_sum(
                         [a, b, c], [0.3, -1.7, 2.1]),
                     [((3, 2), "normal", True)] * 3),
    "mul": ("mul", lambda tape, a, b: tape.mul(a, b),
            [((3, 2), "normal", True)] * 2),
    "relu": ("relu", lambda tape, x: tape.relu(x),
             [((4, 3), "normal", True)]),
    "sigmoid": ("sigmoid", lambda tape, x: tape.sigmoid(x),
                [((4, 3), "normal", True)]),
    "softplus": ("softplus", lambda tape, x: tape.softplus(x),
                 [((4, 3), "normal", True)]),
    "mse": ("mse", lambda tape, p, target, mask: tape.mse(p, target, mask),
            [((4, 3), "normal", True), ((4, 3), "normal", False),
             ((4, 3), "binary", False)]),
    "mse unmasked": ("mse", lambda tape, p, target: tape.mse(p, target),
                     [((4, 3), "normal", True), ((4, 3), "normal", False)]),
    "bce": ("bce", lambda tape, p, labels: tape.bce(p, labels),
            [((5, 1), "probability", True), ((5, 1), "binary", False)]),
    # 0-d inputs: what backward reads is still an array to write into
    "0-d relu": ("relu", lambda tape, x: tape.relu(x), [((), "normal", True)]),
    "0-d sigmoid": ("sigmoid", lambda tape, x: tape.sigmoid(x),
                    [((), "normal", True)]),
    "0-d softplus": ("softplus", lambda tape, x: tape.softplus(x),
                     [((), "normal", True)]),
    "0-d mul": ("mul", lambda tape, a, b: tape.mul(a, b),
                [((), "normal", True)] * 2),
}
DRAWS = {"normal": lambda rng, shape: rng.normal(size=shape),
         "binary": _binary, "probability": _probabilities}


class TestReplay:
    """A tape recorded on one set of leaf values and replayed after new
    values of the same shapes are bound into its leaves gives, byte for
    byte, what a new recording on the new values gives."""

    @staticmethod
    def leaves(case, values):
        return [Tensor(v) if grad else Constant(v)
                for (_, _, grad), v in zip(REPLAY_CASES[case][2], values)]

    @staticmethod
    def draw(case, rng):
        return [DRAWS[kind](rng, shape)
                for shape, kind, _ in REPLAY_CASES[case][2]]

    @staticmethod
    def record(case, tape, leaves):
        """The primitive's output and the scalar loss over it."""
        out = REPLAY_CASES[case][1](tape, *leaves)
        loss = (out if out.shape == ()
                else tape.mse(out, np.full(out.shape, 0.25)))
        return out, loss

    @pytest.mark.parametrize("case", list(REPLAY_CASES))
    def test_replay_matches_a_new_recording(self, case):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            leaves = self.leaves(case, self.draw(case, rng))
            tape = Tape()
            out, loss = self.record(case, tape, leaves)
            backward(loss, tape)

            values = self.draw(case, rng)
            for leaf, v in zip(leaves, values):
                leaf.data, leaf.grad = v, None
            tape.replay()
            backward(loss, tape)

            fresh_leaves = self.leaves(case, values)
            fresh_tape = Tape()
            fresh_out, fresh_loss = self.record(case, fresh_tape,
                                                fresh_leaves)
            backward(fresh_loss, fresh_tape)

            assert out.data.tobytes() == fresh_out.data.tobytes()
            assert loss.data.tobytes() == fresh_loss.data.tobytes()
            for (o, _), (f, _) in zip(tape._records, fresh_tape._records):
                assert o.grad.tobytes() == f.grad.tobytes()
            for leaf, fresh in zip(leaves, fresh_leaves):
                if fresh.grad is None:
                    assert leaf.grad is None
                else:
                    assert leaf.grad.tobytes() == fresh.grad.tobytes()

    @pytest.mark.parametrize("case", list(REPLAY_CASES))
    def test_non_finite_rebound_value_raises_like_a_new_recording(self,
                                                                  case):
        prim = REPLAY_CASES[case][0]
        named = 0
        good = self.draw(case, np.random.default_rng(0))
        for i in range(len(good)):
            for bad in (np.nan, np.inf, -np.inf):
                values = [v.copy() for v in good]
                values[i].flat[min(1, values[i].size - 1)] = bad
                leaves, fresh = self.leaves(case, good), self.leaves(case, good)
                tape = Tape()
                self.record(case, tape, leaves)
                # rebound without a scan, as a training loop binds a slot
                for leaf, v in zip([*leaves, *fresh], values * 2):
                    leaf.data = v
                with np.errstate(invalid="ignore", over="ignore"):
                    try:
                        self.record(case, Tape(), fresh)
                    except NonFiniteError as exc:
                        expected = str(exc)
                    else:
                        tape.replay()
                        continue
                    with pytest.raises(NonFiniteError) as raised:
                        tape.replay()
                assert str(raised.value) == expected, (i, bad)
                named += expected == f"non-finite value in {prim}"
        # the primitive itself catches some non-finite input
        assert named > 0

    def test_records_stay_output_backward_pairs(self):
        tape = Tape()
        x = Tensor([[1.0, -2.0]])
        out = tape.relu(x)
        [(recorded, backward_fn)] = tape._records
        assert recorded is out and callable(backward_fn)

    @pytest.mark.parametrize("case", list(REPLAY_CASES))
    def test_every_replay_writes_in_place_like_a_new_recording(self, case):
        rng = np.random.default_rng(7)
        leaves = self.leaves(case, self.draw(case, rng))
        tape = Tape()
        out, loss = self.record(case, tape, leaves)
        arrays = None
        for _ in range(3):
            values = self.draw(case, rng)
            for leaf, v in zip(leaves, values):
                leaf.data, leaf.grad = v, None
            tape.replay()
            backward(loss, tape)
            if arrays is None:
                arrays = [o.data for o, _ in tape._records]
            # the outputs stay the arena's slices from the first replay
            assert all(o.data is a for (o, _), a in zip(tape._records, arrays))
            assert all(np.shares_memory(a, tape._arena) for a in arrays
                       if a.size)
            fresh_tape = Tape()
            fresh_out, fresh_loss = self.record(
                case, fresh_tape, self.leaves(case, values))
            backward(fresh_loss, fresh_tape)
            assert out.data.tobytes() == fresh_out.data.tobytes()
            assert loss.data.tobytes() == fresh_loss.data.tobytes()
            for (o, _), (f, _) in zip(tape._records, fresh_tape._records):
                assert o.grad.tobytes() == f.grad.tobytes()


class TestReplayCheck:
    """A replay checks its outputs' finiteness with one sum over the arena
    and scans them in recording order only when that sum is not finite."""

    @pytest.mark.parametrize("squash, bad", [("relu", -np.inf),
                                             ("relu", np.nan),
                                             ("sigmoid", -np.inf)])
    def test_non_finite_linear_output_is_named_though_hidden_downstream(
            self, squash, bad):
        x = Constant(np.ones((2, 3)))
        w, b = np.full((3, 2), 0.5), np.array([0.1, -0.2])
        tape = Tape()
        squashed = getattr(tape, squash)(tape.linear(x, Tensor(w), Tensor(b)))
        tape.mse(squashed, np.zeros((2, 2)))
        values = np.ones((2, 3))
        values[1, 0] = bad
        # relu or sigmoid maps the linear output to a finite value, so only
        # the linear output itself shows what is wrong
        with np.errstate(invalid="ignore"):
            hidden = values @ w + b
        assert not np.isfinite(hidden).all()
        assert np.isfinite(getattr(Tape(), squash)(
            Constant.prechecked(hidden)).data).all()
        x.data = values
        with pytest.raises(NonFiniteError) as raised:
            tape.replay()
        assert str(raised.value) == "non-finite value in linear"

    def test_record_added_after_a_replay_is_checked(self):
        a, c = Tensor(np.ones((2, 2))), Constant(np.ones((2, 2)))
        tape = Tape()
        tape.mul(a, c)
        tape.replay()
        x = Constant(np.ones((2, 2)))
        out = tape.linear(x, Tensor(np.ones((2, 2))), Tensor(np.zeros(2)))
        x.data = np.array([[1.0, np.nan], [1.0, 1.0]])
        with pytest.raises(NonFiniteError) as raised:
            tape.replay()
        assert str(raised.value) == "non-finite value in linear"
        # the new record's output joined the arena, and replays in place
        x.data = np.full((2, 2), 2.0)
        tape.replay()
        assert np.shares_memory(out.data, tape._arena)
        assert out.data.tobytes() == np.full((2, 2), 4.0).tobytes()

    def test_finite_outputs_whose_sum_overflows_replay(self):
        a, b = Tensor(np.ones((2, 2))), Constant(np.ones((2, 2)))
        tape = Tape()
        prod = tape.mul(a, b)
        half = tape.weighted_sum([prod], [0.5])
        huge = np.full((2, 2), 1e308)
        a.data = huge
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.add.reduce(huge, axis=None))
        tape.replay()
        fresh = Tape()
        fresh_prod = fresh.mul(Tensor(huge), Constant(np.ones((2, 2))))
        fresh_half = fresh.weighted_sum([fresh_prod], [0.5])
        assert prod.data.tobytes() == fresh_prod.data.tobytes()
        assert half.data.tobytes() == fresh_half.data.tobytes()

    def test_failed_replay_emits_no_warning(self):
        w, b = Tensor(np.ones((2, 2))), Tensor(np.ones(2))
        x = Tensor(np.ones((2, 2)))
        tape = Tape()
        tape.sigmoid(tape.weighted_sum([tape.linear(x, w, b)], [-1.0]))
        # overflow, and inf - inf, inside the linear record
        x.data = np.array([[1e308, 1e308], [np.inf, -np.inf]])
        # a new recording and a replay fail alike, and neither warns
        # (pyproject turns a RuntimeWarning into an error as well)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError) as recorded:
                Tape().linear(Constant.prechecked(x.data), w, b)
            with pytest.raises(NonFiniteError) as raised:
                tape.replay()
        assert str(recorded.value) == "non-finite value in linear"
        assert str(raised.value) == str(recorded.value)

    def test_adam_passes_finite_gradients_whose_sum_overflows(self):
        p = Parameter("p", np.zeros(2))
        opt = Adam([p], lr=0.1)
        p.tensor.grad = np.array([1e308, 1e308])
        # the update's own g * g overflows, to a step of 0
        with np.errstate(over="ignore"):
            opt.step()
        assert np.isfinite(p.data).all()
        p.tensor.grad = np.array([1.0, np.nan])
        with pytest.raises(NonFiniteError, match="parameter p"):
            opt.step()
