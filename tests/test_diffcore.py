import numpy as np
import pytest
from hypothesis import given, strategies as st

from biocompass import diffcore
from biocompass.diffcore import (Adam, NonFiniteError, Parameter, Tape,
                                 Tensor, backward, zero_grads)
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

    def test_softplus_at_zero(self):
        tape = Tape()
        out = tape.softplus(tape.constant([0.0]))
        assert out.data[0] == pytest.approx(np.log(2.0), abs=1e-15)


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


PRIMITIVE_BUILDERS = {
    "matmul": lambda tape, p, rng: tape.mse(
        tape.matmul(p.tensor, tape.constant(rng.normal(size=(p.data.shape[1], 2)))),
        rng.normal(size=(p.data.shape[0], 2))),
    "add_bias": lambda tape, p, rng: tape.mse(
        tape.add_bias(tape.constant(rng.normal(size=(3, p.data.shape[0]))),
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
    "sum_squares": lambda tape, p, rng: tape.scale(tape.sum_squares(p.tensor), 0.3),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_BUILDERS))
def test_primitive_gradients_match_finite_differences(name):
    for seed in range(10):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        # avoid the relu kink: keep values away from 0
        if name == "add_bias":
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


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=20))
def test_sigmoid_strictly_inside_unit_interval(values):
    tape = Tape()
    out = tape.sigmoid(tape.constant(values)).data
    assert np.all(out > 0.0) and np.all(out < 1.0)


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=20))
def test_relu_nonnegative(values):
    tape = Tape()
    assert np.all(tape.relu(tape.constant(values)).data >= 0.0)
