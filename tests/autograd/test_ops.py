"""Gradient checks and semantics for every pointwise/arithmetic op."""

import math

import numpy as np
import pytest
from scipy import special

from repro.autograd import Tensor, gradcheck
from repro.autograd import ops


def t(data, rg=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


class TestArithmeticGradients:
    def test_add(self, rng):
        a, b = t(rng.standard_normal((3, 4))), t(rng.standard_normal((3, 4)))
        assert gradcheck(ops.add, [a, b])

    def test_add_broadcast(self, rng):
        a, b = t(rng.standard_normal((3, 4))), t(rng.standard_normal((4,)))
        assert gradcheck(ops.add, [a, b])

    def test_sub(self, rng):
        a, b = t(rng.standard_normal((2, 3))), t(rng.standard_normal((2, 3)))
        assert gradcheck(ops.sub, [a, b])

    def test_mul_broadcast(self, rng):
        a, b = t(rng.standard_normal((2, 1, 3))), t(rng.standard_normal((4, 1)))
        assert gradcheck(ops.mul, [a, b])

    def test_div(self, rng):
        a = t(rng.standard_normal((3, 3)))
        b = t(rng.uniform(0.5, 2.0, (3, 3)))
        assert gradcheck(ops.div, [a, b])

    def test_neg(self, rng):
        assert gradcheck(ops.neg, [t(rng.standard_normal(5))])

    def test_pow(self, rng):
        a = t(rng.uniform(0.5, 2.0, (3,)))
        assert gradcheck(lambda x: ops.pow_(x, 3.0), [a])

    def test_matmul(self, rng):
        a, b = t(rng.standard_normal((3, 4))), t(rng.standard_normal((4, 2)))
        assert gradcheck(ops.matmul, [a, b])

    def test_matmul_batched_broadcast(self, rng):
        a = t(rng.standard_normal((2, 2, 3, 4)))
        b = t(rng.standard_normal((4, 5)))
        assert gradcheck(ops.matmul, [a, b])

    def test_operator_sugar(self, rng):
        a, b = t(rng.standard_normal((2, 2))), t(rng.standard_normal((2, 2)))
        out = (-a + b * 2 - 1) / (b.abs() + 2) @ a
        out.sum().backward()
        assert a.grad is not None and b.grad is not None


class TestPointwiseGradients:
    def test_exp(self, rng):
        assert gradcheck(ops.exp, [t(rng.standard_normal(6) * 0.5)])

    def test_log(self, rng):
        assert gradcheck(ops.log, [t(rng.uniform(0.5, 3.0, 6))])

    def test_sqrt(self, rng):
        assert gradcheck(ops.sqrt, [t(rng.uniform(0.5, 3.0, 6))])

    def test_tanh(self, rng):
        assert gradcheck(ops.tanh, [t(rng.standard_normal(6))])

    def test_sigmoid(self, rng):
        assert gradcheck(ops.sigmoid, [t(rng.standard_normal(6))])

    def test_relu_away_from_kink(self, rng):
        x = rng.standard_normal(8)
        x[np.abs(x) < 0.1] += 0.5
        assert gradcheck(ops.relu, [t(x)])

    def test_gelu(self, rng):
        assert gradcheck(ops.gelu, [t(rng.standard_normal(6))])

    @pytest.mark.parametrize(
        "x_dtype,scale_dtype",
        [(np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64)],
    )
    def test_gelu_backward_bitwise_matches_unfused_expression(self, rng, x_dtype, scale_dtype):
        """The one-buffer backward equals ``grad * (cdf + x * pdf)`` exactly.

        The mixed row sends a float64 gradient into a float32 GELU, which
        must promote as the expression does.
        """
        x = (rng.standard_normal(4099) * 3.0).astype(x_dtype)
        x[:3] = [0.0, -0.0, 9.0]
        scale = rng.standard_normal(4099).astype(scale_dtype)
        xt = Tensor(x, requires_grad=True)
        out = ops.gelu(xt) * Tensor(scale)
        out.backward(np.ones(out.shape))
        grad = np.ones(out.shape, dtype=out.dtype) * scale
        cdf = 0.5 * (1.0 + special.erf(x / math.sqrt(2.0)))
        pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        expected = grad * (cdf + x * pdf)
        assert xt.grad.dtype == expected.dtype
        assert np.array_equal(xt.grad, expected)
        assert np.array_equal(np.signbit(xt.grad), np.signbit(expected))

    def test_abs_away_from_zero(self, rng):
        x = rng.standard_normal(8)
        x[np.abs(x) < 0.1] = 0.5
        assert gradcheck(ops.abs_, [t(x)])

    def test_maximum(self, rng):
        a = t(rng.standard_normal(8))
        b = t(rng.standard_normal(8) + 0.01)
        assert gradcheck(ops.maximum, [a, b])

    def test_clip_gradient_zero_outside(self):
        x = t([-2.0, 0.0, 2.0])
        ops.clip(x, -1.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])


class TestSoftmaxFamily:
    def test_softmax_rows_sum_to_one(self, rng):
        x = Tensor(rng.standard_normal((4, 7)))
        s = ops.softmax(x, axis=-1)
        np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_softmax_shift_invariance(self, rng):
        x = rng.standard_normal((3, 5))
        a = ops.softmax(Tensor(x), axis=-1).data
        b = ops.softmax(Tensor(x + 100.0), axis=-1).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_softmax_gradient(self, rng):
        x = t(rng.standard_normal((3, 5)))
        assert gradcheck(lambda v: ops.softmax(v, axis=-1), [x])

    def test_softmax_axis0_gradient(self, rng):
        x = t(rng.standard_normal((4, 3)))
        assert gradcheck(lambda v: ops.softmax(v, axis=0), [x])

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = rng.standard_normal((3, 5))
        a = ops.log_softmax(Tensor(x), axis=-1).data
        b = np.log(ops.softmax(Tensor(x), axis=-1).data)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_log_softmax_gradient(self, rng):
        x = t(rng.standard_normal((2, 6)))
        assert gradcheck(lambda v: ops.log_softmax(v, axis=-1), [x])

    def test_softmax_extreme_values_stable(self):
        x = Tensor(np.array([[1000.0, 1000.1, 999.9]]))
        s = ops.softmax(x, axis=-1)
        assert np.isfinite(s.data).all()
        np.testing.assert_allclose(s.data.sum(), 1.0)


class TestDropout:
    def test_eval_mode_identity(self, rng):
        x = Tensor(rng.standard_normal((5, 5)))
        out = ops.dropout(x, 0.5, rng, training=False)
        assert out is x

    def test_zero_rate_identity(self, rng):
        x = Tensor(rng.standard_normal((5, 5)))
        out = ops.dropout(x, 0.0, rng, training=True)
        assert out is x

    def test_scaling_preserves_expectation(self, rng):
        x = Tensor(np.ones((200, 200)))
        out = ops.dropout(x, 0.3, rng, training=True)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_gradient_masked_like_forward(self, rng):
        x = t(np.ones((10, 10)))
        out = ops.dropout(x, 0.5, np.random.default_rng(0), training=True)
        out.sum().backward()
        # Gradient zero exactly where output is zero.
        np.testing.assert_array_equal(x.grad == 0.0, out.data == 0.0)

    def test_invalid_rate_raises(self, rng):
        from repro.errors import ShapeError
        with pytest.raises(ShapeError):
            ops.dropout(Tensor(np.ones(3)), 1.0, rng, training=True)
