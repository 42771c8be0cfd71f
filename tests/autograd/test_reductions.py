"""Reduction ops: sum, mean, var, max, min."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck
from repro.autograd import ops
from repro.kernels import dtype_scope


def t(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


class TestSumMean:
    def test_sum_all(self, rng):
        assert gradcheck(lambda x: ops.sum_(x), [t(rng.standard_normal((3, 4)))])

    def test_sum_axis_keepdims(self, rng):
        assert gradcheck(
            lambda x: ops.sum_(x, axis=1, keepdims=True), [t(rng.standard_normal((3, 4)))]
        )

    def test_sum_negative_axis(self, rng):
        x = rng.standard_normal((2, 3, 4))
        out = ops.sum_(Tensor(x), axis=-1)
        np.testing.assert_allclose(out.data, x.sum(axis=-1))

    def test_sum_multi_axis(self, rng):
        x = rng.standard_normal((2, 3, 4))
        out = ops.sum_(Tensor(x), axis=(0, 2))
        np.testing.assert_allclose(out.data, x.sum(axis=(0, 2)))
        assert gradcheck(lambda v: ops.sum_(v, axis=(0, 2)), [t(x)])

    def test_mean_all(self, rng):
        assert gradcheck(ops.mean, [t(rng.standard_normal((3, 4)))])

    def test_mean_axis(self, rng):
        assert gradcheck(lambda x: ops.mean(x, axis=0), [t(rng.standard_normal((3, 4)))])

    def test_mean_value(self, rng):
        x = rng.standard_normal((5, 6))
        assert ops.mean(Tensor(x)).item() == pytest.approx(x.mean())


class TestVar:
    def test_var_matches_numpy(self, rng):
        x = rng.standard_normal((4, 6))
        out = ops.var(Tensor(x), axis=1)
        np.testing.assert_allclose(out.data, x.var(axis=1), atol=1e-12)

    def test_var_ddof(self, rng):
        x = rng.standard_normal((4, 6))
        out = ops.var(Tensor(x), axis=1, ddof=1)
        np.testing.assert_allclose(out.data, x.var(axis=1, ddof=1), atol=1e-12)

    def test_var_gradient(self, rng):
        assert gradcheck(lambda v: ops.var(v, axis=-1), [t(rng.standard_normal((3, 5)))])


class TestExtrema:
    def test_max_value(self, rng):
        x = rng.standard_normal((3, 7))
        np.testing.assert_allclose(ops.max_(Tensor(x), axis=1).data, x.max(axis=1))

    def test_min_value(self, rng):
        x = rng.standard_normal((3, 7))
        np.testing.assert_allclose(ops.min_(Tensor(x), axis=1).data, x.min(axis=1))

    def test_max_gradient_unique(self, rng):
        x = rng.standard_normal((3, 7))
        assert gradcheck(lambda v: ops.max_(v, axis=1), [t(x)])

    def test_max_gradient_splits_ties(self):
        x = t(np.array([[1.0, 1.0, 0.0]]))
        ops.max_(x, axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.5, 0.5, 0.0]])

    def test_max_all_axes(self, rng):
        x = rng.standard_normal((3, 4))
        assert ops.max_(Tensor(x)).item() == pytest.approx(x.max())

    def test_min_gradient(self, rng):
        x = rng.standard_normal((2, 5))
        assert gradcheck(lambda v: ops.min_(v, axis=0), [t(x)])


@pytest.mark.parametrize("policy", [np.float32, np.float64])
@pytest.mark.parametrize("operand", [np.float32, np.float64])
@pytest.mark.parametrize("axis", [None, (0, 1)], ids=["none", "all-axes"])
@pytest.mark.parametrize("reduce", [ops.sum_, ops.mean, ops.max_, ops.min_])
def test_full_reduction_keeps_operand_dtype(rng, reduce, axis, operand, policy):
    """A full reduction returns a NumPy scalar; neither it nor the gradient
    may take the policy dtype in place of the operand's."""
    with dtype_scope(policy):
        x = Tensor(rng.standard_normal((3, 4)).astype(operand), requires_grad=True)
        out = reduce(x, axis=axis)
        out.backward()
    assert out.dtype == operand
    assert x.grad.dtype == operand
