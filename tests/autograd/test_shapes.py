"""Shape ops: reshape, transpose, broadcast, concat, stack, indexing, select."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck
from repro.autograd import ops
from repro.errors import ShapeError


def t(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


class TestReshapeTranspose:
    def test_reshape_roundtrip_gradient(self, rng):
        x = t(rng.standard_normal((2, 6)))
        assert gradcheck(lambda v: ops.reshape(v, 3, 4), [x])

    def test_reshape_tuple_arg(self, rng):
        out = ops.reshape(Tensor(rng.standard_normal((2, 6))), (4, 3))
        assert out.shape == (4, 3)

    def test_swapaxes(self, rng):
        x = t(rng.standard_normal((2, 3, 4)))
        assert gradcheck(lambda v: ops.swapaxes(v, -1, -2), [x])

    def test_transpose_permutation(self, rng):
        x = rng.standard_normal((2, 3, 4))
        out = ops.transpose(Tensor(x), (2, 0, 1))
        np.testing.assert_allclose(out.data, x.transpose(2, 0, 1))
        assert gradcheck(lambda v: ops.transpose(v, (2, 0, 1)), [t(x)])

    def test_T_property(self, rng):
        x = rng.standard_normal((3, 5))
        np.testing.assert_allclose(Tensor(x).T.data, x.T)

    def test_broadcast_to(self, rng):
        x = t(rng.standard_normal((1, 4)))
        assert gradcheck(lambda v: ops.broadcast_to(v, (3, 4)), [x])


class TestConcatStack:
    def test_concat_values(self, rng):
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((4, 3))
        out = ops.concat([Tensor(a), Tensor(b)], axis=0)
        np.testing.assert_allclose(out.data, np.concatenate([a, b]))

    def test_concat_gradient(self, rng):
        a, b = t(rng.standard_normal((2, 3))), t(rng.standard_normal((2, 2)))
        assert gradcheck(lambda x, y: ops.concat([x, y], axis=1), [a, b])

    def test_concat_empty_raises(self):
        with pytest.raises(ShapeError):
            ops.concat([], axis=0)

    def test_stack_values(self, rng):
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        out = ops.stack([Tensor(a), Tensor(b)], axis=0)
        np.testing.assert_allclose(out.data, np.stack([a, b]))

    def test_stack_gradient(self, rng):
        a, b = t(rng.standard_normal(3)), t(rng.standard_normal(3))
        assert gradcheck(lambda x, y: ops.stack([x, y], axis=1), [a, b])


#: Indices for the backward-vs-``np.add.at`` rows, on a (4, 5, 3) input:
#: basic ones (slice-add backward) and advanced ones (scatter backward).
INDEX_CASES = {
    "ellipsis_slice": (Ellipsis, slice(1, None)),
    "newaxis_reverse_step": (None, slice(None, None, -2)),
    "int_slice_int": (1, slice(None), 0),
    "bool_mask": np.arange(60).reshape(4, 5, 3) % 3 == 1,
    "list_with_repeats": [0, 0, 2],
    "slice_and_repeating_array": (slice(1, 3), np.array([0, 2, 2, 4, 0])),
}


class TestIndexing:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(INDEX_CASES))
    def test_backward_matches_add_at_bitwise(self, rng, case, dtype):
        index = INDEX_CASES[case]
        x = Tensor(rng.standard_normal((4, 5, 3)).astype(dtype), requires_grad=True)
        out = x[index]
        upstream = rng.standard_normal(out.shape).astype(dtype)
        upstream.reshape(-1)[::4] = -0.0  # 0 + -0 is +0: the sign shows an add
        out.backward(upstream)
        expected = np.zeros(x.shape, dtype=dtype)
        np.add.at(expected, index, upstream)
        assert x.grad.dtype == expected.dtype
        assert np.array_equal(x.grad, expected)
        assert np.array_equal(np.signbit(x.grad), np.signbit(expected))

    def test_basic_slice(self, rng):
        x = t(rng.standard_normal((4, 5)))
        assert gradcheck(lambda v: v[1:3, ::2], [x])

    def test_integer_row(self, rng):
        x = t(rng.standard_normal((4, 5)))
        assert gradcheck(lambda v: v[2], [x])

    def test_fancy_indexing_gradient_accumulates_duplicates(self):
        x = t(np.zeros(3))
        idx = np.array([0, 0, 2])
        x[idx].sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 0.0, 1.0])

    def test_pair_indexing(self, rng):
        x = t(rng.standard_normal((4, 5)))
        rows = np.array([0, 2])
        cols = np.array([1, 3])
        assert gradcheck(lambda v: v[rows, cols], [x])


class TestWhereMaskedFill:
    def test_where_select(self, rng):
        cond = rng.random((3, 4)) > 0.5
        a, b = t(rng.standard_normal((3, 4))), t(rng.standard_normal((3, 4)))
        out = ops.where(cond, a, b)
        np.testing.assert_allclose(out.data, np.where(cond, a.data, b.data))
        assert gradcheck(lambda x, y: ops.where(cond, x, y), [a, b])

    def test_where_broadcast(self, rng):
        cond = rng.random((3, 4)) > 0.5
        a = t(rng.standard_normal((3, 4)))
        b = t(np.array(0.0))
        assert gradcheck(lambda x, y: ops.where(cond, x, y), [a, b])

    def test_masked_fill_value_and_gradient(self, rng):
        mask = rng.random((3, 4)) > 0.5
        x = t(rng.standard_normal((3, 4)))
        out = ops.masked_fill(x, mask, -9.0)
        assert (out.data[mask] == -9.0).all()
        out.sum().backward()
        np.testing.assert_array_equal(x.grad == 0.0, mask)


class TestEmbedding:
    def test_lookup(self, rng):
        w = rng.standard_normal((10, 4))
        idx = np.array([[1, 2], [3, 1]])
        out = ops.embedding(Tensor(w), idx)
        np.testing.assert_allclose(out.data, w[idx])

    def test_gradient_accumulates_repeats(self):
        w = t(np.zeros((5, 2)))
        idx = np.array([1, 1, 4])
        ops.embedding(w, idx).sum().backward()
        np.testing.assert_allclose(w.grad[1], [2.0, 2.0])
        np.testing.assert_allclose(w.grad[4], [1.0, 1.0])
        np.testing.assert_allclose(w.grad[0], [0.0, 0.0])
