"""Segment-sum / gather kernels (the embedding-aggregation substrate)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor, gradcheck
from repro.errors import ShapeError
from repro.kernels import Segments, segment_gather, segment_sum


class TestSegmentSum:
    def test_simple_aggregation(self):
        v = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]]))
        ids = np.array([[0, 1, 0]])
        out = segment_sum(v, Segments.from_ids(ids, 2))
        np.testing.assert_allclose(out.data, [[[6.0, 8.0], [3.0, 4.0]]])

    def test_empty_segment_is_zero(self):
        v = Tensor(np.ones((1, 2, 3)))
        ids = np.array([[0, 0]])
        out = segment_sum(v, Segments.from_ids(ids, 3))
        np.testing.assert_allclose(out.data[0, 1], 0.0)
        np.testing.assert_allclose(out.data[0, 2], 0.0)

    def test_per_batch_independence(self, rng):
        v = rng.standard_normal((2, 4, 3))
        ids = np.array([[0, 0, 1, 1], [1, 1, 0, 0]])
        out = segment_sum(Tensor(v), Segments.from_ids(ids, 2)).data
        np.testing.assert_allclose(out[0, 0], v[0, :2].sum(axis=0))
        np.testing.assert_allclose(out[1, 0], v[1, 2:].sum(axis=0))

    def test_multi_batch_dims(self, rng):
        v = rng.standard_normal((2, 3, 5, 4))
        ids = rng.integers(0, 3, (2, 3, 5))
        out = segment_sum(Tensor(v), Segments.from_ids(ids, 3))
        assert out.shape == (2, 3, 3, 4)

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            segment_sum(
                Tensor(rng.standard_normal((2, 4, 3))), Segments.from_ids(np.zeros((2, 5), int), 2)
            )

    def test_gradient(self, rng):
        v = Tensor(rng.standard_normal((2, 2, 5, 3)), requires_grad=True)
        ids = rng.integers(0, 3, (2, 2, 5))
        segments = Segments.from_ids(ids, 3)
        assert gradcheck(lambda v: segment_sum(v, segments), [v])


class TestGather:
    def test_gather_rows(self):
        v = Tensor(np.array([[[1.0, 1.0], [2.0, 2.0]]]))
        ids = np.array([[1, 0, 1]])
        out = segment_gather(v, Segments.from_ids(ids, 2))
        np.testing.assert_allclose(out.data, [[[2.0, 2.0], [1.0, 1.0], [2.0, 2.0]]])

    def test_gradient_scatter_adds(self):
        v = Tensor(np.zeros((1, 2, 2)), requires_grad=True)
        ids = np.array([[1, 1, 0]])
        segment_gather(v, Segments.from_ids(ids, 2)).sum().backward()
        np.testing.assert_allclose(v.grad, [[[1.0, 1.0], [2.0, 2.0]]])

    def test_batch_shape_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            segment_gather(
                Tensor(rng.standard_normal((2, 3, 4))), Segments.from_ids(np.zeros((3, 5), int), 3)
            )


class TestRoundTripProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 10),
        n_segments=st.integers(1, 5),
        seed=st.integers(0, 1000),
    )
    def test_segment_sum_equals_onehot_matmul(self, n, n_segments, seed):
        """segment_sum == one-hot matrix product (the naive formulation)."""
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((1, n, 3))
        ids = rng.integers(0, n_segments, (1, n))
        fast = segment_sum(Tensor(v), Segments.from_ids(ids, n_segments)).data[0]
        onehot = np.eye(n_segments)[ids[0]]  # (n, N)
        slow = onehot.T @ v[0]
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 10),
        n_segments=st.integers(1, 5),
        seed=st.integers(0, 1000),
    )
    def test_gather_of_segment_means_is_projection(self, n, n_segments, seed):
        """Gathering per-segment means yields a vector constant within segments."""
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((1, n, 2))
        ids = rng.integers(0, n_segments, (1, n))
        segments = Segments.from_ids(ids, n_segments)
        sums = segment_sum(Tensor(v), segments).data
        counts = np.maximum(np.bincount(ids[0], minlength=n_segments), 1)
        means = Tensor(sums / counts[None, :, None])
        gathered = segment_gather(means, segments).data[0]
        for segment in range(n_segments):
            members = gathered[ids[0] == segment]
            if len(members) > 1:
                assert np.allclose(members, members[0])
