"""Fused-vs-reference parity of the backend-routed K-means grouping engine.

The grouping hot path (Lloyd assignment, center updates, counts, radii)
now runs on the kernel backend registry; these tests pin the acceptance
contract: given identical init centers the fused backend produces
*identical assignments and counts* to the reference oracle, and every
aggregate (centers, radii, inertia) matches at its row of
``tests/tolerances.py`` — in both float32 and float64.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.kernels as K
from repro.cluster import batched_kmeans, pairwise_sq_distances
from tolerances import assert_parity

DTYPES = [np.float32, np.float64]


def _points(rng, batch=3, n=64, dim=6, dtype=np.float64):
    return rng.standard_normal((batch, n, dim)).astype(dtype)


class TestBatchedKMeansBackendParity:
    @pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
    def test_identical_assignments_and_close_aggregates(self, rng, dtype):
        points = _points(rng, dtype=dtype)
        init = points[:, :8].copy()  # identical init for both backends
        with K.use_backend("reference"):
            ref = batched_kmeans(points, 8, n_iters=3, init_centers=init)
        with K.use_backend("fused"):
            fused = batched_kmeans(points, 8, n_iters=3, init_centers=init)
        assert_parity(fused.assignments, ref.assignments, "kmeans partition", dtype)
        assert_parity(fused.counts, ref.counts, "kmeans partition", dtype)
        assert_parity(fused.centers, ref.centers, "kmeans aggregates", dtype)
        assert_parity(fused.radii, ref.radii, "kmeans aggregates", dtype)
        assert_parity(fused.inertia, ref.inertia, "kmeans inertia", dtype)

    @pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
    def test_result_dtypes_follow_points(self, rng, dtype):
        points = _points(rng, dtype=dtype)
        with K.use_backend("fused"):
            result = batched_kmeans(points, 5, rng=np.random.default_rng(0))
        assert result.centers.dtype == dtype
        assert result.radii.dtype == dtype
        assert result.counts.dtype == np.int64

    def test_scratch_reuse_does_not_leak_across_calls(self, rng):
        """Two back-to-back fused runs must not alias returned arrays."""
        points = _points(rng)
        init = points[:, :4].copy()
        with K.use_backend("fused"):
            first = batched_kmeans(points, 4, n_iters=2, init_centers=init)
            saved = first.centers.copy()
            batched_kmeans(points + 1.0, 4, n_iters=2, init_centers=init + 1.0)
        np.testing.assert_array_equal(first.centers, saved)


class TestKMeansAssignKernel:
    @pytest.mark.parametrize("backend", ["reference", "fused"])
    @pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
    def test_matches_naive_argmin(self, rng, backend, dtype):
        points = _points(rng, dtype=dtype)
        centers = points[:, :7].copy() + 0.1
        assignments, member_sq = K.get_backend(backend).kmeans_assign(points, centers)
        distances = pairwise_sq_distances(points, centers)
        np.testing.assert_array_equal(assignments, distances.argmin(axis=-1))
        assert_parity(member_sq, distances.min(axis=-1), "distance expansion", dtype)
        assert (member_sq >= 0).all()

    def test_points_sq_reuse_is_equivalent(self, rng):
        points = _points(rng)
        centers = points[:, :5].copy()
        backend = K.get_backend("fused")
        points_sq = np.einsum("bnd,bnd->bn", points, points, optimize=True)
        a_without, d_without = backend.kmeans_assign(points, centers)
        a_with, d_with = backend.kmeans_assign(points, centers, points_sq)
        np.testing.assert_array_equal(a_with, a_without)
        np.testing.assert_array_equal(d_with, d_without)  # the same einsum either way


class TestSegmentPrimitiveParity:
    @pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
    def test_segment_mean_count_max_match_reference(self, rng, dtype):
        batch, n, d, num_segments = 4, 50, 5, 7
        values = rng.standard_normal((batch, n, d)).astype(dtype)
        scalars = np.abs(rng.standard_normal((batch, n))).astype(dtype)
        segments = K.Segments.from_ids(rng.integers(0, num_segments, size=(batch, n)), num_segments)
        ref = K.get_backend("reference")
        fused = K.get_backend("fused")

        ref_mean, ref_counts = ref.segment_mean(values, segments)
        fused_mean, fused_counts = fused.segment_mean(values, segments)
        np.testing.assert_array_equal(fused_counts, ref_counts)
        assert_parity(fused_mean, ref_mean, "kernel", dtype)

        np.testing.assert_array_equal(fused.segment_count(segments), ref.segment_count(segments))
        # A maximum rounds nothing, so any order gives the same bits.
        np.testing.assert_array_equal(
            fused.segment_max(scalars, segments), ref.segment_max(scalars, segments)
        )

    @pytest.mark.parametrize("backend", ["reference", "fused"])
    def test_empty_segments(self, rng, backend):
        """Segments with no members: zero mean, zero count, ``initial`` max."""
        values = rng.standard_normal((2, 10, 3))
        scalars = np.abs(rng.standard_normal((2, 10)))
        segments = K.Segments.from_ids(np.zeros((2, 10), dtype=np.int64), 4)  # all in 0
        impl = K.get_backend(backend)
        mean, counts = impl.segment_mean(values, segments)
        np.testing.assert_allclose(mean[:, 1:], 0.0)
        np.testing.assert_array_equal(counts[:, 1:], 0)
        np.testing.assert_array_equal(counts[:, 0], 10)
        assert_parity(mean[:, 0], values.mean(axis=1), "kernel", np.float64)
        maxes = impl.segment_max(scalars, segments, initial=-1.0)
        np.testing.assert_allclose(maxes[:, 1:], -1.0)
        np.testing.assert_array_equal(maxes[:, 0], scalars.max(axis=1))

    @pytest.mark.parametrize("backend", ["reference", "fused"])
    def test_segment_mean_matches_bincount(self, rng, backend):
        values = rng.standard_normal((1, 30, 2))
        ids = rng.integers(0, 5, size=(1, 30))
        mean, counts = K.get_backend(backend).segment_mean(values, K.Segments.from_ids(ids, 5))
        expected_counts = np.bincount(ids[0], minlength=5)
        np.testing.assert_array_equal(counts[0], expected_counts)
        for segment in range(5):
            members = values[0][ids[0] == segment]
            if len(members):
                assert_parity(mean[0, segment], members.mean(axis=0), "kernel", np.float64)
