"""Warm-start centroid reuse across adaptive ``n_groups`` changes.

Before the fix, any change of ``n_groups`` (the adaptive scheduler shrinks
it almost every step) hit a shape-mismatch bailout that silently discarded
the cached centroids, degrading every subsequent forward to a cold k-means
start.  Now the cache is subsampled when ``N`` shrinks and padded with
jittered duplicates when it grows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attention import group as group_module
from repro.attention.group import GroupAttention
from repro.autograd.tensor import Tensor


@pytest.fixture
def qkv(rng):
    data = rng.standard_normal((2, 2, 24, 4))
    return Tensor(data), Tensor(data), Tensor(data)


def _captured_init_centers(monkeypatch):
    """Record the ``init_centers`` handed to batched_kmeans per forward."""
    captured = []
    original = group_module.batched_kmeans

    def spy(points, n_clusters, **kwargs):
        captured.append(kwargs.get("init_centers"))
        return original(points, n_clusters, **kwargs)

    return captured, spy


class TestWarmStartAcrossGroupChanges:
    def test_shrinking_n_groups_subsamples_cache(self, rng, qkv, monkeypatch):
        captured, spy = _captured_init_centers(monkeypatch)
        monkeypatch.setattr(group_module, "batched_kmeans", spy)
        mech = GroupAttention(n_groups=8, rng=np.random.default_rng(0))
        mech(*qkv)
        cached = mech.last_stats.centers.copy()
        mech.n_groups = 5  # what the adaptive scheduler does
        mech(*qkv)
        assert captured[0] is None  # first forward: cold start
        init = captured[1]
        assert init is not None and init.shape == (4, 5, 4)
        # Subsampled rows come from the previous cache (first and last kept).
        np.testing.assert_allclose(init[:, 0], cached[:, 0])
        np.testing.assert_allclose(init[:, -1], cached[:, -1])

    def test_growing_n_groups_pads_cache(self, rng, qkv, monkeypatch):
        captured, spy = _captured_init_centers(monkeypatch)
        monkeypatch.setattr(group_module, "batched_kmeans", spy)
        mech = GroupAttention(n_groups=4, rng=np.random.default_rng(0))
        mech(*qkv)
        cached = mech.last_stats.centers.copy()
        mech.n_groups = 6
        mech(*qkv)
        init = captured[1]
        assert init is not None and init.shape == (4, 6, 4)
        np.testing.assert_allclose(init[:, :4], cached)
        # Padded centers are jittered duplicates, not exact copies.
        assert not np.allclose(init[:, 4], cached[:, 0])
        np.testing.assert_allclose(init[:, 4], cached[:, 0], atol=0.1)

    def test_same_n_groups_reuses_cache_exactly(self, rng, qkv, monkeypatch):
        captured, spy = _captured_init_centers(monkeypatch)
        monkeypatch.setattr(group_module, "batched_kmeans", spy)
        mech = GroupAttention(n_groups=6, rng=np.random.default_rng(0))
        mech(*qkv)
        cached = mech.last_stats.centers
        mech(*qkv)
        assert captured[1] is cached

    def test_batch_geometry_change_bails_out(self, rng, qkv, monkeypatch):
        captured, spy = _captured_init_centers(monkeypatch)
        monkeypatch.setattr(group_module, "batched_kmeans", spy)
        mech = GroupAttention(n_groups=6, rng=np.random.default_rng(0))
        mech(*qkv)
        other = Tensor(rng.standard_normal((3, 2, 24, 4)))  # batch 2 -> 3
        mech(other, other, other)
        assert captured[1] is None

    def test_warm_start_disabled_never_caches(self, rng, qkv, monkeypatch):
        captured, spy = _captured_init_centers(monkeypatch)
        monkeypatch.setattr(group_module, "batched_kmeans", spy)
        mech = GroupAttention(n_groups=6, rng=np.random.default_rng(0), warm_start=False)
        mech(*qkv)
        mech(*qkv)
        assert captured == [None, None]

    def test_dtype_change_still_warm_starts(self, rng, qkv, monkeypatch):
        """float64 cache + float32 keys: centers are recast, not discarded."""
        captured, spy = _captured_init_centers(monkeypatch)
        monkeypatch.setattr(group_module, "batched_kmeans", spy)
        mech = GroupAttention(n_groups=6, rng=np.random.default_rng(0))
        q, k, v = qkv
        mech(q, k, v)
        cached = mech.last_stats.centers
        assert cached.dtype == np.float64
        low = Tensor(k.data.astype(np.float32))
        out = mech(low, low, low)
        assert captured[1] is cached  # cache handed through; kmeans recasts
        assert out.dtype == np.float32
        assert mech.last_stats.centers.dtype == np.float32
        assert np.isfinite(out.data).all()

    def test_shrink_then_grow_roundtrip_keeps_cache_alive(self, rng, qkv, monkeypatch):
        captured, spy = _captured_init_centers(monkeypatch)
        monkeypatch.setattr(group_module, "batched_kmeans", spy)
        mech = GroupAttention(n_groups=8, rng=np.random.default_rng(0))
        mech(*qkv)
        mech.n_groups = 3
        mech(*qkv)
        mech.n_groups = 8
        mech(*qkv)
        assert captured[1] is not None and captured[1].shape == (4, 3, 4)
        assert captured[2] is not None and captured[2].shape == (4, 8, 4)


class TestForwardStillCorrect:
    def test_output_finite_after_group_change(self, rng, qkv):
        mech = GroupAttention(n_groups=8, rng=np.random.default_rng(0))
        mech(*qkv)
        mech.n_groups = 3
        out = mech(*qkv)
        assert np.isfinite(out.data).all()
        assert mech.last_stats is not None and mech.last_stats.n_groups == 3
