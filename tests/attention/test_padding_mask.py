"""Padding-mask support: parity, purity, and cache behaviour.

The mask-parity invariant: for a ragged batch padded
to a common length, every attention mechanism produces outputs at valid
positions equal to running each sequence unpadded — at the
``padded vs solo`` row of ``tests/tolerances.py`` — and those
outputs are *bitwise* independent of whatever the padding contains.
Group attention's centroids, counts, and aggregates must be bitwise
free of padded-key contributions.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.kernels as K
from repro.attention import (
    GroupAttention,
    LinformerAttention,
    LocalAttention,
    PerformerAttention,
    VanillaAttention,
)
from repro.attention.local import _MASK_CACHE_SIZE
from repro.autograd.tensor import Tensor
from repro.cluster.kmeans import batched_kmeans
from tolerances import assert_parity

B, H, N_PAD, D = 3, 2, 12, 4
LENGTHS = [12, 9, 5]


def ragged_qkv(dtype=np.float64, seed=42):
    rng = np.random.default_rng(seed)
    q, k, v = (rng.standard_normal((B, H, N_PAD, D)).astype(dtype) for _ in range(3))
    mask = np.arange(N_PAD) < np.array(LENGTHS)[:, None]
    return q, k, v, mask


def valid_rows(out, mask):
    """Flattened (valid_positions, d) selection of a (B, H, n, d) output."""
    return out[np.broadcast_to(mask[:, None, :], out.shape[:3])]


MECHS = {
    "vanilla": lambda: VanillaAttention(),
    "local": lambda: LocalAttention(window=3),
    "performer": lambda: PerformerAttention(n_features=32, rng=np.random.default_rng(7)),
    "linformer": lambda: LinformerAttention(max_len=N_PAD, proj_dim=4, rng=np.random.default_rng(8)),
    # n_groups >= n makes every key its own group (Lemma 3: identical to
    # vanilla attention), so the clustering RNG cannot break parity.
    # warm_start off: carrying centers between the per-sequence runs would
    # subsample them below n and reintroduce clustering noise.
    "group": lambda: GroupAttention(
        n_groups=N_PAD, kmeans_iters=1, rng=np.random.default_rng(9), warm_start=False
    ),
}


@pytest.mark.parametrize("backend", ["fused", "reference"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("kind", sorted(MECHS))
class TestMaskParity:
    def test_padded_equals_unpadded(self, kind, dtype, backend):
        q, k, v, mask = ragged_qkv(dtype)
        with K.dtype_scope(dtype), K.use_backend(backend):
            mech = MECHS[kind]()
            padded_out = mech(Tensor(q), Tensor(k), Tensor(v), mask=mask).data
            for b, length in enumerate(LENGTHS):
                sl = np.s_[b : b + 1, :, :length, :]
                # The same module instance (same projections / features)
                # run on the unpadded slice.
                solo = mech(Tensor(q[sl]), Tensor(k[sl]), Tensor(v[sl])).data
                assert_parity(
                    padded_out[sl], solo, "padded vs solo", dtype,
                    f"{kind} parity broken for sequence {b} (len {length})",
                )

    def test_output_bitwise_independent_of_padding(self, kind, dtype, backend):
        q, k, v, mask = ragged_qkv(dtype)
        pad = np.broadcast_to(~mask[:, None, :, None], q.shape)
        q2, k2, v2 = q.copy(), k.copy(), v.copy()
        for arr in (q2, k2, v2):
            arr[pad] = 321.0  # garbage only where padded
        with K.dtype_scope(dtype), K.use_backend(backend):
            out1 = MECHS[kind]()(Tensor(q), Tensor(k), Tensor(v), mask=mask).data
            out2 = MECHS[kind]()(Tensor(q2), Tensor(k2), Tensor(v2), mask=mask).data
        np.testing.assert_array_equal(
            valid_rows(out1, mask), valid_rows(out2, mask),
            err_msg=f"{kind}: padded content leaked into valid outputs",
        )

    def test_gradients_ignore_padding(self, kind, dtype, backend):
        """Backward flows no gradient into padded key/value positions."""
        if dtype == np.float32:
            pytest.skip("gradient route checked once, in float64")
        q, k, v, mask = ragged_qkv(dtype)
        with K.use_backend(backend):
            qt = Tensor(q, requires_grad=True)
            kt = Tensor(k, requires_grad=True)
            vt = Tensor(v, requires_grad=True)
            out = MECHS[kind]()(qt, kt, vt, mask=mask)
            # Only valid outputs matter; seed the backward there alone.
            seed = np.zeros_like(out.data)
            seed[np.broadcast_to(mask[:, None, :, None], seed.shape)] = 1.0
            out.backward(seed)
        pad_rows = np.broadcast_to(~mask[:, None, :, None], v.shape)
        np.testing.assert_array_equal(kt.grad[pad_rows], 0.0)
        np.testing.assert_array_equal(vt.grad[pad_rows], 0.0)


class TestGroupMaskedClustering:
    @pytest.mark.parametrize("backend", ["fused", "reference"])
    def test_centroids_bitwise_free_of_padding(self, backend, rng):
        """Masked K-means on a padded batch == K-means on the valid slice."""
        n, n_pad, n_clusters, d = 9, 14, 4, 5
        points = rng.standard_normal((1, n_pad, d))
        mask = (np.arange(n_pad) < n)[None, :]
        init = points[:, :n_clusters].copy()
        with K.use_backend(backend):
            masked = batched_kmeans(points, n_clusters, n_iters=3, init_centers=init, mask=mask)
            dense = batched_kmeans(points[:, :n], n_clusters, n_iters=3, init_centers=init)
        np.testing.assert_array_equal(masked.centers, dense.centers)
        np.testing.assert_array_equal(masked.counts, dense.counts)
        np.testing.assert_array_equal(masked.radii, dense.radii)
        # Valid points: identical assignments; padded points: sentinel id N.
        np.testing.assert_array_equal(masked.assignments[:, :n], dense.assignments)
        assert (masked.assignments[:, n:] == n_clusters).all()
        assert masked.counts.sum() == n

    def test_masked_kmeans_seeds_from_valid_points(self, rng):
        points = rng.standard_normal((2, 10, 3))
        points[0, 6:] = 1e6  # garbage padding far away from the data
        points[1, 4:] = -1e6
        mask = np.arange(10) < np.array([6, 4])[:, None]
        for init in ("random", "++"):
            result = batched_kmeans(points, 3, n_iters=2, init=init, mask=mask, rng=rng)
            # No centroid may sit at the garbage location.
            assert np.abs(result.centers).max() < 1e3, init

    def test_fewer_valid_points_than_clusters_keeps_centers_valid(self, rng):
        """Regression: with n_valid < n_clusters, the excess random-init
        seed slots used to take raw padded-point values, which then leaked
        into warm starts for subsequent batches."""
        base = rng.standard_normal((1, 8, 3))
        mask = (np.arange(8) < 5)[None, :]
        a = base.copy()
        a[0, 5:] = 100.0
        b = base.copy()
        b[0, 5:] = -3.7
        for init in ("random", "++"):
            ra = batched_kmeans(a, 8, n_iters=2, init=init, mask=mask, rng=np.random.default_rng(7))
            rb = batched_kmeans(b, 8, n_iters=2, init=init, mask=mask, rng=np.random.default_rng(7))
            np.testing.assert_array_equal(ra.centers, rb.centers, err_msg=init)
            np.testing.assert_array_equal(ra.assignments, rb.assignments, err_msg=init)
            assert not np.isclose(ra.centers, 100.0).any(), init

    def test_group_aggregates_exclude_padded_values(self, rng):
        """Huge padded v-values must not move any valid output."""
        q, k, v, mask = ragged_qkv()
        v_garbage = v.copy()
        v_garbage[np.broadcast_to(~mask[:, None, :, None], v.shape)] = 1e30
        mech1 = GroupAttention(n_groups=4, rng=np.random.default_rng(3), warm_start=False)
        mech2 = GroupAttention(n_groups=4, rng=np.random.default_rng(3), warm_start=False)
        out1 = mech1(Tensor(q), Tensor(k), Tensor(v), mask=mask).data
        out2 = mech2(Tensor(q), Tensor(k), Tensor(v_garbage), mask=mask).data
        np.testing.assert_array_equal(valid_rows(out1, mask), valid_rows(out2, mask))

    def test_stats_counts_exclude_padding(self, rng):
        q, k, v, mask = ragged_qkv()
        mech = GroupAttention(n_groups=4, rng=np.random.default_rng(3))
        mech(Tensor(q), Tensor(k), Tensor(v), mask=mask)
        stats = mech.last_stats
        # Each (batch, head) element's group counts sum to its valid length.
        per_elem = stats.counts.reshape(B, H, -1).sum(axis=-1)
        np.testing.assert_array_equal(per_elem, np.tile(np.array(LENGTHS)[:, None], (1, H)))

    def test_key_radius_ignores_padding(self, rng):
        q, k, v, mask = ragged_qkv()
        k_garbage = k.copy()
        k_garbage[np.broadcast_to(~mask[:, None, :, None], k.shape)] = 1e6
        mech = GroupAttention(n_groups=4, rng=np.random.default_rng(3))
        mech(Tensor(q), Tensor(k_garbage), Tensor(v), mask=mask)
        assert mech.last_stats.key_radius < 1e3


class TestMaskedReclusterCache:
    def _mech(self):
        return GroupAttention(
            n_groups=4, rng=np.random.default_rng(0), recluster_every=4, drift_tolerance=1e9
        )

    def test_same_mask_reuses_partition(self, rng):
        q, k, v, mask = ragged_qkv()
        mech = self._mech()
        mech(Tensor(q), Tensor(k), Tensor(v), mask=mask)
        assert mech.last_stats.reclustered
        mech(Tensor(q), Tensor(k), Tensor(v), mask=mask)
        assert not mech.last_stats.reclustered
        assert mech.last_stats.steps_since_recluster == 1

    def test_different_mask_forces_recluster(self, rng):
        q, k, v, mask = ragged_qkv()
        mech = self._mech()
        mech(Tensor(q), Tensor(k), Tensor(v), mask=mask)
        other = mask.copy()
        other[1, 7:] = False  # one sequence got shorter
        mech(Tensor(q), Tensor(k), Tensor(v), mask=other)
        assert mech.last_stats.reclustered

    def test_dense_to_masked_transition_reclusters(self, rng):
        q, k, v, mask = ragged_qkv()
        mech = self._mech()
        mech(Tensor(q), Tensor(k), Tensor(v))
        mech(Tensor(q), Tensor(k), Tensor(v), mask=mask)
        assert mech.last_stats.reclustered
        mech(Tensor(q), Tensor(k), Tensor(v))
        assert mech.last_stats.reclustered

    def test_padded_key_drift_is_ignored(self, rng):
        """Movement in the padding must not trigger the drift guard."""
        q, k, v, mask = ragged_qkv()
        mech = GroupAttention(
            n_groups=4, rng=np.random.default_rng(0), recluster_every=4, drift_tolerance=0.5
        )
        mech(Tensor(q), Tensor(k), Tensor(v), mask=mask)
        k_moved = k.copy()
        k_moved[np.broadcast_to(~mask[:, None, :, None], k.shape)] += 1e4
        mech(Tensor(q), Tensor(k_moved), Tensor(v), mask=mask)
        assert not mech.last_stats.reclustered
        assert mech.last_stats.drift == 0.0


class TestLocalMaskCacheLRU:
    def test_cache_is_bounded(self, rng):
        mech = LocalAttention(window=2)
        for n in range(4, 4 + 3 * _MASK_CACHE_SIZE):
            x = Tensor(rng.standard_normal((1, 1, n, 3)))
            mech(x, x, x)
        assert len(mech._mask_cache) <= _MASK_CACHE_SIZE

    def test_lru_keeps_recent_lengths(self, rng):
        mech = LocalAttention(window=2)
        x8 = Tensor(rng.standard_normal((1, 1, 8, 3)))
        mech(x8, x8, x8)
        for n in range(10, 10 + _MASK_CACHE_SIZE - 1):
            x = Tensor(rng.standard_normal((1, 1, n, 3)))
            mech(x, x, x)
        # 8 was touched least recently but still fits; touching it again
        # promotes it, so the *next* insertion evicts 10 instead.
        mech(x8, x8, x8)
        x_new = Tensor(rng.standard_normal((1, 1, 99, 3)))
        mech(x_new, x_new, x_new)
        assert 8 in mech._mask_cache
        assert 10 not in mech._mask_cache

    def test_cached_mask_still_correct_after_eviction(self, rng):
        mech = LocalAttention(window=1)
        outs = {}
        for trial in range(2):
            for n in (4, 5, 6, 20, 21, 22, 23, 24, 25, 26):
                x = Tensor(np.ones((1, 1, n, 2)))
                outs.setdefault(n, []).append(mech(x, x, x).data)
        for n, (first, second) in outs.items():
            np.testing.assert_array_equal(first, second)


class TestMaskedPlusPlusDegenerateFallback:
    def test_identical_valid_points_never_seed_from_padding(self, rng):
        """kmeans++ degenerate fallback (all valid points identical) must
        sample seeds from valid positions only."""
        points = np.full((1, 8, 3), 2.5)
        points[0, 5:] = -1e6  # padding far away
        mask = (np.arange(8) < 5)[None, :]
        result = batched_kmeans(points, 3, n_iters=2, init="++", mask=mask, rng=rng)
        assert np.abs(result.centers - 2.5).max() < 1e-9
