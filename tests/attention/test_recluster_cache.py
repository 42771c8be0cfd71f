"""Amortized reclustering: cadence, drift guard, and cache invalidation.

``GroupAttention(recluster_every=c)`` runs K-means once and serves up to
``c - 1`` further forwards from the cached partition, recomputing only the
differentiable per-group aggregates.  The cache must be dropped on:
``n_groups`` changes (adaptive scheduler), geometry/dtype changes,
train/eval transitions, and whenever keys drift beyond the Lemma-1 guard.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.kernels as K
from repro.attention import group as group_module
from repro.attention.group import GroupAttention, group_attention_exact_output
from repro.autograd.tensor import Tensor
from repro.errors import ConfigError
from repro.scheduler import AdaptiveScheduler


@pytest.fixture
def qkv(rng):
    data = rng.standard_normal((2, 2, 24, 4))
    return Tensor(data), Tensor(data), Tensor(data)


def _count_kmeans_calls(monkeypatch):
    """Spy on how many times a forward actually runs K-means."""
    calls = []
    original = group_module.batched_kmeans

    def spy(points, n_clusters, **kwargs):
        calls.append(n_clusters)
        return original(points, n_clusters, **kwargs)

    monkeypatch.setattr(group_module, "batched_kmeans", spy)
    return calls


def _count_sorts(monkeypatch):
    """Count label sorts: building a ``Segments`` is the only place one happens."""
    calls = []
    build = K.Segments.from_ids.__func__

    def counting(cls, ids, num_segments):
        calls.append(num_segments)
        return build(cls, ids, num_segments)

    monkeypatch.setattr(K.Segments, "from_ids", classmethod(counting))
    return calls


class TestOneSortPerLabelling:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("masked", [False, True], ids=["dense", "masked"])
    def test_sorts_per_forward(self, rng, monkeypatch, dtype, masked):
        """K-means sorts each labelling once (one per Lloyd iteration, one
        for the final labels); both segment sums and their backwards reuse
        the final sort, and a forward on the cached partition sorts nothing."""
        sorts = _count_sorts(monkeypatch)
        mech = GroupAttention(n_groups=6, rng=np.random.default_rng(0), recluster_every=3)
        data = rng.standard_normal((2, 2, 24, 4)).astype(dtype)
        mask = None
        if masked:
            mask = np.ones((2, 24), dtype=bool)
            mask[1, 17:] = False
        per_forward = []
        with K.dtype_scope(dtype):
            for _ in range(4):
                q, k, v = (Tensor(data, requires_grad=True) for _ in range(3))
                sorts.clear()
                mech(q, k, v, mask=mask).sum().backward()
                per_forward.append((mech.last_stats.reclustered, len(sorts)))
        fresh = mech.kmeans_iters + 1
        assert per_forward == [(True, fresh), (False, 0), (False, 0), (True, fresh)]


class TestReclusterCadence:
    def test_default_reclusters_every_forward(self, rng, qkv, monkeypatch):
        calls = _count_kmeans_calls(monkeypatch)
        mech = GroupAttention(n_groups=6, rng=np.random.default_rng(0))
        for _ in range(3):
            mech(*qkv)
        assert len(calls) == 3
        assert mech.reclusters_total == 3
        assert mech.grouping_steps_total == 3

    def test_cadence_reuses_partition(self, rng, qkv, monkeypatch):
        calls = _count_kmeans_calls(monkeypatch)
        mech = GroupAttention(
            n_groups=6, rng=np.random.default_rng(0), recluster_every=3
        )
        flags, steps = [], []
        for _ in range(7):
            mech(*qkv)
            flags.append(mech.last_stats.reclustered)
            steps.append(mech.last_stats.steps_since_recluster)
        # Recluster on steps 0, 3, 6 — the cadence serves 2 cached steps each.
        assert flags == [True, False, False, True, False, False, True]
        assert steps == [0, 1, 2, 0, 1, 2, 0]
        assert len(calls) == 3
        assert mech.reclusters_total == 3
        assert mech.grouping_steps_total == 7

    def test_cached_forward_matches_exact_output(self, rng):
        """A cached step is exact group attention on the stale partition."""
        data = rng.standard_normal((1, 1, 16, 4))
        q, k, v = Tensor(data), Tensor(data), Tensor(data)
        mech = GroupAttention(
            n_groups=4, rng=np.random.default_rng(0), recluster_every=4
        )
        mech(q, k, v)
        ids = mech.last_stats.clustering.assignments.reshape(16)
        # Drift the keys slightly; the partition stays, the math is exact.
        k2 = Tensor(data + 1e-4 * rng.standard_normal(data.shape))
        out = mech(q, k2, v)
        assert mech.last_stats.reclustered is False
        expected = group_attention_exact_output(
            data[0, 0], k2.data[0, 0], data[0, 0], ids
        )
        np.testing.assert_allclose(out.data[0, 0], expected, atol=1e-10)

    def test_cached_step_backward_flows(self, rng):
        data = rng.standard_normal((1, 2, 16, 4))
        mech = GroupAttention(
            n_groups=4, rng=np.random.default_rng(0), recluster_every=2
        )
        mech(Tensor(data), Tensor(data), Tensor(data))
        q = Tensor(data, requires_grad=True)
        k = Tensor(data, requires_grad=True)
        v = Tensor(data, requires_grad=True)
        out = mech(q, k, v)
        assert mech.last_stats.reclustered is False
        out.sum().backward()
        for tensor in (q, k, v):
            assert tensor.grad is not None
            assert np.isfinite(tensor.grad).all()

    def test_invalid_config_raises(self):
        with pytest.raises(ConfigError):
            GroupAttention(recluster_every=0)
        with pytest.raises(ConfigError):
            GroupAttention(drift_tolerance=-0.1)

    def test_default_cadence_keeps_no_key_cache(self, rng, qkv):
        """recluster_every=1 (default) must not pin key tensors in memory."""
        mech = GroupAttention(n_groups=6, rng=np.random.default_rng(0))
        mech(*qkv)
        assert mech.last_stats.keys is None

    def test_rita_config_plumbs_cadence_to_layers(self, rng):
        from repro.model import RitaConfig, RitaModel

        config = RitaConfig(
            input_channels=2, max_len=16, dim=16, n_layers=2, n_heads=2,
            attention="group", n_groups=4, dropout=0.0,
            recluster_every=3, drift_tolerance=0.25,
        )
        model = RitaModel(config, rng=rng)
        layers = model.group_attention_layers()
        assert layers and all(layer.recluster_every == 3 for layer in layers)
        assert all(layer.drift_tolerance == 0.25 for layer in layers)


class TestDriftGuard:
    def test_large_drift_forces_early_recluster(self, rng, qkv, monkeypatch):
        calls = _count_kmeans_calls(monkeypatch)
        mech = GroupAttention(
            n_groups=6, rng=np.random.default_rng(0), recluster_every=10
        )
        q, k, v = qkv
        mech(q, k, v)
        shifted = Tensor(k.data + 100.0)  # keys jump far past any radius
        mech(shifted, shifted, shifted)
        assert len(calls) == 2
        assert mech.last_stats.reclustered is True
        assert mech.last_stats.steps_since_recluster == 0
        # Diagnostics record the movement that forced the recluster.
        assert mech.last_stats.drift == pytest.approx(200.0, rel=0.1)

    def test_small_drift_reuses_and_reports(self, rng, qkv):
        mech = GroupAttention(
            n_groups=6, rng=np.random.default_rng(0),
            recluster_every=10, drift_tolerance=1e6,
        )
        q, k, v = qkv
        mech(q, k, v)
        nudged = Tensor(k.data + 1e-5)
        mech(nudged, nudged, nudged)
        assert mech.last_stats.reclustered is False
        assert mech.last_stats.drift > 0.0

    def test_drift_guard_is_per_batch_head_element(self, rng):
        """A loose head must not license staleness for a tight one.

        Element 0 gets well-separated loose clusters (big radii); element 1
        gets tight clusters.  Moving only element 1's keys beyond its own
        radii has to recluster, even though the movement is far below the
        *global* max radius.
        """
        loose = 50.0 * rng.standard_normal((1, 1, 16, 4))
        tight = 1e-3 * rng.standard_normal((1, 1, 16, 4))
        data = np.concatenate([loose, tight], axis=1)  # heads: 0 loose, 1 tight
        mech = GroupAttention(
            n_groups=4, rng=np.random.default_rng(0), recluster_every=10
        )
        k = Tensor(data)
        mech(k, k, k)
        radii = mech.last_stats.radii
        assert radii[0].max() > 10 * radii[1].max()  # geometry as intended
        moved = data.copy()
        moved[:, 1] += 1.0  # tiny vs head 0's radii, huge vs head 1's
        k2 = Tensor(moved)
        mech(k2, k2, k2)
        assert mech.last_stats.reclustered is True

    def test_zero_tolerance_always_reclusters_on_any_movement(self, rng, qkv):
        mech = GroupAttention(
            n_groups=6, rng=np.random.default_rng(0),
            recluster_every=10, drift_tolerance=0.0,
        )
        q, k, v = qkv
        mech(q, k, v)
        nudged = Tensor(k.data + 1e-6)
        mech(nudged, nudged, nudged)
        assert mech.last_stats.reclustered is True


class TestCacheInvalidation:
    def test_n_groups_change_invalidates(self, rng, qkv, monkeypatch):
        calls = _count_kmeans_calls(monkeypatch)
        mech = GroupAttention(
            n_groups=8, rng=np.random.default_rng(0), recluster_every=10
        )
        mech(*qkv)
        mech.n_groups = 5  # what the adaptive scheduler does
        mech(*qkv)
        assert len(calls) == 2
        assert mech.last_stats.n_groups == 5

    def test_scheduler_shrink_invalidates_cache(self, rng, qkv, monkeypatch):
        mech = GroupAttention(
            n_groups=8, rng=np.random.default_rng(0), recluster_every=10
        )
        mech(*qkv)
        assert mech.last_stats.keys is not None
        scheduler = AdaptiveScheduler([mech])
        # Force a merge-everything verdict so N must shrink this step.
        monkeypatch.setattr(
            "repro.scheduler.adaptive.count_mergeable",
            lambda centers, radii, counts, threshold: np.full(centers.shape[0], 6.0),
        )
        scheduler.step()
        assert mech.n_groups < 8
        assert mech.last_stats.keys is None
        # Undo the shrink: the same keys at the same N would be a cache hit,
        # so only the invalidation can make this forward recluster.
        mech.n_groups = 8
        mech(*qkv)
        assert mech.last_stats.reclustered is True
        assert mech.reclusters_total == 2

    def test_train_eval_transition_invalidates(self, rng, qkv, monkeypatch):
        calls = _count_kmeans_calls(monkeypatch)
        mech = GroupAttention(
            n_groups=6, rng=np.random.default_rng(0), recluster_every=10
        )
        mech(*qkv)
        mech.eval()
        mech(*qkv)
        assert len(calls) == 2  # same keys, but mode flipped -> recluster
        mech.train()
        mech(*qkv)
        assert len(calls) == 3

    def test_geometry_change_invalidates(self, rng, qkv, monkeypatch):
        calls = _count_kmeans_calls(monkeypatch)
        mech = GroupAttention(
            n_groups=6, rng=np.random.default_rng(0), recluster_every=10
        )
        mech(*qkv)
        other = Tensor(rng.standard_normal((3, 2, 24, 4)))
        mech(other, other, other)
        assert len(calls) == 2

    def test_dtype_change_invalidates(self, rng, qkv, monkeypatch):
        calls = _count_kmeans_calls(monkeypatch)
        mech = GroupAttention(
            n_groups=6, rng=np.random.default_rng(0), recluster_every=10
        )
        q, k, v = qkv
        mech(q, k, v)
        low = Tensor(k.data.astype(np.float32))
        mech(low, low, low)
        assert len(calls) == 2

    def test_explicit_invalidate(self, rng, qkv, monkeypatch):
        calls = _count_kmeans_calls(monkeypatch)
        mech = GroupAttention(
            n_groups=6, rng=np.random.default_rng(0), recluster_every=10
        )
        mech(*qkv)
        mech.invalidate_group_cache()
        mech(*qkv)
        assert len(calls) == 2
