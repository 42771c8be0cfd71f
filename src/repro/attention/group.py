"""Group attention — the paper's core contribution (Sec. 4, Alg. 1).

The mechanism:

1. cluster the key vectors of every ``(batch, head)`` pair into ``N``
   groups with a few iterations of GPU-style K-means (Sec. 4.4);
2. represent each group by its centroid ``r_j`` and aggregate the value
   vectors per group: ``v~_j = sum_{BELONG_x = j} v_x`` (embedding
   aggregation, Alg. 1 line 3);
3. compute the compressed score matrix ``P~ = Q R^T / sqrt(d_k)`` of shape
   ``(n, N)`` instead of ``(n, n)``;
4. normalize with the *group softmax* (Eq. 3), which counts each group
   ``count_j`` times in the denominator:
   ``A~_ij = exp(P~_ij) / sum_k count_k exp(P~_ik)``;
5. output ``o_i = sum_j A~_ij v~_j``.

When every key coincides with its group representative this output is
*identical* to canonical self-attention (Lemma 3 — tested); in general the
restored attention matrix is within a multiplicative ``eps`` band of the
true one whenever the clustering radius satisfies ``d <= ln(eps)/(2R)``
(Lemma 1).  The Lemma 1 test checks the band on hand-built representatives
with unscaled dot products only; it never runs K-means or this mechanism,
whose scores carry ``1/sqrt(d_k)`` (ROADMAP.md, "Check Lemma 1 through the
real mechanism").

The key sums and value sums reuse the sorted partition K-means returns
(:class:`~repro.kernels.Segments`); a cached partition is not sorted again.

Complexity: O(n N d) time and O(n N) memory versus O(n^2 d)/O(n^2) for
vanilla attention.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.autograd.tensor import Tensor
from repro.attention.base import AttentionMechanism
from repro.cluster.kmeans import KMeansResult, batched_kmeans
from repro.errors import ConfigError
from repro.kernels import functional as kernels
from repro.rng import get_rng

__all__ = ["GroupAttention", "GroupStats", "group_attention_exact_output"]


@dataclass
class GroupStats:
    """One forward's grouping: the partition it used and how it got it.

    The adaptive scheduler (Sec. 5.1) reads ``centers``, ``radii`` and
    ``counts`` to decide how many groups the *next* steps should use; the
    next forward reads the record to reuse its partition or to warm-start
    K-means from its centers.

    Attributes
    ----------
    clustering:
        The K-means partition this forward used: labels with their sort,
        centers, counts and radii (``n_groups``, ``centers``, ``radii`` and
        ``counts`` read through to it).  A cached step points at the
        partition of the forward that computed it.
    training:
        The layer's train/eval mode the partition belongs to.
    key_radius:
        ``R`` of Lemma 1 — the max key-vector norm across the whole input.
    grouping_seconds:
        Wall-clock cost of the grouping step for this forward (K-means on a
        recluster, the drift check on a cache reuse).
    steps_since_recluster:
        Forward passes served by the current partition, 0 on a recluster
        (``reclustered`` reads it).
    drift:
        Max key movement since the cached clustering (the Lemma-1 staleness
        proxy).  On a cached step, the movement the guard accepted; on a
        drift-triggered recluster, the movement that forced it; 0.0 when
        there was no cache to compare against.
    keys, mask:
        The ``(B*H, n, d_k)`` keys and ``(B*H, n)`` validity mask (None =
        dense batch) the partition was computed on.  ``keys`` is None
        unless the partition may be reused (``recluster_every > 1``), so
        the default cadence does not pin the key tensor.
    """

    clustering: KMeansResult
    training: bool
    key_radius: float
    grouping_seconds: float = 0.0
    steps_since_recluster: int = 0
    drift: float = 0.0
    keys: np.ndarray | None = None
    mask: np.ndarray | None = None

    @property
    def n_groups(self) -> int:
        return self.clustering.n_clusters

    @property
    def centers(self) -> np.ndarray:
        return self.clustering.centers

    @property
    def radii(self) -> np.ndarray:
        return self.clustering.radii

    @property
    def counts(self) -> np.ndarray:
        return self.clustering.counts

    @property
    def reclustered(self) -> bool:
        """Whether this forward ran K-means (``False`` = cached partition)."""
        return self.steps_since_recluster == 0


class GroupAttention(AttentionMechanism):
    """Group attention with dynamic K-means grouping of keys.

    Parameters
    ----------
    n_groups:
        Initial number of groups ``N``.  Mutable: the adaptive scheduler
        lowers it during training.
    kmeans_iters:
        Lloyd iterations per forward pass (the paper observes that a few
        suffice; grouping cost must stay within O(nN)).
    rng:
        Generator for K-means initialization.
    recluster_every:
        Recluster cadence: 1 (default) runs K-means on every forward; ``c``
        reuses the cached partition for up to ``c - 1`` intermediate steps
        and only recomputes the differentiable per-group aggregates
        (``segment_sum`` over the *current* keys/values — exact w.r.t.
        autograd, only the partition is stale).  The paper's warm-start
        argument (key embeddings drift slowly between steps) is what makes
        a stale partition tolerable.
    drift_tolerance:
        Staleness guard for cache reuse: an intermediate step reclusters
        early when any ``(batch*head)`` element's max key movement since
        the cached clustering exceeds ``drift_tolerance`` times that
        element's max cluster radius (Lemma-1 style — once keys move on
        the order of the cluster radii the cached partition no longer
        bounds the attention error).
    """

    kind = "group"

    def __init__(
        self,
        n_groups: int = 64,
        kmeans_iters: int = 2,
        rng: np.random.Generator | None = None,
        warm_start: bool = True,
        recluster_every: int = 1,
        drift_tolerance: float = 0.5,
    ) -> None:
        super().__init__()
        if n_groups < 1:
            raise ConfigError("n_groups must be >= 1")
        if recluster_every < 1:
            raise ConfigError("recluster_every must be >= 1")
        if drift_tolerance < 0.0:
            raise ConfigError("drift_tolerance must be >= 0")
        self.n_groups = int(n_groups)
        self.kmeans_iters = int(kmeans_iters)
        #: Reuse the previous step's centroids as the next K-means init.
        #: Embeddings drift slowly between steps, so warm starts let a
        #: couple of Lloyd iterations reach a good grouping — the reason
        #: the paper can cap grouping cost at O(nN) per step.
        self.warm_start = bool(warm_start)
        self.recluster_every = int(recluster_every)
        self.drift_tolerance = float(drift_tolerance)
        self._rng = get_rng(rng)
        #: The latest forward's grouping; the next forward reuses its
        #: partition or warm-starts from its centers.
        self.last_stats: GroupStats | None = None
        #: Cumulative counters (never reset) — the trainer reads per-epoch
        #: deltas so a layer that skips grouping is never double-counted.
        self.grouping_seconds_total = 0.0
        self.reclusters_total = 0
        self.grouping_steps_total = 0

    def _warm_start_centers(
        self, flat_batch: int, n_groups: int, d_k: int
    ) -> np.ndarray | None:
        """Previous centroids adapted to the current ``(B*H, N, d_k)`` geometry.

        The adaptive scheduler shrinks ``n_groups`` between steps; instead
        of discarding the cached centers on the shape mismatch (which
        silently degraded warm starts to cold k-means every step after the
        first shrink), subsample evenly when ``N`` shrank and pad with
        jittered duplicates when it grew.  A change in ``batch*heads`` or
        ``d_k`` means the cache describes different tensors — bail then.
        """
        if not self.warm_start or self.last_stats is None:
            return None
        prev = self.last_stats.centers
        if prev.shape[0] != flat_batch or prev.shape[2] != d_k:
            return None
        cached = prev.shape[1]
        if cached == n_groups:
            return prev
        if cached > n_groups:
            keep = np.linspace(0, cached - 1, num=n_groups).round().astype(np.int64)
            return np.ascontiguousarray(prev[:, keep])
        extra = np.arange(n_groups - cached, dtype=np.int64) % cached
        pad = prev[:, extra].copy()
        # Jitter duplicated centers so Lloyd iterations can separate them.
        scale = 1e-3 * (np.abs(prev).max() or 1.0)
        pad += self._rng.normal(0.0, scale, size=pad.shape).astype(pad.dtype, copy=False)
        return np.concatenate([prev, pad], axis=1)

    def invalidate_group_cache(self) -> None:
        """Make the cached partition unusable; the next forward reclusters.

        Called by the adaptive scheduler when it changes ``n_groups``.  Only
        the keys the reuse check compares against are dropped: warm-start
        *centers* survive (they are resized, not discarded).
        """
        if self.last_stats is not None:
            self.last_stats.keys = None

    def _try_reuse_cache(
        self, keys_flat: np.ndarray, n_groups: int, mask_flat: np.ndarray | None
    ) -> tuple[GroupStats | None, float]:
        """The last forward's grouping if its partition is still valid, plus drift.

        Validity: keys kept (cadence above 1, no invalidation since), same
        ``(B*H, n, d_k)`` geometry and dtype, same ``N``
        (adaptive-scheduler changes invalidate), same train/eval mode,
        same padding mask (a different ragged batch is different data),
        cadence budget left, and key drift within the Lemma-1 guard.  The
        guard is per ``(batch*head)`` element — each element's max key
        movement must stay within ``drift_tolerance`` times *its own* max
        cluster radius, so one loose head cannot license stale partitions
        for the tight ones.  Padded keys are ignored by the drift check:
        they belong to no group, so their movement says nothing about the
        cached partition's quality.
        """
        cache = self.last_stats
        if cache is None or cache.keys is None:
            return None, 0.0
        if (
            cache.keys.shape != keys_flat.shape
            or cache.keys.dtype != keys_flat.dtype
            or cache.n_groups != n_groups
            or cache.training != self.training
            or cache.steps_since_recluster + 1 >= self.recluster_every
        ):
            return None, 0.0
        if (cache.mask is None) != (mask_flat is None) or (
            cache.mask is not None and not np.array_equal(cache.mask, mask_flat)
        ):
            return None, 0.0
        movement = keys_flat - cache.keys
        sq_move = np.einsum("bnd,bnd->bn", movement, movement)
        if mask_flat is not None:
            sq_move = sq_move * mask_flat
        per_elem = np.sqrt(sq_move.max(axis=1))
        drift = float(per_elem.max())
        allowed = self.drift_tolerance * cache.radii.max(axis=1)
        if (per_elem > allowed).any():
            return None, drift
        return cache, drift

    def forward(self, q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None) -> Tensor:
        batch, heads, n, d_k = k.shape
        n_groups = min(self.n_groups, n)

        t0 = time.perf_counter()
        keys_flat = k.data.reshape(batch * heads, n, d_k)
        mask_flat = None
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            # (B, n) -> (B*H, n): every head shares its batch element's mask.
            mask_flat = np.ascontiguousarray(
                np.broadcast_to(mask[:, None, :], (batch, heads, n))
            ).reshape(batch * heads, n)
        cache, drift = self._try_reuse_cache(keys_flat, n_groups, mask_flat)
        if cache is not None:
            clustering = cache.clustering
            kept_keys = cache.keys
            steps_since = cache.steps_since_recluster + 1
        else:
            clustering = batched_kmeans(
                keys_flat, n_groups, n_iters=self.kmeans_iters, rng=self._rng,
                init_centers=self._warm_start_centers(batch * heads, n_groups, d_k),
                mask=mask_flat,
            )
            # Only a reusable partition needs its keys: don't pin them otherwise.
            kept_keys = keys_flat if self.recluster_every > 1 else None
            steps_since = 0
        grouping_seconds = time.perf_counter() - t0
        n_groups = clustering.n_clusters
        if mask is None:
            key_radius = float(np.linalg.norm(keys_flat, axis=-1).max())
        else:
            norms = np.linalg.norm(keys_flat, axis=-1)
            key_radius = float((norms * mask_flat).max())
        # Replace the record before the attention math, so the keys the
        # previous one pinned are freed before the largest temporaries.
        self.last_stats = GroupStats(
            clustering=clustering,
            training=self.training,
            key_radius=key_radius,
            grouping_seconds=grouping_seconds,
            steps_since_recluster=steps_since,
            drift=drift,
            keys=kept_keys,
            mask=mask_flat,
        )
        self.grouping_seconds_total += grouping_seconds
        self.grouping_steps_total += 1
        if steps_since == 0:
            self.reclusters_total += 1

        # The partition's (B*H, n) labels viewed as (B, H, n): the same rows,
        # so its one sort serves both segment sums and their backwards.
        segments = clustering.segments
        segments = replace(segments, ids=segments.ids.reshape(batch, heads, n))
        counts = clustering.counts.reshape(batch, heads, n_groups).astype(k.data.dtype)

        if mask is None:
            # Differentiable group representatives: mean of member keys.
            key_sums = kernels.segment_sum(k, segments)
            v_agg = kernels.segment_sum(v, segments)
        else:
            # Padded keys carry the sentinel id N (see batched_kmeans): the
            # scatter runs over N + 1 segments and the discard row is
            # sliced off, so group sums are bitwise free of padded
            # contributions while segment_sum stays a single exact autograd
            # node (the slice is differentiable; discarded gradients are
            # zero for padded rows by construction).
            key_sums = kernels.segment_sum(k, segments)[..., :n_groups, :]
            v_agg = kernels.segment_sum(v, segments)[..., :n_groups, :]
        safe_counts = np.maximum(counts, 1.0)[..., None]
        representatives = key_sums / safe_counts  # (B, H, N, d_k)

        scores = (q @ representatives.swapaxes(-1, -2)) * (1.0 / math.sqrt(d_k))

        # Group softmax (Eq. 3): exp / count-weight / normalize as ONE fused
        # kernel with a single hand-written backward (max-shift stabilized
        # inside the kernel).  On ragged batches the counts already exclude
        # padded keys; the query mask zeroes padded queries' rows.
        query_mask = None if mask is None else mask[:, None, :]
        attn = kernels.fused_group_softmax(scores, counts, query_mask)  # (B, H, n, N)

        # Embedding aggregation (Alg. 1 line 3) and output (line 11).
        out = attn @ v_agg
        return out

    def memory_kwargs(self) -> dict:
        return {"n_groups": self.n_groups}


def group_attention_exact_output(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    assignments: np.ndarray,
) -> np.ndarray:
    """Reference (non-autograd) group attention for correctness tests.

    Computes the output of Alg. 1 given explicit group ``assignments`` of
    each key, using centroids of member keys as representatives.  Shapes:
    ``q, k``: ``(n, d_k)``; ``v``: ``(n, d_v)``; ``assignments``: ``(n,)``.
    """
    n, d_k = q.shape
    n_groups = int(assignments.max()) + 1
    counts = np.bincount(assignments, minlength=n_groups).astype(np.float64)  # repro: allow[dtype-literal] - f64 test oracle
    reps = np.zeros((n_groups, d_k))
    np.add.at(reps, assignments, k)  # repro: allow[scatter-at] - test oracle
    reps /= np.maximum(counts, 1.0)[:, None]
    v_agg = np.zeros((n_groups, v.shape[-1]))
    np.add.at(v_agg, assignments, v)  # repro: allow[scatter-at] - test oracle

    scores = q @ reps.T / math.sqrt(d_k)
    exp_scores = np.exp(scores - scores.max(axis=-1, keepdims=True))
    denom = (exp_scores * counts[None, :]).sum(axis=-1, keepdims=True)
    return (exp_scores / denom) @ v_agg
