"""Batched K-means in the paper's GPU-friendly formulation (Sec. 4.4).

The grouping step of group attention clusters the *key* vectors of every
attention head.  Requirements from the paper:

1. tight distance bound — K-means minimizes point-to-center distance;
2. lightweight — a handful of Lloyd iterations, O(n N) per iteration;
3. GPU friendly — distances via ``|v|^2 + |c|^2 - 2 v . c`` so the inner
   loop is one matrix product, not a pairwise difference.

All routines are *batched*: ``points`` has shape ``(B, n, d)`` and every
batch element is clustered independently but in one vectorized pass, which
is how the real system amortizes the grouping over ``batch x heads``.

The Lloyd inner loop runs on the active :mod:`repro.kernels` backend —
``kmeans_assign`` (fused distance+argmin over one ``(B, n, N)`` matrix
product), ``segment_mean`` (``reduceat`` center update), ``segment_count``
and ``segment_max`` — so the grouping step shares the registry and the
reference/fused parity contract with the rest of the compute stack.
``with use_backend("reference")`` oracles the fused path.  Each labelling
is sorted once, into a :class:`~repro.kernels.Segments`: one per Lloyd
iteration, and one for the final labels, which the result carries so that
group attention's key and value sums reuse that sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError
from repro.kernels.backend import Segments, get_backend
from repro.rng import get_rng

__all__ = ["KMeansResult", "batched_kmeans", "pairwise_sq_distances", "kmeans_pp_init"]


@dataclass
class KMeansResult:
    """Outcome of one batched K-means run.

    Attributes
    ----------
    segments:
        The final ``(B, n)`` labelling and its sort.  Unmasked runs label
        into ``N`` segments; masked runs into ``N + 1``, where invalid
        (padded) points carry the sentinel id ``N`` — one past the last
        real cluster — so scatter consumers route them to a discard
        segment and slice it off.
    centers:
        ``(B, N, d)`` cluster centroids.  Empty clusters keep their previous
        (or initial) center.  Masked runs compute centroids from valid
        members only; padded points never contribute.
    counts:
        ``(B, N)`` cluster sizes (valid members only on masked runs).
    radii:
        ``(B, N)`` max distance from any member to its center (0 for empty
        clusters).  This is the ``max_x |x - c_k|`` quantity of Lemma 2.
    inertia:
        ``(B,)`` sum of squared member-to-center distances.
    """

    segments: Segments
    centers: np.ndarray
    counts: np.ndarray
    radii: np.ndarray
    inertia: np.ndarray

    @property
    def assignments(self) -> np.ndarray:
        """``(B, n)`` cluster id of each point (the sentinel ``N`` when padded)."""
        return self.segments.ids

    @property
    def n_clusters(self) -> int:
        return self.centers.shape[1]


def pairwise_sq_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances via ``|v|^2 + |c|^2 - 2 v . c`` (matrix product form).

    ``points``: ``(B, n, d)``; ``centers``: ``(B, N, d)``; returns ``(B, n, N)``.
    This is the formulation of paper Sec. 4.4 — the bottleneck term
    ``v . c`` is a batched matmul rather than a pairwise difference.
    """
    point_sq = np.einsum("bnd,bnd->bn", points, points, optimize=True)[:, :, None]
    center_sq = np.einsum("bkd,bkd->bk", centers, centers, optimize=True)[:, None, :]
    cross = points @ np.swapaxes(centers, -1, -2)
    distances = point_sq + center_sq - 2.0 * cross
    # Round-off can push tiny distances below zero.
    np.maximum(distances, 0.0, out=distances)
    return distances


def kmeans_pp_init(
    points: np.ndarray,
    n_clusters: int,
    rng: np.random.Generator | None = None,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """k-means++ seeding, batched over the leading dimension.

    Returns ``(B, N, d)`` initial centers.  Used when no warm-start centers
    are available (first training iteration of each group-attention layer).
    With a boolean ``(B, n)`` ``mask`` (true = valid), invalid points get
    zero sampling weight, so padded keys are never chosen as seeds; a batch
    element with fewer valid points than clusters repeats valid seeds.
    """
    generator = get_rng(rng)
    batch, n, dim = points.shape
    rows = np.arange(batch)
    # |v|^2 computed once; each round's distance update is then a single
    # batched matvec (|v|^2 + |c|^2 - 2 v . c) instead of materializing a
    # (B, n, d) difference tensor per new center.
    points_sq = np.einsum("bnd,bnd->bn", points, points, optimize=True)
    centers = np.empty((batch, n_clusters, dim), dtype=points.dtype)
    if mask is None:
        first = generator.integers(0, n, size=batch)
    else:
        # Uniform draw among valid points: random keys, invalid set below
        # every valid key.  Draw count is mask-independent, keeping the
        # generator stream aligned across ragged batches of one shape.
        keys = generator.random((batch, n))
        first = np.where(mask, keys, -1.0).argmax(axis=1)
    centers[:, 0] = points[rows, first]
    closest = None
    for k in range(1, n_clusters):
        newest = centers[:, k - 1]
        cross = np.einsum("bnd,bd->bn", points, newest, optimize=True)
        newest_sq = np.einsum("bd,bd->b", newest, newest, optimize=True)
        dist_new = points_sq + newest_sq[:, None] - 2.0 * cross
        np.maximum(dist_new, 0.0, out=dist_new)
        if closest is None:
            closest = dist_new
            if mask is not None:
                closest *= mask
        else:
            np.minimum(closest, dist_new, out=closest)
            if mask is not None:
                closest *= mask
        total = closest.sum(axis=1, keepdims=True)
        # Guard: all (valid) points identical -> sample uniformly, but
        # never over padded positions — a padded seed would smuggle padded
        # values into the centroids.
        if mask is None:
            fallback = 1.0 / n
        else:
            fallback = mask / np.maximum(mask.sum(axis=1, keepdims=True), 1)
        probs = np.where(total > 0, closest / np.maximum(total, 1e-30), fallback)
        cumulative = np.cumsum(probs, axis=1)
        draws = generator.random((batch, 1))
        chosen = (cumulative < draws).sum(axis=1).clip(0, n - 1)
        if mask is not None:
            # Round-off in the cumulative sum can land a draw on a
            # zero-probability (padded) index; snap back to a valid seed.
            chosen = np.where(mask[rows, chosen], chosen, first)
        centers[:, k] = points[rows, chosen]
    return centers


def batched_kmeans(
    points: np.ndarray,
    n_clusters: int,
    n_iters: int = 2,
    init_centers: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    init: str = "random",
    mask: np.ndarray | None = None,
) -> KMeansResult:
    """Run a few Lloyd iterations of K-means on each batch element.

    Parameters
    ----------
    points:
        ``(B, n, d)`` array to cluster (typically key vectors per head).
    n_clusters:
        Number of groups ``N``; clipped to ``n``.
    n_iters:
        Lloyd iterations.  The paper observes a few iterations suffice
        because group attention is robust to imperfect clusterings.
    init_centers:
        Warm-start centers ``(B, N, d)``; overrides ``init``.  Warm starts
        come from the previous training step of the same layer.
    init:
        ``"random"`` (sample N distinct points) or ``"++"`` (k-means++).
    mask:
        Optional boolean ``(B, n)`` validity mask (true = valid point).
        Invalid (padded) points are excluded from seeding, center updates,
        counts, radii, and inertia — they are routed to a discard segment
        ``N`` during the scatter reductions, so centroids are bitwise free
        of padded-point contributions.  Their ``assignments`` entries carry
        the sentinel id ``N``.

    Notes
    -----
    Empty clusters keep their previous centers; their radius is 0 and count
    is 0, so they never violate merge conditions and simply waste capacity
    until the adaptive scheduler shrinks ``N``.

    The inner loop runs entirely on the active kernel backend:
    ``kmeans_assign`` for the fused distance+argmin and ``segment_mean`` /
    ``segment_count`` / ``segment_max`` for the scatter reductions.  Each
    iteration sorts its labels once; the final labels are sorted once more
    and that partition serves the counts, the radii and the caller.
    """
    if points.ndim != 3:
        raise ShapeError(f"batched_kmeans expects (B, n, d) points, got {points.shape}")
    generator = get_rng(rng)
    batch, n, dim = points.shape
    n_clusters = int(min(n_clusters, n))
    if n_clusters < 1:
        raise ShapeError("n_clusters must be >= 1")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (batch, n):
            raise ShapeError(f"mask shape {mask.shape} != {(batch, n)}")
    backend = get_backend()

    if init_centers is not None:
        if init_centers.shape != (batch, n_clusters, dim):
            raise ShapeError(
                f"init_centers shape {init_centers.shape} != {(batch, n_clusters, dim)}"
            )
        centers = init_centers.astype(points.dtype, copy=True)
    elif init == "++":
        centers = kmeans_pp_init(points, n_clusters, rng=generator, mask=mask)
    else:
        # Sample N distinct indices per batch element in one pass.  With a
        # mask, invalid points sort last, so valid points fill the seed
        # slots first.  A batch element with fewer valid points than
        # clusters re-seeds the excess slots from its first valid point
        # instead of from padding — duplicate seeds leave those clusters
        # empty (count 0, radius 0) but keep the returned centers free of
        # padded values, which matters because warm starts feed these
        # centers into future batches.
        keys = generator.random((batch, n))
        if mask is not None:
            keys = np.where(mask, keys, 2.0)
        choice = np.argsort(keys, axis=1)[:, :n_clusters]
        if mask is not None:
            chosen_valid = np.take_along_axis(mask, choice, axis=1)
            choice = np.where(chosen_valid, choice, choice[:, :1])
        centers = np.take_along_axis(points, choice[:, :, None], axis=1).copy()

    # Masked runs scatter into N + 1 segments; segment N is the discard
    # bucket for padded points and is sliced off every reduction.
    sentinel = n_clusters
    n_segments = n_clusters + 1 if mask is not None else n_clusters

    # |v|^2 is constant across Lloyd iterations — compute it once and let
    # the backend skip it inside the argmin entirely.
    points_sq = np.einsum("bnd,bnd->bn", points, points, optimize=True)
    for _ in range(max(n_iters, 1)):
        assignments, _ = backend.kmeans_assign(points, centers, points_sq)
        if mask is not None:
            assignments = np.where(mask, assignments, sentinel)
        means, counts = backend.segment_mean(
            points, Segments.from_ids(assignments, n_segments)
        )
        means, counts = means[:, :n_clusters], counts[:, :n_clusters]
        centers = np.where((counts > 0)[:, :, None], means, centers)

    assignments, member_sq = backend.kmeans_assign(points, centers, points_sq)
    if mask is not None:
        assignments = np.where(mask, assignments, sentinel)
        member_sq = member_sq * mask
    segments = Segments.from_ids(assignments, n_segments)
    counts = backend.segment_count(segments)[:, :n_clusters]
    radii_sq = backend.segment_max(member_sq, segments, initial=0.0)[:, :n_clusters]

    inertia = member_sq.sum(axis=1)
    return KMeansResult(
        segments=segments,
        centers=centers,
        counts=counts,
        radii=np.sqrt(radii_sq),
        inertia=inertia,
    )
