"""Unsupervised downstream tasks on RITA embeddings (paper A.7.4).

The ``[CLS]`` embedding of a series supports similarity search and
clustering directly; this module provides both plus a tiny brute-force
vector index.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.kmeans import batched_kmeans
from repro.data.dataset import ArrayDataset
from repro.errors import ShapeError
from repro.rng import get_rng

__all__ = ["extract_embeddings", "SimilarityIndex", "cluster_embeddings"]


def extract_embeddings(model, dataset: ArrayDataset, batch_size: int = 32) -> np.ndarray:
    """Series-level embeddings for every row of ``dataset`` (no grad).

    RITA models route through :class:`repro.serve.InferenceEngine`;
    baselines with their own ``embed`` (e.g. TST) are called directly.
    """
    from repro.model.rita import RitaModel
    from repro.serve.engine import InferenceEngine

    if isinstance(model, RitaModel):
        embed = InferenceEngine(model, max_batch_size=batch_size).embed
    else:
        embed = model.embed
    chunks = []
    for start in range(0, len(dataset), batch_size):
        batch = dataset[np.arange(start, min(start + batch_size, len(dataset)))]
        chunks.append(embed(batch["x"]))
    return np.concatenate(chunks)


class SimilarityIndex:
    """Brute-force cosine similarity search over embeddings."""

    def __init__(self, embeddings: np.ndarray) -> None:
        if embeddings.ndim != 2:
            raise ShapeError(f"expected (n, d) embeddings, got {embeddings.shape}")
        norms = np.linalg.norm(embeddings, axis=1, keepdims=True)
        self._normalized = embeddings / np.maximum(norms, 1e-12)

    def __len__(self) -> int:
        return len(self._normalized)

    def search(self, query: np.ndarray, k: int = 5) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` most similar rows; returns ``(indices, similarities)``."""
        query = np.asarray(query, dtype=float).reshape(-1)
        query = query / max(np.linalg.norm(query), 1e-12)
        similarity = self._normalized @ query
        k = min(k, len(similarity))
        top = np.argpartition(-similarity, k - 1)[:k]
        order = top[np.argsort(-similarity[top])]
        return order, similarity[order]


def cluster_embeddings(
    embeddings: np.ndarray,
    n_clusters: int,
    n_iters: int = 25,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """K-means cluster labels for series embeddings."""
    result = batched_kmeans(
        embeddings[None, :, :], n_clusters, n_iters=n_iters, rng=get_rng(rng), init="++"
    )
    return result.assignments[0]
