"""Clustering is outside the rule's scope."""

import numpy as np


def cluster_sums(points, ids, n_clusters):
    sums = np.zeros((n_clusters, points.shape[-1]), dtype=points.dtype)
    np.add.at(sums, ids, points)
    return sums
