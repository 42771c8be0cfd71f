"""Seeded ufunc.at reductions in a kernel module."""

import numpy as np


def segment_max(values, ids, num_segments):
    out = np.full(num_segments, -np.inf, dtype=values.dtype)
    np.maximum.at(out, ids, values)  # EXPECT[scatter-at]
    return out
