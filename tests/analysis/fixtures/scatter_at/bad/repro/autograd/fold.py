"""Seeded ufunc.at scatters on the compute path."""

import numpy
import numpy as np


def col2im(cols, index, length):
    out = np.zeros((cols.shape[0], length), dtype=cols.dtype)
    np.add.at(out, (slice(None), index), cols)  # EXPECT[scatter-at]
    return out


def slice_backward(grad, shape):
    buffer = np.zeros(shape, dtype=grad.dtype)
    numpy.add.at(buffer, slice(1, None), grad)  # EXPECT[scatter-at]
    return buffer


def unexplained(grad, shape, rows):
    buffer = np.zeros(shape, dtype=grad.dtype)
    np.add.at(buffer, rows, grad)  # repro: allow[layering] - wrong rule id  # EXPECT[scatter-at]
    return buffer
