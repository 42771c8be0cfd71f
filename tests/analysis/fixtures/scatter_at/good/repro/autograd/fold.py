"""Scatter-free folds, plus one scatter whose indices can repeat."""

import numpy as np


def col2im(cols, stride, length):
    batch, taps, width = cols.shape
    out = np.zeros((batch, length), dtype=cols.dtype)
    span = stride * (width - 1) + 1
    for k in range(taps):
        out[:, k : k + span : stride] += cols[:, k]
    return out


def slice_backward(grad, shape):
    buffer = np.zeros(shape, dtype=grad.dtype)
    buffer[1:] += grad
    return buffer


def embedding_backward(grad, shape, rows):
    buffer = np.zeros(shape, dtype=grad.dtype)
    np.add.at(buffer, rows, grad)  # repro: allow[scatter-at] - token rows repeat
    return buffer


def unrelated_at(table, key):
    return table.at(key)  # not a NumPy ufunc
