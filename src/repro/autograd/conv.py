"""1-D convolution primitives implemented with im2col/col2im.

RITA's front end is a *time-aware convolution* (paper Sec. 3): ``d``
convolution kernels of width ``w`` slide over an ``n x m`` multivariate
timeseries and emit one ``d``-dimensional window embedding per timestamp.
The imputation/forecasting head inverts this with a transpose convolution
(Sec. A.7.2).  Both are provided here as autograd primitives.

Layouts follow the PyTorch convention:

* ``conv1d``: input ``(B, C_in, L)``, weight ``(C_out, C_in, K)``.
* ``conv_transpose1d``: input ``(B, C_in, L)``, weight ``(C_in, C_out, K)``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.autograd.tensor import Tensor, as_tensor

__all__ = ["conv1d", "conv_transpose1d", "conv1d_output_length"]


def conv1d_output_length(length: int, kernel_size: int, stride: int, padding: int) -> int:
    """Output length of a 1-D convolution (floor convention)."""
    return (length + 2 * padding - kernel_size) // stride + 1


def _im2col(x: np.ndarray, kernel_size: int, stride: int, padding: int) -> np.ndarray:
    """Unfold ``(B, C, L)`` into columns ``(B, C, K, L_out)``."""
    batch, channels, length = x.shape
    out_length = conv1d_output_length(length, kernel_size, stride, padding)
    if out_length <= 0:
        raise ShapeError(
            f"conv1d produced non-positive output length for L={length}, "
            f"K={kernel_size}, stride={stride}, padding={padding}"
        )
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    index = stride * np.arange(out_length)[None, :] + np.arange(kernel_size)[:, None]
    return x[:, :, index]


def _col2im(cols: np.ndarray, stride: int, length: int, padding: int) -> np.ndarray:
    """Fold columns ``(B, C, K, L_out)`` back to ``(B, C, L)``, summing overlaps.

    Tap ``k`` of output column ``t`` lands on padded position
    ``t * stride + k``; within one tap those positions are distinct, so
    each tap is one strided slice-add.  Taps are added in increasing
    ``k``, the order ``np.add.at`` visits them, so the result is bitwise
    the scatter-add's (sign of zero included) at a fraction of its cost.
    """
    batch, channels, kernel_size, out_length = cols.shape
    padded = np.zeros((batch, channels, length + 2 * padding), dtype=cols.dtype)
    span = stride * (out_length - 1) + 1
    for k in range(kernel_size):
        padded[:, :, k : k + span : stride] += cols[:, :, k]
    if padding > 0:
        return padded[:, :, padding:-padding]
    return padded


def conv1d(x, weight, bias=None, stride: int = 1, padding: int = 0) -> Tensor:
    """1-D cross-correlation (the deep-learning "convolution").

    Parameters
    ----------
    x:
        Input tensor ``(B, C_in, L)``.
    weight:
        Kernel tensor ``(C_out, C_in, K)``.
    bias:
        Optional ``(C_out,)`` tensor added to every output position.
    stride, padding:
        Standard convolution hyper-parameters (symmetric zero padding).
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if x.ndim != 3 or weight.ndim != 3:
        raise ShapeError(f"conv1d expects 3-D input/weight, got {x.shape} and {weight.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ShapeError(
            f"conv1d channel mismatch: input has {x.shape[1]}, weight expects {weight.shape[1]}"
        )
    bias_t = as_tensor(bias) if bias is not None else None
    out_channels, in_channels, kernel_size = weight.shape
    batch, _, length = x.shape

    cols = _im2col(x.data, kernel_size, stride, padding)
    out_length = cols.shape[-1]
    # (B, C_in, K, L_out) x (C_out, C_in, K) -> (B, C_out, L_out)
    cols_flat = cols.reshape(batch, in_channels * kernel_size, out_length)
    weight_flat = weight.data.reshape(out_channels, in_channels * kernel_size)
    out_data = np.einsum("ok,bkl->bol", weight_flat, cols_flat, optimize=True)
    if bias_t is not None:
        out_data = out_data + bias_t.data[None, :, None]

    parents = (x, weight) if bias_t is None else (x, weight, bias_t)

    def backward(grad):
        # grad: (B, C_out, L_out)
        grad_weight = np.einsum("bol,bkl->ok", grad, cols_flat, optimize=True)
        grad_weight = grad_weight.reshape(out_channels, in_channels, kernel_size)
        grad_x = None
        if x.requires_grad:  # the front end's input is data: skip its gradient
            grad_cols = np.einsum("ok,bol->bkl", weight_flat, grad, optimize=True)
            grad_cols = grad_cols.reshape(batch, in_channels, kernel_size, out_length)
            grad_x = _col2im(grad_cols, stride, length, padding)
        if bias_t is None:
            return (grad_x, grad_weight)
        grad_bias = grad.sum(axis=(0, 2))
        return (grad_x, grad_weight, grad_bias)

    return Tensor._make(out_data, parents, backward)


def conv_transpose1d(x, weight, bias=None, stride: int = 1, padding: int = 0) -> Tensor:
    """1-D transpose convolution (gradient of ``conv1d`` w.r.t. its input).

    Parameters
    ----------
    x:
        Input tensor ``(B, C_in, L)``.
    weight:
        Kernel tensor ``(C_in, C_out, K)``.
    bias:
        Optional ``(C_out,)``.
    stride, padding:
        Interpreted so that ``conv_transpose1d`` inverts the geometry of a
        ``conv1d`` with the same arguments:
        ``L_out = (L - 1) * stride - 2 * padding + K``.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if x.ndim != 3 or weight.ndim != 3:
        raise ShapeError(
            f"conv_transpose1d expects 3-D input/weight, got {x.shape} and {weight.shape}"
        )
    if x.shape[1] != weight.shape[0]:
        raise ShapeError(
            f"conv_transpose1d channel mismatch: input has {x.shape[1]}, "
            f"weight expects {weight.shape[0]}"
        )
    bias_t = as_tensor(bias) if bias is not None else None
    in_channels, out_channels, kernel_size = weight.shape
    batch, _, length = x.shape
    out_length = (length - 1) * stride - 2 * padding + kernel_size
    if out_length <= 0:
        raise ShapeError(
            f"conv_transpose1d produced non-positive output length for L={length}"
        )

    # Contribution of each input position t to output position t*stride + k.
    index = stride * np.arange(length)[None, :] + np.arange(kernel_size)[:, None]
    # cols: (B, C_out, K, L) = sum_c_in x[b, c_in, t] * w[c_in, c_out, k]
    cols = np.einsum("bit,iok->bokt", x.data, weight.data, optimize=True)
    out_data = _col2im(cols, stride, out_length, padding)
    if bias_t is not None:
        out_data = out_data + bias_t.data[None, :, None]

    parents = (x, weight) if bias_t is None else (x, weight, bias_t)

    def backward(grad):
        # grad: (B, C_out, L_out). Gather back to columns.
        if padding > 0:
            grad_padded = np.pad(grad, ((0, 0), (0, 0), (padding, padding)))
        else:
            grad_padded = grad
        grad_cols = grad_padded[:, :, index]  # (B, C_out, K, L)
        grad_x = np.einsum("bokt,iok->bit", grad_cols, weight.data, optimize=True)
        grad_weight = np.einsum("bokt,bit->iok", grad_cols, x.data, optimize=True)
        if bias_t is None:
            return (grad_x, grad_weight)
        grad_bias = grad.sum(axis=(0, 2))
        return (grad_x, grad_weight, grad_bias)

    return Tensor._make(out_data, parents, backward)
