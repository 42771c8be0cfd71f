"""Autograd-level kernel operations.

Each function here is a *single* graph node: the forward runs on the
active :mod:`repro.kernels.backend`, and the backward is one hand-written
closure instead of a chain of small autograd ops.  This is where the
compute stack gets its constant factors back — e.g. the group softmax of
paper Eq. 3 used to be five recorded ops (sub, exp, mul, sum, div); it is
now one node whose backward is a single fused expression.

Every op also has a **no-grad fast path**: when gradients are globally
disabled (``repro.no_grad``) or no input requires grad, the op returns a
bare tensor without building a closure or saving backward caches, so
inference skips graph construction entirely.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _special

from repro.autograd.tensor import Tensor, as_tensor, is_grad_enabled, unbroadcast
from repro.errors import ShapeError
from repro.kernels.backend import Segments, _check_segment_shapes, get_backend
from repro.kernels.policy import ACCUM_DTYPE

__all__ = [
    "softmax",
    "log_softmax",
    "masked_softmax",
    "fused_group_softmax",
    "segment_sum",
    "segment_gather",
    "linear",
    "layer_norm",
    "relu",
    "gelu",
    "cross_entropy",
    "mse",
    "masked_mse",
    "l1",
    "masked_l1",
    "performer_phi",
]

_SQRT_2 = math.sqrt(2.0)
_SQRT_2_PI = math.sqrt(2.0 * math.pi)


def _recording(*tensors: Tensor) -> bool:
    """True when this op must build a graph node."""
    return is_grad_enabled() and any(t.requires_grad for t in tensors)


def _constant(values) -> np.ndarray:
    """Coerce a non-differentiable operand to a plain array."""
    return values.data if isinstance(values, Tensor) else np.asarray(values)


# ----------------------------------------------------------------------
# Softmax family
# ----------------------------------------------------------------------
def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` on the active backend."""
    a = as_tensor(a)
    backend = get_backend()
    out_data = backend.softmax(a.data, axis)
    if not _recording(a):
        return Tensor(out_data)

    def backward(grad):
        return (backend.softmax_backward(grad, out_data, axis),)

    return Tensor._make(out_data, (a,), backward)


def log_softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    a = as_tensor(a)
    backend = get_backend()
    out_data = backend.log_softmax(a.data, axis)
    if not _recording(a):
        return Tensor(out_data)

    def backward(grad):
        return (backend.log_softmax_backward(grad, out_data, axis),)

    return Tensor._make(out_data, (a,), backward)


def masked_softmax(a, mask, axis: int = -1) -> Tensor:
    """Softmax over positions where ``mask`` is true (padding-aware).

    ``mask`` is a boolean array broadcastable to ``a`` and treated as a
    constant.  Masked positions get probability exactly 0, so products
    against padded keys/values contribute exact zeros downstream; rows
    with no valid position return zeros instead of NaN.  The backward is
    the ordinary softmax backward — zero outputs already propagate zero
    gradients to masked scores.
    """
    a = as_tensor(a)
    mask_arr = np.asarray(_constant(mask), dtype=bool)
    try:
        np.broadcast_shapes(mask_arr.shape, a.shape)
    except ValueError:
        raise ShapeError(
            f"mask shape {mask_arr.shape} does not broadcast to scores {a.shape}"
        ) from None
    backend = get_backend()
    out_data = backend.masked_softmax(a.data, mask_arr, axis)
    if not _recording(a):
        return Tensor(out_data)

    def backward(grad):
        return (backend.softmax_backward(grad, out_data, axis),)

    return Tensor._make(out_data, (a,), backward)


def fused_group_softmax(scores, counts, query_mask=None) -> Tensor:
    """The paper's group softmax (Eq. 3) as one fused kernel.

    ``A_ij = exp(s_ij) / sum_k count_k exp(s_ik)`` — each group's
    exponentiated score counts ``count_k`` times in the denominator so the
    compressed ``(n, N)`` score matrix normalizes exactly like the full
    ``(n, n)`` one would.  ``counts`` has shape ``(..., N)`` matching the
    ``(..., n, N)`` scores and is treated as a constant.

    Padding awareness: when the caller's ``counts`` exclude padded keys
    (see :class:`~repro.attention.group.GroupAttention`), the optional
    boolean ``query_mask`` of shape ``(..., n)`` additionally zeroes the
    attention rows of padded queries and floors the denominator so rows
    whose every group is empty yield zeros, not NaN.
    """
    scores = as_tensor(scores)
    counts_arr = _constant(counts)
    expected = scores.shape[:-2] + scores.shape[-1:]
    if counts_arr.shape != expected:
        raise ShapeError(
            f"counts shape {counts_arr.shape} must be {expected} for scores {scores.shape}"
        )
    mask_arr = None
    if query_mask is not None:
        mask_arr = np.asarray(_constant(query_mask), dtype=bool)
        try:
            np.broadcast_shapes(mask_arr.shape, scores.shape[:-1])
        except ValueError:
            raise ShapeError(
                f"query_mask shape {mask_arr.shape} does not broadcast to "
                f"score rows {scores.shape[:-1]}"
            ) from None
    backend = get_backend()
    attn = backend.group_softmax(scores.data, counts_arr, mask_arr)
    if not _recording(scores):
        return Tensor(attn)

    def backward(grad):
        return (backend.group_softmax_backward(grad, attn, counts_arr),)

    return Tensor._make(attn, (scores,), backward)


# ----------------------------------------------------------------------
# Segment scatter/gather (embedding aggregation, Alg. 1 line 3)
# ----------------------------------------------------------------------
def segment_sum(values, segments: Segments) -> Tensor:
    """Sum ``(..., n, d)`` rows into the ``(..., N, d)`` segments of ``segments``.

    The partition is a constant.  The backward is the adjoint
    :func:`segment_gather` of the incoming gradient over the same partition.
    """
    values = as_tensor(values)
    _check_segment_shapes(values.shape, segments, gather=False)
    backend = get_backend()
    out_data = backend.segment_sum(values.data, segments)
    if not _recording(values):
        return Tensor(out_data)

    def backward(grad):
        return (backend.segment_gather(grad, segments),)

    return Tensor._make(out_data, (values,), backward)


def segment_gather(values, segments: Segments) -> Tensor:
    """Gather ``(..., N, d)`` segment rows back to ``(..., n, d)`` elements."""
    values = as_tensor(values)
    _check_segment_shapes(values.shape, segments, gather=True)
    backend = get_backend()
    out_data = backend.segment_gather(values.data, segments)
    if not _recording(values):
        return Tensor(out_data)

    def backward(grad):
        return (backend.segment_sum(grad, segments),)

    return Tensor._make(out_data, (values,), backward)


# ----------------------------------------------------------------------
# Affine / normalization
# ----------------------------------------------------------------------
def linear(x, weight, bias=None) -> Tensor:
    """Fused affine map ``y = x W^T + b`` over the last dimension."""
    x, weight = as_tensor(x), as_tensor(weight)
    bias_t = as_tensor(bias) if bias is not None else None
    backend = get_backend()
    out_data = backend.linear(x.data, weight.data, bias_t.data if bias_t is not None else None)
    parents = (x, weight) if bias_t is None else (x, weight, bias_t)
    if not _recording(*parents):
        return Tensor(out_data)

    def backward(grad):
        grad_x, grad_w, grad_b = backend.linear_backward(
            grad, x.data, weight.data, bias_t is not None
        )
        if bias_t is None:
            return (grad_x, grad_w)
        return (grad_x, grad_w, grad_b)

    return Tensor._make(out_data, parents, backward)


def layer_norm(x, weight, bias, eps: float = 1e-5) -> Tensor:
    """Fused layer normalization over the last dimension."""
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    backend = get_backend()
    if not _recording(x, weight, bias):
        return Tensor(backend.layer_norm_infer(x.data, weight.data, bias.data, eps))
    out_data, xhat, inv_std = backend.layer_norm(x.data, weight.data, bias.data, eps)

    def backward(grad):
        return backend.layer_norm_backward(grad, xhat, inv_std, weight.data)

    return Tensor._make(out_data, (x, weight, bias), backward)


# ----------------------------------------------------------------------
# Activations (backend-agnostic fused nodes)
# ----------------------------------------------------------------------
def relu(a) -> Tensor:
    """Rectified linear unit; the no-grad path skips the mask entirely."""
    a = as_tensor(a)
    if not _recording(a):
        return Tensor(np.maximum(a.data, 0.0))
    mask = a.data > 0
    out_data = np.where(mask, a.data, 0.0)

    def backward(grad):
        return (grad * mask,)

    return Tensor._make(out_data, (a,), backward)


def gelu(a) -> Tensor:
    """Exact (erf-based) Gaussian error linear unit."""
    a = as_tensor(a)
    x = a.data
    cdf = 0.5 * (1.0 + _special.erf(x / _SQRT_2))
    out_data = x * cdf
    if not _recording(a):
        return Tensor(out_data)

    def backward(grad):
        # grad * (cdf + x * pdf) with pdf = exp(-x*x/2) / sqrt(2*pi): the
        # same operations in the same order, in one buffer instead of seven.
        out = np.multiply(x, -0.5)
        out *= x
        np.exp(out, out=out)
        out /= _SQRT_2_PI
        out *= x
        out += cdf
        if out.dtype != grad.dtype:  # mixed precision: promote as grad * out does
            return (grad * out,)
        out *= grad
        return (out,)

    return Tensor._make(out_data, (a,), backward)


# ----------------------------------------------------------------------
# Fused losses
# ----------------------------------------------------------------------
def cross_entropy(logits, targets) -> Tensor:
    """Mean cross entropy between ``(B, C)`` logits and int targets, fused.

    One node replaces the log-softmax / gather / mean chain; the backward
    is the classic ``(softmax - onehot) / B``.
    """
    logits = as_tensor(logits)
    target_idx = np.asarray(_constant(targets)).astype(np.int64)
    backend = get_backend()
    log_probs = backend.log_softmax(logits.data, -1)
    batch = logits.shape[0]
    rows = np.arange(batch)
    loss = -log_probs[rows, target_idx].mean(dtype=ACCUM_DTYPE)
    out_data = np.asarray(loss, dtype=logits.dtype)
    if not _recording(logits):
        return Tensor(out_data)

    def backward(grad):
        grad_logits = np.exp(log_probs)
        grad_logits[rows, target_idx] -= 1.0
        grad_logits *= grad / batch
        return (grad_logits,)

    return Tensor._make(out_data, (logits,), backward)


def mse(prediction, target) -> Tensor:
    """Mean squared error over all elements as a single node."""
    prediction = as_tensor(prediction)
    diff = prediction.data - _constant(target).astype(prediction.dtype, copy=False)
    out_data = np.asarray((diff * diff).mean(dtype=ACCUM_DTYPE), dtype=prediction.dtype)
    if not _recording(prediction):
        return Tensor(out_data)

    def backward(grad):
        return (unbroadcast(grad * (2.0 / diff.size) * diff, prediction.shape),)

    return Tensor._make(out_data, (prediction,), backward)


def masked_mse(prediction, target, mask) -> Tensor:
    """MSE restricted to true positions of ``mask`` (imputation objective)."""
    prediction = as_tensor(prediction)
    mask_arr = np.asarray(_constant(mask), dtype=bool)
    count = int(mask_arr.sum())
    if count == 0:
        raise ShapeError("masked_mse received an empty mask")
    diff = prediction.data - _constant(target).astype(prediction.dtype, copy=False)
    diff = diff * mask_arr
    out_data = np.asarray((diff * diff).sum(dtype=ACCUM_DTYPE) / count, dtype=prediction.dtype)
    if not _recording(prediction):
        return Tensor(out_data)

    def backward(grad):
        return (unbroadcast(grad * (2.0 / count) * diff, prediction.shape),)

    return Tensor._make(out_data, (prediction,), backward)


def masked_l1(prediction, target, mask) -> Tensor:
    """Mean absolute error restricted to true positions of ``mask``.

    The padding-aware sibling of :func:`l1`: ragged batches pass the
    validity mask (optionally ANDed with a task mask) so padded positions
    never enter the mean.
    """
    prediction = as_tensor(prediction)
    mask_arr = np.asarray(_constant(mask), dtype=bool)
    count = int(mask_arr.sum())
    if count == 0:
        raise ShapeError("masked_l1 received an empty mask")
    diff = prediction.data - _constant(target).astype(prediction.dtype, copy=False)
    diff = diff * mask_arr
    out_data = np.asarray(np.abs(diff).sum(dtype=ACCUM_DTYPE) / count, dtype=prediction.dtype)
    if not _recording(prediction):
        return Tensor(out_data)

    def backward(grad):
        return (unbroadcast(grad * np.sign(diff) / count, prediction.shape),)

    return Tensor._make(out_data, (prediction,), backward)


def l1(prediction, target) -> Tensor:
    """Mean absolute error over all elements as a single node."""
    prediction = as_tensor(prediction)
    diff = prediction.data - _constant(target).astype(prediction.dtype, copy=False)
    out_data = np.asarray(np.abs(diff).mean(dtype=ACCUM_DTYPE), dtype=prediction.dtype)
    if not _recording(prediction):
        return Tensor(out_data)

    def backward(grad):
        return (unbroadcast(grad * np.sign(diff) / diff.size, prediction.shape),)

    return Tensor._make(out_data, (prediction,), backward)


# ----------------------------------------------------------------------
# Performer feature map
# ----------------------------------------------------------------------
def performer_phi(x, omega: np.ndarray, mask=None) -> Tensor:
    """FAVOR+ positive random feature map as one fused node.

    ``phi(x) = exp(x . w - |x|^2 / 2 - shift) / sqrt(m)`` with ``omega`` of
    shape ``(m, d)`` treated as a constant and ``shift`` the global max of
    the logits (it cancels in the attention normalizer).  Replaces the
    projection / square-norm / exp chain of ~6 recorded ops.

    ``mask`` (boolean, broadcastable to the ``(..., n)`` row shape) makes
    the map padding-aware: the stabilizing shift is taken over *valid*
    rows only and padded rows come out exactly zero, so padded keys
    contribute exact zeros to the Performer KV/normalizer sums and the
    output is bitwise independent of whatever the padding contains.
    """
    x = as_tensor(x)
    omega = np.asarray(omega)
    m = omega.shape[0]
    mask_arr = None if mask is None else np.asarray(_constant(mask), dtype=bool)
    logits = x.data @ omega.T
    sq_norm = 0.5 * np.einsum("...d,...d->...", x.data, x.data, optimize=True)[..., None]
    logits -= sq_norm
    if mask_arr is None:
        logits -= logits.max()
    else:
        valid = np.broadcast_to(mask_arr[..., None], logits.shape)
        shift = logits.max(initial=-np.inf, where=valid)
        logits -= shift if np.isfinite(shift) else 0.0
        # Neutralize padded rows *before* the exp: their unshifted logits
        # can sit far above the valid max, and exp would overflow to inf
        # (inf * 0 = NaN would then poison the KV sums).  -inf exps to an
        # exact 0 instead.
        logits[~valid] = -np.inf
    np.exp(logits, out=logits)
    logits *= 1.0 / math.sqrt(m)
    out_data = logits
    if not _recording(x):
        return Tensor(out_data)

    def backward(grad):
        grad_logits = grad * out_data
        grad_x = grad_logits @ omega
        grad_x -= x.data * grad_logits.sum(axis=-1, keepdims=True)
        return (grad_x,)

    return Tensor._make(out_data, (x,), backward)
