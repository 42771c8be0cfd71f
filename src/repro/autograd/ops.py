"""Differentiable operations for :class:`repro.autograd.Tensor`.

Every function takes tensors (or values coercible to tensors), computes the
forward result with NumPy, and registers a backward closure that returns
one gradient array per parent (or ``None`` for non-differentiable parents).

The module also installs the arithmetic dunder methods and a set of
convenience methods onto :class:`Tensor` at import time (see ``_install``),
so user code can write ``(q @ k.T).softmax(-1)`` naturally.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import special as _special

from repro.errors import ShapeError
from repro.autograd.tensor import Tensor, as_tensor, unbroadcast

__all__ = [
    "add", "sub", "mul", "div", "neg", "pow_", "matmul",
    "exp", "log", "sqrt", "tanh", "sigmoid", "relu", "gelu", "abs_",
    "maximum", "clip",
    "sum_", "mean", "var", "max_", "min_",
    "reshape", "swapaxes", "transpose", "broadcast_to", "concat", "stack",
    "getitem", "where", "masked_fill", "dropout", "astype",
    "softmax", "log_softmax",
    "embedding", "batched_segment_sum", "batched_gather",
]


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
def _is_weak_scalar(value) -> bool:
    """Python numbers act as dtype-weak scalars (NumPy NEP 50 style).

    Routing them through :func:`as_tensor` would materialize a
    policy-dtype tensor and promote float32 operands to float64; the
    scalar fast paths below keep the array operand's dtype and skip a
    tensor allocation on the hot path.
    """
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def add(a, b) -> Tensor:
    """Elementwise ``a + b`` with NumPy broadcasting."""
    if _is_weak_scalar(b) and isinstance(a, Tensor):
        def backward(grad):
            return (grad,)

        return Tensor._make(a.data + b, (a,), backward)
    if _is_weak_scalar(a) and isinstance(b, Tensor):
        return add(b, a)
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(grad):
        return (unbroadcast(grad, a.shape), unbroadcast(grad, b.shape))

    return Tensor._make(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    """Elementwise ``a - b``."""
    if _is_weak_scalar(b) and isinstance(a, Tensor):
        def backward(grad):
            return (grad,)

        return Tensor._make(a.data - b, (a,), backward)
    if _is_weak_scalar(a) and isinstance(b, Tensor):
        def backward(grad):
            return (-grad,)

        return Tensor._make(a - b.data, (b,), backward)
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def backward(grad):
        return (unbroadcast(grad, a.shape), unbroadcast(-grad, b.shape))

    return Tensor._make(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    """Elementwise ``a * b``."""
    if _is_weak_scalar(b) and isinstance(a, Tensor):
        def backward(grad):
            return (grad * b,)

        return Tensor._make(a.data * b, (a,), backward)
    if _is_weak_scalar(a) and isinstance(b, Tensor):
        return mul(b, a)
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(grad):
        return (
            unbroadcast(grad * b.data, a.shape),
            unbroadcast(grad * a.data, b.shape),
        )

    return Tensor._make(out_data, (a, b), backward)


def div(a, b) -> Tensor:
    """Elementwise ``a / b``."""
    # b == 0 falls through to the tensor path so division by a zero scalar
    # keeps NumPy inf/nan semantics instead of raising ZeroDivisionError.
    if _is_weak_scalar(b) and b != 0 and isinstance(a, Tensor):
        def backward(grad):
            return (grad / b,)

        return Tensor._make(a.data / b, (a,), backward)
    if _is_weak_scalar(a) and isinstance(b, Tensor):
        def backward(grad):
            return (-grad * a / (b.data * b.data),)

        return Tensor._make(a / b.data, (b,), backward)
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data

    def backward(grad):
        return (
            unbroadcast(grad / b.data, a.shape),
            unbroadcast(-grad * a.data / (b.data * b.data), b.shape),
        )

    return Tensor._make(out_data, (a, b), backward)


def neg(a) -> Tensor:
    """Elementwise negation."""
    a = as_tensor(a)

    def backward(grad):
        return (-grad,)

    return Tensor._make(-a.data, (a,), backward)


def pow_(a, exponent: float) -> Tensor:
    """Elementwise power with a Python-scalar exponent."""
    a = as_tensor(a)
    p = float(exponent)
    out_data = a.data ** p

    def backward(grad):
        return (grad * p * a.data ** (p - 1.0),)

    return Tensor._make(out_data, (a,), backward)


def matmul(a, b) -> Tensor:
    """Matrix product with batch broadcasting (NumPy ``matmul`` rules)."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data @ b.data

    def backward(grad):
        grad_a = grad @ np.swapaxes(b.data, -1, -2)
        grad_b = np.swapaxes(a.data, -1, -2) @ grad
        return (unbroadcast(grad_a, a.shape), unbroadcast(grad_b, b.shape))

    return Tensor._make(out_data, (a, b), backward)


# ----------------------------------------------------------------------
# Pointwise math
# ----------------------------------------------------------------------
def exp(a) -> Tensor:
    """Elementwise exponential."""
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(grad):
        return (grad * out_data,)

    return Tensor._make(out_data, (a,), backward)


def log(a) -> Tensor:
    """Elementwise natural logarithm."""
    a = as_tensor(a)

    def backward(grad):
        return (grad / a.data,)

    return Tensor._make(np.log(a.data), (a,), backward)


def sqrt(a) -> Tensor:
    """Elementwise square root."""
    a = as_tensor(a)
    out_data = np.sqrt(a.data)

    def backward(grad):
        return (grad * 0.5 / out_data,)

    return Tensor._make(out_data, (a,), backward)


def tanh(a) -> Tensor:
    """Elementwise hyperbolic tangent."""
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def backward(grad):
        return (grad * (1.0 - out_data * out_data),)

    return Tensor._make(out_data, (a,), backward)


def sigmoid(a) -> Tensor:
    """Elementwise logistic sigmoid, computed stably."""
    a = as_tensor(a)
    out_data = _special.expit(a.data)

    def backward(grad):
        return (grad * out_data * (1.0 - out_data),)

    return Tensor._make(out_data, (a,), backward)


def relu(a) -> Tensor:
    """Elementwise rectified linear unit (kernel-layer node)."""
    from repro.kernels import functional as kernels

    return kernels.relu(a)


def gelu(a) -> Tensor:
    """Exact (erf-based) Gaussian error linear unit (kernel-layer node)."""
    from repro.kernels import functional as kernels

    return kernels.gelu(a)


def abs_(a) -> Tensor:
    """Elementwise absolute value (subgradient 0 at 0)."""
    a = as_tensor(a)
    sign = np.sign(a.data)

    def backward(grad):
        return (grad * sign,)

    return Tensor._make(np.abs(a.data), (a,), backward)


def maximum(a, b) -> Tensor:
    """Elementwise maximum; ties send the full gradient to ``a``."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.data >= b.data
    out_data = np.where(take_a, a.data, b.data)

    def backward(grad):
        return (
            unbroadcast(grad * take_a, a.shape),
            unbroadcast(grad * ~take_a, b.shape),
        )

    return Tensor._make(out_data, (a, b), backward)


def clip(a, low: float | None, high: float | None) -> Tensor:
    """Clamp values into ``[low, high]``; gradient is zero outside."""
    a = as_tensor(a)
    out_data = np.clip(a.data, low, high)
    inside = np.ones_like(a.data, dtype=bool)
    if low is not None:
        inside &= a.data >= low
    if high is not None:
        inside &= a.data <= high

    def backward(grad):
        return (grad * inside,)

    return Tensor._make(out_data, (a,), backward)


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
def _normalize_axis(axis, ndim: int):
    if axis is None:
        return None
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(ax % ndim for ax in axis)


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    """Sum over ``axis`` (all axes when ``None``)."""
    a = as_tensor(a)
    axes = _normalize_axis(axis, a.ndim)
    out_data = a.data.sum(axis=axes, keepdims=keepdims)

    def backward(grad):
        g = grad
        if axes is not None and not keepdims:
            g = np.expand_dims(g, axis=axes)
        return (np.broadcast_to(g, a.shape).copy(),)

    return Tensor._make(out_data, (a,), backward)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    """Arithmetic mean over ``axis``."""
    a = as_tensor(a)
    axes = _normalize_axis(axis, a.ndim)
    out_data = a.data.mean(axis=axes, keepdims=keepdims)
    if axes is None:
        count = a.data.size
    else:
        count = int(np.prod([a.shape[ax] for ax in axes]))

    def backward(grad):
        g = grad
        if axes is not None and not keepdims:
            g = np.expand_dims(g, axis=axes)
        return (np.broadcast_to(g, a.shape) / count,)

    return Tensor._make(out_data, (a,), backward)


def var(a, axis=None, keepdims: bool = False, ddof: int = 0) -> Tensor:
    """Variance over ``axis`` (composed from differentiable primitives)."""
    a = as_tensor(a)
    centered = sub(a, mean(a, axis=axis, keepdims=True))
    squared = mul(centered, centered)
    axes = _normalize_axis(axis, a.ndim)
    if axes is None:
        count = a.data.size
    else:
        count = int(np.prod([a.shape[ax] for ax in axes]))
    scale = count / max(count - ddof, 1)
    return mul(mean(squared, axis=axis, keepdims=keepdims), scale)


def _extremum(a, axis, keepdims, reducer):
    a = as_tensor(a)
    axes = _normalize_axis(axis, a.ndim)
    out_data = reducer(a.data, axis=axes, keepdims=keepdims)

    def backward(grad):
        g = grad
        extreme = out_data
        if axes is not None and not keepdims:
            g = np.expand_dims(g, axis=axes)
            extreme = np.expand_dims(extreme, axis=axes)
        mask = a.data == extreme
        counts = mask.sum(axis=axes, keepdims=True) if axes is not None else mask.sum()
        # Tie counts are int64; cast them so a float32 gradient stays float32.
        return (g * mask / counts.astype(g.dtype),)

    return Tensor._make(out_data, (a,), backward)


def max_(a, axis=None, keepdims: bool = False) -> Tensor:
    """Maximum over ``axis``; gradient splits evenly across ties."""
    return _extremum(a, axis, keepdims, np.max)


def min_(a, axis=None, keepdims: bool = False) -> Tensor:
    """Minimum over ``axis``; gradient splits evenly across ties."""
    return _extremum(a, axis, keepdims, np.min)


# ----------------------------------------------------------------------
# Shape manipulation
# ----------------------------------------------------------------------
def reshape(a, *shape) -> Tensor:
    """Reshape preserving element order."""
    a = as_tensor(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    original = a.shape

    def backward(grad):
        return (grad.reshape(original),)

    return Tensor._make(a.data.reshape(shape), (a,), backward)


def swapaxes(a, axis1: int, axis2: int) -> Tensor:
    """Exchange two axes."""
    a = as_tensor(a)

    def backward(grad):
        return (np.swapaxes(grad, axis1, axis2),)

    return Tensor._make(np.swapaxes(a.data, axis1, axis2), (a,), backward)


def transpose(a, axes: Sequence[int]) -> Tensor:
    """General axis permutation."""
    a = as_tensor(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def backward(grad):
        return (grad.transpose(inverse),)

    return Tensor._make(a.data.transpose(axes), (a,), backward)


def broadcast_to(a, shape: Sequence[int]) -> Tensor:
    """Broadcast ``a`` up to ``shape`` (gradient sums back down)."""
    a = as_tensor(a)
    shape = tuple(shape)
    original = a.shape

    def backward(grad):
        return (unbroadcast(grad, original),)

    return Tensor._make(np.broadcast_to(a.data, shape).copy(), (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat() requires at least one tensor")
    sizes = [t.shape[axis] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    boundaries = np.cumsum(sizes)[:-1]

    def backward(grad):
        return tuple(np.split(grad, boundaries, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        slices = np.moveaxis(grad, axis, 0)
        return tuple(slices[i] for i in range(len(tensors)))

    return Tensor._make(out_data, tuple(tensors), backward)


def _is_basic_index(index) -> bool:
    """True when ``index`` is only ints, slices, ``None`` and ``Ellipsis``.

    Such an index selects a view in which no element appears twice.
    (``bool`` is an ``int`` subclass but indexes as a mask, so it is out.)
    """
    parts = index if isinstance(index, tuple) else (index,)
    return all(
        part is None
        or part is Ellipsis
        or isinstance(part, slice)
        or (isinstance(part, (int, np.integer)) and not isinstance(part, bool))
        for part in parts
    )


def getitem(a, index) -> Tensor:
    """NumPy-style indexing; the backward adds the gradient back in place.

    A basic index selects each element at most once, so its backward is a
    slice-add into a zero buffer.  Integer-array and mask indices go
    through ``np.add.at``, which accumulates repeated positions.
    """
    a = as_tensor(a)
    out_data = a.data[index]
    original_shape = a.shape
    dtype = a.data.dtype

    def backward(grad):
        buffer = np.zeros(original_shape, dtype=dtype)
        if _is_basic_index(index):
            buffer[index] += grad
        else:
            # repro: allow[scatter-at] - integer-array indices can repeat
            np.add.at(buffer, index, grad)
        return (buffer,)

    return Tensor._make(out_data, (a,), backward)


def where(condition, a, b) -> Tensor:
    """Elementwise select: ``condition ? a : b``.

    ``condition`` is treated as a constant (no gradient flows to it).
    """
    cond = condition.data if isinstance(condition, Tensor) else np.asarray(condition)
    cond = cond.astype(bool)
    a, b = as_tensor(a), as_tensor(b)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad):
        return (
            unbroadcast(grad * cond, a.shape),
            unbroadcast(grad * ~cond, b.shape),
        )

    return Tensor._make(out_data, (a, b), backward)


def masked_fill(a, mask, value: float) -> Tensor:
    """Replace positions where ``mask`` is true by a constant ``value``."""
    a = as_tensor(a)
    mask_arr = mask.data.astype(bool) if isinstance(mask, Tensor) else np.asarray(mask, dtype=bool)
    out_data = np.where(mask_arr, value, a.data)

    def backward(grad):
        return (grad * ~mask_arr,)

    return Tensor._make(out_data, (a,), backward)


def dropout(a, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: zero with probability ``p``, scale kept by 1/(1-p)."""
    a = as_tensor(a)
    if not training or p <= 0.0:
        return a
    if p >= 1.0:
        raise ShapeError("dropout probability must be < 1")
    keep = rng.random(a.shape) >= p
    scale = 1.0 / (1.0 - p)
    out_data = a.data * keep * scale

    def backward(grad):
        return (grad * keep * scale,)

    return Tensor._make(out_data, (a,), backward)


# ----------------------------------------------------------------------
# Dtype cast
# ----------------------------------------------------------------------
def astype(a, dtype) -> Tensor:
    """Differentiable dtype cast; the gradient is cast back on the way in."""
    a = as_tensor(a)
    target = np.dtype(dtype)
    if a.data.dtype == target:
        return a
    original = a.data.dtype

    def backward(grad):
        return (grad.astype(original),)

    return Tensor._make(a.data.astype(target), (a,), backward)


# ----------------------------------------------------------------------
# Softmax family (routed through the kernel layer)
# ----------------------------------------------------------------------
def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (kernel-layer dispatch)."""
    from repro.kernels import functional as kernels

    return kernels.softmax(a, axis=axis)


def log_softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis`` (kernel-layer dispatch)."""
    from repro.kernels import functional as kernels

    return kernels.log_softmax(a, axis=axis)


# ----------------------------------------------------------------------
# Gather / scatter primitives (used heavily by group attention)
# ----------------------------------------------------------------------
def embedding(weight, indices) -> Tensor:
    """Row lookup ``weight[indices]`` with scatter-add backward.

    ``indices`` is an integer array (not differentiated).
    """
    weight = as_tensor(weight)
    idx = np.asarray(indices.data if isinstance(indices, Tensor) else indices)
    idx = idx.astype(np.int64)
    out_data = weight.data[idx]
    vocab_shape = weight.shape
    dtype = weight.data.dtype

    def backward(grad):
        buffer = np.zeros(vocab_shape, dtype=dtype)
        # repro: allow[scatter-at] - token indices repeat
        np.add.at(buffer, idx.reshape(-1), grad.reshape(-1, vocab_shape[-1]))
        return (buffer,)

    return Tensor._make(out_data, (weight,), backward)


def batched_segment_sum(values, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum ``values`` rows into segments, independently per batch element.

    Parameters
    ----------
    values:
        Tensor of shape ``(..., n, d)``.
    segment_ids:
        Integer array of shape ``(..., n)`` with entries in
        ``[0, num_segments)``; treated as a constant.
    num_segments:
        Number of output segments ``N``.

    Returns
    -------
    Tensor of shape ``(..., num_segments, d)`` where output row ``j`` is the
    sum of input rows assigned to segment ``j``.

    This is the *embedding aggregation* primitive of the paper's Algorithm 1
    (line 3): aggregating value vectors per group costs O(n d) instead of a
    dense O(n N d) one-hot matmul.  Dispatches to the active kernel backend
    (see :mod:`repro.kernels`).
    """
    from repro.kernels import functional as kernels

    return kernels.segment_sum(values, segment_ids, num_segments)


def batched_gather(values, segment_ids: np.ndarray) -> Tensor:
    """Gather segment rows back to elements, per batch element.

    Inverse access pattern of :func:`batched_segment_sum`: given ``values``
    of shape ``(..., N, d)`` and ``segment_ids`` of shape ``(..., n)``,
    returns ``(..., n, d)`` with row ``i`` equal to ``values[..., ids[i], :]``.
    Dispatches to the active kernel backend (see :mod:`repro.kernels`).
    """
    from repro.kernels import functional as kernels

    return kernels.segment_gather(values, segment_ids)


# ----------------------------------------------------------------------
# Dunder / method installation
# ----------------------------------------------------------------------
def _install() -> None:
    """Attach operators and convenience methods to :class:`Tensor`."""
    Tensor.__add__ = lambda self, other: add(self, other)
    Tensor.__radd__ = lambda self, other: add(other, self)
    Tensor.__sub__ = lambda self, other: sub(self, other)
    Tensor.__rsub__ = lambda self, other: sub(other, self)
    Tensor.__mul__ = lambda self, other: mul(self, other)
    Tensor.__rmul__ = lambda self, other: mul(other, self)
    Tensor.__truediv__ = lambda self, other: div(self, other)
    Tensor.__rtruediv__ = lambda self, other: div(other, self)
    Tensor.__neg__ = lambda self: neg(self)
    Tensor.__pow__ = lambda self, exponent: pow_(self, exponent)
    Tensor.__matmul__ = lambda self, other: matmul(self, other)
    Tensor.__getitem__ = lambda self, index: getitem(self, index)

    Tensor.exp = exp
    Tensor.log = log
    Tensor.sqrt = sqrt
    Tensor.tanh = tanh
    Tensor.sigmoid = sigmoid
    Tensor.relu = relu
    Tensor.gelu = gelu
    Tensor.abs = abs_
    Tensor.sum = sum_
    Tensor.mean = mean
    Tensor.var = var
    Tensor.max = max_
    Tensor.min = min_
    Tensor.reshape = reshape
    Tensor.swapaxes = swapaxes
    Tensor.transpose = transpose
    Tensor.broadcast_to = broadcast_to
    Tensor.softmax = softmax
    Tensor.log_softmax = log_softmax
    Tensor.clip = clip
    Tensor.astype = astype


_install()
