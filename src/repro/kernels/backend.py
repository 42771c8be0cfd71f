"""Kernel backend registry and the NumPy reference backend.

A *kernel backend* implements the forward and backward passes of the small
set of numerical kernels the whole compute stack is built from:

* ``softmax`` / ``log_softmax`` — row-wise normalizers;
* ``group_softmax`` — the paper's count-weighted softmax (Eq. 3), fused
  into a single forward and a single hand-written backward;
* ``segment_sum`` / ``segment_gather`` — the embedding-aggregation
  scatter/gather pair of Algorithm 1 (they are adjoint, so each one's
  backward is the other's forward);
* ``segment_mean`` / ``segment_count`` / ``segment_max`` /
  ``kmeans_assign`` — the non-differentiable grouping primitives the
  batched K-means of Sec. 4.4 is built from (Lloyd center updates,
  cluster sizes, Lemma-2 radii, nearest-center assignment);
* ``linear`` — affine map over the last dimension;
* ``layer_norm`` — normalization over the last dimension.

:mod:`repro.kernels.functional` wraps these into autograd nodes; attention
mechanisms and ``nn`` modules call the functional layer, never a backend
directly.  Swapping the active backend therefore changes the execution
strategy of the entire model without touching model code.

Two backends ship: this module's straightforward NumPy *reference*
backend (the semantics oracle the tests gradcheck against) and the
optimized *fused* backend in :mod:`repro.kernels.fused`, which every
process starts on.  :func:`use_backend` switches to the oracle for a
block (the parity tests do).
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from repro.errors import ConfigError, ShapeError

__all__ = [
    "KernelBackend",
    "NumpyReferenceBackend",
    "register_backend",
    "available_backends",
    "get_backend",
    "set_backend",
    "use_backend",
]


def _leading_axes(array: np.ndarray) -> tuple[int, ...]:
    """All axes except the last (parameter-gradient reduction axes)."""
    return tuple(range(array.ndim - 1))


def _flatten_batch(values: np.ndarray) -> tuple[np.ndarray, tuple[int, ...], int]:
    """View ``(..., n, d)`` as ``(batch, n, d)``; returns (view, batch_shape, batch)."""
    batch_shape = values.shape[:-2]
    batch = int(np.prod(batch_shape)) if batch_shape else 1
    return values.reshape(batch, values.shape[-2], values.shape[-1]), batch_shape, batch


class KernelBackend:
    """Interface every kernel backend implements.

    Forward methods return plain ``np.ndarray`` results (plus caches where
    the backward needs saved intermediates); backward methods map an
    incoming gradient to input gradients.  Backends are stateless from the
    caller's perspective — any internal scratch reuse must not leak into
    returned arrays.
    """

    name: str = "abstract"

    # -- softmax family -------------------------------------------------
    def softmax(self, x: np.ndarray, axis: int) -> np.ndarray:
        raise NotImplementedError

    def softmax_backward(self, grad: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
        raise NotImplementedError

    def log_softmax(self, x: np.ndarray, axis: int) -> np.ndarray:
        raise NotImplementedError

    def log_softmax_backward(self, grad: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
        raise NotImplementedError

    def masked_softmax(self, x: np.ndarray, mask: np.ndarray, axis: int) -> np.ndarray:
        """Softmax restricted to positions where ``mask`` is true.

        ``mask`` is boolean, broadcastable to ``x``; masked positions get
        probability exactly 0 (not merely tiny), so downstream products
        with masked operands contribute exact zeros.  Rows with no valid
        position return all zeros instead of NaN.  The backward is the
        plain softmax backward: zero outputs propagate zero gradients.
        """
        raise NotImplementedError

    def group_softmax(
        self,
        scores: np.ndarray,
        counts: np.ndarray,
        query_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Count-weighted softmax ``A_ij = e_ij / sum_k c_k e_ik`` (Eq. 3).

        ``query_mask`` (boolean, broadcastable to ``scores[..., :, 0]``
        shape ``(..., n)``) zeroes whole rows for padded queries; the
        denominator is floored at the dtype's tiny so a row whose groups
        are all empty (every member key padded) yields zeros, not NaN.
        """
        raise NotImplementedError

    def group_softmax_backward(
        self, grad: np.ndarray, attn: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        raise NotImplementedError

    # -- segment scatter/gather -----------------------------------------
    def segment_sum(
        self, values: np.ndarray, segment_ids: np.ndarray, num_segments: int
    ) -> np.ndarray:
        """Sum ``(..., n, d)`` rows into ``(..., N, d)`` segments."""
        raise NotImplementedError

    def segment_gather(self, values: np.ndarray, segment_ids: np.ndarray) -> np.ndarray:
        """Gather ``(..., N, d)`` rows back to ``(..., n, d)`` elements."""
        raise NotImplementedError

    # -- k-means grouping primitives (non-differentiable) -----------------
    def segment_count(self, segment_ids: np.ndarray, num_segments: int) -> np.ndarray:
        """Member count per segment: ``(..., n)`` int ids -> ``(..., N)`` int64."""
        raise NotImplementedError

    def segment_mean(
        self, values: np.ndarray, segment_ids: np.ndarray, num_segments: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-segment mean of ``(..., n, d)`` rows.

        Returns ``((..., N, d) means, (..., N) int64 counts)``; empty
        segments get a zero mean (callers keep their previous centers).
        """
        raise NotImplementedError

    def segment_max(
        self,
        values: np.ndarray,
        segment_ids: np.ndarray,
        num_segments: int,
        initial: float = 0.0,
    ) -> np.ndarray:
        """Per-segment max of scalar ``(..., n)`` values -> ``(..., N)``.

        Every segment starts at ``initial`` (so empty segments return it and
        non-empty ones return ``max(initial, members)``) — the Lemma-2 radii
        convention of :class:`~repro.cluster.kmeans.KMeansResult`.
        """
        raise NotImplementedError

    def kmeans_assign(
        self,
        points: np.ndarray,
        centers: np.ndarray,
        points_sq: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Nearest-center assignment in the paper's matrix-product form.

        ``points``: ``(B, n, d)``; ``centers``: ``(B, N, d)``.  Returns
        ``((B, n) int64 assignments, (B, n) squared member distances >= 0)``.
        The argmin runs over ``|c|^2 - 2 v . c`` — the ``|v|^2`` term is
        constant per point, so it only enters the returned distances
        (``points_sq`` lets callers reuse it across Lloyd iterations).
        """
        raise NotImplementedError

    # -- affine ----------------------------------------------------------
    def linear(
        self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None
    ) -> np.ndarray:
        raise NotImplementedError

    def linear_backward(
        self,
        grad: np.ndarray,
        x: np.ndarray,
        weight: np.ndarray,
        need_bias: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        raise NotImplementedError

    # -- layer norm -------------------------------------------------------
    def layer_norm(
        self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray, eps: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Returns ``(out, xhat, inv_std)``; the caches feed the backward."""
        raise NotImplementedError

    def layer_norm_infer(
        self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray, eps: float
    ) -> np.ndarray:
        """Forward-only layer norm: no caches (the no-grad fast path)."""
        out, _, _ = self.layer_norm(x, weight, bias, eps)
        return out

    def layer_norm_backward(
        self,
        grad: np.ndarray,
        xhat: np.ndarray,
        inv_std: np.ndarray,
        weight: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        raise NotImplementedError


class NumpyReferenceBackend(KernelBackend):
    """Plain-NumPy kernels written for clarity, not speed.

    This is the semantics oracle: the fused backend (and any future one)
    must match it bit-for-tolerance, which ``tests/kernels`` enforces with
    gradchecks and cross-backend parity assertions.
    """

    name = "reference"

    # -- softmax family -------------------------------------------------
    def softmax(self, x: np.ndarray, axis: int) -> np.ndarray:
        shifted = x - x.max(axis=axis, keepdims=True)
        exps = np.exp(shifted)
        return exps / exps.sum(axis=axis, keepdims=True)

    def softmax_backward(self, grad: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
        dot = (grad * out).sum(axis=axis, keepdims=True)
        return out * (grad - dot)

    def log_softmax(self, x: np.ndarray, axis: int) -> np.ndarray:
        shifted = x - x.max(axis=axis, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def log_softmax_backward(self, grad: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
        return grad - np.exp(out) * grad.sum(axis=axis, keepdims=True)

    def masked_softmax(self, x: np.ndarray, mask: np.ndarray, axis: int) -> np.ndarray:
        # Fill masked scores with a large finite negative (finfo.min / 4
        # keeps the shift subtraction overflow-free), then force exact
        # zeros so fully-masked rows divide 0 / tiny instead of producing
        # NaN and masked positions never contribute rounding dust.
        info = np.finfo(x.dtype)
        filled = np.where(mask, x, info.min / 4)
        shifted = filled - filled.max(axis=axis, keepdims=True)
        exps = np.exp(shifted) * mask
        denom = exps.sum(axis=axis, keepdims=True)
        return exps / np.maximum(denom, info.tiny)

    def group_softmax(
        self,
        scores: np.ndarray,
        counts: np.ndarray,
        query_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        shifted = scores - scores.max(axis=-1, keepdims=True)
        exps = np.exp(shifted)
        denom = (exps * counts[..., None, :]).sum(axis=-1, keepdims=True)
        if query_mask is None:
            return exps / denom
        out = exps / np.maximum(denom, np.finfo(scores.dtype).tiny)
        out *= query_mask[..., None]
        return out

    def group_softmax_backward(
        self, grad: np.ndarray, attn: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        # d/ds_il of A_ij = e_ij / sum_k c_k e_ik gives
        # grad_s = A * (g - c * sum_j g_ij A_ij).
        dot = (grad * attn).sum(axis=-1, keepdims=True)
        return attn * (grad - counts[..., None, :] * dot)

    # -- segment scatter/gather -----------------------------------------
    def segment_sum(
        self, values: np.ndarray, segment_ids: np.ndarray, num_segments: int
    ) -> np.ndarray:
        flat, batch_shape, batch = _flatten_batch(values)
        n, d = flat.shape[-2:]
        ids = segment_ids.reshape(batch, n)
        out = np.zeros((batch * num_segments, d), dtype=values.dtype)
        offsets = np.arange(batch, dtype=np.int64)[:, None] * num_segments
        # repro: allow[scatter-at] - the reference backend is the semantics oracle
        np.add.at(out, (ids + offsets).reshape(-1), flat.reshape(-1, d))
        return out.reshape(*batch_shape, num_segments, d)

    def segment_gather(self, values: np.ndarray, segment_ids: np.ndarray) -> np.ndarray:
        flat, batch_shape, batch = _flatten_batch(values)
        num_segments, d = flat.shape[-2:]
        n = segment_ids.shape[-1]
        ids = segment_ids.reshape(batch, n)
        offsets = np.arange(batch, dtype=np.int64)[:, None] * num_segments
        flat_index = (ids + offsets).reshape(-1)
        return flat.reshape(-1, d)[flat_index].reshape(*batch_shape, n, d)

    # -- k-means grouping primitives --------------------------------------
    def segment_count(self, segment_ids: np.ndarray, num_segments: int) -> np.ndarray:
        batch_shape = segment_ids.shape[:-1]
        batch = int(np.prod(batch_shape)) if batch_shape else 1
        n = segment_ids.shape[-1]
        ids = segment_ids.reshape(batch, n)
        offsets = np.arange(batch, dtype=np.int64)[:, None] * num_segments
        counts = np.zeros(batch * num_segments, dtype=np.int64)
        # repro: allow[scatter-at] - the reference backend is the semantics oracle
        np.add.at(counts, (ids + offsets).reshape(-1), 1)
        return counts.reshape(*batch_shape, num_segments)

    def segment_mean(
        self, values: np.ndarray, segment_ids: np.ndarray, num_segments: int
    ) -> tuple[np.ndarray, np.ndarray]:
        sums = self.segment_sum(values, segment_ids, num_segments)
        counts = self.segment_count(segment_ids, num_segments)
        safe = np.maximum(counts, 1).astype(values.dtype)
        return sums / safe[..., None], counts

    def segment_max(
        self,
        values: np.ndarray,
        segment_ids: np.ndarray,
        num_segments: int,
        initial: float = 0.0,
    ) -> np.ndarray:
        batch_shape = segment_ids.shape[:-1]
        batch = int(np.prod(batch_shape)) if batch_shape else 1
        n = segment_ids.shape[-1]
        ids = segment_ids.reshape(batch, n)
        offsets = np.arange(batch, dtype=np.int64)[:, None] * num_segments
        out = np.full(batch * num_segments, initial, dtype=values.dtype)
        # repro: allow[scatter-at] - the reference backend is the semantics oracle
        np.maximum.at(out, (ids + offsets).reshape(-1), values.reshape(-1))
        return out.reshape(*batch_shape, num_segments)

    def kmeans_assign(
        self,
        points: np.ndarray,
        centers: np.ndarray,
        points_sq: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        center_sq = np.einsum("bkd,bkd->bk", centers, centers, optimize=True)
        cross = points @ np.swapaxes(centers, -1, -2)
        # |v - c|^2 minus the per-point constant |v|^2: same argmin, one
        # fewer (B, n, N) broadcast.
        partial = center_sq[:, None, :] - 2.0 * cross
        assignments = partial.argmin(axis=-1)
        if points_sq is None:
            points_sq = np.einsum("bnd,bnd->bn", points, points, optimize=True)
        member_sq = (
            np.take_along_axis(partial, assignments[..., None], axis=-1)[..., 0]
            + points_sq
        )
        np.maximum(member_sq, 0.0, out=member_sq)
        return assignments, member_sq

    # -- affine ----------------------------------------------------------
    def linear(
        self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None
    ) -> np.ndarray:
        out = x @ weight.T
        if bias is not None:
            out = out + bias
        return out

    def linear_backward(
        self,
        grad: np.ndarray,
        x: np.ndarray,
        weight: np.ndarray,
        need_bias: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        grad_x = grad @ weight
        axes = _leading_axes(grad)
        grad_w = np.tensordot(grad, x, axes=(axes, axes))
        grad_b = grad.sum(axis=axes) if need_bias else None
        return grad_x, grad_w, grad_b

    # -- layer norm -------------------------------------------------------
    def layer_norm(
        self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray, eps: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        variance = (centered * centered).mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(variance + eps)
        xhat = centered * inv_std
        return xhat * weight + bias, xhat, inv_std

    def layer_norm_backward(
        self,
        grad: np.ndarray,
        xhat: np.ndarray,
        inv_std: np.ndarray,
        weight: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        grad_xhat = grad * weight
        mean_g = grad_xhat.mean(axis=-1, keepdims=True)
        mean_gx = (grad_xhat * xhat).mean(axis=-1, keepdims=True)
        grad_x = (grad_xhat - mean_g - xhat * mean_gx) * inv_std
        axes = _leading_axes(grad)
        grad_w = (grad * xhat).sum(axis=axes)
        grad_b = grad.sum(axis=axes)
        return grad_x, grad_w, grad_b


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
#: Guards first-use initialization and every registry mutation: two
#: threads hitting ``get_backend()`` before any kernel ran would both
#: see an uninitialized registry and race the imports below.  Reentrant
#: because ``register_backend(activate=True)`` re-enters via
#: ``set_backend`` -> ``_ensure_initialized``.
_REGISTRY_LOCK = threading.RLock()
_BACKENDS: dict[str, KernelBackend] = {}  # repro: allow[mutable-state] - guarded by _REGISTRY_LOCK
_ACTIVE: KernelBackend | None = None


def register_backend(backend: KernelBackend, activate: bool = False) -> KernelBackend:
    """Add ``backend`` to the registry (and optionally make it active)."""
    with _REGISTRY_LOCK:
        _BACKENDS[backend.name] = backend
        if activate:
            set_backend(backend.name)
    return backend


def available_backends() -> list[str]:
    """Registered backend names."""
    _ensure_initialized()
    with _REGISTRY_LOCK:
        return sorted(_BACKENDS)


def _ensure_initialized() -> None:
    global _ACTIVE
    with _REGISTRY_LOCK:
        if _ACTIVE is not None:
            return
        # The import registers the fused backend; deferred to avoid an
        # import cycle.
        from repro.kernels import fused

        register_backend(NumpyReferenceBackend())
        _ACTIVE = _BACKENDS[fused.FusedNumpyBackend.name]


def get_backend(name: str | None = None) -> KernelBackend:
    """The active backend, or a specific registered one by ``name``."""
    _ensure_initialized()
    if name is None:
        assert _ACTIVE is not None
        return _ACTIVE
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ConfigError(
            f"unknown kernel backend {name!r}; available: {sorted(_BACKENDS)}"
        ) from None


def set_backend(name: str) -> str:
    """Make ``name`` the active backend; returns the previous active name."""
    global _ACTIVE
    _ensure_initialized()
    with _REGISTRY_LOCK:
        assert _ACTIVE is not None
        previous = _ACTIVE.name
        _ACTIVE = get_backend(name)
    return previous


@contextlib.contextmanager
def use_backend(name: str):
    """Temporarily activate a backend.

    >>> with use_backend("reference"):
    ...     out = model.classify(x)    # runs on the reference kernels
    """
    previous = set_backend(name)
    try:
        yield get_backend()
    finally:
        set_backend(previous)


def _check_segment_shapes(values_shape, ids_shape, gather: bool) -> None:
    """Shared validation for the functional layer's segment ops."""
    if gather:
        if ids_shape[:-1] != values_shape[:-2]:
            raise ShapeError(
                f"segment_ids batch shape {ids_shape[:-1]} must match "
                f"values batch shape {values_shape[:-2]}"
            )
    elif ids_shape != values_shape[:-1]:
        raise ShapeError(
            f"segment_ids shape {ids_shape} must match values shape {values_shape[:-1]}"
        )
