"""Optimized fused NumPy backend — the execution backend.

Same semantics as :class:`~repro.kernels.backend.NumpyReferenceBackend`
(enforced by the cross-backend parity tests), but tuned for wall-clock:

* **in-place arithmetic** — softmax/group-softmax/layer-norm reuse the
  arrays they allocate instead of chaining temporaries;
* **single-GEMM affine** — ``linear`` flattens leading dimensions so a
  batched ``(B, n, d)`` input runs one large matrix product instead of a
  loop of small ones;
* **``reduceat`` over sorted runs** — the segment reductions (the
  embedding aggregation of Algorithm 1, K-means center updates and
  radii) avoid ``np.add.at`` (whose fancy-index buffering dominates the
  reference backend's runtime) by reducing the contiguous runs of the
  :class:`~repro.kernels.backend.Segments` they are handed.  The sort
  lives in that partition, built once per labelling, so no kernel here
  sorts.

The backend keeps no state between calls: every array a kernel touches
is either an argument or allocated by that call, so concurrent callers
(serving endpoints run on their callers' threads) share nothing.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.backend import NumpyReferenceBackend, Segments, _leading_axes

__all__ = ["FusedNumpyBackend"]


class FusedNumpyBackend(NumpyReferenceBackend):
    """Fused kernels; the backend every process starts on."""

    name = "fused"

    # -- softmax family ---------------------------------------------------
    def softmax(self, x: np.ndarray, axis: int) -> np.ndarray:
        out = x - x.max(axis=axis, keepdims=True)
        np.exp(out, out=out)
        out /= out.sum(axis=axis, keepdims=True)
        return out

    def softmax_backward(self, grad: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
        result = grad * out
        dot = result.sum(axis=axis, keepdims=True)
        result -= out * dot
        return result

    def log_softmax(self, x: np.ndarray, axis: int) -> np.ndarray:
        out = x - x.max(axis=axis, keepdims=True)
        norm = np.exp(out).sum(axis=axis, keepdims=True)
        out -= np.log(norm)
        return out

    def log_softmax_backward(self, grad: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
        result = np.exp(out)
        result *= grad.sum(axis=axis, keepdims=True)
        np.subtract(grad, result, out=result)
        return result

    def masked_softmax(self, x: np.ndarray, mask: np.ndarray, axis: int) -> np.ndarray:
        info = np.finfo(x.dtype)
        out = np.where(mask, x, info.min / 4)
        out -= out.max(axis=axis, keepdims=True)
        np.exp(out, out=out)
        out *= mask
        denom = out.sum(axis=axis, keepdims=True)
        np.maximum(denom, info.tiny, out=denom)
        out /= denom
        return out

    def group_softmax(
        self,
        scores: np.ndarray,
        counts: np.ndarray,
        query_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        # exp / count-weight / normalize in one pass: the denominator is an
        # einsum against counts, so no (n, N) weighted temporary is built.
        out = scores - scores.max(axis=-1, keepdims=True)
        np.exp(out, out=out)
        denom = np.einsum("...nk,...k->...n", out, counts, optimize=True)
        if query_mask is None:
            out /= denom[..., None]
            return out
        np.maximum(denom, np.finfo(scores.dtype).tiny, out=denom)
        out /= denom[..., None]
        out *= query_mask[..., None]
        return out

    def group_softmax_backward(
        self, grad: np.ndarray, attn: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        result = grad * attn
        dot = result.sum(axis=-1, keepdims=True)
        result -= attn * (counts[..., None, :] * dot)
        return result

    # -- segment scatter/gather -------------------------------------------
    def segment_sum(self, values: np.ndarray, segments: Segments) -> np.ndarray:
        d = values.shape[-1]
        staged = np.take(values.reshape(-1, d), segments.order, axis=0)
        out = np.zeros((segments.size, d), dtype=values.dtype)
        out[segments.run_segments] = np.add.reduceat(staged, segments.run_starts, axis=0)
        return segments.unflatten(out)

    def segment_gather(self, values: np.ndarray, segments: Segments) -> np.ndarray:
        d = values.shape[-1]
        out = np.take(values.reshape(-1, d), segments.slots(), axis=0)
        return out.reshape(*segments.ids.shape, d)

    # -- k-means grouping primitives --------------------------------------
    def segment_count(self, segments: Segments) -> np.ndarray:
        counts = np.zeros(segments.size, dtype=np.int64)
        counts[segments.run_segments] = np.diff(segments.run_starts, append=segments.order.size)
        return segments.unflatten(counts)

    def segment_max(
        self, values: np.ndarray, segments: Segments, initial: float = 0.0
    ) -> np.ndarray:
        staged = np.take(values.reshape(-1), segments.order)
        maxes = np.maximum.reduceat(staged, segments.run_starts)
        out = np.full(segments.size, initial, dtype=values.dtype)
        out[segments.run_segments] = np.maximum(maxes, initial)
        return segments.unflatten(out)

    def kmeans_assign(
        self,
        points: np.ndarray,
        centers: np.ndarray,
        points_sq: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        # The (B, n, N) matmul output absorbs the scale/shift in place.
        # |v|^2 is skipped entirely for the argmin (constant per point)
        # and only added back for the returned member distances.
        buffer = np.matmul(points, np.swapaxes(centers, -1, -2))
        buffer *= -2.0
        center_sq = np.einsum("bkd,bkd->bk", centers, centers, optimize=True)
        buffer += center_sq[:, None, :]
        assignments = buffer.argmin(axis=-1)
        if points_sq is None:
            points_sq = np.einsum("bnd,bnd->bn", points, points, optimize=True)
        member_sq = (
            np.take_along_axis(buffer, assignments[..., None], axis=-1)[..., 0]
            + points_sq
        )
        np.maximum(member_sq, 0.0, out=member_sq)
        return assignments, member_sq

    # -- affine -------------------------------------------------------------
    def linear(
        self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None
    ) -> np.ndarray:
        out_features, in_features = weight.shape
        out = x.reshape(-1, in_features) @ weight.T
        if bias is not None:
            out += bias
        return out.reshape(*x.shape[:-1], out_features)

    def linear_backward(
        self,
        grad: np.ndarray,
        x: np.ndarray,
        weight: np.ndarray,
        need_bias: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        out_features, in_features = weight.shape
        grad2 = grad.reshape(-1, out_features)
        grad_x = (grad2 @ weight).reshape(x.shape)
        grad_w = grad2.T @ x.reshape(-1, in_features)
        grad_b = grad2.sum(axis=0) if need_bias else None
        return grad_x, grad_w, grad_b

    # -- layer norm ----------------------------------------------------------
    def layer_norm(
        self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray, eps: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        d = x.shape[-1]
        xhat = x - x.mean(axis=-1, keepdims=True)
        variance = np.einsum("...d,...d->...", xhat, xhat, optimize=True)[..., None] / d
        inv_std = 1.0 / np.sqrt(variance + eps)
        xhat *= inv_std
        out = xhat * weight
        out += bias
        return out, xhat, inv_std

    def layer_norm_infer(
        self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray, eps: float
    ) -> np.ndarray:
        d = x.shape[-1]
        out = x - x.mean(axis=-1, keepdims=True)
        variance = np.einsum("...d,...d->...", out, out, optimize=True)[..., None] / d
        out *= 1.0 / np.sqrt(variance + eps)
        out *= weight
        out += bias
        return out

    def layer_norm_backward(
        self,
        grad: np.ndarray,
        xhat: np.ndarray,
        inv_std: np.ndarray,
        weight: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        grad_x = self._layer_norm_grad_x(grad, xhat, inv_std, weight)
        axes = _leading_axes(grad)
        grad_w = (grad * xhat).sum(axis=axes)
        grad_b = grad.sum(axis=axes)
        return grad_x, grad_w, grad_b

    @staticmethod
    def _layer_norm_grad_x(
        grad: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray, weight: np.ndarray
    ) -> np.ndarray:
        """Layer norm's input gradient; each row depends only on its own row."""
        grad_xhat = grad * weight
        mean_g = grad_xhat.mean(axis=-1, keepdims=True)
        mean_gx = (grad_xhat * xhat).mean(axis=-1, keepdims=True)
        grad_xhat -= mean_g
        grad_xhat -= xhat * mean_gx
        grad_xhat *= inv_std
        return grad_xhat


from repro.kernels import backend as _backend_module

_backend_module.register_backend(FusedNumpyBackend())
