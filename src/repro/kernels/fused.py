"""Optimized fused NumPy backend — the execution backend.

Same semantics as :class:`~repro.kernels.backend.NumpyReferenceBackend`
(enforced by the cross-backend parity tests), but tuned for wall-clock:

* **in-place arithmetic** — softmax/group-softmax/layer-norm reuse the
  arrays they allocate instead of chaining temporaries;
* **single-GEMM affine** — ``linear`` flattens leading dimensions so a
  batched ``(B, n, d)`` input runs one large matrix product instead of a
  loop of small ones;
* **sort + ``reduceat`` segment sum** — the embedding-aggregation kernel
  of Algorithm 1 avoids ``np.add.at`` (whose fancy-index buffering
  dominates the reference backend's runtime) by sorting row indices once
  and reducing contiguous runs.

The backend keeps no state between calls: every array a kernel touches
is either an argument or allocated by that call, so concurrent callers
(serving endpoints run on their callers' threads) share nothing.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.backend import (
    NumpyReferenceBackend,
    _flatten_batch,
    _leading_axes,
)

__all__ = ["FusedNumpyBackend"]


class FusedNumpyBackend(NumpyReferenceBackend):
    """Fused kernels; the backend every process starts on."""

    name = "fused"

    @staticmethod
    def _offsets(batch: int, num_segments: int) -> np.ndarray:
        """``(batch, 1)`` row offsets used to flatten batched ids."""
        return np.arange(batch, dtype=np.int64)[:, None] * num_segments

    def _runs(
        self, segment_ids: np.ndarray, batch: int, num_segments: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stable-sort the flattened ids into one run per non-empty segment.

        Returns ``(order, run_starts, run_segments)``: ``order`` gathers
        the rows segment by segment (stable, so each run keeps its rows in
        input order), ``run_starts`` marks where each run begins in that
        order, and ``run_segments`` is each run's flat output row.
        """
        ids = segment_ids.reshape(batch, segment_ids.shape[-1])
        flat_index = (ids + self._offsets(batch, num_segments)).reshape(-1)
        order = np.argsort(flat_index, kind="stable")
        sorted_ids = flat_index[order]
        run_starts = np.flatnonzero(
            np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1]))
        )
        return order, run_starts, sorted_ids[run_starts]

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
    def segment_sum(
        self, values: np.ndarray, segment_ids: np.ndarray, num_segments: int
    ) -> np.ndarray:
        flat, batch_shape, batch = _flatten_batch(values)
        d = flat.shape[-1]
        order, run_starts, run_segments = self._runs(segment_ids, batch, num_segments)
        staged = np.take(flat.reshape(-1, d), order, axis=0)
        out = np.zeros((batch * num_segments, d), dtype=values.dtype)
        out[run_segments] = np.add.reduceat(staged, run_starts, axis=0)
        return out.reshape(*batch_shape, num_segments, d)

    def segment_gather(self, values: np.ndarray, segment_ids: np.ndarray) -> np.ndarray:
        flat, batch_shape, batch = _flatten_batch(values)
        num_segments, d = flat.shape[-2:]
        n = segment_ids.shape[-1]
        ids = segment_ids.reshape(batch, n)
        flat_index = (ids + self._offsets(batch, num_segments)).reshape(-1)
        out = np.take(flat.reshape(-1, d), flat_index, axis=0)
        return out.reshape(*batch_shape, n, d)

    # -- k-means grouping primitives --------------------------------------
    def segment_count(self, segment_ids: np.ndarray, num_segments: int) -> np.ndarray:
        batch_shape = segment_ids.shape[:-1]
        batch = int(np.prod(batch_shape)) if batch_shape else 1
        n = segment_ids.shape[-1]
        ids = segment_ids.reshape(batch, n)
        flat_index = (ids + self._offsets(batch, num_segments)).reshape(-1)
        counts = np.bincount(flat_index, minlength=batch * num_segments)
        return counts.astype(np.int64, copy=False).reshape(*batch_shape, num_segments)

    def segment_max(
        self,
        values: np.ndarray,
        segment_ids: np.ndarray,
        num_segments: int,
        initial: float = 0.0,
    ) -> np.ndarray:
        batch_shape = segment_ids.shape[:-1]
        batch = int(np.prod(batch_shape)) if batch_shape else 1
        order, run_starts, run_segments = self._runs(segment_ids, batch, num_segments)
        staged = np.take(values.reshape(-1), order)
        maxes = np.maximum.reduceat(staged, run_starts)
        out = np.full(batch * num_segments, initial, dtype=values.dtype)
        out[run_segments] = np.maximum(maxes, initial)
        return out.reshape(*batch_shape, num_segments)

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
