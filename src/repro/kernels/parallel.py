"""Multicore dispatch: the ``parallel`` kernel backend.

Everything in the fused backend is single-threaded NumPy, which leaves
N-1 cores idle on a multicore host.  The kernels' hot loops hold no
GIL-bound Python — they are single BLAS/ufunc calls that release the GIL
— so batch-sharding them across a thread pool is a real win: this module
registers a third backend, ``parallel``, that splits the leading batch
dimension of every hot kernel into contiguous shards, runs each shard on
the **fused** backend inside a shared :class:`ThreadPoolExecutor`, and
writes results into a preallocated output.  Because it is a registered
backend behind the same :class:`~repro.kernels.backend.KernelBackend`
interface, every attention mechanism, ``nn`` layer, the grouping engine
and the serve stack inherit multicore execution with zero call-site
changes::

    with repro.kernels.use_backend("parallel"), repro.kernels.threads_scope(4):
        model.classify(batch)          # kernels shard across 4 workers

Dispatch policy (:mod:`repro.kernels.threads`): worker count from
``RITA_NUM_THREADS`` / :func:`threads_scope`, and a size heuristic that
keeps small inputs on the serial fused path so thread handoff overhead
never regresses them.

Determinism contract: shard-local math is *identical* to the fused
kernels, and sharding never splits a reduction row — softmax rows,
segment batch elements, K-means batch entries land whole inside one
shard — so those kernels match the fused backend **bitwise**.  The two
exceptions are GEMM-backed ops: ``linear``'s forward / input-gradient
products run BLAS on a row shard, and BLAS may pick a different internal
blocking for a different row count, so equality there is to rounding
(~1e-7 relative in float32), not bitwise.  Weight/bias *gradient*
reductions (``linear_backward``'s ``grad_w``/``grad_b``, layer norm's
parameter grads) deliberately stay serial over the full batch so
optimizer updates reduce in the fused order.

Nested dispatch is safe: a kernel called *on* a pool worker executes
serially instead of re-submitting, so the pool cannot deadlock on itself
and cores are never oversubscribed.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.kernels.fused import FusedNumpyBackend
from repro.kernels.threads import get_num_threads, get_parallel_threshold

__all__ = ["ParallelNumpyBackend", "run_jobs", "in_worker"]


# ----------------------------------------------------------------------
# Shared worker pool
# ----------------------------------------------------------------------
_POOL_LOCK = threading.Lock()
_EXECUTOR: ThreadPoolExecutor | None = None
_EXECUTOR_WORKERS = 0
_WORKER_FLAG = threading.local()


def _mark_worker() -> None:
    _WORKER_FLAG.active = True


def in_worker() -> bool:
    """True on a kernel-pool worker thread (nested dispatch runs serial)."""
    return getattr(_WORKER_FLAG, "active", False)


def _get_executor(workers: int) -> ThreadPoolExecutor:
    """The shared pool, recreated when the thread policy changes size."""
    global _EXECUTOR, _EXECUTOR_WORKERS
    with _POOL_LOCK:
        if _EXECUTOR is None or _EXECUTOR_WORKERS != workers:
            if _EXECUTOR is not None:
                _EXECUTOR.shutdown(wait=True)
            _EXECUTOR = ThreadPoolExecutor(
                max_workers=workers,
                thread_name_prefix="rita-kernel",
                initializer=_mark_worker,
            )
            _EXECUTOR_WORKERS = workers
        return _EXECUTOR


def run_jobs(jobs) -> list:
    """Run callables on the shared kernel pool; returns their results in order.

    Falls back to inline serial execution when called from a pool worker
    (deadlock guard), when the thread policy is 1, or for a single job.
    The first failing job's exception propagates; later jobs still run
    to completion on the pool.
    """
    jobs = list(jobs)
    if in_worker() or get_num_threads() <= 1 or len(jobs) <= 1:
        return [job() for job in jobs]
    executor = _get_executor(get_num_threads())
    futures = [executor.submit(job) for job in jobs]
    return [future.result() for future in futures]


def _shard_ranges(total: int, shards: int) -> list[tuple[int, int]]:
    """``shards`` contiguous, load-balanced ``[start, stop)`` ranges."""
    base, extra = divmod(total, shards)
    ranges = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


class ParallelNumpyBackend(FusedNumpyBackend):
    """Batch-sharded fused kernels over the shared thread pool."""

    name = "parallel"

    def __init__(self) -> None:
        super().__init__()
        self._stats_lock = threading.Lock()
        #: Kernel calls that reached the dispatch decision.
        self.calls_total = 0
        #: Calls that actually sharded (vs the serial fast path).
        self.sharded_calls_total = 0
        #: Shards executed across all sharded calls.
        self.shards_total = 0

    # -- dispatch policy --------------------------------------------------
    def _plan(self, work_items: int, total_elements: int) -> list[tuple[int, int]] | None:
        """Shard ranges over a leading dimension, or ``None`` for serial.

        Serial when: one worker configured, nothing to split, running on
        a pool worker already (nested dispatch), or the call is below the
        size threshold (thread handoff would cost more than it saves).
        """
        threads = get_num_threads()
        with self._stats_lock:
            self.calls_total += 1
        if (
            threads <= 1
            or work_items < 2
            or in_worker()
            or total_elements < get_parallel_threshold()
        ):
            return None
        plan = _shard_ranges(work_items, min(threads, work_items))
        with self._stats_lock:
            self.sharded_calls_total += 1
            self.shards_total += len(plan)
        return plan

    def snapshot(self) -> dict[str, int]:
        """Cumulative dispatch counters (callers charge deltas)."""
        with self._stats_lock:
            return {
                "kernel_calls": self.calls_total,
                "sharded_calls": self.sharded_calls_total,
                "shards": self.shards_total,
            }

    def reset_stats(self) -> None:
        with self._stats_lock:
            self.calls_total = 0
            self.sharded_calls_total = 0
            self.shards_total = 0

    # -- softmax family (row-wise over the last axis) ---------------------
    def _rowwise_plan(self, x: np.ndarray, axis: int):
        """Plan + ``(rows, d)`` view for ops normalizing over the last axis."""
        if x.ndim < 2 or axis not in (-1, x.ndim - 1):
            return None, None
        rows = x.size // x.shape[-1] if x.size else 0
        plan = self._plan(rows, x.size)
        if plan is None:
            return None, None
        return plan, x.reshape(rows, x.shape[-1])

    def softmax(self, x: np.ndarray, axis: int) -> np.ndarray:
        serial = super()
        plan, flat = self._rowwise_plan(x, axis)
        if plan is None:
            return serial.softmax(x, axis)
        out = np.empty_like(flat)

        def job(start, stop):
            out[start:stop] = serial.softmax(flat[start:stop], -1)

        run_jobs(lambda s=s, e=e: job(s, e) for s, e in plan)
        return out.reshape(x.shape)

    def log_softmax(self, x: np.ndarray, axis: int) -> np.ndarray:
        serial = super()
        plan, flat = self._rowwise_plan(x, axis)
        if plan is None:
            return serial.log_softmax(x, axis)
        out = np.empty_like(flat)

        def job(start, stop):
            out[start:stop] = serial.log_softmax(flat[start:stop], -1)

        run_jobs(lambda s=s, e=e: job(s, e) for s, e in plan)
        return out.reshape(x.shape)

    def softmax_backward(self, grad: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
        serial = super()
        plan, grad_flat = self._rowwise_plan(grad, axis)
        if plan is None:
            return serial.softmax_backward(grad, out, axis)
        out_flat = out.reshape(grad_flat.shape)
        result = np.empty_like(grad_flat)

        def job(start, stop):
            result[start:stop] = serial.softmax_backward(
                grad_flat[start:stop], out_flat[start:stop], -1
            )

        run_jobs(lambda s=s, e=e: job(s, e) for s, e in plan)
        return result.reshape(grad.shape)

    def log_softmax_backward(self, grad: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
        serial = super()
        plan, grad_flat = self._rowwise_plan(grad, axis)
        if plan is None:
            return serial.log_softmax_backward(grad, out, axis)
        out_flat = out.reshape(grad_flat.shape)
        result = np.empty_like(grad_flat)

        def job(start, stop):
            result[start:stop] = serial.log_softmax_backward(
                grad_flat[start:stop], out_flat[start:stop], -1
            )

        run_jobs(lambda s=s, e=e: job(s, e) for s, e in plan)
        return result.reshape(grad.shape)

    def masked_softmax(self, x: np.ndarray, mask: np.ndarray, axis: int) -> np.ndarray:
        serial = super()
        plan, flat = self._rowwise_plan(x, axis)
        if plan is None:
            return serial.masked_softmax(x, mask, axis)
        mask_flat = np.broadcast_to(mask, x.shape).reshape(flat.shape)
        out = np.empty_like(flat)

        def job(start, stop):
            out[start:stop] = serial.masked_softmax(
                flat[start:stop], mask_flat[start:stop], -1
            )

        run_jobs(lambda s=s, e=e: job(s, e) for s, e in plan)
        return out.reshape(x.shape)

    # -- group softmax (shard the flattened batch of score matrices) ------
    def group_softmax(
        self,
        scores: np.ndarray,
        counts: np.ndarray,
        query_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        serial = super()
        if scores.ndim < 3:
            return serial.group_softmax(scores, counts, query_mask)
        n, num_groups = scores.shape[-2:]
        batch = scores.size // (n * num_groups) if scores.size else 0
        plan = self._plan(batch, scores.size)
        if plan is None:
            return serial.group_softmax(scores, counts, query_mask)
        scores_flat = scores.reshape(batch, n, num_groups)
        counts_flat = counts.reshape(batch, num_groups)
        mask_flat = (
            None
            if query_mask is None
            else np.broadcast_to(query_mask, scores.shape[:-1]).reshape(batch, n)
        )
        out = np.empty_like(scores_flat)

        def job(start, stop):
            out[start:stop] = serial.group_softmax(
                scores_flat[start:stop],
                counts_flat[start:stop],
                None if mask_flat is None else mask_flat[start:stop],
            )

        run_jobs(lambda s=s, e=e: job(s, e) for s, e in plan)
        return out.reshape(scores.shape)

    def group_softmax_backward(
        self, grad: np.ndarray, attn: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        serial = super()
        if grad.ndim < 3:
            return serial.group_softmax_backward(grad, attn, counts)
        n, num_groups = grad.shape[-2:]
        batch = grad.size // (n * num_groups) if grad.size else 0
        plan = self._plan(batch, grad.size)
        if plan is None:
            return serial.group_softmax_backward(grad, attn, counts)
        grad_flat = grad.reshape(batch, n, num_groups)
        attn_flat = attn.reshape(batch, n, num_groups)
        counts_flat = counts.reshape(batch, num_groups)
        out = np.empty_like(grad_flat)

        def job(start, stop):
            out[start:stop] = serial.group_softmax_backward(
                grad_flat[start:stop], attn_flat[start:stop], counts_flat[start:stop]
            )

        run_jobs(lambda s=s, e=e: job(s, e) for s, e in plan)
        return out.reshape(grad.shape)

    # -- segment scatter/gather (shard the flattened batch) ---------------
    def segment_sum(
        self, values: np.ndarray, segment_ids: np.ndarray, num_segments: int
    ) -> np.ndarray:
        serial = super()
        batch_shape = values.shape[:-2]
        batch = int(np.prod(batch_shape)) if batch_shape else 1
        plan = self._plan(batch, values.size)
        if plan is None:
            return serial.segment_sum(values, segment_ids, num_segments)
        n, d = values.shape[-2:]
        values_flat = values.reshape(batch, n, d)
        ids_flat = segment_ids.reshape(batch, n)
        out = np.empty((batch, num_segments, d), dtype=values.dtype)

        def job(start, stop):
            out[start:stop] = serial.segment_sum(
                values_flat[start:stop], ids_flat[start:stop], num_segments
            )

        run_jobs(lambda s=s, e=e: job(s, e) for s, e in plan)
        return out.reshape(*batch_shape, num_segments, d)

    def segment_gather(self, values: np.ndarray, segment_ids: np.ndarray) -> np.ndarray:
        serial = super()
        batch_shape = segment_ids.shape[:-1]
        batch = int(np.prod(batch_shape)) if batch_shape else 1
        d = values.shape[-1]
        plan = self._plan(batch, segment_ids.size * d)
        if plan is None:
            return serial.segment_gather(values, segment_ids)
        num_segments = values.shape[-2]
        n = segment_ids.shape[-1]
        values_flat = values.reshape(batch, num_segments, d)
        ids_flat = segment_ids.reshape(batch, n)
        out = np.empty((batch, n, d), dtype=values.dtype)

        def job(start, stop):
            out[start:stop] = serial.segment_gather(
                values_flat[start:stop], ids_flat[start:stop]
            )

        run_jobs(lambda s=s, e=e: job(s, e) for s, e in plan)
        return out.reshape(*batch_shape, n, d)

    # -- k-means grouping primitives --------------------------------------
    def segment_count(self, segment_ids: np.ndarray, num_segments: int) -> np.ndarray:
        serial = super()
        batch_shape = segment_ids.shape[:-1]
        batch = int(np.prod(batch_shape)) if batch_shape else 1
        plan = self._plan(batch, segment_ids.size)
        if plan is None:
            return serial.segment_count(segment_ids, num_segments)
        n = segment_ids.shape[-1]
        ids_flat = segment_ids.reshape(batch, n)
        out = np.empty((batch, num_segments), dtype=np.int64)

        def job(start, stop):
            out[start:stop] = serial.segment_count(ids_flat[start:stop], num_segments)

        run_jobs(lambda s=s, e=e: job(s, e) for s, e in plan)
        return out.reshape(*batch_shape, num_segments)

    def segment_mean(
        self, values: np.ndarray, segment_ids: np.ndarray, num_segments: int
    ) -> tuple[np.ndarray, np.ndarray]:
        serial = super()
        batch_shape = values.shape[:-2]
        batch = int(np.prod(batch_shape)) if batch_shape else 1
        plan = self._plan(batch, values.size)
        if plan is None:
            return serial.segment_mean(values, segment_ids, num_segments)
        n, d = values.shape[-2:]
        values_flat = values.reshape(batch, n, d)
        ids_flat = segment_ids.reshape(batch, n)
        means = np.empty((batch, num_segments, d), dtype=values.dtype)
        counts = np.empty((batch, num_segments), dtype=np.int64)

        def job(start, stop):
            means[start:stop], counts[start:stop] = serial.segment_mean(
                values_flat[start:stop], ids_flat[start:stop], num_segments
            )

        run_jobs(lambda s=s, e=e: job(s, e) for s, e in plan)
        return (
            means.reshape(*batch_shape, num_segments, d),
            counts.reshape(*batch_shape, num_segments),
        )

    def segment_max(
        self,
        values: np.ndarray,
        segment_ids: np.ndarray,
        num_segments: int,
        initial: float = 0.0,
    ) -> np.ndarray:
        serial = super()
        batch_shape = segment_ids.shape[:-1]
        batch = int(np.prod(batch_shape)) if batch_shape else 1
        plan = self._plan(batch, values.size)
        if plan is None:
            return serial.segment_max(values, segment_ids, num_segments, initial)
        n = segment_ids.shape[-1]
        values_flat = values.reshape(batch, n)
        ids_flat = segment_ids.reshape(batch, n)
        out = np.empty((batch, num_segments), dtype=values.dtype)

        def job(start, stop):
            out[start:stop] = serial.segment_max(
                values_flat[start:stop], ids_flat[start:stop], num_segments, initial
            )

        run_jobs(lambda s=s, e=e: job(s, e) for s, e in plan)
        return out.reshape(*batch_shape, num_segments)

    def kmeans_assign(
        self,
        points: np.ndarray,
        centers: np.ndarray,
        points_sq: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        serial = super()
        batch, n, _ = points.shape
        num_centers = centers.shape[1]
        plan = self._plan(batch, batch * n * num_centers)
        if plan is None:
            return serial.kmeans_assign(points, centers, points_sq)
        assignments = np.empty((batch, n), dtype=np.int64)
        member_sq = np.empty((batch, n), dtype=points.dtype)

        def job(start, stop):
            assignments[start:stop], member_sq[start:stop] = serial.kmeans_assign(
                points[start:stop],
                centers[start:stop],
                None if points_sq is None else points_sq[start:stop],
            )

        run_jobs(lambda s=s, e=e: job(s, e) for s, e in plan)
        return assignments, member_sq

    # -- affine (row-sharded GEMM; see the determinism note above) ---------
    def linear(
        self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None
    ) -> np.ndarray:
        serial = super()
        out_features, in_features = weight.shape
        rows = x.size // in_features if x.size else 0
        plan = self._plan(rows, x.size + rows * out_features)
        if plan is None:
            return serial.linear(x, weight, bias)
        x_flat = x.reshape(rows, in_features)
        out = np.empty((rows, out_features), dtype=x.dtype)

        def job(start, stop):
            out[start:stop] = serial.linear(x_flat[start:stop], weight, bias)

        run_jobs(lambda s=s, e=e: job(s, e) for s, e in plan)
        return out.reshape(*x.shape[:-1], out_features)

    def linear_backward(
        self,
        grad: np.ndarray,
        x: np.ndarray,
        weight: np.ndarray,
        need_bias: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        serial = super()
        out_features, in_features = weight.shape
        rows = grad.size // out_features if grad.size else 0
        plan = self._plan(rows, grad.size + x.size)
        if plan is None:
            return serial.linear_backward(grad, x, weight, need_bias)
        grad_flat = grad.reshape(rows, out_features)
        x_flat = x.reshape(rows, in_features)
        grad_x = np.empty((rows, in_features), dtype=x.dtype)

        def job(start, stop):
            grad_x[start:stop] = grad_flat[start:stop] @ weight

        run_jobs(lambda s=s, e=e: job(s, e) for s, e in plan)
        # Weight/bias gradients reduce over ALL rows: keep them serial so
        # the parameter-gradient reduction order matches fused exactly.
        grad_w = grad_flat.T @ x_flat
        grad_b = grad_flat.sum(axis=0) if need_bias else None
        return grad_x.reshape(x.shape), grad_w, grad_b

    # -- layer norm (row-wise over the last axis) --------------------------
    def layer_norm(
        self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray, eps: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        serial = super()
        d = x.shape[-1]
        rows = x.size // d if x.size else 0
        if x.ndim < 2:
            return serial.layer_norm(x, weight, bias, eps)
        plan = self._plan(rows, x.size)
        if plan is None:
            return serial.layer_norm(x, weight, bias, eps)
        x_flat = x.reshape(rows, d)
        out = np.empty_like(x_flat)
        xhat = np.empty_like(x_flat)
        inv_std = np.empty((rows, 1), dtype=x.dtype)

        def job(start, stop):
            out[start:stop], xhat[start:stop], inv_std[start:stop] = serial.layer_norm(
                x_flat[start:stop], weight, bias, eps
            )

        run_jobs(lambda s=s, e=e: job(s, e) for s, e in plan)
        return (
            out.reshape(x.shape),
            xhat.reshape(x.shape),
            inv_std.reshape(*x.shape[:-1], 1),
        )

    def layer_norm_infer(
        self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray, eps: float
    ) -> np.ndarray:
        serial = super()
        d = x.shape[-1]
        rows = x.size // d if x.size else 0
        if x.ndim < 2:
            return serial.layer_norm_infer(x, weight, bias, eps)
        plan = self._plan(rows, x.size)
        if plan is None:
            return serial.layer_norm_infer(x, weight, bias, eps)
        x_flat = x.reshape(rows, d)
        out = np.empty_like(x_flat)

        def job(start, stop):
            out[start:stop] = serial.layer_norm_infer(x_flat[start:stop], weight, bias, eps)

        run_jobs(lambda s=s, e=e: job(s, e) for s, e in plan)
        return out.reshape(x.shape)

    def layer_norm_backward(
        self,
        grad: np.ndarray,
        xhat: np.ndarray,
        inv_std: np.ndarray,
        weight: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        serial = super()
        d = grad.shape[-1]
        rows = grad.size // d if grad.size else 0
        if grad.ndim < 2:
            return serial.layer_norm_backward(grad, xhat, inv_std, weight)
        plan = self._plan(rows, grad.size)
        if plan is None:
            return serial.layer_norm_backward(grad, xhat, inv_std, weight)
        grad_flat = grad.reshape(rows, d)
        xhat_flat = xhat.reshape(rows, d)
        inv_flat = inv_std.reshape(rows, 1)
        grad_x = np.empty_like(grad_flat)

        def job(start, stop):
            # Mirrors FusedNumpyBackend.layer_norm_backward's grad_x
            # expressions exactly (per-row math, bitwise per shard).
            grad_xhat = grad_flat[start:stop] * weight
            mean_g = grad_xhat.mean(axis=-1, keepdims=True)
            mean_gx = (grad_xhat * xhat_flat[start:stop]).mean(axis=-1, keepdims=True)
            grad_xhat -= mean_g
            grad_xhat -= xhat_flat[start:stop] * mean_gx
            grad_xhat *= inv_flat[start:stop]
            grad_x[start:stop] = grad_xhat

        run_jobs(lambda s=s, e=e: job(s, e) for s, e in plan)
        # Parameter gradients reduce over ALL rows: serial, fused order.
        grad_w = (grad_flat * xhat_flat).sum(axis=0)
        grad_b = grad_flat.sum(axis=0)
        return grad_x.reshape(grad.shape), grad_w, grad_b


from repro.kernels import backend as _backend_module

_backend_module.register_backend(ParallelNumpyBackend())
