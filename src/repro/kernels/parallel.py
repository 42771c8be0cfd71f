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

Every override has the same shape: it calls ``_plan`` before building
any view or buffer, so the serial fallback does no extra work; then it
states how its arrays flatten to one leading work axis, which arguments
every shard shares, and which outputs to preallocate, and ``_run`` does
the rest.

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

import functools
import math
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

    # -- the shard routine -------------------------------------------------
    def _run(self, plan, kernel, sharded, shared, *outputs: np.ndarray) -> None:
        """Run ``kernel(*sharded[start:stop], *shared)`` per shard of ``plan``.

        ``None`` in ``sharded`` passes through unsliced.  Each shard writes
        its result (a tuple when there are several ``outputs``) into its
        rows of the preallocated ``outputs`` on the worker that computed
        it, so the calling thread joins nothing.
        """

        def job(start: int, stop: int) -> None:
            result = kernel(*(None if a is None else a[start:stop] for a in sharded), *shared)
            for out, part in zip(outputs, result if len(outputs) > 1 else (result,)):
                out[start:stop] = part

        run_jobs(functools.partial(job, start, stop) for start, stop in plan)

    def _flat_plan(self, x: np.ndarray, axis: int = -1, core: int = 1):
        """Plan + ``(rows, *core_shape)`` view: all but the last ``core`` axes flattened.

        Unplanned (and uncounted) when no leading axis is left to shard or
        ``axis`` is not the last one.
        """
        if x.ndim <= core or axis not in (-1, x.ndim - 1):
            return None, None
        core_shape = x.shape[x.ndim - core:]
        rows = x.size // math.prod(core_shape) if x.size else 0
        plan = self._plan(rows, x.size)
        return (None, None) if plan is None else (plan, x.reshape(rows, *core_shape))

    # -- softmax family (row-wise over the last axis) ---------------------
    def softmax(self, x: np.ndarray, axis: int) -> np.ndarray:
        plan, flat = self._flat_plan(x, axis)
        if plan is None:
            return super().softmax(x, axis)
        out = np.empty_like(flat)
        self._run(plan, super().softmax, (flat,), (-1,), out)
        return out.reshape(x.shape)

    def log_softmax(self, x: np.ndarray, axis: int) -> np.ndarray:
        plan, flat = self._flat_plan(x, axis)
        if plan is None:
            return super().log_softmax(x, axis)
        out = np.empty_like(flat)
        self._run(plan, super().log_softmax, (flat,), (-1,), out)
        return out.reshape(x.shape)

    def softmax_backward(self, grad: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
        plan, flat = self._flat_plan(grad, axis)
        if plan is None:
            return super().softmax_backward(grad, out, axis)
        result = np.empty_like(flat)
        views = (flat, out.reshape(flat.shape))
        self._run(plan, super().softmax_backward, views, (-1,), result)
        return result.reshape(grad.shape)

    def log_softmax_backward(self, grad: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
        plan, flat = self._flat_plan(grad, axis)
        if plan is None:
            return super().log_softmax_backward(grad, out, axis)
        result = np.empty_like(flat)
        views = (flat, out.reshape(flat.shape))
        self._run(plan, super().log_softmax_backward, views, (-1,), result)
        return result.reshape(grad.shape)

    def masked_softmax(self, x: np.ndarray, mask: np.ndarray, axis: int) -> np.ndarray:
        plan, flat = self._flat_plan(x, axis)
        if plan is None:
            return super().masked_softmax(x, mask, axis)
        out = np.empty_like(flat)
        views = (flat, np.broadcast_to(mask, x.shape).reshape(flat.shape))
        self._run(plan, super().masked_softmax, views, (-1,), out)
        return out.reshape(x.shape)

    # -- group softmax (shard the flattened batch of score matrices) ------
    def group_softmax(
        self,
        scores: np.ndarray,
        counts: np.ndarray,
        query_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        plan, flat = self._flat_plan(scores, core=2)
        if plan is None:
            return super().group_softmax(scores, counts, query_mask)
        batch, n, num_groups = flat.shape
        if query_mask is not None:
            query_mask = np.broadcast_to(query_mask, scores.shape[:-1]).reshape(batch, n)
        out = np.empty_like(flat)
        views = (flat, counts.reshape(batch, num_groups), query_mask)
        self._run(plan, super().group_softmax, views, (), out)
        return out.reshape(scores.shape)

    def group_softmax_backward(
        self, grad: np.ndarray, attn: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        plan, flat = self._flat_plan(grad, core=2)
        if plan is None:
            return super().group_softmax_backward(grad, attn, counts)
        batch, _, num_groups = flat.shape
        out = np.empty_like(flat)
        views = (flat, attn.reshape(flat.shape), counts.reshape(batch, num_groups))
        self._run(plan, super().group_softmax_backward, views, (), out)
        return out.reshape(grad.shape)

    # -- segment scatter/gather (shard the flattened batch) ---------------
    def segment_sum(
        self, values: np.ndarray, segment_ids: np.ndarray, num_segments: int
    ) -> np.ndarray:
        batch = math.prod(values.shape[:-2])
        plan = self._plan(batch, values.size)
        if plan is None:
            return super().segment_sum(values, segment_ids, num_segments)
        n, d = values.shape[-2:]
        out = np.empty((batch, num_segments, d), dtype=values.dtype)
        views = (values.reshape(batch, n, d), segment_ids.reshape(batch, n))
        self._run(plan, super().segment_sum, views, (num_segments,), out)
        return out.reshape(*values.shape[:-2], num_segments, d)

    def segment_gather(self, values: np.ndarray, segment_ids: np.ndarray) -> np.ndarray:
        batch = math.prod(segment_ids.shape[:-1])
        d = values.shape[-1]
        plan = self._plan(batch, segment_ids.size * d)
        if plan is None:
            return super().segment_gather(values, segment_ids)
        num_segments, n = values.shape[-2], segment_ids.shape[-1]
        out = np.empty((batch, n, d), dtype=values.dtype)
        views = (values.reshape(batch, num_segments, d), segment_ids.reshape(batch, n))
        self._run(plan, super().segment_gather, views, (), out)
        return out.reshape(*segment_ids.shape, d)

    # -- k-means grouping primitives --------------------------------------
    def segment_count(self, segment_ids: np.ndarray, num_segments: int) -> np.ndarray:
        batch = math.prod(segment_ids.shape[:-1])
        plan = self._plan(batch, segment_ids.size)
        if plan is None:
            return super().segment_count(segment_ids, num_segments)
        out = np.empty((batch, num_segments), dtype=np.int64)
        views = (segment_ids.reshape(batch, segment_ids.shape[-1]),)
        self._run(plan, super().segment_count, views, (num_segments,), out)
        return out.reshape(*segment_ids.shape[:-1], num_segments)

    def segment_mean(
        self, values: np.ndarray, segment_ids: np.ndarray, num_segments: int
    ) -> tuple[np.ndarray, np.ndarray]:
        batch = math.prod(values.shape[:-2])
        plan = self._plan(batch, values.size)
        if plan is None:
            return super().segment_mean(values, segment_ids, num_segments)
        n, d = values.shape[-2:]
        means = np.empty((batch, num_segments, d), dtype=values.dtype)
        counts = np.empty((batch, num_segments), dtype=np.int64)
        views = (values.reshape(batch, n, d), segment_ids.reshape(batch, n))
        self._run(plan, super().segment_mean, views, (num_segments,), means, counts)
        return (
            means.reshape(*values.shape[:-2], num_segments, d),
            counts.reshape(*values.shape[:-2], num_segments),
        )

    def segment_max(
        self,
        values: np.ndarray,
        segment_ids: np.ndarray,
        num_segments: int,
        initial: float = 0.0,
    ) -> np.ndarray:
        batch = math.prod(segment_ids.shape[:-1])
        plan = self._plan(batch, values.size)
        if plan is None:
            return super().segment_max(values, segment_ids, num_segments, initial)
        n = segment_ids.shape[-1]
        out = np.empty((batch, num_segments), dtype=values.dtype)
        views = (values.reshape(batch, n), segment_ids.reshape(batch, n))
        self._run(plan, super().segment_max, views, (num_segments, initial), out)
        return out.reshape(*segment_ids.shape[:-1], num_segments)

    def kmeans_assign(
        self,
        points: np.ndarray,
        centers: np.ndarray,
        points_sq: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        batch, n, _ = points.shape
        plan = self._plan(batch, batch * n * centers.shape[1])
        if plan is None:
            return super().kmeans_assign(points, centers, points_sq)
        assignments = np.empty((batch, n), dtype=np.int64)
        member_sq = np.empty((batch, n), dtype=points.dtype)
        views = (points, centers, points_sq)
        self._run(plan, super().kmeans_assign, views, (), assignments, member_sq)
        return assignments, member_sq

    # -- affine (row-sharded GEMM; see the determinism note above) ---------
    def linear(
        self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None
    ) -> np.ndarray:
        out_features, in_features = weight.shape
        rows = x.size // in_features if x.size else 0
        plan = self._plan(rows, x.size + rows * out_features)
        if plan is None:
            return super().linear(x, weight, bias)
        out = np.empty((rows, out_features), dtype=x.dtype)
        self._run(plan, super().linear, (x.reshape(rows, in_features),), (weight, bias), out)
        return out.reshape(*x.shape[:-1], out_features)

    def linear_backward(
        self,
        grad: np.ndarray,
        x: np.ndarray,
        weight: np.ndarray,
        need_bias: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        out_features, in_features = weight.shape
        rows = grad.size // out_features if grad.size else 0
        plan = self._plan(rows, grad.size + x.size)
        if plan is None:
            return super().linear_backward(grad, x, weight, need_bias)
        grad_flat = grad.reshape(rows, out_features)
        grad_x = np.empty((rows, in_features), dtype=x.dtype)
        self._run(plan, np.matmul, (grad_flat,), (weight,), grad_x)
        # Weight/bias gradients reduce over ALL rows: keep them serial so
        # the parameter-gradient reduction order matches fused exactly.
        grad_w = grad_flat.T @ x.reshape(rows, in_features)
        grad_b = grad_flat.sum(axis=0) if need_bias else None
        return grad_x.reshape(x.shape), grad_w, grad_b

    # -- layer norm (row-wise over the last axis) --------------------------
    def layer_norm(
        self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray, eps: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        plan, flat = self._flat_plan(x)
        if plan is None:
            return super().layer_norm(x, weight, bias, eps)
        out, xhat = np.empty_like(flat), np.empty_like(flat)
        inv_std = np.empty((len(flat), 1), dtype=x.dtype)
        self._run(plan, super().layer_norm, (flat,), (weight, bias, eps), out, xhat, inv_std)
        return out.reshape(x.shape), xhat.reshape(x.shape), inv_std.reshape(*x.shape[:-1], 1)

    def layer_norm_infer(
        self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray, eps: float
    ) -> np.ndarray:
        plan, flat = self._flat_plan(x)
        if plan is None:
            return super().layer_norm_infer(x, weight, bias, eps)
        out = np.empty_like(flat)
        self._run(plan, super().layer_norm_infer, (flat,), (weight, bias, eps), out)
        return out.reshape(x.shape)

    def layer_norm_backward(
        self,
        grad: np.ndarray,
        xhat: np.ndarray,
        inv_std: np.ndarray,
        weight: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        plan, grad_flat = self._flat_plan(grad)
        if plan is None:
            return super().layer_norm_backward(grad, xhat, inv_std, weight)
        xhat_flat = xhat.reshape(grad_flat.shape)
        grad_x = np.empty_like(grad_flat)
        views = (grad_flat, xhat_flat, inv_std.reshape(len(grad_flat), 1))
        self._run(plan, self._layer_norm_grad_x, views, (weight,), grad_x)
        # Parameter gradients reduce over ALL rows: serial, fused order.
        grad_w = (grad_flat * xhat_flat).sum(axis=0)
        grad_b = grad_flat.sum(axis=0)
        return grad_x.reshape(grad.shape), grad_w, grad_b


from repro.kernels import backend as _backend_module

_backend_module.register_backend(ParallelNumpyBackend())
