"""``MicroBatcher`` — coalesce per-request calls into padded batches.

The serving regime the paper targets (Sec. 6.3: many small inference
requests) is exactly where a NumPy stack loses throughput: a batch-of-one
forward pays every fixed cost — Python dispatch, kernel setup, K-means
grouping — per request.  The micro-batcher buffers individual ``(L, m)``
requests and serves them together:

* requests are **bucketed by length** (the DataLoader's
  batching-by-length trick) and carved into batches of at most
  ``max_batch_size``;
* equal-length buckets are stacked dense (the unmasked hot path);
  mixed-length buckets are padded via :func:`repro.data.pad_collate`
  and served with a validity mask, so results match the request served
  alone;
* a flush happens when the buffer reaches ``max_batch_size``, when the
  oldest pending request has waited longer than ``max_delay_s`` (checked
  at the next submit — the latency budget), when :meth:`flush` is called,
  or when any caller asks a pending handle for its ``result()``.

``submit`` returns a :class:`PendingResult` future; ``map`` is the
convenience wrapper that submits a whole request list and returns results
in submit order.  All entry points are thread-safe (one lock; flushes run
in the calling thread).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Sequence

import numpy as np

from repro.data.collate import pad_collate
from repro.errors import ConfigError, DeadlineExceededError, OverloadError, ShapeError

__all__ = ["MicroBatcher", "PendingResult"]


class PendingResult:
    """Future-like handle for one submitted request."""

    __slots__ = ("_batcher", "_value", "_error", "_done", "_event")

    def __init__(self, batcher: "MicroBatcher") -> None:
        self._batcher = batcher
        self._value: np.ndarray | None = None
        self._error: Exception | None = None
        self._done = False
        self._event = threading.Event()

    def done(self) -> bool:
        return self._done

    def result(self, timeout: float | None = None) -> np.ndarray:
        """The endpoint output row; flushes the batcher when still pending.

        Re-raises the endpoint's exception when *this request's* batch
        failed, so the error surfaces at every affected caller instead of
        silently dropping their requests.  A sibling batch failing in the
        same flush does not poison this handle — its own callers get the
        error.

        ``timeout`` bounds the wait: when the handle has not resolved
        within ``timeout`` seconds — another thread holds the batcher
        mid-flush, or a concurrent flush wedges — the call raises
        :class:`~repro.errors.DeadlineExceededError` instead of blocking
        forever.  A flush failure during the timed wait still lands on
        the affected handles (this one re-raises its own error; a
        sibling's error never leaks here).
        """
        if not self._done:
            if timeout is None:
                try:
                    self._batcher.flush()
                except Exception:
                    if not self._done:
                        raise
                    # This handle resolved or recorded its own error during
                    # the flush; that outcome — not a sibling's — decides.
            else:
                self._wait(timeout)
        if not self._done:  # pragma: no cover - flush always drains
            raise ConfigError("request still pending after flush")
        if self._error is not None:
            raise self._error
        return self._value

    def _wait(self, timeout: float) -> None:
        """Timed resolution: flush if the lock frees in time, else wait.

        The flush runs in this thread only when the batcher lock is
        acquired within the budget; otherwise whoever holds it is already
        flushing and this thread just waits on the event for the rest of
        the budget.  Either way the call returns (resolved or not) within
        ``timeout`` — ``result`` turns "not resolved" into
        :class:`DeadlineExceededError`.
        """
        budget = max(0.0, float(timeout))
        deadline = time.monotonic() + budget
        if self._batcher._lock.acquire(timeout=budget):
            try:
                if not self._done:
                    try:
                        self._batcher._flush_locked()
                    except Exception:
                        if not self._done:
                            raise
            finally:
                self._batcher._lock.release()
        if not self._done:
            self._event.wait(max(0.0, deadline - time.monotonic()))
        if not self._done:
            raise DeadlineExceededError(
                f"request still pending after a {timeout:.3f}s wait"
            )

    def _resolve(self, value: np.ndarray) -> None:
        self._value = value
        self._done = True
        self._event.set()

    def _fail(self, error: Exception) -> None:
        self._error = error
        self._done = True
        self._event.set()


class MicroBatcher:
    """Batch individual inference requests through one engine endpoint.

    Parameters
    ----------
    endpoint:
        Any callable with the engine-endpoint signature
        ``endpoint(series, mask=None) -> (B, ...) ndarray`` whose output
        rows align with input rows (``InferenceEngine.classify`` /
        ``embed`` / ``reconstruct`` / bound wrappers over them).
    max_batch_size:
        Flush threshold and per-forward batch bound.
    max_delay_s:
        Latency budget: a submit arriving while the oldest pending
        request has waited longer than this flushes first.  ``None``
        disables the time trigger (size/manual flushes only).
    max_queue:
        Admission control: upper bound on queued (unflushed) requests.
        A submit that would exceed it is **shed** with a typed
        :class:`~repro.errors.OverloadError` (and counted in
        ``shed_total``) instead of growing the queue without bound —
        rejecting fast at admission keeps the latency of admitted
        requests honest.  ``None`` (default) keeps the queue unbounded.
    """

    def __init__(
        self,
        endpoint: Callable[..., np.ndarray],
        max_batch_size: int = 32,
        max_delay_s: float | None = None,
        max_queue: int | None = None,
    ) -> None:
        if max_batch_size < 1:
            raise ConfigError("max_batch_size must be >= 1")
        if max_delay_s is not None and max_delay_s < 0:
            raise ConfigError("max_delay_s must be >= 0 or None")
        if max_queue is not None and max_queue < 1:
            raise ConfigError("max_queue must be >= 1 or None")
        self.endpoint = endpoint
        self.max_batch_size = int(max_batch_size)
        self.max_delay_s = max_delay_s
        self.max_queue = None if max_queue is None else int(max_queue)
        self._lock = threading.Lock()
        self._pending: list[tuple[np.ndarray, PendingResult]] = []
        self._oldest: float | None = None
        self._channels: int | None = None  # locked to the first submit
        #: Cumulative counters, read by the serving benchmark.
        self.requests_total = 0
        self.batches_total = 0
        self.flushes_total = 0
        self.padded_rows_total = 0
        self.shed_total = 0

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.flush()

    @property
    def pending(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    def submit(self, series: np.ndarray, auto_flush: bool = True) -> PendingResult:
        """Queue one ``(L, m)`` series; returns its result handle.

        ``auto_flush=False`` defers the size trigger so a caller
        submitting a known burst (see :meth:`map`) lets the length
        bucketing see the whole burst before batches are carved.
        """
        arr = np.asarray(series)
        if arr.ndim != 2:
            raise ShapeError(f"submit expects one (L, m) series, got {arr.shape}")
        handle = PendingResult(self)
        with self._lock:
            if self._channels is None:
                self._channels = arr.shape[1]
            elif arr.shape[1] != self._channels:
                raise ShapeError(
                    f"this batcher serves {self._channels}-channel series, "
                    f"got {arr.shape[1]} channels"
                )
            if self.max_queue is not None and len(self._pending) >= self.max_queue:
                self.shed_total += 1
                raise OverloadError(
                    f"queue full ({len(self._pending)} pending, "
                    f"max_queue={self.max_queue}); request shed"
                )
            overdue = (
                self.max_delay_s is not None
                and self._oldest is not None
                and time.perf_counter() - self._oldest > self.max_delay_s
            )
            self._pending.append((arr, handle))
            if self._oldest is None:
                self._oldest = time.perf_counter()
            if overdue or (auto_flush and len(self._pending) >= self.max_batch_size):
                # Errors stay on the affected handles (result() re-raises
                # them); submit itself never throws a *sibling* batch's
                # error, and this request is enqueued either way.
                try:
                    self._flush_locked()
                except Exception:  # noqa: BLE001  # repro: allow[typed-errors] - _flush_locked records the error on each affected handle; result() re-raises it
                    pass
        return handle

    def flush(self) -> int:
        """Serve every pending request now; returns how many were served."""
        with self._lock:
            return self._flush_locked()

    def map(
        self, requests: Sequence[np.ndarray], timeout: float | None = None
    ) -> list[np.ndarray]:
        """Serve a whole request burst; results come back in submit order.

        Submits with the size trigger deferred, so the length bucketing
        sorts across the entire burst before carving batches — mixed
        lengths that arrive interleaved still end up in dense same-length
        batches whenever the multiset of lengths allows it.

        ``timeout`` is one deadline for the whole burst (not per
        request): every ``result`` wait draws on the same remaining
        budget, and an exhausted budget raises
        :class:`~repro.errors.DeadlineExceededError`.
        """
        handles = [self.submit(series, auto_flush=False) for series in requests]
        if timeout is None:
            self.flush()
            return [handle.result() for handle in handles]
        deadline = time.monotonic() + max(0.0, float(timeout))
        return [
            handle.result(timeout=max(0.0, deadline - time.monotonic()))
            for handle in handles
        ]

    # ------------------------------------------------------------------
    def _flush_locked(self) -> int:
        pending, self._pending = self._pending, []
        self._oldest = None
        if not pending:
            return 0
        self.flushes_total += 1
        # Bucket by length so padding waste inside each batch stays near
        # zero (the DataLoader's batching-by-length trick), then carve
        # batches from the sorted order.
        lengths = np.array([series.shape[0] for series, _ in pending])
        order = np.argsort(lengths, kind="stable")
        first_error: Exception | None = None
        for start in range(0, len(order), self.max_batch_size):
            chunk = [pending[i] for i in order[start : start + self.max_batch_size]]
            try:
                padded_rows = self._serve_chunk(chunk)
            except Exception as exc:  # noqa: BLE001 - forwarded to every handle
                # One bad batch must not orphan its siblings: its handles
                # carry the error (result() re-raises) and the remaining
                # chunks are still served.
                for _, handle in chunk:
                    handle._fail(exc)
                if first_error is None:
                    first_error = exc
                continue
            self.batches_total += 1
            self.padded_rows_total += padded_rows
        self.requests_total += len(pending)
        if first_error is not None:
            raise first_error
        return len(pending)

    def _serve_chunk(self, chunk: list[tuple[np.ndarray, PendingResult]]) -> int:
        """Serve one carved batch; returns how many rows needed padding."""
        series = [item for item, _ in chunk]
        padded_length = None
        padded_rows = 0
        if len({item.shape[0] for item in series}) == 1:
            out = self.endpoint(np.stack(series))  # dense hot path, no mask
        else:
            batch = pad_collate({"x": series})
            out = self.endpoint(batch["x"], mask=batch["mask"])
            padded_length = batch["x"].shape[1]
            padded_rows = len(series)
        if len(out) != len(chunk):
            raise ShapeError(
                f"endpoint returned {len(out)} rows for a {len(chunk)}-request batch; "
                "micro-batching needs row-aligned endpoints"
            )
        # Per-timestep outputs (reconstruct-shaped: (B, L_padded, ...))
        # are trimmed back to each request's own length, so a padded
        # bucket returns exactly what solo serving would.  Requiring a
        # trailing feature axis (ndim >= 3) keeps flat per-request rows —
        # classify logits, embeddings — out of reach even when their
        # width coincides with the padded length.
        trim = padded_length is not None and out.ndim >= 3 and out.shape[1] == padded_length
        for (item, handle), row in zip(chunk, out):
            handle._resolve(row[: item.shape[0]] if trim else row)
        return padded_rows
