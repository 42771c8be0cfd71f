"""Request routing over a :class:`~repro.serve.cluster.WorkerPool`.

The ``Router`` is the client-facing surface of the replicated serving
tier.  Its contract — the one property the resilience suite enforces —
is that **every admitted request resolves**: with a result bitwise
identical to a serial single-engine run, or with a typed
:class:`~repro.errors.ServingError` subclass before its deadline.  No
request ever blocks indefinitely and none is silently dropped.

Mechanisms, in dispatch order:

* **admission control** — a bounded in-flight window; requests beyond it
  are shed immediately with :class:`~repro.errors.OverloadError`;
* **circuit breaker** — when the pool is unhealthy (no live workers, or
  a streak of infrastructure failures), requests *degrade* to a serial
  in-process engine built from the same artifact instead of failing;
  the breaker closes again once workers are back;
* **least-loaded dispatch** — a request goes to the live incarnation,
  among those it has not tried, with the fewest requests in flight;
  ties go to the lowest worker id;
* **deadlines** — per-request budgets enforced in three places: shipped
  to the worker (fail fast mid-compute), scanned by the supervisor tick
  (a late reply cannot hold the future), and on the client wait;
* **timeout + capped exponential backoff retry** — a slow attempt is
  re-dispatched to a different replica after ``attempt_timeout_s``; a
  crashed worker's in-flight requests are re-dispatched on detection.
  Delivery is **at most once per worker incarnation** with a bounded
  total budget (``1 + max_redelivery`` dispatches), and replies are
  checksum-verified — a corrupted payload counts as a failed attempt,
  never reaches the caller.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    IntegrityError,
    OverloadError,
    ReproError,
    ServingError,
    WorkerCrashError,
)
from repro.serve.cluster import WorkerPool, checksum
from repro.serve.deadlines import Deadline, deadline_scope
from repro.supervision import backoff

__all__ = ["Router", "ClusterFuture", "RouterStats", "ROUTABLE_ENDPOINTS"]

#: Endpoints the router will ship to workers: row-aligned ndarray results
#: (checksummable, concatenable).  ``search`` returns nested tuples and
#: stays an in-process engine call.
ROUTABLE_ENDPOINTS = ("classify", "predict", "embed", "reconstruct", "forecast")
#: Longest wait between two dispatches of one request.
BACKOFF_CAP_S = 0.5


class ClusterFuture:
    """Resolution handle for one routed request."""

    __slots__ = ("_event", "_value", "_error", "_done")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value = None
        self._error: Exception | None = None
        self._done = False

    def done(self) -> bool:
        return self._done

    def result(self, timeout: float | None = None):
        """The endpoint output; raises the request's typed error.

        ``timeout`` bounds this wait only (the request keeps its own
        deadline); an expired wait raises
        :class:`~repro.errors.DeadlineExceededError`.
        """
        if not self._event.wait(timeout):
            raise DeadlineExceededError(
                f"no result within the {timeout:.3f}s wait"
            )
        if self._error is not None:
            raise self._error
        return self._value

    def _resolve(self, value) -> None:
        if self._done:  # pragma: no cover - first resolution wins
            return
        self._value = value
        self._done = True
        self._event.set()

    def _fail(self, error: Exception) -> None:
        if self._done:  # pragma: no cover - first resolution wins
            return
        self._error = error
        self._done = True
        self._event.set()


@dataclass
class _Request:
    req_id: int
    endpoint: str
    payload: dict
    future: ClusterFuture
    deadline: Deadline | None
    attempts: int = 0
    tried: set = field(default_factory=set)   #: incarnation keys dispatched to
    assigned: tuple | None = None             #: current incarnation, or None
    dispatched_at: float = 0.0
    retry_at: float | None = None


@dataclass
class RouterStats:
    """Cumulative routing counters (read by tests and the benchmark)."""

    submitted_total: int = 0
    completed_total: int = 0          #: resolved with a worker result
    degraded_total: int = 0           #: served by the in-process fallback
    shed_total: int = 0               #: rejected at admission (OverloadError)
    failed_total: int = 0             #: resolved with a typed error
    deadline_failures_total: int = 0  #: ... of which deadline expiries
    retries_total: int = 0            #: re-dispatch attempts scheduled
    checksum_failures_total: int = 0  #: corrupt replies detected
    attempt_timeouts_total: int = 0   #: slow attempts abandoned
    stale_results_total: int = 0      #: replies from abandoned attempts


class Router:
    """Deadline-aware, failure-tolerant request routing over a pool.

    Parameters
    ----------
    pool:
        The :class:`WorkerPool` to route over.  The router registers
        itself as the pool's listener and starts the pool if needed.
    max_inflight:
        Admission bound: requests admitted but not yet resolved.  A
        submit beyond it raises :class:`OverloadError` (shed, counted).
    default_deadline_s:
        Deadline applied when ``submit`` gets none.  ``None`` means
        requests without an explicit deadline have unbounded budget
        (crash re-dispatch still keeps them from hanging).
    attempt_timeout_s:
        How long one dispatch may stay unanswered before the attempt is
        abandoned and the request re-dispatched elsewhere.  ``None``
        disables per-attempt timeouts (deadline and crash detection
        still apply).
    max_redelivery:
        Retry budget: a request is dispatched at most ``1 +
        max_redelivery`` times, at most once per worker incarnation.
    backoff_base_s:
        First wait before a re-dispatch, in ``[0, BACKOFF_CAP_S]``; each
        later one doubles, up to :data:`BACKOFF_CAP_S`
        (:func:`repro.supervision.backoff`).
    breaker_failure_threshold / breaker_cooldown_s:
        Consecutive infrastructure failures (crashes, timeouts, corrupt
        replies) that open the circuit breaker, and how long it stays
        open before probing the pool again.  While it is open, requests
        are served inline on a serial in-process engine built from the
        pool's artifact.
    """

    def __init__(
        self,
        pool: WorkerPool,
        max_inflight: int = 256,
        default_deadline_s: float | None = None,
        attempt_timeout_s: float | None = None,
        max_redelivery: int = 2,
        backoff_base_s: float = 0.02,
        breaker_failure_threshold: int = 4,
        breaker_cooldown_s: float = 1.0,
    ) -> None:
        if max_inflight < 1:
            raise ConfigError("max_inflight must be >= 1")
        if max_redelivery < 0:
            raise ConfigError("max_redelivery must be >= 0")
        if not 0 <= backoff_base_s <= BACKOFF_CAP_S:
            raise ConfigError(
                f"backoff_base_s must be in [0, {BACKOFF_CAP_S}], got {backoff_base_s}"
            )
        self.pool = pool
        self.max_inflight = int(max_inflight)
        self.default_deadline_s = default_deadline_s
        self.attempt_timeout_s = attempt_timeout_s
        self.max_redelivery = int(max_redelivery)
        self.backoff_base_s = float(backoff_base_s)
        self.breaker_failure_threshold = int(breaker_failure_threshold)
        self.breaker_cooldown_s = float(breaker_cooldown_s)
        self.stats = RouterStats()
        self._lock = threading.RLock()
        self._inflight: dict[int, _Request] = {}
        self._by_worker: dict[tuple, set[int]] = {}
        self._next_id = 0
        self._closed = False
        self._failure_streak = 0
        self._breaker_open_until: float | None = None
        self._fallback_engine = None
        self._fallback_lock = threading.Lock()
        pool.listener = self
        pool.start()

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def submit(
        self, endpoint: str, series, deadline_s: float | None = None, **kwargs
    ) -> ClusterFuture:
        """Admit and dispatch one request; returns its future.

        Raises :class:`OverloadError` when the in-flight window is full
        (the request is shed, not queued) and :class:`ConfigError` for
        unroutable endpoints or a closed router.
        """
        if endpoint not in ROUTABLE_ENDPOINTS:
            raise ConfigError(
                f"unroutable endpoint {endpoint!r}; expected one of {ROUTABLE_ENDPOINTS}"
            )
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        future = ClusterFuture()
        payload = {
            "series": series,
            "kwargs": kwargs,
            "deadline_s": deadline_s,
        }
        with self._lock:
            if self._closed:
                raise ConfigError("router is closed")
            self.stats.submitted_total += 1
            if self._breaker_is_open():
                self.stats.degraded_total += 1
                degraded = True
            else:
                degraded = False
        if degraded:
            # Outside the router lock: a degraded forward must not stall
            # deadline enforcement for requests still in flight.
            return self._serve_degraded(endpoint, payload, future)
        with self._lock:
            if self._closed:
                raise ConfigError("router is closed")
            if len(self._inflight) >= self.max_inflight:
                self.stats.shed_total += 1
                raise OverloadError(
                    f"{len(self._inflight)} requests in flight "
                    f"(max_inflight={self.max_inflight}); request shed"
                )
            self._next_id += 1
            request = _Request(
                req_id=self._next_id,
                endpoint=endpoint,
                payload=payload,
                future=future,
                deadline=None if deadline_s is None else Deadline.after(deadline_s),
            )
            self._inflight[request.req_id] = request
            self._dispatch_locked(request)
        return future

    def request(self, endpoint: str, series, deadline_s: float | None = None, **kwargs):
        """Blocking convenience: ``submit(...).result()``."""
        return self.submit(endpoint, series, deadline_s=deadline_s, **kwargs).result()

    def map(
        self, endpoint: str, requests, deadline_s: float | None = None, **kwargs
    ) -> list:
        """Submit a burst, then collect results in submit order."""
        futures = [
            self.submit(endpoint, series, deadline_s=deadline_s, **kwargs)
            for series in requests
        ]
        return [future.result() for future in futures]

    def inflight(self) -> int:
        with self._lock:
            return len(self._inflight)

    def close(self) -> None:
        """Fail anything still in flight and detach from the pool."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = list(self._inflight.values())
            self._inflight.clear()
            self._by_worker.clear()
        for request in pending:
            request.future._fail(ServingError("router closed with request in flight"))
        self.pool.listener = None

    def __enter__(self) -> "Router":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Degradation ladder: breaker + serial fallback
    # ------------------------------------------------------------------
    def _breaker_is_open(self) -> bool:
        """Health check, called under the lock.

        Open while a failure-streak cooldown runs, or while the pool has
        no live worker processes at all.  Closes automatically when the
        cooldown lapses and workers are back.
        """
        now = time.monotonic()
        if self._breaker_open_until is not None:
            if now < self._breaker_open_until:
                return True
            self._breaker_open_until = None
            self._failure_streak = 0
        return self.pool.alive_count() == 0

    def breaker_open(self) -> bool:
        with self._lock:
            return self._breaker_is_open()

    def _serve_degraded(self, endpoint: str, payload: dict, future: ClusterFuture):
        """Serial in-process serving while the pool is unhealthy.

        Computes inline in the caller's thread, serialized on a
        dedicated lock (degraded mode is *serial by design* — one
        engine, honest backpressure).  Typed errors land on the future
        exactly like a worker reply, so callers cannot tell the ladder
        rung apart except by latency and ``stats.degraded_total``.
        """
        try:
            with self._fallback_lock:
                if self._fallback_engine is None:
                    from repro.serve.engine import InferenceEngine

                    self._fallback_engine = InferenceEngine(
                        self.pool.artifact, **self.pool.engine_kwargs
                    )
                fn = self._fallback_engine.endpoint(endpoint)
                with deadline_scope(payload.get("deadline_s")):
                    result = np.asarray(fn(payload["series"], **payload.get("kwargs", {})))
        except ReproError as exc:
            with self._lock:
                self.stats.failed_total += 1
                if isinstance(exc, DeadlineExceededError):
                    self.stats.deadline_failures_total += 1
            future._fail(exc)
        except Exception as exc:  # noqa: BLE001 - degraded path stays typed
            with self._lock:
                self.stats.failed_total += 1
            future._fail(ServingError(f"degraded serving failed: {type(exc).__name__}: {exc}"))
        else:
            with self._lock:
                self.stats.completed_total += 1
            future._resolve(result)
        return future

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch_locked(self, request: _Request) -> None:
        """Pick a worker and ship the request; reschedule when none fits.

        Candidates are live incarnations the request has not tried
        (at-most-once per incarnation); the one with the fewest requests
        in flight wins, ties going to the lowest worker id.  When every
        live incarnation has been tried, the request waits for a respawn
        (bounded by its deadline).  When the pool has retired every slot
        no respawn will come, so the request fails typed instead.
        """
        workers = self.pool.workers()
        candidates = [
            (worker_id, generation)
            for worker_id, generation, _ready, alive in workers
            if alive and (worker_id, generation) not in request.tried
        ]
        if not candidates:
            if not workers:
                self._fail_locked(
                    request, WorkerCrashError("every worker slot failed start-up and was retired")
                )
                return
            request.assigned = None
            request.retry_at = time.monotonic() + self.backoff_base_s
            return
        choice = min(
            candidates, key=lambda key: (len(self._by_worker.get(key, ())), key)
        )
        remaining = None if request.deadline is None else request.deadline.remaining()
        payload = dict(request.payload, deadline_s=remaining)
        dispatched = self.pool.dispatch(
            choice[0], request.req_id, request.endpoint, payload
        )
        if dispatched is None or dispatched != choice:
            # Slot respawned between snapshot and dispatch; try again on
            # the next tick rather than recursing under churn.
            request.assigned = None
            request.retry_at = time.monotonic() + self.backoff_base_s
            return
        request.assigned = dispatched
        request.tried.add(dispatched)
        request.attempts += 1
        request.dispatched_at = time.monotonic()
        request.retry_at = None
        self._by_worker.setdefault(dispatched, set()).add(request.req_id)

    def _unlink_locked(self, request: _Request) -> None:
        """Drop the request from in-flight bookkeeping (terminal states)."""
        self._inflight.pop(request.req_id, None)
        if request.assigned is not None:
            self._by_worker.get(request.assigned, set()).discard(request.req_id)
        request.assigned = None

    def _retry_or_fail_locked(self, request: _Request, error: ServingError) -> None:
        """One attempt failed: back off and re-dispatch, or fail typed.

        The deadline is checked first — a request with no budget left
        fails as :class:`DeadlineExceededError` regardless of the retry
        budget; an exhausted retry budget fails with the attempt's error.
        """
        if request.assigned is not None:
            self._by_worker.get(request.assigned, set()).discard(request.req_id)
            request.assigned = None
        if request.deadline is not None and request.deadline.expired():
            self._fail_locked(
                request,
                DeadlineExceededError(
                    f"request deadline expired after {request.attempts} attempt(s); "
                    f"last failure: {error}"
                ),
            )
            return
        if request.attempts > self.max_redelivery:
            self._fail_locked(request, error)
            return
        request.retry_at = time.monotonic() + backoff(
            request.attempts, self.backoff_base_s, BACKOFF_CAP_S
        )
        self.stats.retries_total += 1

    def _fail_locked(self, request: _Request, error: Exception) -> None:
        self._unlink_locked(request)
        self.stats.failed_total += 1
        if isinstance(error, DeadlineExceededError):
            self.stats.deadline_failures_total += 1
        request.future._fail(error)

    def _infrastructure_failure_locked(self) -> None:
        """Count a pool-level failure toward opening the breaker."""
        self._failure_streak += 1
        if (
            self._failure_streak >= self.breaker_failure_threshold
            and self._breaker_open_until is None
        ):
            self._breaker_open_until = time.monotonic() + self.breaker_cooldown_s

    # ------------------------------------------------------------------
    # WorkerPool listener interface (supervisor thread)
    # ------------------------------------------------------------------
    def on_result(self, key, req_id, status, payload, digest) -> None:
        with self._lock:
            request = self._inflight.get(req_id)
            if request is None or key not in request.tried:
                self.stats.stale_results_total += 1
                return
            if status == "ok" and checksum(payload) != digest:
                self.stats.checksum_failures_total += 1
                self._infrastructure_failure_locked()
                if request.assigned == key:
                    self._retry_or_fail_locked(
                        request,
                        IntegrityError(
                            f"reply from worker {key} failed its checksum; "
                            "payload corrupted in transit"
                        ),
                    )
                # A corrupt reply from an *abandoned* attempt changes
                # nothing: the request is already queued elsewhere.
                return
            self._failure_streak = 0
            if status == "ok":
                self._unlink_locked(request)
                self.stats.completed_total += 1
                request.future._resolve(payload)
            else:
                # Typed application error — deterministic, not retried.
                self._fail_locked(request, payload)

    def on_worker_lost(self, key, reason: str) -> None:
        with self._lock:
            req_ids = self._by_worker.pop(key, set())
            self._infrastructure_failure_locked()
            for req_id in list(req_ids):
                request = self._inflight.get(req_id)
                if request is None or request.assigned != key:
                    continue
                self._retry_or_fail_locked(
                    request,
                    WorkerCrashError(
                        f"worker {key[0]} (generation {key[1]}) was lost "
                        f"({reason}) with the request in flight"
                    ),
                )

    def tick(self, now: float) -> None:
        """Periodic maintenance on the supervisor thread.

        Fails expired requests, abandons slow attempts
        (``attempt_timeout_s``), and dispatches due retries.
        """
        with self._lock:
            for request in list(self._inflight.values()):
                if request.deadline is not None and request.deadline.expired():
                    self._fail_locked(
                        request,
                        DeadlineExceededError(
                            f"request deadline expired awaiting a worker reply "
                            f"(attempt {request.attempts})"
                        ),
                    )
                    continue
                if (
                    request.assigned is not None
                    and self.attempt_timeout_s is not None
                    and now - request.dispatched_at > self.attempt_timeout_s
                ):
                    self.stats.attempt_timeouts_total += 1
                    self._infrastructure_failure_locked()
                    self._retry_or_fail_locked(
                        request,
                        DeadlineExceededError(
                            f"attempt {request.attempts} unanswered after "
                            f"{self.attempt_timeout_s:.3f}s"
                        ),
                    )
                    continue
                if request.retry_at is not None and now >= request.retry_at:
                    request.retry_at = None
                    self._dispatch_locked(request)
