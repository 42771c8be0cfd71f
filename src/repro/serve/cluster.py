"""Supervised multi-worker serving: the process tier under the router.

``WorkerPool`` runs N worker processes, each holding an
:class:`~repro.serve.engine.InferenceEngine` rebuilt from the same
frozen :class:`~repro.serve.artifact.ModelArtifact`, and treats failure
as the normal case:

* **spawned, never forked** — a worker is a fresh interpreter that
  rebuilds its engine from the artifact, so respawning one is the same
  code path as starting it;
* **heartbeats** — every worker beats on its own response queue
  (:func:`repro.supervision.heartbeat`, 20 beats per timeout); the
  supervisor thread declares a worker dead when its process exits *or*
  its heartbeats go stale (a wedged or partitioned worker looks exactly
  like a crashed one from outside);
* **one writer per queue** — each incarnation gets private request *and*
  response queues: a multiprocessing queue's write lock is shared among
  its writers, so a worker hard-killed mid-write on a pooled queue
  would orphan the lock and wedge every other worker's replies; with
  private queues a dying writer can only corrupt state that dies with
  it;
* **incarnations** — a worker slot is identified by
  ``(worker_id, generation)``; every respawn bumps the generation and
  gets a **fresh request queue**, so requests queued to a dead
  incarnation can never be double-served by its replacement, and late
  replies from a replaced incarnation are recognizably stale;
* **supervision, not request logic** — the pool detects death, respawns,
  and forwards events to a listener (the
  :class:`~repro.serve.router.Router`), which owns re-dispatch,
  deadlines, retries and admission.  The pool stays useful headless in
  tests.

Fault injection (:class:`~repro.serve.chaos.ChaosSchedule`) is threaded
through to the workers so the resilience suite and
``benchmarks/bench_resilience.py`` can replay deterministic failures.
"""

from __future__ import annotations

import os
import queue as queue_module
import threading
import time
import zlib
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection

import numpy as np

from repro.errors import ConfigError, ReproError, ServingError
from repro.serve.artifact import ModelArtifact
from repro.serve.chaos import ChaosSchedule
from repro.serve.engine import InferenceEngine, check_engine_options
from repro.supervision import heartbeat

__all__ = ["WorkerPool", "checksum"]

#: Incarnations of one slot that may die in a row before reporting ready.
#: At this count the slot is retired instead of respawned: an engine that
#: cannot build would otherwise respawn forever.
MAX_FAILED_STARTS = 3
#: How long a spawned worker may take to report ready before it is
#: declared dead (interpreter start + engine build).
SPAWN_GRACE_S = 60.0
#: Supervisor loop cadence: bounds failure-detection and listener
#: ``tick`` latency.
POLL_INTERVAL_S = 0.02


def checksum(payload: np.ndarray) -> int:
    """CRC32 over the payload bytes — the reply integrity check.

    Computed by the worker before the reply crosses the process
    boundary and re-computed by the router on arrival; a mismatch means
    the payload was corrupted in transit and must not reach the caller.
    """
    return zlib.crc32(np.ascontiguousarray(payload).tobytes())


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_main(
    worker_id: int,
    generation: int,
    artifact: ModelArtifact,
    engine_kwargs: dict,
    chaos: ChaosSchedule,
    request_q,
    response_q,
    backend_name: str,
    heartbeat_timeout_s: float,
) -> None:
    """One worker: build the engine, beat, serve until told to stop.

    Runs in a spawned child.  Replies carry ``(worker_id, generation)``
    so the supervisor can drop anything from a replaced incarnation, and
    a :func:`checksum` so the router can detect corrupted payloads.
    Application errors travel back as typed :class:`ReproError` values;
    anything else is wrapped in :class:`ServingError` (kept
    single-argument, hence picklable).
    """
    # Imports deferred: spawn gives a fresh interpreter.
    from repro.kernels.backend import set_backend
    from repro.kernels.threads import set_num_threads
    from repro.serve.deadlines import deadline_scope

    set_backend(backend_name)
    set_num_threads(1)  # process-level replication owns the cores
    engine = InferenceEngine(artifact, **engine_kwargs)

    def beat() -> None:
        response_q.put(("hb", worker_id, generation))

    with heartbeat(heartbeat_timeout_s, beat, "rita-heartbeat") as stop_beating:
        if chaos.drops_heartbeat(worker_id, generation):
            stop_beating.set()
        response_q.put(("ready", worker_id, generation))
        seq = 0
        while True:
            message = request_q.get()
            if message[0] == "stop":
                break
            _, req_id, endpoint, payload = message
            this_seq, seq = seq, seq + 1
            if chaos.should_kill(worker_id, generation, this_seq):
                os._exit(17)  # hard crash: no cleanup, request left in flight
            try:
                fn = engine.endpoint(endpoint)
                with deadline_scope(payload.get("deadline_s")):
                    result = np.asarray(fn(payload["series"], **payload.get("kwargs", {})))
                digest = checksum(result)
                if chaos.should_corrupt(worker_id, generation, this_seq):
                    result = chaos.corrupt(result)
                reply = ("res", worker_id, generation, req_id, "ok", result, digest)
                delay = chaos.delay_for(worker_id, generation, this_seq)
                if delay > 0:
                    # Deliver the reply late *without* wedging the serve loop:
                    # the injected fault is a slow reply in transit, not a
                    # stuck worker (drop_heartbeats models that one).
                    timer = threading.Timer(delay, response_q.put, args=(reply,))
                    timer.daemon = True
                    timer.start()
                else:
                    response_q.put(reply)
            except ReproError as exc:
                response_q.put(("res", worker_id, generation, req_id, "err", exc, None))
            except Exception as exc:  # noqa: BLE001 - must cross the pipe typed
                wrapped = ServingError(f"worker endpoint failed: {type(exc).__name__}: {exc}")
                response_q.put(("res", worker_id, generation, req_id, "err", wrapped, None))


# ----------------------------------------------------------------------
# Parent-side supervision
# ----------------------------------------------------------------------
@dataclass
class _WorkerSlot:
    """Parent-side record of one worker incarnation.

    Each incarnation owns both its queues.  The response queue is
    per-incarnation on purpose: a multiprocessing queue's write lock is
    shared among its writers, so with one pooled response queue a worker
    hard-killed mid-write would orphan the lock and wedge *every other
    worker's* replies.  With a single writer per queue, a dying worker
    can only corrupt its own queue — which dies with it.
    """

    worker_id: int
    generation: int
    process: object
    request_q: object
    response_q: object
    spawned_at: float
    last_beat: float
    failed_starts: int = 0  #: earlier incarnations in a row that died unready
    ready: bool = False

    @property
    def key(self) -> tuple[int, int]:
        return (self.worker_id, self.generation)

    def alive(self) -> bool:
        return self.process.is_alive()


@dataclass
class PoolStats:
    """Cumulative supervision counters (read by tests and the benchmark)."""

    spawns_total: int = 0
    respawns_total: int = 0
    crashes_total: int = 0            #: process exits detected
    heartbeat_timeouts_total: int = 0  #: stale-heartbeat declarations
    protocol_errors_total: int = 0     #: undecodable response-queue messages
    events: list = field(default_factory=list)  #: (t, kind, worker_id, generation)


class WorkerPool:
    """N supervised engine workers over one frozen artifact.

    Parameters
    ----------
    artifact:
        The :class:`ModelArtifact` every worker rebuilds its engine from
        (also what respawn restores from — the pool's source of truth).
        A live :class:`~repro.model.rita.RitaModel` is frozen on the spot.
    n_workers:
        Replica count.
    engine_kwargs:
        Forwarded to every worker's :class:`InferenceEngine` (e.g.
        ``max_batch_size``, serving grouping policy); checked here, so a
        bad option raises :class:`ConfigError` in the parent.
    chaos:
        Optional :class:`ChaosSchedule` shipped to workers (tests and the
        resilience benchmark; ``None`` = no injected faults).
    heartbeat_timeout_s:
        How stale a ready worker's last beat may go before the supervisor
        declares it dead and replaces it.  Workers beat 20 times per
        timeout (:data:`repro.supervision.BEATS_PER_TIMEOUT`).

    A slot whose incarnations die :data:`MAX_FAILED_STARTS` times in a
    row before reporting ready is retired: it leaves :meth:`workers` and
    a ``"failed"`` event is logged.  Once every slot is retired,
    :meth:`alive_count` is 0.

    The ``listener`` attribute (set by the router) receives supervision
    events on the supervisor thread: ``on_result(key, req_id, status,
    payload, digest)``, ``on_worker_lost(key, reason)`` and ``tick(now)``.
    """

    def __init__(
        self,
        artifact,
        n_workers: int = 2,
        engine_kwargs: dict | None = None,
        chaos: ChaosSchedule | None = None,
        heartbeat_timeout_s: float = 2.0,
    ) -> None:
        if n_workers < 1:
            raise ConfigError("n_workers must be >= 1")
        if heartbeat_timeout_s <= 0:
            raise ConfigError(f"heartbeat_timeout_s must be > 0, got {heartbeat_timeout_s}")
        check_engine_options(**(engine_kwargs or {}))
        if not isinstance(artifact, ModelArtifact):
            artifact = ModelArtifact.from_model(artifact)
        self.artifact = artifact
        self.n_workers = int(n_workers)
        self.engine_kwargs = dict(engine_kwargs or {})
        self.chaos = chaos if chaos is not None else ChaosSchedule()
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self.listener = None
        self.stats = PoolStats()
        self._lock = threading.RLock()
        self._slots: dict[int, _WorkerSlot] = {}
        self._context = None
        self._supervisor: threading.Thread | None = None
        self._stop = threading.Event()
        self._started = False
        self._backend_name = ""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "WorkerPool":
        import multiprocessing

        from repro.kernels.backend import get_backend

        with self._lock:
            if self._started:
                return self
            self._context = multiprocessing.get_context("spawn")
            self._backend_name = get_backend().name
            for worker_id in range(self.n_workers):
                self._spawn_locked(worker_id, generation=0)
            self._stop.clear()
            self._supervisor = threading.Thread(
                target=self._supervise, name="rita-supervisor", daemon=True
            )
            self._supervisor.start()
            self._started = True
        return self

    def close(self) -> None:
        """Stop supervision and terminate every worker."""
        with self._lock:
            if not self._started:
                return
            self._started = False
        self._stop.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
        with self._lock:
            for slot in self._slots.values():
                try:
                    slot.request_q.put(("stop",))
                except Exception:  # pragma: no cover  # repro: allow[typed-errors] - shutdown path; a broken queue means the worker is already gone
                    pass
            for slot in self._slots.values():
                slot.process.join(timeout=1.0)
                if slot.process.is_alive():
                    slot.process.terminate()
                    slot.process.join(timeout=1.0)
                if slot.process.is_alive():  # pragma: no cover - last resort
                    slot.process.kill()
                    slot.process.join(timeout=1.0)
                slot.request_q.cancel_join_thread()
                slot.response_q.cancel_join_thread()
            self._slots.clear()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Router-facing surface
    # ------------------------------------------------------------------
    def dispatch(self, worker_id: int, req_id: int, endpoint: str, payload: dict):
        """Queue one request to a worker; returns the incarnation key.

        Returns ``None`` when the slot is unknown or its process is no
        longer alive — the caller picks another worker.  A request queued
        to an incarnation that dies before serving it is recovered by the
        listener's ``on_worker_lost``, never silently lost.
        """
        with self._lock:
            slot = self._slots.get(worker_id)
            if slot is None or not slot.alive():
                return None
            slot.request_q.put(("req", req_id, endpoint, payload))
            return slot.key

    def workers(self) -> list[tuple[int, int, bool, bool]]:
        """Snapshot of ``(worker_id, generation, ready, alive)`` per slot."""
        with self._lock:
            return [
                (slot.worker_id, slot.generation, slot.ready, slot.alive())
                for slot in self._slots.values()
            ]

    def alive_count(self) -> int:
        with self._lock:
            return sum(1 for slot in self._slots.values() if slot.alive())

    def ready_count(self) -> int:
        with self._lock:
            return sum(1 for slot in self._slots.values() if slot.ready and slot.alive())

    # ------------------------------------------------------------------
    # Supervision internals
    # ------------------------------------------------------------------
    def _spawn_locked(self, worker_id: int, generation: int, failed_starts: int = 0) -> None:
        request_q = self._context.Queue()
        response_q = self._context.Queue()
        process = self._context.Process(
            target=_worker_main,
            args=(
                worker_id,
                generation,
                self.artifact,
                self.engine_kwargs,
                self.chaos,
                request_q,
                response_q,
                self._backend_name,
                self.heartbeat_timeout_s,
            ),
            name=f"rita-worker-{worker_id}-g{generation}",
            daemon=True,
        )
        process.start()
        now = time.monotonic()
        self._slots[worker_id] = _WorkerSlot(
            worker_id=worker_id,
            generation=generation,
            process=process,
            request_q=request_q,
            response_q=response_q,
            spawned_at=now,
            last_beat=now,
            failed_starts=failed_starts,
        )
        self.stats.spawns_total += 1
        if generation > 0:
            self.stats.respawns_total += 1
        self.stats.events.append((now, "respawn" if generation else "spawn",
                                  worker_id, generation))

    def _supervise(self) -> None:
        while not self._stop.is_set():
            with self._lock:
                by_reader = {
                    slot.response_q._reader: slot.response_q
                    for slot in self._slots.values()
                }
            try:
                # Wake on the first reply/heartbeat from any worker
                # (each incarnation has its own response queue; this
                # parent is the only reader of all of them).
                ready = mp_connection.wait(list(by_reader), timeout=POLL_INTERVAL_S)
            except OSError:  # pragma: no cover - reader closed mid-wait
                ready = []
            for reader in ready:
                self._drain_queue(by_reader[reader])
            self._check_workers()
            listener = self.listener
            if listener is not None:
                try:
                    listener.tick(time.monotonic())
                except Exception:  # pragma: no cover - listener bug firewall
                    self.stats.protocol_errors_total += 1

    def _drain_queue(self, response_q) -> None:
        """Handle everything currently readable on one response queue."""
        while True:
            try:
                message = response_q.get_nowait()
            except queue_module.Empty:
                return
            except Exception:  # pragma: no cover - truncated pickle etc.
                self.stats.protocol_errors_total += 1
                return
            try:
                self._handle_message(message)
            except Exception:  # pragma: no cover - malformed message
                self.stats.protocol_errors_total += 1

    def _handle_message(self, message) -> None:
        kind = message[0]
        now = time.monotonic()
        if kind in ("hb", "ready"):
            _, worker_id, generation = message
            with self._lock:
                slot = self._slots.get(worker_id)
                if slot is None or slot.generation != generation:
                    return  # stale incarnation
                slot.last_beat = now
                if kind == "ready" and not slot.ready:
                    slot.ready = True
                    self.stats.events.append((now, "ready", worker_id, generation))
        elif kind == "res":
            _, worker_id, generation, req_id, status, payload, digest = message
            listener = self.listener
            if listener is not None:
                listener.on_result((worker_id, generation), req_id, status, payload, digest)
        else:  # pragma: no cover - unknown message kind
            self.stats.protocol_errors_total += 1

    def _check_workers(self) -> None:
        now = time.monotonic()
        lost: list[tuple[tuple[int, int], str, object]] = []
        with self._lock:
            for slot in list(self._slots.values()):
                reason = None
                if not slot.alive():
                    reason = "crashed"
                    self.stats.crashes_total += 1
                elif slot.ready and now - slot.last_beat > self.heartbeat_timeout_s:
                    reason = "heartbeat-timeout"
                    self.stats.heartbeat_timeouts_total += 1
                elif not slot.ready and now - slot.spawned_at > SPAWN_GRACE_S:
                    reason = "spawn-timeout"  # pragma: no cover - 60s default
                    self.stats.crashes_total += 1
                if reason is None:
                    continue
                self.stats.events.append((now, reason, slot.worker_id, slot.generation))
                if slot.alive():
                    slot.process.terminate()
                    slot.process.join(timeout=1.0)
                    if slot.process.is_alive():  # pragma: no cover
                        slot.process.kill()
                slot.request_q.cancel_join_thread()
                lost.append((slot.key, reason, slot.response_q))
                failed_starts = 0 if slot.ready else slot.failed_starts + 1
                if failed_starts < MAX_FAILED_STARTS:
                    self._spawn_locked(slot.worker_id, slot.generation + 1, failed_starts)
                else:
                    del self._slots[slot.worker_id]
                    self.stats.events.append((now, "failed", slot.worker_id, slot.generation))
        listener = self.listener
        for key, reason, response_q in lost:
            # Results the incarnation sent before dying are still valid —
            # deliver them first (outside the pool lock: the listener
            # acquires the router lock, and lock order is router -> pool)
            # so only requests that were truly left in flight re-dispatch.
            self._drain_queue(response_q)
            response_q.cancel_join_thread()
            if listener is not None:
                listener.on_worker_lost(key, reason)
