"""Fault-tolerant replicated serving under deterministic fault injection.

The acceptance property: **every admitted request resolves** — with a
result bitwise identical to a serial single-engine run, or with a typed
:class:`~repro.errors.ServingError` subclass before its deadline — under
worker kills, corrupted replies, lost heartbeats and injected delays.
No request ever blocks indefinitely.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time

import numpy as np
import pytest

import repro
from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    IntegrityError,
    OverloadError,
    ReproError,
    ServingError,
    WorkerCrashError,
)
from repro.serve import ChaosSchedule, InferenceEngine, ModelArtifact, Router, WorkerPool

pytestmark = pytest.mark.slow  # spawns worker processes


@pytest.fixture(scope="module")
def artifact():
    config = repro.RitaConfig(
        input_channels=2, max_len=16, dim=8, n_layers=1, n_heads=2,
        attention="vanilla", dropout=0.0, n_classes=3,
    )
    model = repro.RitaModel(config, rng=np.random.default_rng(5)).eval()
    return ModelArtifact.from_model(model)


@pytest.fixture(scope="module")
def reference(artifact):
    """Serial single-engine computation — the bitwise ground truth."""
    engine = InferenceEngine(artifact)

    def compute(endpoint, series, **kwargs):
        return np.asarray(engine.endpoint(endpoint)(series, **kwargs))

    return compute


def make_requests(n, seed=0, channels=2):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((int(rng.integers(8, 15)), channels)) for _ in range(n)]


@contextlib.contextmanager
def cluster(artifact, n_workers=2, chaos=None, router=None, **pool_kwargs):
    pool = WorkerPool(artifact, n_workers=n_workers, chaos=chaos, **pool_kwargs)
    routed = Router(pool, **(router or {}))
    try:
        yield pool, routed
    finally:
        routed.close()
        pool.close()


def wait_until(predicate, timeout=15.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestHappyPath:
    def test_routed_results_are_bitwise_serial(self, artifact, reference):
        requests = make_requests(6, seed=1)
        with cluster(artifact, n_workers=2) as (pool, router):
            results = router.map("classify", requests, deadline_s=60.0)
            for got, series in zip(results, requests):
                assert np.array_equal(got, reference("classify", series))
            embedding = router.request("embed", requests[0], deadline_s=60.0)
            assert np.array_equal(embedding, reference("embed", requests[0]))
            assert router.stats.completed_total == len(requests) + 1
            assert router.stats.failed_total == 0
            with pytest.raises(ConfigError, match="unroutable endpoint"):
                router.submit("search", requests[0])

    def test_closed_router_rejects_typed(self, artifact):
        with cluster(artifact, n_workers=1) as (pool, router):
            router.close()
            with pytest.raises(ConfigError, match="router is closed"):
                router.submit("classify", make_requests(1)[0])


class TestWorkerKill:
    def test_kill_mid_load_redispatches_and_respawns(self, artifact, reference):
        # Worker 0 (generation 0) hard-exits just before serving its
        # first request; its queued requests must be re-dispatched and a
        # fresh incarnation spawned.
        chaos = ChaosSchedule(kills={0: (0, 0)})
        requests = make_requests(8, seed=2)
        with cluster(artifact, n_workers=2, chaos=chaos) as (pool, router):
            results = router.map("classify", requests, deadline_s=60.0)
            for got, series in zip(results, requests):
                assert np.array_equal(got, reference("classify", series))
            assert pool.stats.crashes_total >= 1
            assert pool.stats.respawns_total >= 1
            # The replacement incarnation (generation 1) comes back ready
            # and serves: full recovery, not just survival.
            assert wait_until(lambda: (0, 1, True, True) in pool.workers())
            again = router.request("classify", requests[0], deadline_s=60.0)
            assert np.array_equal(again, reference("classify", requests[0]))

    def test_redelivery_budget_exhaustion_is_typed(self, artifact):
        # Every incarnation of the only worker dies on its first request:
        # after 1 + max_redelivery dispatches the caller gets a typed
        # WorkerCrashError — not a hang, not a bare exception.
        chaos = ChaosSchedule(kills={0: (0, 0)})
        with cluster(
            artifact, n_workers=1, chaos=chaos,
            router=dict(max_redelivery=0, breaker_failure_threshold=100),
        ) as (pool, router):
            future = router.submit("classify", make_requests(1)[0], deadline_s=30.0)
            with pytest.raises(WorkerCrashError, match="was lost") as excinfo:
                future.result(timeout=30.0)
            assert isinstance(excinfo.value, ReproError)


class TestStartupFailure:
    def test_slot_that_never_builds_is_retired(self, artifact):
        # One weight is missing, so every incarnation's engine build
        # raises before the worker reports ready.  After three such
        # deaths in a row the slot is retired instead of respawned; the
        # request in flight fails typed, and with no live worker left the
        # breaker degrades to the serial engine, whose build fails typed.
        weights = dict(artifact.weights)
        weights.pop(sorted(weights)[0])
        broken = dataclasses.replace(artifact, weights=weights)
        with cluster(broken, n_workers=1, router=dict(max_redelivery=5)) as (pool, router):
            early = router.submit("classify", make_requests(1)[0])
            with pytest.raises(WorkerCrashError, match="retired"):
                early.result(timeout=60.0)
            assert wait_until(lambda: pool.workers() == [], timeout=30.0)
            assert pool.alive_count() == 0
            assert pool.stats.spawns_total == 3
            assert [event[1] for event in pool.stats.events].count("failed") == 1
            start = time.monotonic()
            with pytest.raises(ConfigError, match="state dict mismatch"):
                router.request("classify", make_requests(1)[0], deadline_s=10.0)
            assert time.monotonic() - start < 10.0


class TestCorruptReplies:
    def test_checksum_mismatch_never_reaches_the_caller(self, artifact):
        chaos = ChaosSchedule(seed=3, corrupt_rate=1.0)
        with cluster(
            artifact, n_workers=2, chaos=chaos,
            router=dict(max_redelivery=1, breaker_failure_threshold=100),
        ) as (pool, router):
            future = router.submit("classify", make_requests(1)[0], deadline_s=30.0)
            with pytest.raises(IntegrityError, match="failed its checksum"):
                future.result(timeout=30.0)
            assert router.stats.checksum_failures_total >= 2
            assert router.stats.completed_total == 0  # corrupt data never delivered


class TestHeartbeatLoss:
    def test_silent_worker_is_replaced(self, artifact, reference):
        # Generation 0 of the only worker computes fine but never beats:
        # from outside it is indistinguishable from a wedged process, so
        # the supervisor must replace it.
        chaos = ChaosSchedule(drop_heartbeats={0: 0})
        with cluster(
            artifact, n_workers=1, chaos=chaos, heartbeat_timeout_s=0.5,
        ) as (pool, router):
            assert wait_until(lambda: pool.stats.heartbeat_timeouts_total >= 1)
            assert wait_until(lambda: (0, 1, True, True) in pool.workers())
            series = make_requests(1, seed=4)[0]
            got = router.request("classify", series, deadline_s=60.0)
            assert np.array_equal(got, reference("classify", series))


class TestSlowReplies:
    def test_delayed_replies_are_retried_not_hung(self, artifact, reference):
        # Every reply is delayed well past the per-attempt timeout; the
        # router keeps re-dispatching (bounded) and accepts the first
        # reply from any attempt it actually made — requests resolve in
        # roughly one delay, not one delay per attempt, and never hang.
        chaos = ChaosSchedule(seed=5, delay_rate=1.0, delay_s=0.6)
        requests = make_requests(2, seed=5)
        with cluster(
            artifact, n_workers=2, chaos=chaos,
            router=dict(attempt_timeout_s=0.15, max_redelivery=3,
                        breaker_failure_threshold=100),
        ) as (pool, router):
            start = time.monotonic()
            results = router.map("classify", requests, deadline_s=60.0)
            elapsed = time.monotonic() - start
            for got, series in zip(results, requests):
                assert np.array_equal(got, reference("classify", series))
            assert router.stats.attempt_timeouts_total >= 1
            assert elapsed < 30.0


class TestDegradationLadder:
    def test_breaker_opens_and_serves_serial_inline(self, artifact, reference):
        # One worker, killed on its first request, redelivery disabled,
        # breaker threshold 1: the crash fails the first request typed
        # and opens the breaker; the next submit is served inline by the
        # serial fallback engine — same artifact, bitwise-same answer.
        chaos = ChaosSchedule(kills={0: (0, 0)})
        series = make_requests(2, seed=6)
        with cluster(
            artifact, n_workers=1, chaos=chaos,
            router=dict(max_redelivery=0, breaker_failure_threshold=1,
                        breaker_cooldown_s=30.0),
        ) as (pool, router):
            first = router.submit("classify", series[0], deadline_s=30.0)
            with pytest.raises(WorkerCrashError):
                first.result(timeout=30.0)
            assert router.breaker_open()
            got = router.request("classify", series[1], deadline_s=30.0)
            assert np.array_equal(got, reference("classify", series[1]))
            assert router.stats.degraded_total == 1


class TestAdmissionControl:
    def test_overload_sheds_fast_with_typed_error(self, artifact):
        # One slow worker, an in-flight window of one: the second submit
        # is shed immediately (typed), and the admitted request still
        # completes — shedding protects admitted traffic, it does not
        # poison it.
        chaos = ChaosSchedule(seed=7, delay_rate=1.0, delay_s=1.5)
        requests = make_requests(2, seed=7)
        with cluster(
            artifact, n_workers=1, chaos=chaos,
            router=dict(max_inflight=1, breaker_failure_threshold=100),
        ) as (pool, router):
            admitted = router.submit("classify", requests[0], deadline_s=60.0)
            start = time.monotonic()
            with pytest.raises(OverloadError, match="request shed"):
                router.submit("classify", requests[1], deadline_s=60.0)
            assert time.monotonic() - start < 1.0  # shed at admission, no wait
            assert router.stats.shed_total == 1
            assert admitted.result(timeout=60.0).shape == (1, 3)


class TestNoIndefiniteBlocking:
    def test_expired_deadline_fails_fast(self, artifact):
        # The only worker sleeps far past the request deadline; the
        # supervisor tick must fail the request typed at its deadline —
        # the caller never waits for the sleeping worker.
        chaos = ChaosSchedule(seed=8, delay_rate=1.0, delay_s=10.0)
        with cluster(
            artifact, n_workers=1, chaos=chaos,
            router=dict(breaker_failure_threshold=100),
        ) as (pool, router):
            future = router.submit("classify", make_requests(1, seed=8)[0],
                                   deadline_s=0.4)
            start = time.monotonic()
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=30.0)
            assert time.monotonic() - start < 10.0
            assert router.stats.deadline_failures_total == 1

    def test_close_fails_inflight_typed(self, artifact):
        chaos = ChaosSchedule(seed=9, delay_rate=1.0, delay_s=10.0)
        with cluster(
            artifact, n_workers=1, chaos=chaos,
            router=dict(breaker_failure_threshold=100),
        ) as (pool, router):
            future = router.submit("classify", make_requests(1, seed=9)[0],
                                   deadline_s=60.0)
            router.close()
            with pytest.raises(ServingError, match="router closed"):
                future.result(timeout=5.0)
