"""Deadlines, timed waits and admission control on the serving surface.

Covers the pieces that must *never block indefinitely*: the
:mod:`repro.serve.deadlines` primitives, deadline fail-fast inside
chunked engine execution, and the micro-batcher's timed ``result`` /
``map`` waits plus its bounded-queue shedding.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro
from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    OverloadError,
    ReproError,
    ShapeError,
)
from repro.serve import InferenceEngine, MicroBatcher
from repro.serve.deadlines import (
    Deadline,
    check_deadline,
    current_deadline,
    deadline_scope,
)


def make_engine(**kwargs):
    config = repro.RitaConfig(
        input_channels=2, max_len=16, dim=8, n_layers=1, n_heads=2,
        attention="vanilla", dropout=0.0, n_classes=3,
    )
    model = repro.RitaModel(config, rng=np.random.default_rng(7)).eval()
    return InferenceEngine(model, **kwargs)


class TestDeadlinePrimitives:
    def test_fresh_deadline_has_budget(self):
        deadline = Deadline.after(5.0)
        assert not deadline.expired()
        assert 0.0 < deadline.remaining() <= 5.0
        deadline.check("noop")  # must not raise

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigError, match="deadline seconds"):
            Deadline.after(-0.01)

    def test_expired_deadline_raises_typed(self):
        deadline = Deadline(time.monotonic() - 0.01)
        assert deadline.expired()
        assert deadline.remaining() < 0.0
        with pytest.raises(DeadlineExceededError, match="exceeded its deadline"):
            deadline.check("unit test")

    def test_check_deadline_is_noop_outside_scope(self):
        assert current_deadline() is None
        check_deadline("no scope")  # must not raise

    def test_scope_installs_and_restores(self):
        with deadline_scope(5.0):
            outer = current_deadline()
            assert outer is not None and not outer.expired()
            with deadline_scope(Deadline(time.monotonic() - 0.01)):
                with pytest.raises(DeadlineExceededError):
                    check_deadline("inner")
            assert current_deadline() is outer  # nesting restores
        assert current_deadline() is None

    def test_none_scope_means_unbounded(self):
        with deadline_scope(None):
            assert current_deadline() is None
            check_deadline("unbounded")

    def test_deadline_error_is_typed(self):
        assert issubclass(DeadlineExceededError, ReproError)
        assert issubclass(DeadlineExceededError, TimeoutError)


class TestEngineDeadlines:
    def test_expired_deadline_fails_before_compute(self, rng):
        engine = make_engine()
        x = rng.standard_normal((2, 12, 2))
        with deadline_scope(Deadline(time.monotonic() - 0.01)):
            with pytest.raises(DeadlineExceededError, match="classify request"):
                engine.classify(x)
        assert engine.stats.requests_total == 0  # failed before the forward

    def test_chunked_request_rechecks_between_chunks(self, rng):
        """A deadline that expires mid-request stops the remaining chunks."""
        engine = make_engine(max_batch_size=2)
        calls = []
        original = engine.model.classify

        def slow_classify(x, mask=None):
            calls.append(len(x))
            time.sleep(0.05)
            return original(x, mask=mask)

        engine.model.classify = slow_classify
        x = rng.standard_normal((8, 12, 2))  # 4 chunks of 2
        with deadline_scope(0.04):
            with pytest.raises(DeadlineExceededError, match="chunk at row"):
                engine.classify(x)
        assert len(calls) < 4  # later chunks were never computed


class TestBatcherTimedWaits:
    def test_result_timeout_while_lock_is_held(self, rng):
        """A wedged batcher cannot block a timed ``result`` forever."""
        engine = make_engine()
        batcher = MicroBatcher(engine.classify, max_batch_size=8)
        handle = batcher.submit(rng.standard_normal((10, 2)))
        assert batcher._lock.acquire()  # simulate a stuck concurrent flush
        try:
            start = time.monotonic()
            with pytest.raises(DeadlineExceededError, match="still pending"):
                handle.result(timeout=0.1)
            assert time.monotonic() - start < 2.0
        finally:
            batcher._lock.release()
        # The request itself is still servable once the lock frees.
        assert handle.result(timeout=1.0).shape == (3,)

    def test_timed_result_flushes_when_lock_is_free(self, rng):
        engine = make_engine()
        batcher = MicroBatcher(engine.classify, max_batch_size=8)
        handle = batcher.submit(rng.standard_normal((10, 2)))
        assert not handle.done()
        row = handle.result(timeout=5.0)  # flushes inline, no deadline hit
        assert row.shape == (3,)

    def test_map_timeout_is_one_budget_for_the_burst(self, rng):
        engine = make_engine()
        batcher = MicroBatcher(engine.classify, max_batch_size=4)
        reqs = [rng.standard_normal((length, 2)) for length in (9, 14, 9, 14)]
        results = batcher.map(reqs, timeout=30.0)
        assert [r.shape for r in results] == [(3,)] * 4

    def test_flush_failure_during_timed_wait_lands_on_handle(self, rng):
        """The endpoint's error reaches the timed waiter, typed — not a
        deadline and not a hang."""

        def broken_endpoint(x, mask=None):
            raise ShapeError("endpoint exploded")

        batcher = MicroBatcher(broken_endpoint, max_batch_size=8)
        handle = batcher.submit(rng.standard_normal((10, 2)))
        with pytest.raises(ShapeError, match="endpoint exploded"):
            handle.result(timeout=1.0)

    def test_sibling_batch_failure_does_not_poison_timed_wait(self, rng):
        """Only the failing batch's handles carry the error; the healthy
        batch resolves normally under a timed wait."""
        engine = make_engine()

        def flaky_endpoint(x, mask=None):
            if x.shape[1] >= 14:  # the long-length batch fails
                raise ShapeError("long batch rejected")
            return engine.classify(x, mask=mask)

        batcher = MicroBatcher(flaky_endpoint, max_batch_size=2)
        short = [batcher.submit(rng.standard_normal((9, 2)), auto_flush=False)
                 for _ in range(2)]
        long = [batcher.submit(rng.standard_normal((14, 2)), auto_flush=False)
                for _ in range(2)]
        for handle in short:
            assert handle.result(timeout=5.0).shape == (3,)
        for handle in long:
            with pytest.raises(ShapeError, match="long batch rejected"):
                handle.result(timeout=5.0)


class TestBatcherAdmissionControl:
    def test_max_queue_sheds_with_typed_error(self, rng):
        engine = make_engine()
        batcher = MicroBatcher(engine.classify, max_batch_size=32, max_queue=2)
        kept = [batcher.submit(rng.standard_normal((10, 2)), auto_flush=False)
                for _ in range(2)]
        with pytest.raises(OverloadError, match="request shed"):
            batcher.submit(rng.standard_normal((10, 2)))
        assert batcher.shed_total == 1
        assert issubclass(OverloadError, ReproError)
        # Shedding protects, it does not poison: admitted requests serve.
        assert batcher.flush() == 2
        for handle in kept:
            assert handle.result().shape == (3,)

    def test_max_queue_validation(self, rng):
        engine = make_engine()
        with pytest.raises(ConfigError, match="max_queue"):
            MicroBatcher(engine.classify, max_queue=0)
