"""MicroBatcher: batching semantics, bucketing, counters and failure isolation.

Batched values against the direct model are checked by
``tests/test_parity_matrix.py``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro
from repro.errors import ConfigError, ShapeError
from repro.serve import InferenceEngine, MicroBatcher
from tolerances import assert_parity

def make_engine(**kwargs):
    config = repro.RitaConfig(
        input_channels=2, max_len=28, dim=16, n_layers=2, n_heads=2,
        attention="vanilla", dropout=0.0, n_classes=3,
    )
    model = repro.RitaModel(config, rng=np.random.default_rng(21)).eval()
    return InferenceEngine(model, **kwargs)


def requests(rng, lengths):
    return [rng.standard_normal((length, 2)) for length in lengths]


class TestBatchingSemantics:
    def test_auto_flush_at_max_batch_size(self, rng):
        engine = make_engine()
        batcher = MicroBatcher(engine.classify, max_batch_size=3)
        handles = [batcher.submit(series) for series in requests(rng, [10, 10, 10])]
        assert all(handle.done() for handle in handles)
        assert batcher.batches_total == 1
        assert batcher.pending == 0

    def test_result_flushes_pending(self, rng):
        engine = make_engine()
        batcher = MicroBatcher(engine.classify, max_batch_size=32)
        handle = batcher.submit(rng.standard_normal((12, 2)))
        assert not handle.done()
        row = handle.result()  # triggers the flush
        assert handle.done() and row.shape == (3,)

    def test_equal_lengths_stay_dense(self, rng):
        engine = make_engine()
        batcher = MicroBatcher(engine.classify, max_batch_size=4)
        batcher.map(requests(rng, [12, 12, 12, 12]))
        assert batcher.padded_rows_total == 0  # dense hot path, no mask

    def test_bucketing_groups_equal_lengths(self, rng):
        engine = make_engine()
        batcher = MicroBatcher(engine.classify, max_batch_size=2)
        # Sorted by length the chunks are [9, 9] and [17, 17]: all dense.
        batcher.map(requests(rng, [9, 17, 9, 17]))
        assert batcher.batches_total == 2
        assert batcher.padded_rows_total == 0

    def test_mixed_length_reconstruct_rows_trimmed_to_request(self, rng):
        engine = make_engine()
        batcher = MicroBatcher(engine.reconstruct, max_batch_size=4)
        reqs = requests(rng, [16, 24, 9])
        results = batcher.map(reqs)
        assert batcher.padded_rows_total == 3
        for got, series in zip(results, reqs):
            assert got.shape == series.shape  # not the padded bucket length

    def test_flat_rows_never_trimmed_on_length_collision(self, rng):
        # Padded bucket length == n_classes (3): classify logits must come
        # back whole, not trimmed like per-timestep outputs.
        engine = make_engine()
        batcher = MicroBatcher(engine.classify, max_batch_size=4)
        reqs = requests(rng, [2, 3])
        results = batcher.map(reqs)
        assert [r.shape for r in results] == [(3,), (3,)]

    def test_latency_budget_flushes_overdue(self, rng):
        engine = make_engine()
        batcher = MicroBatcher(engine.classify, max_batch_size=32, max_delay_s=0.0)
        first = batcher.submit(rng.standard_normal((10, 2)))
        assert not first.done()
        batcher.submit(rng.standard_normal((10, 2)))  # overdue: flushes `first`
        assert first.done()

    def test_overdue_flush_never_drops_or_poisons_the_new_submit(self, rng):
        calls = {"n": 0}

        def flaky(x, mask=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ConfigError("backend fell over")
            return np.zeros((len(x), 3))

        batcher = MicroBatcher(flaky, max_batch_size=32, max_delay_s=0.0)
        first = batcher.submit(rng.standard_normal((10, 2)))
        # The overdue flush fires inside this submit; its error belongs to
        # the flushed batch (which includes both requests here), never to
        # the submit call itself, and the new request keeps its handle.
        second = batcher.submit(rng.standard_normal((10, 2)))
        assert first.done() and second.done()
        with pytest.raises(ConfigError, match="fell over"):
            first.result()
        with pytest.raises(ConfigError, match="fell over"):
            second.result()
        third = batcher.submit(rng.standard_normal((10, 2)))
        assert third.result().shape == (3,)  # batcher recovered

    def test_context_manager_flushes(self, rng):
        engine = make_engine()
        with MicroBatcher(engine.classify, max_batch_size=32) as batcher:
            handle = batcher.submit(rng.standard_normal((10, 2)))
        assert handle.done()


class TestValidation:
    def test_bad_params(self):
        engine = make_engine()
        with pytest.raises(ConfigError, match="max_batch_size"):
            MicroBatcher(engine.classify, max_batch_size=0)
        with pytest.raises(ConfigError, match="max_delay_s"):
            MicroBatcher(engine.classify, max_delay_s=-1.0)

    def test_submit_rejects_batches(self, rng):
        batcher = MicroBatcher(make_engine().classify)
        with pytest.raises(ShapeError, match=r"\(L, m\)"):
            batcher.submit(rng.standard_normal((2, 10, 2)))

    def test_row_misaligned_endpoint_detected(self, rng):
        batcher = MicroBatcher(lambda x, mask=None: np.zeros((len(x) + 1, 2)))
        batcher.submit(rng.standard_normal((5, 2)))
        with pytest.raises(ShapeError, match="row-aligned"):
            batcher.flush()

    def test_channel_mismatch_rejected_at_submit(self, rng):
        batcher = MicroBatcher(make_engine().classify)
        batcher.submit(rng.standard_normal((5, 2)))
        with pytest.raises(ShapeError, match="channel"):
            batcher.submit(rng.standard_normal((5, 3)))

    def test_endpoint_failure_reaches_every_handle(self, rng):
        calls = {"n": 0}

        def flaky(x, mask=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ConfigError("backend fell over")
            return np.zeros((len(x), 3))

        batcher = MicroBatcher(flaky, max_batch_size=2)
        handles = [
            batcher.submit(rng.standard_normal((5, 2)), auto_flush=False)
            for _ in range(4)
        ]
        with pytest.raises(ConfigError, match="fell over"):
            batcher.flush()
        # The failed chunk's handles carry the error; the sibling chunk
        # was still served.
        assert all(handle.done() for handle in handles)
        with pytest.raises(ConfigError, match="fell over"):
            handles[0].result()
        assert handles[2].result().shape == (3,)

    def test_sibling_failure_does_not_poison_good_handle(self, rng):
        calls = {"n": 0}

        def flaky(x, mask=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ConfigError("backend fell over")
            return np.zeros((len(x), 3))

        batcher = MicroBatcher(flaky, max_batch_size=2)
        good = batcher.submit(rng.standard_normal((5, 2)), auto_flush=False)
        bad = batcher.submit(rng.standard_normal((5, 2)), auto_flush=False)
        other = batcher.submit(rng.standard_normal((9, 2)), auto_flush=False)
        # result() on the sibling chunk's handle flushes everything; the
        # failing chunk must not leak its error into this caller.
        assert other.result().shape == (3,)
        with pytest.raises(ConfigError, match="fell over"):
            good.result()
        with pytest.raises(ConfigError, match="fell over"):
            bad.result()

    def test_middle_batch_failure_spares_both_neighbours(self, rng):
        calls = {"n": 0}

        def flaky(x, mask=None):
            calls["n"] += 1
            if calls["n"] == 2:
                raise ConfigError("backend fell over")
            return np.full((len(x), 3), float(calls["n"]))

        batcher = MicroBatcher(flaky, max_batch_size=2)
        handles = [
            batcher.submit(rng.standard_normal((5, 2)), auto_flush=False)
            for _ in range(6)
        ]
        with pytest.raises(ConfigError, match="fell over"):
            batcher.flush()
        assert calls["n"] == 3  # the loop went on past the failed batch
        np.testing.assert_array_equal(handles[0].result(), np.full(3, 1.0))
        np.testing.assert_array_equal(handles[5].result(), np.full(3, 3.0))
        for handle in handles[2:4]:
            with pytest.raises(ConfigError, match="fell over"):
                handle.result()

    def test_failed_batch_counts_requests_but_not_batches(self, rng):
        def fail_long(x, mask=None):
            if x.shape[1] == 9:
                raise ConfigError("backend fell over")
            return np.zeros((len(x), 3))

        batcher = MicroBatcher(fail_long, max_batch_size=2)
        # Sorted by length the batches are [5, 7] (padded) and [9, 9].
        for length in (9, 5, 9, 7):
            batcher.submit(rng.standard_normal((length, 2)), auto_flush=False)
        with pytest.raises(ConfigError, match="fell over"):
            batcher.flush()
        assert batcher.requests_total == 4
        assert batcher.flushes_total == 1
        assert batcher.batches_total == 1
        assert batcher.padded_rows_total == 2


class TestCounters:
    @pytest.mark.parametrize(
        "lengths, batches, padded_rows",
        [
            ([18] * 9, 5, 0),
            # Sorted: [9, 9] [11, 14] [14, 20] [20, 20] [24]
            ([20, 14, 9, 20, 14, 9, 20, 11, 24], 5, 4),
        ],
        ids=["dense", "ragged"],
    )
    def test_burst_counters(self, rng, lengths, batches, padded_rows):
        engine = make_engine()
        batcher = MicroBatcher(engine.classify, max_batch_size=2)
        batcher.map(requests(rng, lengths))
        assert batcher.requests_total == 9
        assert batcher.flushes_total == 1
        assert batcher.batches_total == batches
        assert batcher.padded_rows_total == padded_rows
        assert engine.stats.batches_total == batches


class TestThreadSafety:
    def test_concurrent_submits_all_resolve(self, rng):
        engine = make_engine()
        batcher = MicroBatcher(engine.classify, max_batch_size=8)
        reqs = requests(rng, [10 + (i % 3) for i in range(24)])
        handles: list = [None] * len(reqs)

        def worker(indices):
            for i in indices:
                handles[i] = batcher.submit(reqs[i])

        threads = [
            threading.Thread(target=worker, args=(range(start, 24, 4),))
            for start in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        batcher.flush()
        assert batcher.requests_total == 24
        for series, handle in zip(reqs, handles):
            assert_parity(
                handle.result(), engine.classify(series)[0], "padded vs solo", np.float64
            )
