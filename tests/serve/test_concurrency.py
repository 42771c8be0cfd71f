"""Serve-layer concurrency: the engine's locked stats counters."""

from __future__ import annotations

import threading

from repro.serve import EngineStats


class TestEngineStatsThreadSafety:
    def test_concurrent_record_loses_no_increment(self):
        stats = EngineStats()
        n_threads, n_rounds = 16, 500
        barrier = threading.Barrier(n_threads)

        def worker(idx):
            barrier.wait()
            for _ in range(n_rounds):
                stats.record(f"endpoint_{idx % 4}", 3, 1)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats.requests_total == 3 * n_threads * n_rounds
        assert stats.batches_total == n_threads * n_rounds
        assert sum(stats.by_endpoint.values()) == 3 * n_threads * n_rounds
