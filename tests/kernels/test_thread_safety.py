"""Concurrent-caller safety of the fused backend's scratch pool.

The fused backend stages intermediates in reusable scratch buffers keyed
by ``(tag, shape, dtype)``.  Serving endpoints run kernels on their
callers' threads, so a process-global pool would let two threads running
the *same-shaped* kernel hand each other half-written staging memory and
corrupt results silently.  The pool is ``threading.local`` — these tests
pin that down with a direct inspection and an 8-thread hammer that
asserts bitwise agreement with the serial answers.
"""

from __future__ import annotations

import threading

import numpy as np

import repro.kernels as K

N_THREADS = 8
N_ROUNDS = 40


def _make_inputs(seed):
    """Same shapes for every thread — the worst case for a shared pool."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((6, 4, 32, 32))
    mask = rng.random((6, 1, 1, 32)) > 0.3
    mask[..., 0] = True  # keep every row non-empty
    values = rng.standard_normal((5, 48, 8))
    segment_ids = rng.integers(0, 7, size=(5, 48))
    return x, mask, values, segment_ids


def _run_kernels(backend, inputs):
    x, mask, values, segment_ids = inputs
    means, counts = backend.segment_mean(values, segment_ids, 7)
    return (
        backend.masked_softmax(x, mask, -1),
        backend.softmax(x, -1),
        backend.segment_sum(values, segment_ids, 7),
        means,
        counts,
        backend.layer_norm(x[0], np.ones(32), np.zeros(32), 1e-5)[0],
    )


def test_scratch_pool_is_thread_local():
    backend = K.get_backend("fused")
    backend.softmax(np.ones((4, 8)), -1)  # populate this thread's pool
    main_pool = backend._buffers
    seen = {}

    def probe():
        backend.softmax(np.ones((4, 8)), -1)
        seen["worker"] = backend._buffers

    worker = threading.Thread(target=probe)
    worker.start()
    worker.join()
    assert seen["worker"] is not main_pool


def test_fused_kernels_survive_8_thread_hammer():
    """8 threads, same shapes, interleaved shapes — bitwise vs serial."""
    backend = K.get_backend("fused")
    inputs = [_make_inputs(seed) for seed in range(N_THREADS)]
    expected = [_run_kernels(backend, inp) for inp in inputs]

    barrier = threading.Barrier(N_THREADS)
    failures: list[str] = []
    failures_lock = threading.Lock()

    def hammer(thread_idx):
        barrier.wait()
        for round_idx in range(N_ROUNDS):
            got = _run_kernels(backend, inputs[thread_idx])
            for name, g, e in zip(
                (
                    "masked_softmax",
                    "softmax",
                    "segment_sum",
                    "segment_mean",
                    "segment_count",
                    "layer_norm",
                ),
                got,
                expected[thread_idx],
            ):
                if not np.array_equal(g, e):
                    with failures_lock:
                        failures.append(
                            f"thread {thread_idx} round {round_idx}: {name} diverged"
                        )
                    return

    threads = [
        threading.Thread(target=hammer, args=(idx,)) for idx in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, failures[:5]

