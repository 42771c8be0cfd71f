"""Concurrent callers of the fused backend.

Serving endpoints run kernels on their callers' threads (concurrent
requests, the micro-batcher's flushes), so the fused backend keeps no
state between calls: every array a kernel touches is an argument or
allocated by that call.  The 8-thread hammer below guards that: same
shapes on every thread, bitwise agreement with the serial answers.
"""

from __future__ import annotations

import threading

import numpy as np

import repro.kernels as K

N_THREADS = 8
N_ROUNDS = 40


def _make_inputs(seed):
    """Same shapes for every thread — the worst case for shared state."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((6, 4, 32, 32))
    mask = rng.random((6, 1, 1, 32)) > 0.3
    mask[..., 0] = True  # keep every row non-empty
    values = rng.standard_normal((5, 48, 8))
    segments = K.Segments.from_ids(rng.integers(0, 7, size=(5, 48)), 7)
    return x, mask, values, segments


#: The outputs ``_run_kernels`` returns, in order.
KERNELS = (
    "masked_softmax",
    "softmax",
    "segment_sum",
    "segment_mean",
    "segment_count",
    "layer_norm",
    "segment_max",
    "kmeans_assign",
    "kmeans_assign-points-sq",
)


def _run_kernels(backend, inputs):
    x, mask, values, segments = inputs
    means, counts = backend.segment_mean(values, segments)
    centers = values[:, :7].copy()
    points_sq = np.einsum("bnd,bnd->bn", values, values)
    return (
        backend.masked_softmax(x, mask, -1),
        backend.softmax(x, -1),
        backend.segment_sum(values, segments),
        means,
        counts,
        backend.layer_norm(x[0], np.ones(32), np.zeros(32), 1e-5)[0],
        backend.segment_max(values[..., 0], segments, initial=-1.0),
        backend.kmeans_assign(values, centers),
        backend.kmeans_assign(values, centers, points_sq),
    )


def _parts(output):
    return output if isinstance(output, tuple) else (output,)


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
            for name, g, e in zip(KERNELS, got, expected[thread_idx]):
                if not all(np.array_equal(a, b) for a, b in zip(_parts(g), _parts(e))):
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

