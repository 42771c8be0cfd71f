"""Parallel-dispatch benchmark: thread sweep over the hot kernels.

Measures, on this machine:

1. **Group-attention forward+backward at n=1024** under the ``parallel``
   backend at 1 / 2 / 4 threads (same fused-kernel math at every point —
   only the dispatch changes).  The acceptance bar is >= 2.5x tokens/sec
   at 4 threads vs 1 — reachable only with >= 4 physical cores, so
   ``physical_cores`` is recorded next to the ratio and ``meets_target``
   stays honest on smaller machines.
2. **n=256 no-regression cell** — small inputs must take the serial
   path (the size heuristic), so the parallel backend at 4 threads stays
   within noise of plain fused.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_parallel.py [out.json] [--smoke]

Emits ``benchmarks/BENCH_parallel.json`` (``--smoke``:
``BENCH_parallel_smoke.json`` — tiny sizes, exercised by CI) by default.
Wall-clock numbers are machine-specific; compare ratios, not absolute
seconds.
"""

from __future__ import annotations

import math
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import bench_meta, emit_payload, parse_bench_args

import repro.kernels as K
from repro.autograd.tensor import Tensor
from repro.cluster.kmeans import batched_kmeans

BATCH = 2
HEADS = 4
HEAD_DIM = 32
N_GROUPS = 64
THREAD_SWEEP = (1, 2, 4)
TARGET_SPEEDUP = 2.5  # tokens/sec at 4 threads vs 1, n=1024 fwd+bwd


def _physical_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _time(fn, *, repeats: int, warmup: int = 1) -> float:
    for _ in range(warmup):
        fn()
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _qkv(n: int, dtype=np.float32, seed: int = 0):
    rng = np.random.default_rng(seed)
    shape = (BATCH, HEADS, n, HEAD_DIM)
    return tuple(rng.standard_normal(shape).astype(dtype) for _ in range(3))


def _grouping(k: np.ndarray, n_groups: int):
    batch, heads, n, d_k = k.shape
    result = batched_kmeans(
        k.reshape(batch * heads, n, d_k), n_groups, n_iters=2,
        rng=np.random.default_rng(1),
    )
    ids = result.assignments.reshape(batch, heads, n)
    counts = result.counts.reshape(batch, heads, result.n_clusters)
    return ids, counts, result.n_clusters


def _group_attention(q, k, v, ids, counts, n_groups) -> Tensor:
    d_k = q.shape[-1]
    counts = counts.astype(k.data.dtype)
    key_sums = K.segment_sum(k, ids, n_groups)
    representatives = key_sums / np.maximum(counts, 1.0)[..., None]
    scores = (q @ representatives.swapaxes(-1, -2)) * (1.0 / math.sqrt(d_k))
    attn = K.fused_group_softmax(scores, counts)
    v_agg = K.segment_sum(v, ids, n_groups)
    return attn @ v_agg


def bench_thread_sweep(n: int = 1024, repeats: int = 5) -> dict:
    """Group-attention fwd+bwd tokens/sec at each thread count."""
    q_arr, k_arr, v_arr = _qkv(n)
    ids, counts, n_groups = _grouping(k_arr.astype(np.float64), N_GROUPS)

    def step():
        q = Tensor(q_arr, requires_grad=True)
        k = Tensor(k_arr, requires_grad=True)
        v = Tensor(v_arr, requires_grad=True)
        out = _group_attention(q, k, v, ids, counts, n_groups)
        out.sum().backward()

    per_threads = {}
    with K.use_backend("parallel"):
        for threads in THREAD_SWEEP:
            with K.threads_scope(threads):
                seconds = _time(step, repeats=repeats)
            per_threads[str(threads)] = {
                "seconds_per_step": seconds,
                "tokens_per_second": BATCH * n / seconds,
            }
    speedup = (
        per_threads["1"]["seconds_per_step"] / per_threads["4"]["seconds_per_step"]
    )
    cores = _physical_cores()
    return {
        "n": n,
        "n_groups": n_groups,
        "per_threads": per_threads,
        "speedup_4_threads_vs_1": speedup,
        "target_speedup": TARGET_SPEEDUP,
        "physical_cores": cores,
        "meets_target": speedup >= TARGET_SPEEDUP,
        "note": (
            "thread scaling is bounded by physical cores; on a "
            f"{cores}-core machine the 4-thread cell measures dispatch "
            "overhead, not speedup" if cores < 4 else ""
        ),
    }


def bench_small_input_no_regression(n: int = 256, repeats: int = 5) -> dict:
    """n=256 must not regress: the size heuristic keeps it serial."""
    q_arr, k_arr, v_arr = _qkv(n, seed=3)
    ids, counts, n_groups = _grouping(k_arr.astype(np.float64), N_GROUPS)

    def step():
        q = Tensor(q_arr, requires_grad=True)
        k = Tensor(k_arr, requires_grad=True)
        v = Tensor(v_arr, requires_grad=True)
        out = _group_attention(q, k, v, ids, counts, n_groups)
        out.sum().backward()

    with K.use_backend("fused"):
        fused_seconds = _time(step, repeats=repeats)
    with K.use_backend("parallel"), K.threads_scope(4):
        parallel_seconds = _time(step, repeats=repeats)
    backend = K.get_backend("parallel")
    backend.reset_stats()
    with K.use_backend("parallel"), K.threads_scope(4):
        step()
    sharded = backend.snapshot()["sharded_calls"]
    return {
        "n": n,
        "fused_seconds": fused_seconds,
        "parallel_4_threads_seconds": parallel_seconds,
        "overhead_ratio": parallel_seconds / fused_seconds,
        "max_overhead_ratio": 1.05,
        # The batch dim at n=256 sits under the element threshold for the
        # softmax-family shards; any residual sharding is from the larger
        # segment ops and must still keep the ratio within bounds.
        "sharded_calls_per_step": int(sharded),
        "within_bounds": parallel_seconds / fused_seconds <= 1.05,
    }


def main(argv: list[str] | None = None) -> dict:
    args = parse_bench_args(__doc__, argv)
    meta = bench_meta(
        smoke=args.smoke,
        physical_cores=_physical_cores(),
        kernel_backends=K.available_backends(),
        geometry={"batch": BATCH, "heads": HEADS, "head_dim": HEAD_DIM,
                  "n_groups": N_GROUPS},
    )
    if args.smoke:
        # The smoke tier shrinks the kernel cells to seconds.
        payload = {
            "meta": meta,
            "thread_sweep": bench_thread_sweep(n=128, repeats=1),
            "small_input_no_regression": bench_small_input_no_regression(n=64, repeats=1),
        }
        sweep = payload["thread_sweep"]["per_threads"]
        print("smoke ok:", {t: f"{v['seconds_per_step']*1e3:.1f} ms" for t, v in sweep.items()})
        small = payload["small_input_no_regression"]
        print(f"small-input overhead ratio: {small['overhead_ratio']:.3f}")
        emit_payload(payload, "parallel", args.out, smoke=True)
        return payload

    payload = {
        "meta": meta,
        "thread_sweep": bench_thread_sweep(),
        "small_input_no_regression": bench_small_input_no_regression(),
    }

    sweep = payload["thread_sweep"]
    print(f"group attention fwd+bwd n={sweep['n']} (parallel backend):")
    for threads, cell in sweep["per_threads"].items():
        print(f"  {threads} thread(s): {cell['seconds_per_step']*1e3:8.1f} ms "
              f"({cell['tokens_per_second']:,.0f} tok/s)")
    print(f"  4-vs-1 speedup: {sweep['speedup_4_threads_vs_1']:.2f}x "
          f"(target >= {sweep['target_speedup']}x; met={sweep['meets_target']}; "
          f"{sweep['physical_cores']} physical core(s))")
    small = payload["small_input_no_regression"]
    print(f"n={small['n']} overhead ratio: {small['overhead_ratio']:.3f} "
          f"(bound {small['max_overhead_ratio']}; ok={small['within_bounds']})")
    emit_payload(payload, "parallel", args.out, smoke=False)
    return payload


if __name__ == "__main__":
    main()
