"""Kernel-layer micro-benchmark: the perf trajectory file for future PRs.

Measures, on this machine:

1. **Group-attention forward+backward at n=1024** — the pre-refactor
   baseline (the exact op composition the repo shipped before the kernel
   layer: per-op autograd closures, ``np.add.at`` segment sum, float64)
   against the refactored path (fused group-softmax kernel, sort+reduceat
   segment sum, float32).  The acceptance bar is >= 2x.
2. **Tokens/sec, vanilla vs. group attention** at n in {256, 1024, 4096},
   both dtypes, forward-only under ``no_grad`` (the inference fast path).

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_kernels.py [out.json] [--smoke]

Emits ``benchmarks/BENCH_kernels.json`` by default.  ``--smoke`` runs a
tiny geometry (seconds, exercised by CI) so the script cannot rot.
Numbers are wall-clock on whatever machine runs this, so compare ratios,
not absolute seconds, across machines.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import bench_meta, emit_payload, parse_bench_args

import repro.kernels as K
from repro.attention.group import GroupAttention
from repro.attention.vanilla import VanillaAttention
from repro.autograd.tensor import Tensor, no_grad
from repro.cluster.kmeans import batched_kmeans

BATCH = 2
HEADS = 4
HEAD_DIM = 32
N_GROUPS = 64
TARGET_SPEEDUP = 2.0


def _time(fn, *, repeats: int, warmup: int = 1) -> float:
    """Best-of-``repeats`` wall-clock seconds for one call of ``fn``."""
    for _ in range(warmup):
        fn()
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _qkv(n: int, dtype, seed: int = 0):
    rng = np.random.default_rng(seed)
    shape = (BATCH, HEADS, n, HEAD_DIM)
    return tuple(rng.standard_normal(shape).astype(dtype) for _ in range(3))


def _grouping(k: np.ndarray, n_groups: int):
    """One clustering, shared by both paths so only attention math differs."""
    batch, heads, n, d_k = k.shape
    result = batched_kmeans(
        k.reshape(batch * heads, n, d_k), n_groups, n_iters=2,
        rng=np.random.default_rng(1),
    )
    segments = dataclasses.replace(
        result.segments, ids=result.assignments.reshape(batch, heads, n)
    )
    counts = result.counts.reshape(batch, heads, result.n_clusters)
    return segments, counts


# ----------------------------------------------------------------------
# Path A: the pre-refactor composition (what the repo shipped before the
# kernel layer).  Group softmax as five recorded autograd ops; segment
# sums on the np.add.at reference kernels; float64 throughout.
# ----------------------------------------------------------------------
def _legacy_group_attention(q, k, v, segments, counts) -> Tensor:
    d_k = q.shape[-1]
    counts = counts.astype(np.float64)
    key_sums = K.segment_sum(k, segments)
    safe_counts = np.maximum(counts, 1.0)[..., None]
    representatives = key_sums / safe_counts
    scores = (q @ representatives.swapaxes(-1, -2)) * (1.0 / math.sqrt(d_k))
    shift = scores.data.max(axis=-1, keepdims=True)
    exp_scores = (scores - Tensor(shift)).exp()
    weighted = exp_scores * Tensor(counts[:, :, None, :])
    denom = weighted.sum(axis=-1, keepdims=True)
    attn = exp_scores / denom
    v_agg = K.segment_sum(v, segments)
    return attn @ v_agg


# ----------------------------------------------------------------------
# Path B: the refactored kernel path (fused group softmax, fused segment
# sum) — what GroupAttention.forward now executes.
# ----------------------------------------------------------------------
def _fused_group_attention(q, k, v, segments, counts) -> Tensor:
    d_k = q.shape[-1]
    counts = counts.astype(k.data.dtype)
    key_sums = K.segment_sum(k, segments)
    safe_counts = np.maximum(counts, 1.0)[..., None]
    representatives = key_sums / safe_counts
    scores = (q @ representatives.swapaxes(-1, -2)) * (1.0 / math.sqrt(d_k))
    attn = K.fused_group_softmax(scores, counts)
    v_agg = K.segment_sum(v, segments)
    return attn @ v_agg


def bench_group_forward_backward(n: int = 1024, repeats: int = 5) -> dict:
    q64, k64, v64 = _qkv(n, np.float64)
    segments, counts = _grouping(k64, N_GROUPS)

    def run(path, q_arr, k_arr, v_arr, backend):
        q = Tensor(q_arr, requires_grad=True)
        k = Tensor(k_arr, requires_grad=True)
        v = Tensor(v_arr, requires_grad=True)
        with K.use_backend(backend):
            out = path(q, k, v, segments, counts)
            out.sum().backward()
        return out

    baseline = _time(
        lambda: run(_legacy_group_attention, q64, k64, v64, "reference"),
        repeats=repeats,
    )
    q32, k32, v32 = (a.astype(np.float32) for a in (q64, k64, v64))
    fused = _time(
        lambda: run(_fused_group_attention, q32, k32, v32, "fused"),
        repeats=repeats,
    )
    # Decomposed ablations so future regressions are attributable.
    fused_f64 = _time(
        lambda: run(_fused_group_attention, q64, k64, v64, "fused"),
        repeats=repeats,
    )
    legacy_f32 = _time(
        lambda: run(_legacy_group_attention, q32, k32, v32, "reference"),
        repeats=repeats,
    )
    return {
        "n": n,
        "batch": BATCH,
        "heads": HEADS,
        "head_dim": HEAD_DIM,
        "n_groups": counts.shape[-1],
        "baseline_composed_reference_float64_seconds": baseline,
        "fused_float32_seconds": fused,
        "fused_float64_seconds": fused_f64,
        "composed_reference_float32_seconds": legacy_f32,
        "speedup_fused_f32_vs_baseline": baseline / fused,
        "target_speedup": TARGET_SPEEDUP,
        "meets_target": baseline / fused >= TARGET_SPEEDUP,
    }


def bench_tokens_per_second(lengths=(256, 1024, 4096), repeats: int = 3) -> dict:
    """Forward-only (inference fast path) tokens/sec per mechanism/dtype."""
    results: dict = {}
    for kind in ("vanilla", "group"):
        results[kind] = {}
        for dtype_name in ("float32", "float64"):
            dtype = np.dtype(dtype_name)
            per_length = {}
            for n in lengths:
                q, k, v = (Tensor(a) for a in _qkv(n, dtype))
                if kind == "vanilla":
                    mechanism = VanillaAttention()
                else:
                    mechanism = GroupAttention(
                        n_groups=N_GROUPS, rng=np.random.default_rng(2)
                    )

                def step():
                    with no_grad():
                        mechanism(q, k, v)

                seconds = _time(step, repeats=repeats)
                per_length[str(n)] = {
                    "seconds_per_forward": seconds,
                    "tokens_per_second": BATCH * n / seconds,
                }
            results[kind][dtype_name] = per_length
    return results


def main(argv: list[str] | None = None) -> dict:
    args = parse_bench_args(__doc__, argv)
    if args.smoke:
        fwd_bwd = bench_group_forward_backward(n=128, repeats=1)
        tokens = bench_tokens_per_second(lengths=(64,), repeats=1)
    else:
        fwd_bwd = bench_group_forward_backward()
        tokens = bench_tokens_per_second()
    payload = {
        "meta": bench_meta(
            smoke=args.smoke,
            kernel_backends=K.available_backends(),
            geometry={"batch": BATCH, "heads": HEADS, "head_dim": HEAD_DIM,
                      "n_groups": N_GROUPS},
        ),
        "group_attention_forward_backward": fwd_bwd,
        "tokens_per_second": tokens,
    }

    fb = payload["group_attention_forward_backward"]
    print(f"group attention fwd+bwd n={fb['n']}:")
    print(f"  baseline (composed ops, reference, f64): {fb['baseline_composed_reference_float64_seconds']*1e3:8.1f} ms")
    print(f"  fused kernels, f32:                      {fb['fused_float32_seconds']*1e3:8.1f} ms")
    print(f"  speedup: {fb['speedup_fused_f32_vs_baseline']:.2f}x (target >= {TARGET_SPEEDUP}x; met={fb['meets_target']})")
    for kind, by_dtype in payload["tokens_per_second"].items():
        for dtype_name, per_length in by_dtype.items():
            rates = ", ".join(
                f"n={n}: {v['tokens_per_second']:,.0f} tok/s" for n, v in per_length.items()
            )
            print(f"{kind:8s} {dtype_name}: {rates}")
    emit_payload(payload, "kernels", args.out, smoke=args.smoke)
    return payload


if __name__ == "__main__":
    main()
