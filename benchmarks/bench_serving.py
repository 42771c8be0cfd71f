"""Serving benchmark: the perf trajectory file for the inference stack.

The ROADMAP north-star is serving heavy traffic; this benchmark tracks
the two serving-regime claims of the `repro.serve` stack at the
``n = 1024`` acceptance geometry (series length 1024, group attention
with ``N = 64`` — the grouping bench's acceptance cell):

* **Micro-batching** (`MicroBatcher` + `InferenceEngine`): requests/sec
  and per-request p50/p95 latency versus micro-batch size, against the
  naive one-request-at-a-time loop (``engine.classify(series)`` on each
  ``(L, m)`` request: every request is a batch-of-one forward and
  K-means reclusters on every call).  Two
  request regimes are reported: ``similar`` — the paper's serving regime
  (a fleet of near-identical signals, e.g. one sensor type across
  users), where the engine's serving-time grouping policy
  (``recluster_every`` + the Lemma-1 drift guard) lets consecutive
  batches reuse the cached partition — and ``independent`` (i.i.d.
  random requests), where the cache cannot help and the speedup is pure
  batching.  The acceptance ratio is read from the ``similar`` regime at
  the default serving batch size.
* **Streaming** (`StreamingSession`): an append-heavy stream (one new
  window per append) served incrementally versus full recompute of
  every complete window per append.

The model is the scaled-down serving geometry (dim 8, 1 head, 2 layers):
on the 1-CPU NumPy substrate wider models are compute-saturated at
batch 1 and micro-batching has nothing to amortize; the scaled registry
(DESIGN.md) applies the same substitution.  Compare ratios, not absolute
seconds, across machines.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_serving.py [out.json] [--smoke]

Emits ``benchmarks/BENCH_serving.json`` by default.  ``--smoke`` runs a
tiny geometry (seconds, exercised by CI) so the script cannot rot.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path
import sys

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import bench_meta, emit_payload, parse_bench_args

import repro
from repro.serve import InferenceEngine, MicroBatcher, StreamingSession

TARGET_MICROBATCH = 2.0
TARGET_STREAMING = 3.0
SERVING_RECLUSTER_EVERY = 8
#: Acceptance reads the MicroBatcher default batch size (32).
ACCEPT_BATCH_SIZE = 32


def build_model(length: int):
    config = repro.RitaConfig(
        input_channels=3,
        max_len=length + 8,
        dim=8,
        n_heads=1,
        n_layers=2,
        attention="group",
        n_groups=64,
        dropout=0.0,
        n_classes=5,
    )
    repro.seed_all(0)
    return repro.RitaModel(config, rng=np.random.default_rng(0)).eval()


def make_requests(regime: str, n_requests: int, length: int) -> list[np.ndarray]:
    rng = np.random.default_rng(42)
    if regime == "similar":
        base = rng.standard_normal((length, 3)).astype(np.float32)
        return [
            (base + 0.02 * rng.standard_normal((length, 3))).astype(np.float32)
            for _ in range(n_requests)
        ]
    return [rng.standard_normal((length, 3)).astype(np.float32) for _ in range(n_requests)]


def reclusters(model) -> int:
    return sum(layer.reclusters_total for layer in model.group_attention_layers())


def measure_naive(engine, requests, rounds: int) -> dict:
    """One-request-at-a-time loop; per-request latency is directly observed."""
    latencies: list[float] = []
    totals: list[float] = []
    for _ in range(rounds):
        round_latencies = []
        t_round = time.perf_counter()
        for request in requests:
            t0 = time.perf_counter()
            engine.classify(request)
            round_latencies.append(time.perf_counter() - t0)
        totals.append(time.perf_counter() - t_round)
        latencies = round_latencies  # keep the last round (post-warmup)
    return _summary(requests, totals, latencies)


def measure_batched(engine, requests, batch_size: int, rounds: int) -> dict:
    """Closed-loop burst through the MicroBatcher.

    Per-request latency in a burst is the time from submit to the
    completion of the flush that served the request; with pre-arrived
    requests that is the burst service time for every request in it, so
    the p50/p95 come from per-batch service times.
    """
    totals: list[float] = []
    latencies: list[float] = []
    for _ in range(rounds):
        batcher = MicroBatcher(engine.classify, max_batch_size=batch_size)
        round_latencies = []
        t_round = time.perf_counter()
        for start in range(0, len(requests), batch_size):
            burst = requests[start : start + batch_size]
            t0 = time.perf_counter()
            batcher.map(burst)
            round_latencies.extend([time.perf_counter() - t0] * len(burst))
        totals.append(time.perf_counter() - t_round)
        latencies = round_latencies
    return _summary(requests, totals, latencies)


def _summary(requests, totals, latencies) -> dict:
    best_total = min(totals)
    return {
        "requests": len(requests),
        "seconds_total": best_total,
        "requests_per_sec": len(requests) / best_total,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p95_ms": 1e3 * float(np.percentile(latencies, 95)),
    }


def run_microbatch(length: int, n_requests: int, batch_sizes, rounds: int) -> dict:
    out: dict = {}
    for regime in ("similar", "independent"):
        requests = make_requests(regime, n_requests, length)
        arms: dict = {}

        # Naive loop: legacy serving — batch-of-one forwards, the model's
        # training grouping config (recluster_every=1: K-means per call).
        model = build_model(length)
        engine = InferenceEngine(model)
        engine.classify(requests[0])  # warmup
        r0 = reclusters(model)
        arms["naive_loop"] = measure_naive(engine, requests, rounds)
        arms["naive_loop"]["reclusters_per_round"] = (reclusters(model) - r0) // rounds

        for batch_size in batch_sizes:
            for label, kwargs in (
                ("batched", {}),
                ("serving_stack", {"recluster_every": SERVING_RECLUSTER_EVERY}),
            ):
                model = build_model(length)
                engine = InferenceEngine(model, **kwargs)
                MicroBatcher(engine.classify, max_batch_size=batch_size).map(
                    requests[:batch_size]
                )  # warm the batched cache geometry
                r0 = reclusters(model)
                arm = measure_batched(engine, requests, batch_size, rounds)
                arm["reclusters_per_round"] = (reclusters(model) - r0) // rounds
                arm["speedup_vs_naive"] = (
                    arm["requests_per_sec"] / arms["naive_loop"]["requests_per_sec"]
                )
                arms[f"{label}_bs{batch_size}"] = arm
        out[regime] = arms
    return out


def run_streaming(length: int, step: int, n_appends: int, rounds: int) -> dict:
    rng = np.random.default_rng(7)
    stream = rng.standard_normal((length + step * n_appends, 3)).astype(np.float32)

    def session_arm():
        model = build_model(length)
        engine = InferenceEngine(model)
        session = StreamingSession(
            engine, window=length, step=step,
            recluster_every=SERVING_RECLUSTER_EVERY,
        )
        t0 = time.perf_counter()
        session.append(stream[:length])
        for i in range(n_appends):
            session.append(stream[length + i * step : length + (i + 1) * step])
        elapsed = time.perf_counter() - t0
        session.close()
        return elapsed, session.windows_encoded_total

    def recompute_arm():
        model = build_model(length)
        engine = InferenceEngine(model)
        encoded = 0
        t0 = time.perf_counter()
        for seen in range(length, len(stream) + 1, step):
            n_windows = (seen - length) // step + 1
            windows = np.stack(
                [stream[s * step : s * step + length] for s in range(n_windows)]
            )
            engine.embed(windows)
            encoded += n_windows
        return time.perf_counter() - t0, encoded

    streamed_s, streamed_windows = min(session_arm() for _ in range(rounds))
    recompute_s, recompute_windows = min(recompute_arm() for _ in range(rounds))
    return {
        "window": length,
        "step": step,
        "appends": n_appends,
        "streaming_seconds": streamed_s,
        "streaming_windows_encoded": streamed_windows,
        "full_recompute_seconds": recompute_s,
        "full_recompute_windows_encoded": recompute_windows,
        "speedup": recompute_s / streamed_s,
    }


def main(argv: list[str] | None = None) -> dict:
    args = parse_bench_args(__doc__, argv)

    if args.smoke:
        length, n_requests, batch_sizes, rounds = 64, 8, (4,), 1
        stream_step, n_appends = 16, 3
    else:
        length, n_requests, batch_sizes, rounds = 1024, 32, (4, 8, 16, 32), 3
        stream_step, n_appends = 64, 16

    microbatch = run_microbatch(length, n_requests, batch_sizes, rounds)
    streaming = run_streaming(length, stream_step, n_appends, rounds)

    accept_key = f"serving_stack_bs{ACCEPT_BATCH_SIZE if not args.smoke else batch_sizes[0]}"
    similar = microbatch["similar"]
    acceptance = {
        "geometry": {"series_length": length, "n_groups": 64},
        "microbatch": {
            "arm": accept_key,
            "naive_requests_per_sec": similar["naive_loop"]["requests_per_sec"],
            "batched_requests_per_sec": similar[accept_key]["requests_per_sec"],
            "speedup": similar[accept_key]["speedup_vs_naive"],
            "target_speedup": TARGET_MICROBATCH,
            "meets_target": similar[accept_key]["speedup_vs_naive"] >= TARGET_MICROBATCH,
        },
        "streaming": {
            "speedup": streaming["speedup"],
            "target_speedup": TARGET_STREAMING,
            "meets_target": streaming["speedup"] >= TARGET_STREAMING,
        },
    }

    payload = {
        "meta": bench_meta(
            smoke=args.smoke,
            geometry={
                "series_length": length,
                "dim": 8,
                "n_heads": 1,
                "n_layers": 2,
                "n_groups": 64,
                "n_requests": n_requests,
            },
            arms={
                "naive_loop": "batch-of-one engine calls, training grouping config "
                              "(recluster every request) — the legacy serving pattern",
                "batched_bs*": "MicroBatcher at the given batch size, training "
                               "grouping config (isolates pure batching)",
                "serving_stack_bs*": "MicroBatcher + serving grouping policy "
                                     f"(recluster_every={SERVING_RECLUSTER_EVERY}, "
                                     "Lemma-1 drift guard) — the full serve stack",
            },
        ),
        "microbatch": microbatch,
        "streaming": streaming,
        "acceptance": acceptance,
    }

    mb = acceptance["microbatch"]
    print(
        f"microbatch ({accept_key}, similar regime): "
        f"{mb['naive_requests_per_sec']:.1f} -> {mb['batched_requests_per_sec']:.1f} req/s "
        f"= {mb['speedup']:.2f}x (target >= {mb['target_speedup']}x; met={mb['meets_target']})"
    )
    st = acceptance["streaming"]
    print(
        f"streaming: {streaming['full_recompute_seconds']:.3f}s full recompute -> "
        f"{streaming['streaming_seconds']:.3f}s streamed = {st['speedup']:.2f}x "
        f"(target >= {st['target_speedup']}x; met={st['meets_target']})"
    )
    emit_payload(payload, "serving", args.out, smoke=args.smoke)
    return payload


if __name__ == "__main__":
    main()
