"""Resilience benchmark: availability and tail latency under injected faults.

Drives open-loop load (fixed request rate) through the replicated
serving tier (:class:`~repro.serve.WorkerPool` +
:class:`~repro.serve.Router`) while a seeded
:class:`~repro.serve.ChaosSchedule` injects the acceptance faults:

* one of the workers is **killed mid-load** (hard ``os._exit`` before
  serving a scheduled request) — the supervisor must respawn it and the
  router must re-dispatch its in-flight requests;
* a fraction of replies is **delayed past the request deadline** — the
  per-attempt timeout must re-dispatch those requests to another
  replica in time.

Reported per run:

* **availability** — fraction of *admitted* requests that resolved with
  a result (acceptance: >= 99%); shed requests are reported separately
  (``shed_rate``) because rejecting fast at admission is correct
  behaviour, not a failure;
* **correctness** — every delivered result is compared bitwise against
  a serial single-engine run (acceptance: zero mismatches);
* **typed failures** — every failed request must carry a typed
  :class:`~repro.errors.ServingError`; untyped failures and hung waits
  are acceptance violations (expected zero);
* **latency** p50/p95/p99 of successful requests, and **recovery time**
  (crash event to the replacement incarnation's ready event, from
  ``pool.stats.events``).

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_resilience.py [out.json] [--smoke]

Emits ``benchmarks/BENCH_resilience.json`` by default.  ``--smoke`` runs
a tiny load (seconds, exercised by CI) so the script cannot rot.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
import sys

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import bench_meta, emit_payload, parse_bench_args

import repro
from repro.errors import (
    DeadlineExceededError,
    IntegrityError,
    OverloadError,
    ReproError,
    WorkerCrashError,
)
from repro.serve import ChaosSchedule, InferenceEngine, ModelArtifact, Router, WorkerPool

TARGET_AVAILABILITY = 0.99
CHAOS_SEED = 2024  #: the pinned fault-plan seed (see EXPERIMENTS.md)


def build_artifact() -> ModelArtifact:
    config = repro.RitaConfig(
        input_channels=2,
        max_len=64,
        dim=8,
        n_heads=2,
        n_layers=1,
        attention="vanilla",  # deterministic forward: bitwise comparison is meaningful
        dropout=0.0,
        n_classes=3,
    )
    repro.seed_all(0)
    model = repro.RitaModel(config, rng=np.random.default_rng(0)).eval()
    return ModelArtifact.from_model(model)


def make_requests(n: int) -> list[np.ndarray]:
    rng = np.random.default_rng(42)
    return [
        rng.standard_normal((int(rng.integers(8, 49)), 2)).astype(np.float64)
        for _ in range(n)
    ]


def percentile_ms(latencies: list[float], q: float) -> float | None:
    if not latencies:
        return None
    return 1e3 * float(np.percentile(np.asarray(latencies), q))


def run_load(artifact, requests, *, n_workers, rate_per_s, deadline_s,
             kill_at, delay_rate, delay_s) -> dict:
    chaos = ChaosSchedule(
        seed=CHAOS_SEED,
        kills=kill_at,
        delay_rate=delay_rate,
        delay_s=delay_s,
    )
    # Serial ground truth for every request, computed up front.
    reference_engine = InferenceEngine(artifact)
    reference = [np.asarray(reference_engine.classify(series)) for series in requests]

    outcomes: list[dict] = [None] * len(requests)
    waiters: list[threading.Thread] = []

    def wait_for(index, future, submitted_at):
        entry = {"status": None, "latency_s": None, "error": None}
        try:
            result = future.result(timeout=deadline_s + 10.0)
        except DeadlineExceededError as exc:
            entry["status"] = "deadline"
            entry["error"] = type(exc).__name__
        except (WorkerCrashError, IntegrityError) as exc:
            entry["status"] = "failed_typed"
            entry["error"] = type(exc).__name__
        except ReproError as exc:
            entry["status"] = "failed_typed"
            entry["error"] = type(exc).__name__
        except Exception as exc:  # noqa: BLE001 - acceptance violation
            entry["status"] = "failed_untyped"
            entry["error"] = type(exc).__name__
        else:
            entry["latency_s"] = time.monotonic() - submitted_at
            entry["status"] = (
                "ok" if np.array_equal(result, reference[index]) else "mismatch"
            )
        outcomes[index] = entry

    pool = WorkerPool(artifact, n_workers=n_workers, chaos=chaos)
    router = Router(
        pool,
        max_inflight=max(16, int(rate_per_s * deadline_s * 4)),
        attempt_timeout_s=0.12,
        max_redelivery=3,
        backoff_base_s=0.01,
    )
    interval = 1.0 / rate_per_s
    shed = 0
    try:
        # Measure serving availability, not cold start: the load clock
        # starts once every replica has reported ready.
        ready_deadline = time.monotonic() + 120.0
        while pool.ready_count() < n_workers and time.monotonic() < ready_deadline:
            time.sleep(0.02)
        t_start = time.monotonic()
        for index, series in enumerate(requests):
            target = t_start + index * interval
            lag = target - time.monotonic()
            if lag > 0:
                time.sleep(lag)
            submitted_at = time.monotonic()
            try:
                future = router.submit("classify", series, deadline_s=deadline_s)
            except OverloadError:
                shed += 1
                outcomes[index] = {"status": "shed", "latency_s": None,
                                   "error": "OverloadError"}
                continue
            waiter = threading.Thread(
                target=wait_for, args=(index, future, submitted_at), daemon=True
            )
            waiter.start()
            waiters.append(waiter)
        for waiter in waiters:
            waiter.join(timeout=deadline_s + 15.0)
        wall_s = time.monotonic() - t_start
        hung = sum(1 for entry in outcomes if entry is None)
        # Let in-flight respawns finish so recovery time is observable
        # even when the load ends inside the respawn window.
        recover_deadline = time.monotonic() + 30.0
        while pool.ready_count() < n_workers and time.monotonic() < recover_deadline:
            time.sleep(0.02)
        events = list(pool.stats.events)
        pool_counters = {
            "spawns_total": pool.stats.spawns_total,
            "respawns_total": pool.stats.respawns_total,
            "crashes_total": pool.stats.crashes_total,
            "heartbeat_timeouts_total": pool.stats.heartbeat_timeouts_total,
        }
        router_counters = {
            "submitted_total": router.stats.submitted_total,
            "completed_total": router.stats.completed_total,
            "degraded_total": router.stats.degraded_total,
            "retries_total": router.stats.retries_total,
            "attempt_timeouts_total": router.stats.attempt_timeouts_total,
            "checksum_failures_total": router.stats.checksum_failures_total,
            "stale_results_total": router.stats.stale_results_total,
        }
    finally:
        router.close()
        pool.close()

    # Recovery time: each crash/heartbeat-timeout event to the first
    # ready event of the replacement incarnation of the same worker.
    recoveries = []
    for t_lost, kind, worker_id, generation in events:
        if kind not in ("crashed", "heartbeat-timeout", "spawn-timeout"):
            continue
        ready_times = [
            t for t, k, w, g in events
            if k == "ready" and w == worker_id and g > generation and t >= t_lost
        ]
        if ready_times:
            recoveries.append(min(ready_times) - t_lost)

    counts = {}
    for entry in outcomes:
        status = "hung" if entry is None else entry["status"]
        counts[status] = counts.get(status, 0) + 1
    ok = counts.get("ok", 0)
    admitted = len(requests) - shed
    latencies = [e["latency_s"] for e in outcomes
                 if e is not None and e["latency_s"] is not None]
    return {
        "requests": len(requests),
        "admitted": admitted,
        "wall_seconds": wall_s,
        "offered_rate_per_s": rate_per_s,
        "outcomes": counts,
        "availability": (ok / admitted) if admitted else None,
        "shed_rate": shed / len(requests),
        "bitwise_mismatches": counts.get("mismatch", 0),
        "untyped_failures": counts.get("failed_untyped", 0),
        "hung_requests": hung,
        "latency_p50_ms": percentile_ms(latencies, 50),
        "latency_p95_ms": percentile_ms(latencies, 95),
        "latency_p99_ms": percentile_ms(latencies, 99),
        "recovery": {
            "losses": len(recoveries),
            "mean_recovery_s": float(np.mean(recoveries)) if recoveries else None,
            "max_recovery_s": float(np.max(recoveries)) if recoveries else None,
        },
        "pool": pool_counters,
        "router": router_counters,
    }


def main(argv: list[str] | None = None) -> dict:
    args = parse_bench_args(__doc__, argv)

    if args.smoke:
        n_workers, n_requests, rate_per_s = 2, 24, 30.0
        kill_at = {1: (0, 2)}  # worker 1 dies before its 3rd request
        # The whole smoke run fits inside the respawn window, so a
        # delayed reply may have no second replica to retry on; a
        # deadline above the delay keeps the scenario meaningful.
        deadline_s = 1.0
    else:
        n_workers, n_requests, rate_per_s = 4, 200, 25.0
        kill_at = {1: (0, 9)}  # worker 1 dies before its 10th request
        deadline_s = 0.6  # *below* the injected delay: retry must save them
    delay_rate, delay_s = 0.05, 0.8  # 5% of replies delayed past the deadline

    artifact = build_artifact()
    requests = make_requests(n_requests)
    run = run_load(
        artifact, requests,
        n_workers=n_workers, rate_per_s=rate_per_s, deadline_s=deadline_s,
        kill_at=kill_at, delay_rate=delay_rate, delay_s=delay_s,
    )

    acceptance = {
        "availability": {
            "value": run["availability"],
            "target": TARGET_AVAILABILITY,
            "meets_target": (
                run["availability"] is not None
                and run["availability"] >= TARGET_AVAILABILITY
            ),
        },
        "every_result_bitwise_serial": run["bitwise_mismatches"] == 0,
        "every_failure_typed": run["untyped_failures"] == 0,
        "no_request_hung": run["hung_requests"] == 0,
        "worker_was_killed_and_recovered": (
            run["pool"]["crashes_total"] >= 1 and run["recovery"]["losses"] >= 1
        ),
    }

    payload = {
        "meta": bench_meta(
            smoke=args.smoke,
            chaos={
                "seed": CHAOS_SEED,
                "kills": {str(k): list(v) for k, v in kill_at.items()},
                "delay_rate": delay_rate,
                "delay_s": delay_s,
            },
            cluster={
                "n_workers": n_workers,
                "deadline_s": deadline_s,
                "attempt_timeout_s": 0.12,
                "max_redelivery": 3,
            },
            geometry={"dim": 8, "n_heads": 2, "n_layers": 1,
                      "lengths": "8..48", "channels": 2},
        ),
        "run": run,
        "acceptance": acceptance,
    }

    print(
        f"availability: {run['availability']:.4f} for {run['admitted']} admitted "
        f"(target >= {TARGET_AVAILABILITY}; met={acceptance['availability']['meets_target']}) "
        f"shed_rate={run['shed_rate']:.3f}"
    )
    print(
        f"latency ms p50/p95/p99: {run['latency_p50_ms']:.1f}/"
        f"{run['latency_p95_ms']:.1f}/{run['latency_p99_ms']:.1f}; "
        f"crashes={run['pool']['crashes_total']} "
        f"recovery={run['recovery']['mean_recovery_s']}"
    )
    print(
        f"bitwise mismatches={run['bitwise_mismatches']} "
        f"untyped={run['untyped_failures']} hung={run['hung_requests']}"
    )
    emit_payload(payload, "resilience", args.out, smoke=args.smoke)
    return payload


if __name__ == "__main__":
    main()
