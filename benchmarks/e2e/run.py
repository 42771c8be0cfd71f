"""End-to-end RITA benchmark: one workload per run, each in a fresh process.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload train_long --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
workload with outside-in spans around each ``repro`` layer and reports the
per-layer metrics instead (and writes a Chrome trace under
``benchmarks/e2e/out/``).  Every metric is printed by name with its unit;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when a correctness check fails.

``--smoke`` swaps in a tiny geometry (seconds, for the test suite) and
``--out FILE`` also writes the full record (result, checks, details and
the run environment) as JSON, the input format of ``compare.py``.
"""

import os

# Pin every BLAS pool to one thread before NumPy is imported (spawned
# serving workers inherit the environment): on a small machine, two
# workers each starting a multi-threaded BLAS pool oversubscribe the
# cores and the routed tier's tail latency collapses.  The library's own
# knobs are cleared so its defaults are what gets measured.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in ("RITA_KERNEL_BACKEND", "RITA_COMPUTE_DTYPE", "RITA_NUM_THREADS"):
    os.environ.pop(_var, None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parents[2] / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    # Measure the checkout's sources, never an installed copy of the package.
    sys.exit(f"run.py: no RITA sources under {SRC}; run it from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer, layer_targets  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "series_per_s": "series/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

_LAYERS = dict.fromkeys(name for _, _, name in layer_targets())
PER_LAYER_UNITS = {f"{layer}.share": "fraction" for layer in [*_LAYERS, "other"]}
PER_LAYER_UNITS.update({
    "cluster.kmeans.calls_per_op": "calls/op",
    "cluster.recluster_rate": "fraction",
    "attention.group.approx_rel_err": "ratio",
    "kernels.calls_per_op": "calls/op",
    "scheduler.mean_groups_end": "groups",
    "serve.batcher.padded_row_share": "fraction",
    "serve.router.submit_us_p50": "us",
    "serve.router.dispatch_us_p50": "us",
    "serve.router.overhead_ms_p50": "ms",
    "serve.router.dispatch_share_max": "fraction",
    "serve.router.retries": "count",
    "serve.router.shed": "count",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead": "fraction",
})


def run_meta(args: argparse.Namespace) -> dict:
    """The run environment, stamped into every record."""
    from repro.kernels.backend import get_backend
    from repro.kernels.policy import get_default_dtype

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ[var] for var in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "kernel_backend": get_backend().name,
        "dtype": str(np.dtype(get_default_dtype())),
        "machine": platform.machine(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=15.0, help="measuring budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer traced run instead of end-to-end metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny geometry for the test suite")
    parser.add_argument("--out", type=Path, help="also write the full record here")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    runner, measured, smoke = workloads.WORKLOADS[args.workload]
    tracer = Tracer(layer_targets()) if args.trace else None
    outcome = runner(smoke if args.smoke else measured, args.seed, args.seconds, tracer)

    if tracer is None:
        values, units = outcome.metrics, END_TO_END_UNITS
    else:
        values, units = outcome.layers, PER_LAYER_UNITS
        trace_file = workloads.OUT_DIR / f"{args.workload}-seed{args.seed}.trace.json"
        print(f"trace: {tracer.write_chrome_trace(trace_file, outcome.op_ends)}")
    metrics = {}
    for name, unit in units.items():
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value if math.isfinite(value) else None, "unit": unit}
        print(f"{name:36s} {value:14.6g} {unit}")
    for name, ok, info in outcome.checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({info})")
    result = {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    meta = run_meta(args)
    print("meta " + json.dumps(meta))
    if args.out is not None:
        record = {
            "meta": meta,
            "result": result,
            "checks": [{"name": n, "ok": ok, "info": info} for n, ok, info in outcome.checks],
            "detail": outcome.detail,
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=2, default=float) + "\n")
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
