"""Smoke test of the end-to-end benchmark at its tiny ``--smoke`` geometry.

Each workload runs once untraced and once traced, as the benchmark's own
command does (a fresh process per run), so the test checks the contract
the benchmark promises: the declared metric names and units and no
others, passing correctness checks, a traced run whose layers cover the
program, losses that depend on the seed alone, and inputs that do.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
TRAIN_WORKLOADS = [name for name in WORKLOADS if name.startswith("train_")]


def run_benchmark(workload: str, trace: int, out: Path, cwd: Path = ROOT,
                  script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "0",
         "--seconds", "0.5", "--trace", str(trace), "--smoke", "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    """``(workload, trace) -> (last stdout line, full record)``."""
    tmp = tmp_path_factory.mktemp("e2e")
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = tmp / f"{workload}-{trace}.json"
            proc = run_benchmark(workload, trace, out)
            assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            results[workload, trace] = (last, json.loads(out.read_text()))
    return results


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_emits_exactly_the_declared_metrics(runs, workload, trace, section):
    last, _ = runs[workload, trace]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    declared = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
    emitted = {name: entry["unit"] for name, entry in last["metrics"].items()}
    assert emitted == declared
    assert all(isinstance(entry["value"], (int, float)) for entry in last["metrics"].values())
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    if trace == 0:
        assert all(entry["value"] != 0 for entry in last["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_correctness_checks_pass(runs, workload):
    for trace in (0, 1):
        last, record = runs[workload, trace]
        assert last["correct"] and last["failed"] == 0
        assert record["checks"] and all(check["ok"] for check in record["checks"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers_cover_the_run(runs, workload):
    """Self times never exceed the wall time and leave little uncovered."""
    metrics = runs[workload, 1][0]["metrics"]
    shares = [entry["value"] for name, entry in metrics.items()
              if name.endswith(".share") and name != "other.share"]
    assert min(shares) >= -1e-6  # float rounding of span time minus child time
    assert sum(shares) + metrics["other.share"]["value"] == pytest.approx(1.0, abs=0.02)
    assert -0.02 <= metrics["other.share"]["value"] <= 0.15


@pytest.mark.parametrize("workload", TRAIN_WORKLOADS)
def test_same_seed_gives_bitwise_identical_losses(runs, workload):
    """The traced run must not change the arithmetic of the untraced one."""
    first = runs[workload, 0][1]["detail"]["train_loss_per_epoch"]
    second = runs[workload, 1][1]["detail"]["train_loss_per_epoch"]
    common = min(len(first), len(second))
    assert common >= runs[workload, 0][1]["detail"]["loss_epochs"]
    assert first[:common] == second[:common]


def test_seed_changes_the_generated_inputs():
    sys.path.insert(0, str(HERE))
    try:
        import workloads
    finally:
        sys.path.remove(str(HERE))
    generators = [
        lambda seed: workloads.make_train_data(workloads.WORKLOADS["train_long"][2], seed)["x"],
        lambda seed: workloads.make_train_data(workloads.WORKLOADS["train_short"][2], seed)["x"],
        lambda seed: workloads.make_ragged_ecg(workloads.WORKLOADS["infer_offline"][2], seed),
        lambda seed: workloads.make_fleet(workloads.WORKLOADS["serve_open"][2], seed),
    ]
    for generate in generators:
        same = [np.array_equal(a, b) for a, b in zip(generate(0), generate(0))]
        other = [np.array_equal(a, b) for a, b in zip(generate(0), generate(1))]
        assert all(same) and not all(other)


def test_fails_without_the_sources(tmp_path):
    """Next to only BENCHMARK.json and its own files, the benchmark refuses to run."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_benchmark("train_short", 0, tmp_path / "record.json", cwd=tmp_path,
                         script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
