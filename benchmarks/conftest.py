"""Shared benchmark harness.

Every benchmark regenerates one paper table/figure at the scaled-down
geometry and prints it in the paper's layout.  A run never writes into
the checkout: with ``RITA_GRID_DB`` set, each passing table is logged
into the experiment grid, and ``grid render`` is the only writer of
``benchmarks/results/``.  pytest-benchmark wraps each run (rounds=1 —
these are full training experiments, not microbenchmarks; the attention
microbenchmark file uses proper rounds).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro
import repro.kernels
from repro.experiments.grid import provenance as grid_provenance
from repro.experiments.grid.render import PYTEST_RECORD_GRID, PYTEST_RECORD_RUNNER
from repro.experiments.grid.store import GridStore


_RUN_STAMP: str | None = None


def _run_stamp() -> str:
    """Session-stable UTC timestamp: every cell from one run shares it."""
    global _RUN_STAMP
    if _RUN_STAMP is None:
        _RUN_STAMP = grid_provenance.utc_now()
    return _RUN_STAMP


@pytest.fixture(scope="session", autouse=True)
def _float64_policy():
    """Pin float64 so table numbers keep their seed-era meaning.

    ``bench_kernels.py`` sweeps both dtypes explicitly via
    ``repro.kernels.dtype_scope``.
    """
    previous = repro.kernels.set_default_dtype(np.float64)
    yield
    repro.kernels.set_default_dtype(previous)


@pytest.fixture(autouse=True)
def _seed():
    repro.seed_all(2024)
    yield


@pytest.hookimpl(wrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    report = yield
    setattr(item, f"rep_{report.when}", report)
    return report


@pytest.fixture
def record(request):
    """Print a table and, when the test passed, log it into the grid.

    The log is deferred to fixture teardown and only happens when the
    test passed, so a failing run can never reach a rendered result
    artifact with numbers that violate the suite's own assertions.
    """
    pending: list[tuple[str, str]] = []

    def _record(name: str, text: str) -> None:
        print("\n" + text)
        pending.append((name, text))

    yield _record

    call_report = getattr(request.node, "rep_call", None)
    if call_report is not None and call_report.passed:
        for name, text in pending:
            _log_to_grid(name, text)


def _log_to_grid(name: str, text: str) -> None:
    """Log a passing result into the experiment grid database.

    Only when ``RITA_GRID_DB`` points at an initialized grid database
    (see ``python -m repro.experiments.grid init``): the cell carries the
    text and the environment columns of the ``# run:`` stamp, so ``grid
    render`` can write the file and provenance questions become SQL
    (EXPERIMENTS.md 'Regeneration policy').
    """
    db_path = os.environ.get("RITA_GRID_DB")
    if not db_path:
        return
    with GridStore(db_path) as store:
        store.log_external(
            PYTEST_RECORD_GRID,
            PYTEST_RECORD_RUNNER,
            {"artifact": name},
            {"text": text},
            provenance=grid_provenance.capture(rita_seed=2024),
            started_utc=_run_stamp(),
        )


def run_once(benchmark, fn):
    """Run a whole-experiment function exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
