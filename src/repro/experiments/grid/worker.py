"""The drain loop: claim a cell, run it, record the outcome, repeat.

A worker is deliberately boring — all the concurrency guarantees live in
:mod:`repro.experiments.grid.store`.  What the worker adds:

* a heartbeat thread (:func:`repro.supervision.heartbeat`, 20 beats per
  ``stale_after_s``; each beat opens its own :class:`GridStore`
  connection, since the store is single-thread) that keeps the claim
  fresh while a slow cell trains, so honest long cells are not "stale";
* per-cell seeding: ``repro.seed_all(params["seed"])`` before the runner
  fires, so a cell's result is identical whether it runs first in a
  fresh process or tenth in a long-lived worker;
* typed failure capture: a runner exception marks the *cell* as
  ``error`` (class name, message, traceback, provenance) and the loop
  moves on — one bad cell never takes down the drain.

A SIGKILLed worker simply stops heartbeating; after ``stale_after_s``
its cell is re-claimable and another worker finishes it.  If the
original worker somehow resurfaces, its ``finish_*`` fails the claim-
token check and the result is discarded (counted in ``lost``).
"""

from __future__ import annotations

import os
import traceback
import uuid
from dataclasses import dataclass, field

from repro.errors import ConfigError, GridStateError
from repro.experiments.grid import provenance
from repro.experiments.grid.runners import get_runner, load_runner_modules
from repro.experiments.grid.store import Claim, GridStore
from repro.supervision import heartbeat

__all__ = ["WorkerConfig", "WorkerReport", "run_worker"]


def _default_worker_id() -> str:
    return f"{os.uname().nodename}:{os.getpid()}:{uuid.uuid4().hex[:6]}"


@dataclass(frozen=True)
class WorkerConfig:
    """Everything one drain loop needs."""

    db_path: str
    grid: str | None = None
    worker_id: str = field(default_factory=_default_worker_id)
    stale_after_s: float = 300.0
    max_cells: int | None = None
    runner_modules: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.stale_after_s <= 0:
            raise ConfigError(f"stale_after_s must be > 0, got {self.stale_after_s}")


@dataclass
class WorkerReport:
    """What one worker invocation accomplished."""

    worker_id: str
    done: int = 0
    errors: int = 0
    lost: int = 0

    @property
    def executed(self) -> int:
        return self.done + self.errors + self.lost


def _run_cell(store: GridStore, config: WorkerConfig, claim: Claim,
              report: WorkerReport) -> None:
    seed = claim.params.get("seed")
    if isinstance(seed, int):
        import repro

        repro.seed_all(seed)

    def beat() -> bool:
        # False (claim stolen) stops the beats; finish_* will surface it.
        with GridStore(store.path) as beat_store:
            return beat_store.heartbeat(claim)

    try:
        with heartbeat(config.stale_after_s, beat, f"grid-heartbeat-{claim.cell_id}"):
            result = get_runner(claim.runner)(claim.params)
        store.finish_done(
            claim, result,
            provenance.capture(rita_seed=seed if isinstance(seed, int) else None),
        )
        report.done += 1
    except GridStateError:
        report.lost += 1  # stolen claim: the re-claimant's result stands
    except Exception as exc:  # noqa: BLE001 — every runner fault becomes row state
        try:
            store.finish_error(
                claim,
                error_type=type(exc).__name__,
                error_message=str(exc),
                error_traceback=traceback.format_exc(),
                provenance=provenance.capture(
                    rita_seed=seed if isinstance(seed, int) else None
                ),
            )
            report.errors += 1
        except GridStateError:
            report.lost += 1


def run_worker(config: WorkerConfig) -> WorkerReport:
    """Drain cells until the grid is empty (or ``max_cells`` is hit)."""
    load_runner_modules(config.runner_modules)
    report = WorkerReport(worker_id=config.worker_id)
    with GridStore(config.db_path) as store:
        while config.max_cells is None or report.executed < config.max_cells:
            claim = store.claim_next(
                config.grid,
                worker_id=config.worker_id,
                stale_after_s=config.stale_after_s,
            )
            if claim is None:
                break
            _run_cell(store, config, claim, report)
    return report
