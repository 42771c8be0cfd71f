"""Crash-resume: a SIGKILLed worker's claim expires; a second finishes.

The scenario the grid exists to survive: worker 1 is killed with
SIGKILL (no cleanup, no atexit — the heartbeat simply stops) while
mid-cell.  After the staleness window passes, worker 2 re-claims the
orphaned cell and drains the grid.  The journal written by the runner
(see ``grid_test_runners``) proves no cell was ever *completed* twice,
and the database records attempts == 2 for exactly the killed cell.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.experiments.grid import GridStore

REPO = Path(__file__).resolve().parents[2]
STALE_AFTER = 1.0
HANG_X = 1


def worker_cmd(db: str, *extra: str) -> list[str]:
    return [
        sys.executable, "-m", "repro.experiments.grid", "run", db,
        "--grid", "crash", "--runners", "grid_test_runners",
        "--stale-after", str(STALE_AFTER),
        *extra,
    ]


def wait_for(predicate, timeout_s: float, what: str) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out after {timeout_s}s waiting for {what}")


def test_sigkilled_worker_cell_is_resumed_exactly_once(tmp_path):
    db = str(tmp_path / "grid.db")
    journal = tmp_path / "journal"
    journal.mkdir()
    env = {
        **os.environ,
        "PYTHONPATH": f"{REPO / 'src'}:{Path(__file__).resolve().parent}",
        "RITA_GRID_TEST_DIR": str(journal),
    }

    with GridStore(db, create=True) as store:
        store.fill("crash", "flagged_sleep",
                   [{"x": x, "hang_x": HANG_X} for x in range(3)])

    # Worker 1 claims cells in order: x=0 completes, x=1 hangs forever.
    worker1 = subprocess.Popen(
        worker_cmd(db), env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        wait_for(lambda: (journal / f"started_{HANG_X}").exists(), 30.0,
                 "worker 1 to enter the hang cell")
        os.kill(worker1.pid, signal.SIGKILL)
        worker1.wait(timeout=10.0)
    finally:
        if worker1.poll() is None:
            worker1.kill()

    # Mid-crash state: the killed claim is still 'claimed' in the DB.
    with GridStore(db) as store:
        counts = store.counts("crash")["crash"]
        assert counts["claimed"] == 1, counts
        assert counts["done"] == 1, counts

    # Once the heartbeat goes stale, worker 2 re-claims and drains.
    time.sleep(STALE_AFTER + 0.5)
    worker2 = subprocess.run(
        worker_cmd(db), env=env, capture_output=True, text=True, timeout=60.0,
    )
    assert worker2.returncode == 0, worker2.stderr
    assert "3 done" in worker2.stdout or "2 done" in worker2.stdout

    with GridStore(db) as store:
        cells = store.cells("crash")
        assert {c.status for c in cells} == {"done"}
        attempts = {c.params["x"]: c.attempts for c in cells}
        # Exactly the killed cell needed a second claim.
        assert attempts == {0: 1, HANG_X: 2, 2: 1}

    # Ground truth from outside the DB: every cell completed exactly once
    # (the killed attempt never reached the completion journal), and the
    # hang cell was *started* twice by two different worker processes.
    completions = (journal / "completions.log").read_text().split()
    assert sorted(completions) == ["0", "1", "2"]
    start_pids = (journal / f"started_{HANG_X}").read_text().split()
    assert len(start_pids) == 2 and start_pids[0] != start_pids[1]

    # The resumed database is a normal grid database: dump sees 3 done.
    dump = json.loads(subprocess.run(
        [sys.executable, "-m", "repro.experiments.grid", "dump", db],
        env=env, capture_output=True, text=True, timeout=30.0,
    ).stdout)
    statuses = [c["status"] for g in dump["grids"] for c in g["cells"]]
    assert statuses == ["done", "done", "done"]
