"""Worker loop: draining, typed error capture, provenance, no double-runs."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ConfigError
from repro.experiments.grid import (
    GridStore,
    WorkerConfig,
    register_runner,
    run_worker,
)
from repro.experiments.grid.runners import _RUNNERS

COUNTER_LOCK = threading.Lock()
EXECUTIONS: list[int] = []


@pytest.fixture(autouse=True)
def _test_runners():
    """Register throwaway runners; restore the registry afterwards."""
    before = dict(_RUNNERS)
    EXECUTIONS.clear()

    @register_runner("t_double")
    def t_double(params):
        with COUNTER_LOCK:
            EXECUTIONS.append(params["x"])
        return {"row": {"x": params["x"], "y": params["x"] * 2}}

    @register_runner("t_flaky")
    def t_flaky(params):
        if params["x"] % 2:
            raise ConfigError(f"odd cell {params['x']}")
        return {"row": {"x": params["x"]}}

    yield
    _RUNNERS.clear()
    _RUNNERS.update(before)


@pytest.fixture
def db(tmp_path):
    path = str(tmp_path / "grid.db")
    with GridStore(path, create=True) as store:
        store.fill("g", "t_double", [{"x": i} for i in range(6)])
    return path


@pytest.mark.parametrize("stale_after_s", [0.0, -1.0])
def test_worker_config_rejects_a_non_positive_stale_window(db, stale_after_s):
    with pytest.raises(ConfigError, match="stale_after_s"):
        run_worker(WorkerConfig(db_path=db, grid="g", stale_after_s=stale_after_s))
    with GridStore(db) as store:
        assert store.counts("g")["g"]["pending"] == 6  # nothing was claimed


def test_single_worker_drains_grid(db):
    report = run_worker(WorkerConfig(db_path=db, grid="g", worker_id="w"))
    assert (report.done, report.errors, report.lost) == (6, 0, 0)
    with GridStore(db) as store:
        cells = store.cells("g", status="done")
        assert [c.result["row"]["y"] for c in cells] == [0, 2, 4, 6, 8, 10]
        # Every done cell carries environment provenance.
        assert all(c.provenance.get("python_version") for c in cells)
        assert all(c.provenance.get("platform") for c in cells)


def test_max_cells_bounds_the_loop(db):
    report = run_worker(WorkerConfig(db_path=db, grid="g", worker_id="w",
                                     max_cells=2))
    assert report.executed == 2
    with GridStore(db) as store:
        assert store.counts("g")["g"]["pending"] == 4


def test_concurrent_workers_never_double_execute(db):
    reports = []

    def drain(worker_id):
        reports.append(run_worker(WorkerConfig(
            db_path=db, grid="g", worker_id=worker_id)))

    threads = [threading.Thread(target=drain, args=(f"w{i}",)) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sum(r.done for r in reports) == 6
    assert sum(r.errors for r in reports) == 0
    # The counter is the ground truth: each cell ran exactly once.
    assert sorted(EXECUTIONS) == list(range(6))


def test_runner_exception_recorded_as_typed_error(tmp_path):
    path = str(tmp_path / "grid.db")
    with GridStore(path, create=True) as store:
        store.fill("g", "t_flaky", [{"x": i} for i in range(4)])
    report = run_worker(WorkerConfig(db_path=path, grid="g", worker_id="w"))
    assert (report.done, report.errors) == (2, 2)
    with GridStore(path) as store:
        errored = store.cells("g", status="error")
        assert {c.error_type for c in errored} == {"ConfigError"}
        assert all("odd cell" in c.error_message for c in errored)
        assert all("ConfigError" in c.error_traceback for c in errored)
        # Errored cells keep provenance too — "which machine failed?"
        assert all(c.provenance.get("platform") for c in errored)


def test_unknown_runner_is_an_error_cell_not_a_crash(tmp_path):
    path = str(tmp_path / "grid.db")
    with GridStore(path, create=True) as store:
        store.fill("g", "no_such_runner", [{"x": 0}])
    report = run_worker(WorkerConfig(db_path=path, grid="g", worker_id="w"))
    assert (report.done, report.errors) == (0, 1)
    with GridStore(path) as store:
        (cell,) = store.cells("g", status="error")
        assert cell.error_type == "GridError"


def test_worker_without_grid_filter_drains_all_grids(tmp_path):
    path = str(tmp_path / "grid.db")
    with GridStore(path, create=True) as store:
        store.fill("g1", "t_double", [{"x": 1}])
        store.fill("g2", "t_double", [{"x": 2}])
    report = run_worker(WorkerConfig(db_path=path, worker_id="w"))
    assert report.done == 2
