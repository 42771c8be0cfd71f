"""Cell runners: the functions a worker executes for one claimed cell.

A runner takes the cell's decoded ``params`` dict and returns a
JSON-encodable result dict.  Table-family runners return
``{"row": {...}}`` (one rendered table row); the ``bench_script``
wrapper returns ``{"payload": {...}}`` (a full ``BENCH_*.json``
payload).  Runners raise :class:`~repro.errors.ReproError` subclasses on
bad cells — the worker records the typed failure on the row, it never
crashes the drain loop.

Extra runners register via :func:`register_runner` from any module named
on the worker's ``runner_modules`` (CLI ``--runners``), which is how the
test suite injects crash/marker runners without touching library code.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
from pathlib import Path
from typing import Callable

import numpy as np

from repro.errors import ConfigError, GridError
from repro.experiments.configs import BENCH, ExperimentScale

__all__ = [
    "register_runner",
    "get_runner",
    "available_runners",
    "load_runner_modules",
]

_RUNNERS: dict[str, Callable[[dict], dict]] = {}


def register_runner(name: str) -> Callable[[Callable[[dict], dict]], Callable[[dict], dict]]:
    """Decorator: register ``fn`` as the runner for cells named ``name``."""

    def decorate(fn: Callable[[dict], dict]) -> Callable[[dict], dict]:
        _RUNNERS[name] = fn
        return fn

    return decorate


def get_runner(name: str) -> Callable[[dict], dict]:
    try:
        return _RUNNERS[name]
    except KeyError:
        raise GridError(
            f"unknown cell runner {name!r}; available: "
            f"{sorted(_RUNNERS)} (pass --runners to load extra modules)"
        ) from None


def available_runners() -> list[str]:
    return sorted(_RUNNERS)


def load_runner_modules(names: tuple[str, ...] | list[str]) -> None:
    """Import extra modules whose import registers additional runners."""
    for name in names:
        try:
            importlib.import_module(name)
        except ImportError as exc:
            raise ConfigError(f"cannot import runner module {name!r}: {exc}") from exc


def _scale_from(params: dict) -> ExperimentScale:
    overrides = params.get("scale", {})
    if not isinstance(overrides, dict):
        raise ConfigError(
            f"cell 'scale' must be a dict of ExperimentScale overrides, "
            f"got {type(overrides).__name__}"
        )
    try:
        return BENCH.with_(**overrides)
    except TypeError as exc:
        raise ConfigError(f"bad ExperimentScale overrides {overrides!r}: {exc}") from exc


# ----------------------------------------------------------------------
# Built-in runners
# ----------------------------------------------------------------------
@register_runner("smoke_metric")
def run_smoke_metric(params: dict) -> dict:
    """Deterministic integer metric — identical bytes on every machine.

    CI renders this grid and diffs against a committed fixture, so the
    cell must not depend on wall-clock, platform, or float rounding:
    integer draws from a seeded PCG64 only.
    """
    n = int(params["n"])
    seed = int(params.get("seed", 0))
    draws = np.random.default_rng([seed, n]).integers(0, 1_000_000, size=n)
    return {"row": {
        "n": n,
        "seed": seed,
        "total": int(draws.sum()),
        "checksum": f"{int(draws[0]) ^ int(draws[-1]):06x}",
    }}


@register_runner("fig4_cell")
def run_fig4_cell(params: dict) -> dict:
    """One Figure-4 (varying MGH length) cell: a (length, method) pair."""
    from repro.experiments.runner import run_varying_length_cell

    row = run_varying_length_cell(
        int(params["paper_length"]), str(params["method"]),
        scale=_scale_from(params), seed=int(params.get("seed", 0)),
    )
    return {"row": row}


@register_runner("table4_cell")
def run_table4_cell(params: dict) -> dict:
    """One Table-4 scheduler arm: ``dynamic:<eps>`` or ``fixed:<N>``."""
    from repro.experiments.runner import run_scheduler_cell

    arm = str(params["arm"])
    kind, _, value = arm.partition(":")
    if kind == "dynamic":
        epsilon: float | None = float(value)
        n_groups = int(params["start_n"])
    elif kind == "fixed":
        epsilon = None
        n_groups = int(value)
    else:
        raise ConfigError(
            f"table4 arm must be 'dynamic:<eps>' or 'fixed:<N>', got {arm!r}"
        )
    row = run_scheduler_cell(
        str(params["dataset"]), str(params["task"]), _scale_from(params),
        n_groups=n_groups, epsilon=epsilon, seed=int(params.get("seed", 0)),
    )
    return {"row": row}


def _bench_dir() -> Path:
    """The benchmarks/ directory holding the bench_*.py sweep scripts."""
    override = os.environ.get("RITA_BENCH_DIR")  # repro: allow[env-knob] - a path, not a behaviour
    if override:
        return Path(override)
    # src/repro/experiments/grid/runners.py -> repo root / benchmarks
    candidate = Path(__file__).resolve().parents[4] / "benchmarks"
    if candidate.is_dir():
        return candidate
    return Path.cwd() / "benchmarks"


@register_runner("bench_script")
def run_bench_script(params: dict) -> dict:
    """Thin wrapper over one ``benchmarks/bench_*.py`` sweep.

    Runs the script's ``main(argv)`` in-process (writing its JSON to a
    scratch path) and stores the returned payload as the cell result, so
    ``grid render`` can regenerate the ``BENCH_*.json`` file from the
    database alone.
    """
    import tempfile

    script = str(params["script"])
    if not script.replace("_", "").isalnum():
        raise ConfigError(f"bench script name {script!r} must be alphanumeric")
    path = _bench_dir() / f"{script}.py"
    if not path.is_file():
        raise GridError(f"bench script {str(path)!r} does not exist")
    module_spec = importlib.util.spec_from_file_location(f"_grid_{script}", path)
    if module_spec is None or module_spec.loader is None:
        raise GridError(f"cannot load bench script {str(path)!r}")
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    argv = list(params.get("args", []))
    with tempfile.TemporaryDirectory() as scratch:
        argv.insert(0, str(Path(scratch) / f"{script}.json"))
        if params.get("smoke", False):
            argv.append("--smoke")
        payload = module.main(argv)
    return {"payload": payload, "script": script, "smoke": bool(params.get("smoke", False))}
