"""Declarative grid definitions: parameter spaces expanded into cells.

A :class:`GridSpec` is a runner name plus an ordered mapping of axes;
expansion is the cartesian product of the axes (last axis fastest,
like nested for-loops), each cell merged over the shared ``base``
parameters.  Cells are keyed by their canonical parameter JSON
(:func:`repro.experiments.grid.store.cell_key`), so re-filling an
existing table only appends cells that are genuinely new.

``SPEC_INDEX`` holds the built-in grids: the result families the
benchmark suite regenerates (fig4 varying-length, table4 scheduler),
the ROADMAP sweeps this subsystem exists for (serving rate sweep,
thread-count sweep via the ``bench_script`` wrapper), and a
deterministic 2-cell ``smoke`` grid exercised end-to-end by CI.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from repro.errors import ConfigError

__all__ = ["GridSpec", "SPEC_INDEX", "spec_from_dict", "spec_from_json"]


@dataclass(frozen=True)
class GridSpec:
    """One declarative parameter space.

    ``axes`` values vary per cell; ``base`` is merged into every cell
    (axes win on key collisions — that would hide a config mistake, so
    collisions are rejected instead).
    """

    name: str
    runner: str
    axes: dict[str, tuple] = field(default_factory=dict)
    base: dict = field(default_factory=dict)
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not self.runner:
            raise ConfigError("GridSpec needs a non-empty name and runner")
        overlap = set(self.axes) & set(self.base)
        if overlap:
            raise ConfigError(
                f"grid {self.name!r}: axes and base share keys {sorted(overlap)}; "
                f"a parameter is either swept or fixed, not both"
            )
        for axis, values in self.axes.items():
            if len(values) == 0:
                raise ConfigError(
                    f"grid {self.name!r}: axis {axis!r} has no values"
                )
            if len(set(map(repr, values))) != len(values):
                raise ConfigError(
                    f"grid {self.name!r}: axis {axis!r} repeats a value"
                )

    def cells(self) -> list[dict]:
        """Expand to one params dict per cell, in deterministic order."""
        axis_names = list(self.axes)
        expanded = []
        for combo in itertools.product(*(self.axes[a] for a in axis_names)):
            params = dict(self.base)
            params.update(zip(axis_names, combo))
            expanded.append(params)
        return expanded

    def to_json(self) -> str:
        """Canonical JSON of the spec, stored on the grid row."""
        return json.dumps(
            {
                "name": self.name,
                "runner": self.runner,
                "axes": {axis: list(vals) for axis, vals in self.axes.items()},
                "base": self.base,
                "description": self.description,
            },
            sort_keys=True,
        )


def spec_from_dict(payload: dict) -> GridSpec:
    """Build a spec from a plain dict (e.g. a ``--spec-file`` JSON)."""
    if not isinstance(payload, dict):
        raise ConfigError(f"grid spec must be a JSON object, got {type(payload).__name__}")
    unknown = set(payload) - {"name", "runner", "axes", "base", "description"}
    if unknown:
        raise ConfigError(f"grid spec has unknown keys {sorted(unknown)}")
    try:
        axes = {
            str(axis): tuple(values)
            for axis, values in payload.get("axes", {}).items()
        }
    except TypeError as exc:
        raise ConfigError(f"grid spec axes must map names to lists: {exc}") from exc
    return GridSpec(
        name=payload.get("name", ""),
        runner=payload.get("runner", ""),
        axes=axes,
        base=dict(payload.get("base", {})),
        description=str(payload.get("description", "")),
    )


def spec_from_json(text: str) -> GridSpec:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"grid spec is not valid JSON: {exc}") from exc
    return spec_from_dict(payload)


# ----------------------------------------------------------------------
# Built-in grids
# ----------------------------------------------------------------------
#: Scale overrides matching benchmarks/test_fig4_varying_length.py.
_FIG4_SCALE = {"epochs": 8, "size_scale": 0.004, "length_scale": 0.25, "lr": 3e-3}
#: Scale overrides matching benchmarks/test_table4_scheduler.py (ECG arm).
_TABLE4_ECG_SCALE = {"epochs": 3, "size_scale": 0.003, "length_scale": 0.2, "lr": 2e-3}

SPEC_INDEX: dict[str, GridSpec] = {
    spec.name: spec
    for spec in (
        GridSpec(
            name="smoke",
            runner="smoke_metric",
            axes={"n": (32, 64)},
            base={"seed": 2024},
            description=(
                "2-cell deterministic integer metric; CI runs this grid "
                "end-to-end (fill → 2 workers → render → diff fixtures)"
            ),
        ),
        GridSpec(
            name="fig4_varying_length",
            runner="fig4_cell",
            axes={
                "paper_length": (2000, 4000, 6000, 8000, 10000),
                "method": ("vanilla", "performer", "linformer", "group"),
            },
            base={"seed": 29, "scale": _FIG4_SCALE},
            description=(
                "Figure 4 (MGH varying length, imputation): one cell per "
                "(length, method) — the family benchmarks/test_fig4_varying_"
                "length.py runs serially"
            ),
        ),
        GridSpec(
            name="table4_scheduler_ecg",
            runner="table4_cell",
            axes={
                "arm": (
                    "dynamic:1.5", "dynamic:2.0", "dynamic:3.0",
                    "fixed:4", "fixed:16", "fixed:64",
                ),
            },
            base={
                "dataset": "ecg", "task": "classification", "seed": 17,
                "start_n": 64, "scale": _TABLE4_ECG_SCALE,
            },
            description=(
                "Table 4 (adaptive scheduler vs fixed N, ECG classification): "
                "one cell per scheduler arm"
            ),
        ),
        GridSpec(
            name="serving_rate_sweep",
            runner="bench_script",
            axes={"script": ("bench_serving",)},
            base={"smoke": True},
            description=(
                "Serving benchmark via the bench_script wrapper (smoke "
                "geometry); swap smoke=False for the full sweep"
            ),
        ),
        GridSpec(
            name="thread_sweep",
            runner="bench_script",
            axes={"script": ("bench_parallel",)},
            base={"smoke": True},
            description=(
                "Parallel-backend kernel dispatch via the bench_script "
                "wrapper: group-attention fwd+bwd at 1/2/4 threads plus "
                "the n=256 serial-fallback cell; thread scaling needs "
                ">= 4 physical cores"
            ),
        ),
    )
}
