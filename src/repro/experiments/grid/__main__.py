"""CLI: ``python -m repro.experiments.grid <command> ...``.

The fill → run → render loop over one SQLite experiment database::

    python -m repro.experiments.grid init      grid.db
    python -m repro.experiments.grid fill      grid.db smoke
    python -m repro.experiments.grid run       grid.db &   # N times
    python -m repro.experiments.grid status    grid.db
    python -m repro.experiments.grid render    grid.db smoke --results-dir benchmarks/results

Exit codes follow ``repro.analysis``: 0 on success, 1 when the command
surfaces failed cells (``status``/``run`` with errored cells), 2 on
usage errors or typed :class:`~repro.errors.ReproError` faults.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.errors import ConfigError, ReproError
from repro.serialize import atomic_write_text
from repro.experiments.grid.render import render_grid, renderable_grids
from repro.experiments.grid.spec import SPEC_INDEX, spec_from_json
from repro.experiments.grid.store import GridStore
from repro.experiments.grid.worker import WorkerConfig, run_worker


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.grid",
        description="SQLite-backed experiment grids: fill, run, render.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    init = sub.add_parser("init", help="create an empty grid database")
    init.add_argument("db")

    fill = sub.add_parser("fill", help="expand grid specs into pending cells")
    fill.add_argument("db")
    fill.add_argument("grids", nargs="*", metavar="grid",
                      help=f"built-in spec names (available: {sorted(SPEC_INDEX)})")
    fill.add_argument("--spec-file", action="append", default=[],
                      help="JSON GridSpec file (repeatable)")

    run = sub.add_parser("run", help="drain cells as one worker (resumable)")
    run.add_argument("db")
    run.add_argument("--grid", default=None, help="only this grid (default: all)")
    run.add_argument("--max-cells", type=int, default=None)
    run.add_argument("--worker-id", default=None)
    run.add_argument("--stale-after", type=float, default=300.0, metavar="SECONDS",
                     help="claims with no heartbeat for this long are re-claimable "
                          "(workers beat 20 times per this window)")
    run.add_argument("--runners", action="append", default=[], metavar="MODULE",
                     help="extra module to import for registered runners (repeatable)")

    status = sub.add_parser("status", help="per-grid cell counts by status")
    status.add_argument("db")
    status.add_argument("--grid", default=None)
    status.add_argument("--errors", action="store_true",
                        help="also print each errored cell's type and message")

    render = sub.add_parser(
        "render", help="regenerate result artifacts from fully-done grids"
    )
    render.add_argument("db")
    render.add_argument("grids", nargs="+", metavar="grid",
                        help=f"grids to render (table families: {renderable_grids()})")
    render.add_argument("--results-dir", default="benchmarks/results")
    render.add_argument("--bench-dir", default=None,
                        help="where BENCH_*.json land (default: results-dir/..)")

    reset = sub.add_parser("reset-errors", help="re-queue every errored cell")
    reset.add_argument("db")
    reset.add_argument("--grid", default=None)

    dump = sub.add_parser("dump", help="JSON snapshot of grids + cells")
    dump.add_argument("db")
    dump.add_argument("--grid", default=None)
    dump.add_argument("-o", "--out", default=None, help="write here instead of stdout")

    load = sub.add_parser("load", help="recreate grids from a dump snapshot")
    load.add_argument("db")
    load.add_argument("dump_file")

    sub.add_parser("specs", help="list the built-in grid specs")
    return parser


def _cmd_fill(args: argparse.Namespace) -> int:
    specs = []
    for name in args.grids:
        if name not in SPEC_INDEX:
            raise ConfigError(
                f"unknown grid spec {name!r}; built-ins: {sorted(SPEC_INDEX)} "
                f"(or pass --spec-file)"
            )
        specs.append(SPEC_INDEX[name])
    for path in args.spec_file:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read spec file {path!r}: {exc}") from exc
        specs.append(spec_from_json(text))
    if not specs:
        raise ConfigError("fill needs at least one grid name or --spec-file")
    with GridStore(args.db) as store:
        for spec in specs:
            report = store.fill(spec.name, spec.runner, spec.cells(), spec.to_json())
            print(
                f"{report.grid}: {report.inserted} new cells, "
                f"{report.existing} already present"
            )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config_kwargs = dict(
        db_path=args.db,
        grid=args.grid,
        stale_after_s=args.stale_after,
        max_cells=args.max_cells,
        runner_modules=tuple(args.runners),
    )
    if args.worker_id:
        config_kwargs["worker_id"] = args.worker_id
    report = run_worker(WorkerConfig(**config_kwargs))
    print(
        f"worker {report.worker_id}: {report.done} done, "
        f"{report.errors} errored, {report.lost} lost to re-claims"
    )
    return 1 if report.errors else 0


def _cmd_status(args: argparse.Namespace) -> int:
    with GridStore(args.db) as store:
        counts = store.counts(args.grid)
        if args.grid is not None and args.grid not in store.grid_names():
            raise ConfigError(f"no grid named {args.grid!r} in {args.db!r}")
        total_errors = 0
        for grid in sorted(counts):
            tally = counts[grid]
            total = sum(tally.values())
            print(
                f"{grid}: {tally['done']}/{total} done, "
                f"{tally['pending']} pending, {tally['claimed']} claimed, "
                f"{tally['error']} error"
            )
            total_errors += tally["error"]
            if args.errors and tally["error"]:
                for cell in store.cells(grid, status="error"):
                    print(
                        f"  cell {cell.ordinal} {cell.cell_key}: "
                        f"{cell.error_type}: {cell.error_message}"
                    )
        if not counts:
            print("(no cells)")
    return 1 if total_errors else 0


def _cmd_render(args: argparse.Namespace) -> int:
    with GridStore(args.db) as store:
        for grid in args.grids:
            for path in render_grid(
                store, grid, results_dir=args.results_dir, bench_dir=args.bench_dir
            ):
                print(f"wrote {path}")
    return 0


def _cmd_reset_errors(args: argparse.Namespace) -> int:
    with GridStore(args.db) as store:
        count = store.reset_errors(args.grid)
    print(f"re-queued {count} errored cell(s)")
    return 0


def _cmd_dump(args: argparse.Namespace) -> int:
    with GridStore(args.db) as store:
        payload = store.dump(args.grid)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        atomic_write_text(Path(args.out), text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    try:
        payload = json.loads(Path(args.dump_file).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read dump file {args.dump_file!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"dump file {args.dump_file!r} is not JSON: {exc}") from exc
    with GridStore(args.db) as store:
        loaded = store.load(payload)
    for grid, cells in sorted(loaded.items()):
        print(f"{grid}: loaded {cells} cell(s)")
    return 0


def _cmd_specs(_args: argparse.Namespace) -> int:
    for name in sorted(SPEC_INDEX):
        spec = SPEC_INDEX[name]
        print(f"{name}: {len(spec.cells())} cells via {spec.runner!r} — {spec.description}")
    return 0


_COMMANDS = {
    "fill": _cmd_fill,
    "run": _cmd_run,
    "status": _cmd_status,
    "render": _cmd_render,
    "reset-errors": _cmd_reset_errors,
    "dump": _cmd_dump,
    "load": _cmd_load,
    "specs": _cmd_specs,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "init":
            GridStore(args.db, create=True).close()
            print(f"initialized {args.db}")
            return 0
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
