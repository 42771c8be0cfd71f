"""Compare two sets of end-to-end runs against the bounds in BENCHMARK.json.

Run from the repository root::

    python3 benchmarks/e2e/compare.py PARENT CHANGE

``PARENT`` and ``CHANGE`` are directories (or single files) of records
written by ``run.py --out``; traced records are ignored.  For every
workload and end-to-end metric the report gives each side's median and
quartiles, its spread (quartile distance over median), the change's
relative delta (positive = worse), and the share of run pairs the change
wins (pairs match by seed, else by run order; ties count for neither).

Verdicts, per metric and workload:

* ``unresolved`` — either side's spread exceeds the bound, so the bound
  cannot be resolved, unless every change run beats every parent run.
  ``setup_s`` is judged on its median alone: a set-up is one short
  burst of process start-up, whose run-to-run jitter (up to 30% for the
  serving pool) says nothing about the program;
* ``regression`` — the change's median is worse by more than the bound;
* ``gain`` — the change wins at least nine tenths of the pairs and the
  medians differ by more than the parent's quartile distance;
* ``same`` — otherwise.

Exit status: 1 when any metric regressed, 2 when none regressed but some
were unresolved, else 0.  Two sets of the same commit should exit 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_runs(source: Path) -> dict[str, list[dict]]:
    """Untraced records under ``source``, by workload, in run order."""
    files = sorted(source.glob("*.json")) if source.is_dir() else [source]
    runs: dict[str, list[dict]] = {}
    for path in files:
        record = json.loads(path.read_text())
        if record["meta"]["trace"]:
            continue
        runs.setdefault(record["meta"]["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda record: record["meta"]["timestamp"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {record["meta"]["seed"]: record for record in change}
    if len(by_seed) == len(change) and all(r["meta"]["seed"] in by_seed for r in parent):
        return [(record, by_seed[record["meta"]["seed"]]) for record in parent]
    return list(zip(parent, change))


def value(record: dict, metric: str) -> float | None:
    return record["result"]["metrics"][metric]["value"]


def judge(metric: dict, parent: list[dict], change: list[dict]) -> dict:
    """One row of the report for one metric on one workload."""
    name, bound = metric["name"], metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0  # worse = sign * delta > 0
    base = [value(r, name) for r in parent if value(r, name) is not None]
    new = [value(r, name) for r in change if value(r, name) is not None]
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(new)
    spread_base = (b3 - b1) / abs(bm) if bm else float("inf")
    spread_new = (c3 - c1) / abs(cm) if cm else float("inf")
    worse_by = sign * (cm - bm) / abs(bm) if bm else 0.0
    wins = 0
    matched = pairs(parent, change)
    for p, c in matched:
        pv, cv = value(p, name), value(c, name)
        if pv is not None and cv is not None and sign * (cv - pv) < 0:
            wins += 1
    win_share = wins / len(matched) if matched else 0.0
    every_run_better = bool(base and new) and (
        max(new) < min(base) if sign > 0 else min(new) > max(base))
    resolvable = name == "setup_s" or max(spread_base, spread_new) <= bound
    if not resolvable and not every_run_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regression"
    elif win_share >= 0.9 and abs(cm - bm) > (b3 - b1):
        verdict = "gain"
    else:
        verdict = "same"
    return {
        "metric": name, "unit": metric["unit"], "bound": bound,
        "parent": (bm, b1, b3, spread_base, len(base)),
        "change": (cm, c1, c3, spread_new, len(new)),
        "worse_by": worse_by, "win_share": win_share, "verdict": verdict,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="directory or file of parent records")
    parser.add_argument("change", type=Path, help="directory or file of change records")
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)

    metrics = json.loads(args.benchmark.read_text())["end_to_end"]
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    verdicts = []
    header = (f"{'workload':14s} {'metric':15s} {'bound':>5s}  {'parent median [q1, q3]':>30s} "
              f"{'spread':>6s}  {'change median [q1, q3]':>30s} {'spread':>6s} "
              f"{'worse':>7s} {'wins':>5s}  verdict")
    print(header)
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent, change = parent_runs.get(workload, []), change_runs.get(workload, [])
        if not parent or not change:
            print(f"{workload:14s} missing on one side ({len(parent)} parent, {len(change)} change)")
            verdicts.append("unresolved")
            continue
        for metric in metrics:
            row = judge(metric, parent, change)
            verdicts.append(row["verdict"])
            side = "{:10.4g} [{:.4g}, {:.4g}]"
            print(f"{workload:14s} {row['metric']:15s} {row['bound']:5.2f}  "
                  f"{side.format(*row['parent'][:3]):>30s} {row['parent'][3]:6.3f}  "
                  f"{side.format(*row['change'][:3]):>30s} {row['change'][3]:6.3f} "
                  f"{row['worse_by']:+7.3f} {row['win_share']:5.2f}  {row['verdict']}")
    if "regression" in verdicts:
        return 1
    return 2 if "unresolved" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
