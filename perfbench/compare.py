"""Compare two sets of benchmark results metric by metric.

Usage: python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the BENCH_<workload>_seed<N>_trace<T>.json records that
run.py writes into .perfbench/ (copy them aside between commits). For every
(workload, trace mode, metric) it prints the median over the seeds of each
set and the change. Sets whose runs differ in the numeric backend are
refused, so a compiled number never sits beside a numpy-fallback one.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(directory: str) -> list:
    records = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("BENCH_*.json"))]
    if not records:
        raise SystemExit(f"error: no BENCH_*.json records in {directory}")
    return records


def backend(record: dict) -> tuple:
    return record["stamp"]["active_backend"], record["stamp"]["have_ext"]


def medians(records: list) -> dict:
    values: dict = {}
    for r in records:
        for name, m in r["summary"]["metrics"].items():
            values.setdefault((r["workload"], r["trace"], name, m["unit"]), []).append(m["value"])
    return {k: (statistics.median(v), len(v)) for k, v in values.items()}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(args[0]), load(args[1])
    backends = {backend(r) for r in base + new}
    if len(backends) != 1:
        print(f"error: refusing to compare results from different backends: {sorted(backends)}", file=sys.stderr)
        return 2
    a, b = medians(base), medians(new)
    print(f"backend {backends.pop()}")
    print(f"{'workload':16s} {'metric':48s} {'base':>14s} {'new':>14s} {'change':>8s}  unit (runs)")
    for key in sorted(a.keys() & b.keys()):
        workload, _, name, unit = key
        (va, na), (vb, nb) = a[key], b[key]
        change = f"{(vb - va) / va:+.1%}" if va else "n/a"
        print(f"{workload:16s} {name:48s} {va:>14.6g} {vb:>14.6g} {change:>8s}  {unit} ({na}/{nb})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
