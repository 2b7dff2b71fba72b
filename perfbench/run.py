"""Layered benchmark of the tsk pipeline.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of BENCHMARK.json as a closed loop with a single caller:
each job starts when the previous one has finished. Set-up (a fresh
interpreter importing `tsk`, parsing the config and generating the first
job's inputs) is timed in separate fresh processes, and the median is
reported as `setup_s`. With --trace 0 the jobs run untraced and the
end-to-end metrics are reported; with --trace 1 the first job's inputs are
run alternately untraced and traced, and the per-layer metrics are reported.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The run's
full record, stamped with the backend, library versions and machine, is
written to .perfbench/BENCH_<workload>_seed<N>_trace<T>.json. The exit code
is 0 only if every operation and output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 3  # fresh processes timed through set-up; the median is reported
BLAS_THREADS = "1"  # pinned, at most nproc: a second BLAS thread spins, adding CPU but no speed
WORKER_TIMEOUT_S = 170


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("TSK_BACKEND", None)  # measure the backend the package selects itself
    env.update(
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        TSK_THREADS="1",
        PYTHONDONTWRITEBYTECODE="1",
    )
    return env


def spawn(args, workdir: Path, setup_only: bool, result: Path | None):
    """Start a worker; return (seconds from spawn to the end of its set-up, process)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if result is not None:
        cmd += ["--result", str(result)]
    log = open(workdir.parent / f"{workdir.name}.log", "w")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, env=worker_env(), cwd=ROOT, text=True)
    log.close()
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    proc.stdout.close()
    return (setup if line.strip() == "ready" else None), proc


def finish(proc) -> int:
    try:
        return proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return -1


def end_to_end(res: dict, setups: list) -> dict:
    ops, solves = res["operations"], res["solves"]
    return {
        "run_s": statistics.median(res["walls"]),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(res["cpus"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": 1.0 - res["failed"] / ops,
        "converged_frac": 1.0 - res["unconverged"] / solves if solves else 1.0,
    }


def per_layer(res: dict) -> dict:
    """Median of each timing over the traced jobs; counters repeat exactly, so the first."""
    from tracing import is_timing

    layers = res["layers"]
    out = {k: statistics.median(lay[k] for lay in layers) if is_timing(k) else v for k, v in layers[0].items()}
    out["trace.overhead_s"] = statistics.median(res["traced_walls"]) - statistics.median(res["plain_walls"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in ("src/tsk/__init__.py", "configs", "BENCHMARK.json") if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a tsk checkout, missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    run_dir = OUT / f"run-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    setups = []
    for k in range(SETUP_SAMPLES - 1):
        setup, proc = spawn(args, run_dir / f"setup{k}", True, None)
        if finish(proc) != 0 or setup is None:
            print(f"error: set-up failed, logs kept in {run_dir}", file=sys.stderr)
            return 1
        setups.append(setup)
    result = run_dir / "result.json"
    setup, proc = spawn(args, run_dir / "main", False, result)
    if finish(proc) != 0 or setup is None or not result.exists():
        sys.stderr.write((run_dir / "main.log").read_text()[-4000:])
        print(f"error: the benchmark worker failed, logs kept in {run_dir}", file=sys.stderr)
        return 1
    setups.append(setup)
    res = json.loads(result.read_text())
    shutil.rmtree(run_dir, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    values = per_layer(res) if args.trace else end_to_end(res, setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench[kind]}
    attempted, failed = res["operations"], res["failed"]
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    stamp = res["stamp"]
    jobs = len(res["traced_walls"]) if args.trace else len(res["walls"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  jobs {jobs}")
    print("stamp " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        # the failure and non-convergence rates, the complements of ok_frac and converged_frac
        print(f"  {'failed_frac':48s} {1.0 - values['ok_frac']:>16.6g} frac")
        print(f"  {'unconverged_frac':48s} {1.0 - values['converged_frac']:>16.6g} frac")
        walls = sorted(res["walls"])
        if len(walls) >= 20:  # the highest percentile with at least ten jobs above it
            pct = 100 * (len(walls) - 10) // len(walls)
            print(f"  {f'run_s p{pct} ({len(walls)} jobs)':48s} {walls[len(walls) * pct // 100]:>16.6g} s")
    for msg in res["failures"]:
        print(f"FAILED: {msg}")

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
              "stamp": stamp, "summary": summary, "raw": res}
    (OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
