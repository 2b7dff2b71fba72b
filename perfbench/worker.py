"""One benchmark process: set up a workload, run its jobs, report measurements.

run.py starts this file in a fresh interpreter with the BLAS and worker
thread counts pinned. It prints "ready" once `tsk` is imported, the config is
parsed and the first job's inputs exist (the end of set-up); with
--setup-only it stops there. Otherwise it runs jobs until the window closes
and writes its measurements as JSON to --result.

Untraced mode runs one job per input seed (see workloads.input_seed) and
times each. Traced mode repeats the first job's inputs, alternating an
untraced and a traced job, so the traced outputs can be compared byte for
byte with the untraced ones and the work counters across traced jobs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class SolveMonitor:
    """Counts dual solves and unconverged returns; active in every mode.

    One wrapped call per `svm.train` invocation, so its cost is negligible
    next to the solve itself.
    """

    def __init__(self):
        self.attempted = 0
        self.unconverged = 0

    def install(self):
        from tracing import rebind

        orig = sys.modules["tsk.svm"].train

        def train(*args, **kwargs):
            self.attempted += 1
            model = orig(*args, **kwargs)
            self.unconverged += int(not model.converged)
            return model

        rebind(orig, train)


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp() -> dict:
    """What the numbers depend on besides the code: backend, libraries, machine."""
    import numpy
    import scipy
    import tsk
    from tsk import _backend

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        openblas = "unknown"
    return {
        "active_backend": tsk.active_backend(),
        "have_ext": bool(_backend.HAVE_EXT),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "tsk_threads": os.environ.get("TSK_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "commit": _commit(),
    }


def _run_job(wl, ctx, monitor: SolveMonitor):
    """Time one job. An exception fails every operation of the job."""
    from workloads import JobResult

    solves0, unconv0 = monitor.attempted, monitor.unconverged
    c0, t0 = _cpu(), time.perf_counter()
    try:
        res = wl.run(ctx)
    except Exception:  # the job boundary: record the failure and keep measuring
        res = JobResult(b"", operations=1, failed=1, details={"error": traceback.format_exc()})
    wall, cpu = time.perf_counter() - t0, _cpu() - c0
    res.details["solves"] = monitor.attempted - solves0
    res.details["unconverged"] = monitor.unconverged - unconv0
    return res, wall, cpu


class Tally:
    def __init__(self):
        self.operations = self.failed = self.solves = self.unconverged = 0
        self.failures: list[str] = []

    def job(self, res):
        self.operations += res.operations
        self.failed += res.failed
        self.solves += res.details["solves"]
        self.unconverged += res.details["unconverged"]
        if "error" in res.details:
            self.failures.append(res.details["error"].strip().splitlines()[-1])

    def checks(self, names_failed: list):
        """One output check performed; names_failed lists what it found wrong.

        A check is one operation, so it fails once however much it found.
        """
        self.operations += 1
        self.failed += bool(names_failed)
        self.failures.extend(names_failed)

    def to_json(self) -> dict:
        return {
            "operations": self.operations,
            "failed": self.failed,
            "solves": self.solves,
            "unconverged": self.unconverged,
            "failures": self.failures,
        }


def _check(wl, ctx, res, reference: bool) -> list:
    if "error" in res.details:
        return []  # already counted as a failed operation
    try:
        return wl.check(ctx, res, reference)
    except Exception:
        return [f"{wl.name}: check raised {traceback.format_exc().strip().splitlines()[-1]}"]


def run_untraced(wl, ctx0, seed, seconds, workdir, monitor, reference0) -> dict:
    from workloads import input_seed

    tally = Tally()
    walls, cpus, seeds = [], [], []
    start = time.perf_counter()
    i, ctx = 0, ctx0
    while True:
        res, wall, cpu = _run_job(wl, ctx, monitor)
        walls.append(wall)
        cpus.append(cpu)
        seeds.append(input_seed(seed, i))
        tally.job(res)
        tally.checks(_check(wl, ctx, res, reference0 and i == 0))
        i += 1
        # start another job only if it is expected to finish inside the window
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
        ctx = wl.prepare(input_seed(seed, i), workdir / f"job{i}")
    return {"walls": walls, "cpus": cpus, "input_seeds": seeds, **tally.to_json()}


def run_traced(wl, ctx0, seed, seconds, monitor, reference0, spans_path) -> dict:
    from tracing import Tracer, is_timing, layer_metrics

    tally = Tally()
    tracer = Tracer()
    plain_walls, traced_walls, layers, outputs = [], [], [], []
    start = time.perf_counter()
    pair = 0
    while True:
        res, wall, _ = _run_job(wl, ctx0, monitor)
        plain_walls.append(wall)
        tally.job(res)
        if pair == 0:
            tally.checks(_check(wl, ctx0, res, reference0))
        outputs.append(res.output)

        tracer.install()
        tracer.reset(run=pair)
        res, wall, _ = _run_job(wl, ctx0, monitor)
        tracer.uninstall()
        traced_walls.append(wall)
        tally.job(res)
        outputs.append(res.output)
        layers.append(layer_metrics(tracer, res.details.get("row_seconds", [])))
        if pair == 0:  # later traced jobs repeat the same calls
            tracer.write_spans(spans_path)
        pair += 1
        elapsed = time.perf_counter() - start
        if pair >= 2 and elapsed + elapsed / pair > seconds:
            break

    tally.checks(
        [] if all(o == outputs[0] for o in outputs) else [f"{wl.name}: traced output differs from untraced"]
    )
    moved = [k for k in layers[0] if not is_timing(k) and any(lay[k] != layers[0][k] for lay in layers)]
    tally.checks([f"{wl.name}: work counter {k} differs between traced jobs" for k in moved])
    return {
        "plain_walls": plain_walls,
        "traced_walls": traced_walls,
        "layers": layers,
        **tally.to_json(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import tsk
    import tsk.cli  # noqa: F401  (the CLI module is not imported by the package)

    if Path(tsk.__file__).resolve().parent != src / "tsk":
        print(f"error: imported tsk from {tsk.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import REFERENCE_SEED, WORKLOADS, input_seed

    wl = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    monitor = SolveMonitor()
    monitor.install()
    ctx0 = wl.prepare(input_seed(args.seed, 0), workdir / "job0")
    print("ready", flush=True)
    sys.stdout = sys.stderr  # nothing else reaches the parent's pipe
    if args.setup_only:
        return 0

    reference0 = args.seed == REFERENCE_SEED[wl.name]
    if args.trace:
        spans_path = ROOT / ".perfbench" / f"spans-{wl.name}-seed{args.seed}.jsonl"
        out = run_traced(wl, ctx0, args.seed, args.seconds, monitor, reference0, spans_path)
        out["spans"] = str(spans_path)
    else:
        out = run_untraced(wl, ctx0, args.seed, args.seconds, workdir, monitor, reference0)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["stamp"] = stamp()
    Path(args.result).write_text(json.dumps(out))
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
