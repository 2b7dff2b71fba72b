"""Benchmark the compiled accelerator against the numpy fallback.

Times the two hot inner loops -- weighted pairwise kernel sums (embedding
inner products) and dual coordinate-ascent sweeps -- on sizes representative
of the coverage tests and the approximation-error trainings. One row times
the path `kme` takes for a row of an empirical Gram: a 50-point bag against
60 stacked 50-point bags, once as 60 `pair_sum` calls (compiled in the
cython column) and once as the single numpy `pair_sums` call `kme` makes,
which is the same code in both columns.

Usage: python benchmarks/bench_backends.py [--quick]
"""

import argparse
import os
import time

import numpy as np


def timeit(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_pair_sum(backend, sizes, rng):
    from tsk import _backend

    rows = []
    for m, n, d in sizes:
        x, y = rng.normal(size=(m, d)), rng.normal(size=(n, d))
        wx, wy = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
        dt = timeit(lambda: _backend.pair_sum(x, wx, y, wy, 0, 1.0))
        rows.append((f"pair_sum {m}x{n} d={d}", dt, m * n / dt / 1e6))
    m, bags = 50, 60
    x, y = rng.normal(size=(m, 2)), rng.normal(size=(m * bags, 2))
    w = np.full(m * bags, 1.0 / m)
    offsets = np.arange(0, m * (bags + 1), m)
    dt = timeit(lambda: [_backend.pair_sum(x, w[:m], y[a:b], w[a:b], 0, 1.0) for a, b in zip(offsets, offsets[1:])])
    rows.append((f"pair_sum {m}x{m} x{bags}", dt, m * m * bags / dt / 1e6))
    dt = timeit(lambda: _backend.pair_sums(x, w[:m], y, w, offsets, 0, 1.0))
    rows.append((f"pair_sums {m} vs {bags}x{m}", dt, m * m * bags / dt / 1e6))
    return rows


def bench_cd(backend, sizes, rng):
    from tsk import _backend

    rows = []
    for n, sweeps in sizes:
        a = rng.normal(size=(n, n))
        k = a @ a.T / n
        k = np.ascontiguousarray((k + k.T) / 2.0)
        y = rng.choice([-1.0, 1.0], size=n)

        def run():
            alpha, f = np.zeros(n), np.zeros(n)
            for _ in range(sweeps):
                _backend.cd_sweep(k, y, alpha, f, 0.5, 1e-12)

        dt = timeit(run, repeats=3)
        rows.append((f"cd_sweep N={n} x{sweeps}", dt, sweeps * n * n / dt / 1e6))
    return rows


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    pair_sizes = [(100, 100, 2), (1000, 1000, 2)] if args.quick else [(100, 100, 2), (1000, 1000, 2), (4000, 4000, 5)]
    cd_sizes = [(200, 50)] if args.quick else [(200, 200), (2000, 50)]

    from tsk import _backend

    results = {}
    for backend in ("cython", "python"):
        if backend == "cython" and not _backend.HAVE_EXT:
            print("compiled accelerator not built; skipping the cython column")
            continue
        # backend selection is dynamic: the env var is read on every call
        os.environ["TSK_BACKEND"] = "" if backend == "cython" else "python"
        rng = np.random.default_rng(0)
        results[backend] = bench_pair_sum(backend, pair_sizes, rng) + bench_cd(backend, cd_sizes, rng)
    os.environ.pop("TSK_BACKEND", None)

    names = [name for name, _, _ in next(iter(results.values()))]
    print(f"\n{'case':26s} " + " ".join(f"{be:>18s}" for be in results))
    for i, name in enumerate(names):
        cells = []
        for be in results:
            dt, meps = results[be][i][1], results[be][i][2]
            cells.append(f"{dt * 1e3:9.1f}ms {meps:6.0f}M/s")
        print(f"{name:26s} " + " ".join(f"{c:>18s}" for c in cells))
    if len(results) == 2:
        speedups = [results["python"][i][1] / results["cython"][i][1] for i in range(len(names))]
        print("\nspeedup (python time / cython time): " + ", ".join(f"{s:.1f}x" for s in speedups))


if __name__ == "__main__":
    main()
