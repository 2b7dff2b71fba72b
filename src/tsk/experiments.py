"""End-to-end experiment runner: rate sweeps and KME coverage.

Every row of a rate sweep is a pure function of (config, base seed, N,
replicate), so rows can run on any number of workers and the assembled
report is identical; the CSV is written in fixed (N, replicate) order with
floats at 17 significant digits.
"""

from __future__ import annotations

import io
import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .base_kernels import BaseKernel, sup_norm
from .bounds import OracleTerms, make_schedule, oracle_rhs
from .config import COMMANDS, read
from .errors import InputError, NumericalConsistencyError, config_int, fields_json
from .hilbert_kernel import HilbertKernel, lipschitz_modulus
from .kme import SampleSet, _squared_distances_into, concentration_bound, cross_inner, embed_bags, exact_gaussian_embedding, squared_norms
from .rng import mc_mean_se, normals, stream, subseed
from .svm import build_gram, clip, decision_values, hinge, train, zero_one
from .synth import MetaDistribution, bayes_risk, embed_inputs, sample_first_stage

__all__ = [
    "ExperimentConfig",
    "RateRow",
    "RateReport",
    "run_rate_experiment",
    "run_kme_coverage",
    "rate_report_csv",
]

# the columns of the rates CSV, in order; a column's lower-cased name is its `RateRow` field
CSV_COLUMNS = (
    "N",
    "M_N",
    "lambda_N",
    "gamma_N",
    "replicate",
    "seed",
    "emp_risk_01",
    "emp_risk_hinge_clipped",
    "bayes_risk",
    "excess_01",
    "excess_hinge",
    "oracle_rhs_value",
    "oracle_violated",
    "wall_seconds",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """A rates config: one field per key of the `rates` table (`config.COMMANDS`), each as the table
    reads it. `schedule` and `approx_error` are the dicts their sections read; the table gives the defaults."""

    meta: MetaDistribution
    base_kernel: BaseKernel
    hilbert_kernel: HilbertKernel
    schedule: dict  # the arguments of `bounds.make_schedule` but the N grid
    approx_error: dict  # the model of A(lambda), evaluated by `_eval_approx_model`
    n_grid: tuple
    replicates: int
    test_bags: int
    bayes_mc: int
    test_embedding: object  # "exact" or an integer bag size
    train_embedding: str  # "empirical" (bags of size M_N) or "exact"
    seed: int
    universal_c: float
    tau: float

    def to_json(self) -> dict:
        """The config that `from_json` reads back into this one, sharing no object with it."""
        sections = {name: getattr(self, name).to_config() for name in ("meta", "base_kernel", "hilbert_kernel")}
        return fields_json(self) | sections | {"schedule": dict(self.schedule), "approx_error": dict(self.approx_error)}

    @classmethod
    def from_json(cls, cfg: dict) -> "ExperimentConfig":
        return cls(**read(COMMANDS["rates"], cfg))


def _eval_approx_model(model: dict, lam: float) -> float:
    """A(lam) of an approx_error model as `config.read` returns it: 0, a constant `value`, or c lam^beta."""
    if model["model"] == "constant":
        return model["value"]
    if model["model"] == "power":
        return model["c"] * lam ** model["beta"]
    return 0.0


def _risks_from_decisions(vals: np.ndarray, labels: np.ndarray, clip_bound: float):
    """(0-1 risk, clipped hinge risk, and their standard errors) of decision values on labelled draws."""
    risk01 = float(zero_one(labels, vals).mean())
    se01 = math.sqrt(risk01 * (1.0 - risk01) / labels.shape[0])
    hinge_clipped, hinge_se = mc_mean_se(hinge(labels, clip(vals, clip_bound)))
    return risk01, hinge_clipped, se01, hinge_se


@dataclass(frozen=True)
class RateRow:
    n: int
    m_n: int
    lambda_n: float
    gamma_n: float
    replicate: int
    seed: int
    emp_risk_01: float = math.nan
    emp_risk_hinge_clipped: float = math.nan
    bayes_risk: float = math.nan
    excess_01: float = math.nan
    excess_hinge: float = math.nan
    oracle_rhs_value: float = math.nan
    oracle_violated: bool | float = math.nan  # a failed row has no verdict
    wall_seconds: float = math.nan
    se_01: float = math.nan
    se_hinge: float = math.nan
    error: str = ""


@dataclass(frozen=True)
class RateReport:
    rows: tuple
    n_grid: tuple
    medians_excess_01: tuple
    median_ses: tuple
    slope: float
    slope_floor: float
    violation_rate: float
    bayes_risk_01: float
    failures: tuple

    def summary_json(self, cfg: ExperimentConfig | None = None) -> dict:
        """Every field but the rows, and the config when one is given."""
        out = fields_json(self, skip=("rows",))
        return out if cfg is None else out | {"config": cfg.to_json()}


class _Unconverged(Exception):
    pass


def _compute_row(cfg: ExperimentConfig, n: int, m_n: int, lam_n: float, gamma_n: float, rep: int, bayes01: float) -> RateRow:
    seed_r = cfg.seed + 10**6 * rep
    start = time.perf_counter()
    base = dict(n=n, m_n=m_n, lambda_n=lam_n, gamma_n=gamma_n, replicate=rep, seed=seed_r)
    try:
        means, labels = sample_first_stage(cfg.meta, n, subseed(seed_r, "first", n))
        exact = cfg.train_embedding == "exact" or cfg.meta.bag_spread == 0.0
        embs = embed_inputs(cfg.base_kernel, means, cfg.meta.bag_spread, "exact" if exact else m_n, partial(subseed, seed_r, "bag", n))
        hk = cfg.hilbert_kernel if gamma_n is None else cfg.hilbert_kernel.with_width(gamma_n)
        gram = build_gram(hk, embs)
        model = train(gram, labels, lam_n, support=embs, hkernel=hk)
        if not model.converged:
            raise _Unconverged(f"dual solve stopped after {model.sweeps} iterations with KKT residual {model.kkt:.3e}")
        test_means, test_labels = sample_first_stage(cfg.meta, cfg.test_bags, subseed(seed_r, "test", n))
        test_bag_seed = partial(subseed, seed_r, "test-bag", n)
        test_embs = embed_inputs(cfg.base_kernel, test_means, cfg.meta.bag_spread, cfg.test_embedding, test_bag_seed)
        vals = decision_values(model, test_embs)
        risk01, hinge_clipped, se01, se_hinge = _risks_from_decisions(vals, test_labels, model.clip_bound)

        approx = _eval_approx_model(cfg.approx_error, lam_n)
        terms = OracleTerms(
            n=n,
            lam=lam_n,
            tau=cfg.tau,
            bag_sizes=(m_n,) * n,
            modulus=lipschitz_modulus(hk),
            approx_error=approx,
            universal_c=cfg.universal_c,
            kernel_sup=sup_norm(cfg.base_kernel),
        )
        rhs = oracle_rhs(terms)
        bayes_hinge = 2.0 * bayes01  # pointwise Bayes hinge risk is 2 min(eta, 1-eta)
        lhs = hinge_clipped + lam_n * model.norm_sq - bayes_hinge
        wall = time.perf_counter() - start
        return RateRow(
            **base,
            emp_risk_01=risk01,
            emp_risk_hinge_clipped=hinge_clipped,
            bayes_risk=bayes01,
            excess_01=risk01 - bayes01,
            excess_hinge=hinge_clipped - bayes_hinge,
            oracle_rhs_value=rhs.total,
            oracle_violated=bool(lhs > rhs.total),
            wall_seconds=wall,
            se_01=se01,
            se_hinge=se_hinge,
        )
    # failed rows are recorded, the sweep continues; anything else is a bug
    except (_Unconverged, NumericalConsistencyError, InputError) as exc:
        wall = time.perf_counter() - start
        return RateRow(**base, wall_seconds=wall, error=f"{type(exc).__name__}: {exc}")


def run_rate_experiment(cfg: ExperimentConfig, threads: int | None = None) -> RateReport:
    """Full two-stage sweep over (N, replicate) cells of the schedule, on `threads` worker processes (1 when None)."""
    workers = 1 if threads is None else config_int(threads, "threads", minimum=1)
    sched = make_schedule(n_grid=cfg.n_grid, **cfg.schedule)
    gammas = sched.gamma if sched.gamma is not None else tuple([cfg.hilbert_kernel.width] * len(sched.n_grid))
    bayes01, _ = bayes_risk(cfg.meta, cfg.bayes_mc, subseed(cfg.seed, "bayes"))
    cells = [
        (n, m, lam, gam, rep)
        for n, m, lam, gam in zip(sched.n_grid, sched.bag_sizes, sched.lam, gammas)
        for rep in range(cfg.replicates)
    ]
    if workers > 1:
        # the process pool is loaded only when rows run on more than one worker
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_compute_row, cfg, *cell, bayes01) for cell in cells]
            rows = [f.result() for f in futures]
    else:
        rows = [_compute_row(cfg, *cell, bayes01) for cell in cells]
    rows.sort(key=lambda r: (r.n, r.replicate))

    ok_rows = [r for r in rows if not r.error]
    medians, ses = [], []
    floor = 1.0 / (2.0 * cfg.test_bags)
    for n in sched.n_grid:
        vals = np.array([r.excess_01 for r in ok_rows if r.n == n])
        row_ses = np.array([r.se_01 for r in ok_rows if r.n == n])
        if vals.size == 0:
            medians.append(math.nan)
            ses.append(math.nan)
            continue
        medians.append(float(np.median(vals)))
        spread = 1.2533 * vals.std(ddof=1) / math.sqrt(vals.size) if vals.size > 1 else 0.0
        mc_floor = float(np.median(row_ses)) if row_ses.size else 0.0
        ses.append(float(math.hypot(spread, mc_floor)))
    slope = _loglog_slope(sched.n_grid, medians, floor)
    violations = [r.oracle_violated for r in ok_rows]
    return RateReport(
        rows=tuple(rows),
        n_grid=sched.n_grid,
        medians_excess_01=tuple(medians),
        median_ses=tuple(ses),
        slope=slope,
        slope_floor=floor,
        violation_rate=float(np.mean(violations)) if violations else math.nan,
        bayes_risk_01=bayes01,
        failures=tuple(f"N={r.n} rep={r.replicate}: {r.error}" for r in rows if r.error),
    )


def _loglog_slope(n_grid, medians, floor: float) -> float:
    xs, ys = [], []
    for n, med in zip(n_grid, medians):
        if not math.isnan(med):
            xs.append(math.log(n))
            ys.append(math.log(max(med, floor)))
    if len(xs) < 2:
        return math.nan
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{x:.17g}"


def rate_report_csv(report: RateReport, timing: bool = False) -> str:
    """Fixed-column CSV; wall_seconds stays empty unless timing is requested,
    keeping the bytes a pure function of (config, seed)."""
    buf = io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for r in report.rows:
        cells = ("" if column == "wall_seconds" and not timing else _fmt(getattr(r, column.lower())) for column in CSV_COLUMNS)
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def _coverage_distances(kernel: BaseKernel, mean, sigma: float, m: int, trials: int, seed: int) -> np.ndarray:
    """RKHS distance between each trial's empirical embedding of m draws and
    the exact embedding, from one batch of the trials' embeddings."""
    exact = exact_gaussian_embedding(kernel, mean, sigma)
    emps = embed_bags(
        kernel, [SampleSet(mean + sigma * normals(stream(seed, "coverage", m, r), (m, kernel.dim))) for r in range(trials)]
    )
    return np.sqrt(_squared_distances_into(cross_inner(emps, exact), squared_norms(emps), squared_norms(exact))[:, 0])


def run_kme_coverage(params: dict) -> dict:
    """Empirical violation rates of the embedding concentration bound.

    Bags come from N(mean, sigma^2 I); the exact embedding is the closed-form
    oracle, and a violation is an empirical embedding whose RKHS distance to
    it exceeds the bound at the requested confidence.
    """
    cfg = read(COMMANDS["kme-coverage"], params)
    kernel, sigma, trials, seed = cfg["base_kernel"], cfg["sigma"], cfg["trials"], cfg["seed"]
    mean = np.zeros(kernel.dim) if cfg["mean"] is None else np.asarray(cfg["mean"])
    results = []
    for m in cfg["bag_sizes"]:
        dists = _coverage_distances(kernel, mean, sigma, m, trials, seed)
        for delta in cfg["deltas"]:
            bound = concentration_bound(m, delta, sup_norm(kernel))
            rate = float(np.mean(dists > bound))
            results.append(
                {
                    "bag_size": m,
                    "delta": delta,
                    "bound": bound,
                    "violation_rate": rate,
                    "trials": trials,
                    "pass": rate < delta,
                }
            )
    return {"results": results, "seed": seed}
