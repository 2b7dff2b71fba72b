"""Evaluable forms of the theoretical quantities.

Covers the oracle-inequality right-hand side (six additive terms), a
large-sample estimator of the approximation error function A(lambda) with a
power-law exponent fit, a numerical consistency check for learning-rate
schedules, and generators for the two schedule families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .base_kernels import BaseKernel
from .errors import InputError, fields_json
from .hilbert_kernel import HilbertKernel, HolderModulus
from .kme import ExactBatch, PointBatch, concentration_bound
from .svm import build_gram, decision_values_path, hinge, train
from .synth import MetaDistribution, embed_inputs, sample_first_stage
from .rng import mc_mean_se, subseed as _subseed

__all__ = [
    "OracleTerms",
    "OracleRhs",
    "oracle_rhs",
    "ApproxErrorEstimate",
    "approx_error_estimate",
    "approx_error_summary",
    "fit_approx_exponent",
    "Schedule",
    "make_schedule",
    "consistency_check",
]


@dataclass(frozen=True)
class OracleTerms:
    """Inputs of the high-probability excess-risk bound.

    Loss-specific constants default to the clipped hinge loss: Lipschitz
    constant 1 on any interval, clip bound 1, sup of the clipped loss B = 2.
    The hypothesis-space Bayes gap is 0 when the second-level RKHS is rich
    enough; it stays configurable.
    """

    n: int
    lam: float
    tau: float
    bag_sizes: tuple
    modulus: HolderModulus
    approx_error: float
    universal_c: float = 100.0
    loss_lipschitz: float = 1.0
    kernel_sup: float = 1.0
    clipped_sup: float = 2.0
    bayes_gap: float = 0.0

    def __post_init__(self):
        if self.n < 2:
            raise InputError(f"the bound needs N >= 2, got {self.n}")
        if not (self.lam > 0):
            raise InputError(f"lambda must be > 0, got {self.lam}")
        if self.tau < 1.0:
            raise InputError(f"tau must be >= 1, got {self.tau}")
        if self.approx_error < 0 or self.bayes_gap < 0:
            raise InputError("approximation error and Bayes gap must be >= 0")
        if len(self.bag_sizes) != self.n:
            raise InputError("one bag size per training point is required")


@dataclass(frozen=True)
class OracleRhs:
    approx: float
    gap: float
    estimation: float
    confidence: float
    shift: float
    embedding: float

    @property
    def total(self) -> float:
        return self.approx + self.gap + self.estimation + self.confidence + self.shift + self.embedding


def oracle_rhs(terms: OracleTerms) -> OracleRhs:
    """The six additive terms of the excess-risk bound, reported separately.

    With A = approx error, L = loss Lipschitz constant, B = clipped-loss sup,
    and B(M, delta) the embedding concentration radius:

      9A + 9 gap + C L^2 ||k||_inf ln(N)/(N lam) + 300 B tau / sqrt(N)
        + 15 (tau/N) L ||k||_inf sqrt(A/lam)
        + (3/N) sum_n (L sqrt(A/lam) + L sqrt(B/lam)) modulus(B(M_n, e^-tau / N))

    holds with probability at least 1 - 4 e^-tau for a universal constant C
    (configurable; the theory asserts existence, not a value).
    """
    n, lam, tau = terms.n, terms.lam, terms.tau
    a, llip = terms.approx_error, terms.loss_lipschitz
    ksup, b = terms.kernel_sup, terms.clipped_sup
    sqrt_a_lam = math.sqrt(a / lam)
    delta_n = math.exp(-tau) / n
    alpha_lam_coef = llip * sqrt_a_lam + llip * math.sqrt(b / lam)
    # one addend per distinct bag size, summed over the bags in their order
    addend = {m: alpha_lam_coef * terms.modulus(concentration_bound(m, delta_n, ksup)) for m in set(terms.bag_sizes)}
    embedding = float(3.0 / n * sum(addend[m] for m in terms.bag_sizes))
    return OracleRhs(
        approx=9.0 * a,
        gap=9.0 * terms.bayes_gap,
        estimation=terms.universal_c * llip * llip * ksup * math.log(n) / (n * lam),
        confidence=300.0 * b * tau / math.sqrt(n),
        shift=15.0 * tau / n * llip * ksup * sqrt_a_lam,
        embedding=embedding,
    )


@dataclass(frozen=True)
class ApproxErrorEstimate:
    lambda_grid: tuple
    test_risks: tuple  # unregularized hinge risk of each trained model on fresh draws
    reg_values: tuple  # test risk + lam * ||f||^2
    norm_sqs: tuple
    ahat: tuple  # clamped-at-0 estimates of A(lambda)
    converged: tuple = ()  # whether each dual solve reached its KKT tolerance
    kkt: tuple = ()  # KKT residual of each solve

    def to_json(self) -> dict:
        return fields_json(self)


def approx_error_estimate(
    meta: MetaDistribution,
    hkernel: HilbertKernel,
    lam_grid,
    big_n: int,
    big_m_or_exact,
    seed: int,
    base_kernel: BaseKernel | None = None,
    test_n: int | None = None,
) -> ApproxErrorEstimate:
    """Large-sample surrogate of the approximation error function.

    Trains one SVM per lambda on a single first-stage sample (exact
    embeddings, or bags of the given size) and sets
    Ahat(lambda) = [test hinge risk + lambda ||f||^2] - min_grid test hinge risk,
    clamped at 0. The min over the grid stands in for the infimum over the
    RKHS, which biases Ahat upward -- the conservative direction for every
    check that consumes it. Each solve's `converged` flag and KKT residual
    are reported next to the estimates. The test kernel is evaluated once for
    the whole grid (`svm.decision_values_path`).

    The inputs are embedded through `base_kernel`. Without one, the raw mean
    vectors are the Hilbert-space points (the identity embedding, `PointBatch`),
    which keeps the SVM geometry identical to the geometry of the noise integrals.
    """
    lam_grid = tuple(float(l) for l in lam_grid)
    if not lam_grid:
        raise InputError("lambda grid must be nonempty")
    if big_n < 2:
        raise InputError("big_n must be >= 2")
    test_n = big_n if test_n is None else int(test_n)

    train_means, train_labels = sample_first_stage(meta, big_n, _subseed(seed, "approx-train"))
    test_means, test_labels = sample_first_stage(meta, test_n, _subseed(seed, "approx-test"))

    if base_kernel is None:
        support, targets = PointBatch(train_means), PointBatch(test_means)
    else:
        bag_seed = partial(_subseed, seed, "approx-bag")
        support = embed_inputs(base_kernel, train_means, meta.bag_spread, big_m_or_exact, bag_seed)
        targets = ExactBatch(base_kernel, test_means, np.full(test_n, meta.bag_spread))
    gram = build_gram(hkernel, support)

    models = [train(gram, train_labels, lam, support=support, hkernel=hkernel) for lam in lam_grid]
    test_risks = [float(np.mean(hinge(test_labels, vals))) for vals in decision_values_path(models, targets)]
    best = min(test_risks)
    reg_values = [r + m.lam * m.norm_sq for r, m in zip(test_risks, models)]
    ahat = [max(v - best, 0.0) for v in reg_values]
    return ApproxErrorEstimate(
        lambda_grid=lam_grid,
        test_risks=tuple(test_risks),
        reg_values=tuple(reg_values),
        norm_sqs=tuple(m.norm_sq for m in models),
        ahat=tuple(ahat),
        converged=tuple(m.converged for m in models),
        kkt=tuple(m.kkt for m in models),
    )


def approx_error_summary(
    meta,
    hkernel,
    lam_grid,
    big_n,
    big_m_or_exact,
    seeds,
    base_kernel=None,
    test_n=None,
):
    """Mean and standard error of Ahat over independent seeds (at least one)."""
    if not seeds:
        raise InputError("approx-error needs at least one seed")
    runs = [
        approx_error_estimate(
            meta, hkernel, lam_grid, big_n, big_m_or_exact, s, base_kernel=base_kernel, test_n=test_n,
        )
        for s in seeds
    ]
    mean, se = mc_mean_se(np.array([r.ahat for r in runs]))
    return {
        "lambda_grid": [float(l) for l in lam_grid],
        "ahat_mean": mean.tolist(),
        "ahat_se": se.tolist(),
        "runs": [r.to_json() for r in runs],
    }


def fit_approx_exponent(est: ApproxErrorEstimate):
    """Power-law fit Ahat(lambda) <= C lambda^beta with beta clamped to (0, 1].

    Returns (c_hat, beta_hat, degenerate_flag): log-log least squares on the
    positive values; slopes above 1 clamp to 1, slopes <= 0 flag the fit.
    """
    lam = np.asarray(est.lambda_grid)
    ahat = np.asarray(est.ahat)
    mask = ahat > 0
    if mask.sum() < 3:
        return 0.0, 0.0, True
    slope, _ = np.polyfit(np.log(lam[mask]), np.log(ahat[mask]), 1)
    if slope <= 0:
        return 0.0, 0.0, True
    beta = min(float(slope), 1.0)
    c_hat = float(np.max(ahat[mask] / lam[mask] ** beta))
    return c_hat, beta, False


@dataclass(frozen=True)
class Schedule:
    n_grid: tuple
    lam: tuple
    bag_sizes: tuple
    gamma: tuple | None


def make_schedule(kind: str, n_grid, alpha: float, beta: float | None = None, mu: float | None = None) -> Schedule:
    """Parameter schedules of the two learning-rate theorems.

    thm45: lam_N = N^(-1/(beta+1)), M_N = ceil(N^(2/alpha)).
    thm55: lam_N = N^(-1/2), M_N = ceil(N^(2/alpha)), gamma_N = N^(-mu).
    """
    n_grid = tuple(int(n) for n in n_grid)
    if not n_grid or any(n < 2 for n in n_grid):
        raise InputError("N grid entries must be >= 2")
    if any(b >= a for a, b in zip(n_grid[1:], n_grid)):
        raise InputError("N grid must be strictly increasing")
    if not (0.0 < alpha <= 2.0):
        raise InputError(f"alpha must lie in (0, 2], got {alpha}")
    bag_sizes = tuple(int(math.ceil(n ** (2.0 / alpha))) for n in n_grid)
    if kind == "thm45":
        if beta is None or not (0.0 < beta <= 1.0):
            raise InputError(f"thm45 needs beta in (0, 1], got {beta}")
        lam = tuple(n ** (-1.0 / (beta + 1.0)) for n in n_grid)
        return Schedule(n_grid, lam, bag_sizes, None)
    if kind == "thm55":
        if mu is None or not (mu > 0):
            raise InputError(f"thm55 needs mu > 0, got {mu}")
        lam = tuple(n**-0.5 for n in n_grid)
        gamma = tuple(n**-mu for n in n_grid)
        return Schedule(n_grid, lam, bag_sizes, gamma)
    raise InputError(f"unknown schedule kind {kind!r}")


@dataclass(frozen=True)
class ConsistencyReport:
    estimation_sequence: tuple  # ln N / (N lam_N)
    embedding_sequence: tuple  # ln(N)^alpha / (lam_N M_N^alpha)
    estimation_ok: bool
    embedding_ok: bool

    @property
    def ok(self) -> bool:
        return self.estimation_ok and self.embedding_ok

    def to_json(self) -> dict:
        return fields_json(self) | {"ok": self.ok}


def consistency_check(n_grid, lam_seq, m_seq, modulus: HolderModulus) -> ConsistencyReport:
    """Numerical check of the two consistency conditions along a schedule.

    Both ln N / (N lam_N) and ln(N)^alpha / (lam_N M_N^alpha) must trend to
    zero; the heuristic requires the last point below a tenth of the first.
    """
    n = np.asarray(n_grid, dtype=np.float64)
    lam = np.asarray(lam_seq, dtype=np.float64)
    m = np.asarray(m_seq, dtype=np.float64)
    if not (n.shape == lam.shape == m.shape) or n.shape[0] < 4:
        raise InputError("need matching grids of length >= 4")
    seq1 = np.log(n) / (n * lam)
    seq2 = np.log(n) ** modulus.exponent / (lam * m**modulus.exponent)
    return ConsistencyReport(
        estimation_sequence=tuple(seq1),
        embedding_sequence=tuple(seq2),
        estimation_ok=bool(seq1[-1] < seq1[0] / 10.0),
        embedding_ok=bool(seq2[-1] < seq2[0] / 10.0),
    )
