"""Finite-dimensional Gaussian-measure laboratory.

R^d stands in for the separable Hilbert space: a covariance operator with
strictly positive spectrum makes Q^{1/2} invertible, so the white noise
mapping W_h(z) = <Q^{-1/2} h, z> is exact rather than a density-argument
limit. On top of it sit Monte Carlo checks of the white-noise isometry, the
characteristic identity and the feature-space construction for the
Hilbert-space Gaussian kernel, and the geometric-noise localization
integrals with a power-law exponent fit.

Complex quantities are carried explicitly; every "real part" below is a
literal component extraction.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError, fields_json
from .rng import mc_mean_se, normals, normals_from_uniforms, stream
from .synth import MetaDistribution, delta_batch, eta_batch, sample_first_stage

__all__ = [
    "CovarianceOperator",
    "VerificationReport",
    "NoiseExponentFit",
    "white_noise_isometry_check",
    "characteristic_identity_check",
    "feature_inner_mc",
    "canonical_surjection_eval",
    "geometric_noise_integrals",
    "fit_noise_exponent",
    "fit_geometric_noise",
    "random_covariance",
]

MIN_MC = 1000  # fewest Monte Carlo draws that `whitenoise-verify --mc` accepts
NOISE_BLOCK = 4  # outer points per block of the noise integrals: with fewer, two workers spend much more CPU than one
NOISE_WORKERS = 2  # most worker threads of the noise integrals: the speed and CPU time of more were never measured


@dataclass(frozen=True)
class CovarianceOperator:
    """Symmetric positive-definite covariance via its eigendecomposition; the eigenvalues are > 0
    (the `covariance` table's row, and `random_covariance`'s log-uniform draw)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # orthonormal columns

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=np.float64)
        vec = np.asarray(self.eigenvectors, dtype=np.float64)
        d = lam.shape[0]
        if lam.ndim != 1 or vec.shape != (d, d):
            raise InputError("eigenvalues must be (d,), eigenvectors (d, d)")
        if not np.allclose(vec.T @ vec, np.eye(d), atol=1e-10):
            raise InputError("eigenvector matrix must be orthonormal")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", vec)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def sqrt_matrix(self) -> np.ndarray:
        return (self.eigenvectors * np.sqrt(self.eigenvalues)) @ self.eigenvectors.T

    def wn_coeff(self, h: np.ndarray) -> np.ndarray:
        """Q^{-1/2} h, so that W_h(z) = <Q^{-1/2} h, z>."""
        h = np.asarray(h, dtype=np.float64)
        if h.shape != (self.dim,):
            raise InputError(f"vector must have shape ({self.dim},), got {h.shape}")
        proj = self.eigenvectors.T @ h
        return self.eigenvectors @ (proj / np.sqrt(self.eigenvalues))

    def sample(self, gen, n: int) -> np.ndarray:
        """n draws from N(0, Q), rows of shape (n, d)."""
        return normals(gen, (n, self.dim)) @ self.sqrt_matrix()

    @classmethod
    def from_config(cls, cfg: dict) -> "CovarianceOperator":
        from .config import COVARIANCE, read  # the config module imports this one
        return read(COVARIANCE, cfg, "covariance")


def random_covariance(dim: int, seed: int, lo: float = 0.2, hi: float = 2.0) -> CovarianceOperator:
    """Random admissible covariance: log-uniform spectrum, Haar-ish rotation."""
    gen = stream(seed, "random-covariance")
    lam = np.exp(gen.uniform(math.log(lo), math.log(hi), dim))
    q, _ = np.linalg.qr(normals(gen, (dim, dim)))
    return CovarianceOperator(lam, q)


@dataclass(frozen=True)
class VerificationReport:
    estimate: float
    std_error: float
    target: float
    passed: bool
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "estimate": self.estimate,
            "std_error": self.std_error,
            "target": self.target,
            "pass": self.passed,
        }
        out.update(self.extras)
        return out


def white_noise_isometry_check(h1, h2, q: CovarianceOperator, n_mc: int, seed: int) -> VerificationReport:
    """E[W_h1 W_h2] under N(0, Q) equals <h1, h2>; verified at 4 standard errors."""
    gen = stream(seed, "isometry")
    z = q.sample(gen, n_mc)
    w1 = z @ q.wn_coeff(h1)
    w2 = z @ q.wn_coeff(h2)
    est, se = mc_mean_se(w1 * w2)
    target = float(np.dot(np.asarray(h1, dtype=np.float64), np.asarray(h2, dtype=np.float64)))
    return VerificationReport(est, se, target, abs(est - target) <= 4.0 * se)


def characteristic_identity_check(
    h, lam: float, q: CovarianceOperator, n_mc: int, seed: int
) -> VerificationReport:
    """exp(-lam^2 ||h||^2 / 2) = E[exp(i lam W_h)] under N(0, Q).

    The real part is compared with the closed form and the imaginary part
    with 0, both at 4 standard errors.
    """
    gen = stream(seed, "characteristic")
    z = q.sample(gen, n_mc)
    w = z @ q.wn_coeff(h)
    re_est, re_se = mc_mean_se(np.cos(lam * w))
    im_est, im_se = mc_mean_se(np.sin(lam * w))
    h = np.asarray(h, dtype=np.float64)
    target = float(np.exp(-(lam**2) * np.dot(h, h) / 2.0))
    ok_re = abs(re_est - target) <= 4.0 * re_se
    ok_im = abs(im_est) <= 4.0 * im_se
    return VerificationReport(
        re_est,
        re_se,
        target,
        ok_re and ok_im,
        extras={"imag_estimate": im_est, "imag_std_error": im_se},
    )


def feature_inner_mc(x, xp, gamma: float, q: CovarianceOperator, n_mc: int, seed: int) -> VerificationReport:
    """Feature-space inner product of the Hilbert-space Gaussian kernel by MC.

    Re E[exp(i (sqrt(2)/gamma) (W_x - W_x'))] must equal exp(-||x-x'||^2 / gamma^2)
    for every admissible Q.
    """
    gen = stream(seed, "feature-inner")
    x = np.asarray(x, dtype=np.float64)
    xp = np.asarray(xp, dtype=np.float64)
    z = q.sample(gen, n_mc)
    w = z @ q.wn_coeff(x - xp)
    lam = math.sqrt(2.0) / gamma
    est, se = mc_mean_se(np.cos(lam * w))
    diff = x - xp
    target = float(np.exp(-np.dot(diff, diff) / gamma**2))
    return VerificationReport(est, se, target, abs(est - target) <= 4.0 * se)


def canonical_surjection_eval(g, x, gamma: float, q: CovarianceOperator, n_mc: int, seed: int):
    """(V_Q g)(x) = Re E[exp(-i (sqrt(2)/gamma) W_x) g]; returns (estimate, std_error).

    g maps a batch of points (n, d) to complex values (n,).
    """
    gen = stream(seed, "surjection")
    z = q.sample(gen, n_mc)
    w = z @ q.wn_coeff(x)
    lam = math.sqrt(2.0) / gamma
    vals = np.real(np.exp(-1j * lam * w) * np.asarray(g(z)))
    return mc_mean_se(vals)


@dataclass(frozen=True)
class NoiseIntegrals:
    """The integrals on a t grid: per-t estimates and standard errors, and the
    per-outer-point terms they average, of shape (len(t), n_outer)."""

    t: np.ndarray
    i1: np.ndarray
    i1_se: np.ndarray
    i2: np.ndarray
    i2_se: np.ndarray
    terms1: np.ndarray
    terms2: np.ndarray


def geometric_noise_integrals(
    meta: MetaDistribution,
    t,
    q: CovarianceOperator,
    n_outer: int,
    n_inner: int,
    seed: int,
) -> NoiseIntegrals:
    """Nested MC estimates of the two localization integrals on a grid of scales t.

    I1 integrates (1 - 2 * [Gaussian mass of the delta-ball around x weighted
    by exp(-||x-y||^2/t)]) against the predictability |2 eta - 1| over the
    input law; I2 integrates the mass that N(x, Q) leaves near the origin at
    scale t. Outer draws x ~ P_X and the inner normal draws are functions of
    (seed, outer index) only, so the whole grid shares all randomness and the
    pointwise monotonicity in t is preserved exactly.

    `t` is a nonempty 1-D sequence of positive scales, n_outer and n_inner are
    >= 1 and q acts on meta.dim coordinates: the `noise-exponent` table
    (`config.COMMANDS`) refuses any other input, and they are not checked
    again here. Each outer point opens its inner stream and draws its normals
    once, and that one draw serves every t, so the cost grows with
    n_outer * n_inner and not with the grid length. Row j of the result
    equals that of the one-point grid [t[j]] bit for bit.

    The outer points are split into one contiguous range per worker thread,
    one worker per CPU that this process may run on, at most NOISE_WORKERS
    and at most one per block of NOISE_BLOCK points, and each worker runs its
    range in such blocks. Every term is computed by the same operations
    whatever the range or the block that holds it, so the result is the same,
    bit for bit, for any number of CPUs. If a worker raises or the caller is
    interrupted, the other workers stop at the end of their current block.
    """
    ts = np.asarray(t, dtype=np.float64)
    from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait  # the thread pool is not loaded by `import tsk`

    means, _ = sample_first_stage(meta, n_outer, seed)
    weights = np.abs(2.0 * eta_batch(meta, means) - 1.0)
    # squared one float64 scalar at a time, as the one-point loop does: an array's ** 2
    # multiplies, a scalar's calls pow, and the two differ in the last bit for about 1 value in 1,200
    radii_sq = np.array([delta**2 for delta in delta_batch(meta, means)])
    sqrt_q = q.sqrt_matrix()
    t1 = np.empty((ts.shape[0], n_outer))
    t2 = np.empty((ts.shape[0], n_outer))
    n_blocks = -(-n_outer // NOISE_BLOCK)
    workers = min(_usable_cpus(), NOISE_WORKERS, n_blocks)
    edges = [min(n_outer, NOISE_BLOCK * (n_blocks * w // workers)) for w in range(workers + 1)]
    stop = threading.Event()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        ranges = [
            pool.submit(_noise_terms, t1, t2, lo, hi, ts, means, weights, radii_sq, sqrt_q, n_inner, seed, stop)
            for lo, hi in zip(edges, edges[1:])
        ]
        try:
            wait(ranges, return_when=FIRST_EXCEPTION)
        finally:
            stop.set()  # after an error or an interrupt, the running workers end at their next block
        for done in ranges:
            done.result()  # re-raises a worker's exception
    i1, i1_se, i2, i2_se = np.array([(*mc_mean_se(row1), *mc_mean_se(row2)) for row1, row2 in zip(t1, t2)]).T
    return NoiseIntegrals(ts, i1, i1_se, i2, i2_se, t1, t2)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _noise_terms(t1, t2, lo, hi, ts, means, weights, radii_sq, sqrt_q, n_inner, seed, stop):
    """Write columns lo..hi-1 of the per-outer-point terms t1 and t2, NOISE_BLOCK outer points at a time.

    Point k draws its inner uniforms from its own stream (seed, "noise-inner", k).
    A block turns them into normals, draws of N(0, Q) and squared distances with
    one call each, then takes the divide, exp and mean of every t and point of
    the block at once in one (T, block, n_inner) buffer. Each point's values pass
    through the same element-wise operations and row sums as in a one-point
    loop, so a column does not depend on where its range or its block starts.
    The buffers are allocated once per call; this is the function each worker
    thread runs, and it returns early once `stop` is set.
    """
    dim, n_t = means.shape[1], ts.shape[0]
    neg_t = -ts[:, None, None]  # x / -t is -x / t bit for bit: IEEE division is exact in the sign
    # the inner normals, then each point's draws minus or plus x, share their memory with the
    # values of every t, which are never needed at the same time
    shared = np.empty(NOISE_BLOCK * n_inner * max(dim, n_t))
    draws = shared[: NOISE_BLOCK * n_inner * dim].reshape(NOISE_BLOCK, n_inner, dim)
    vals = shared[: n_t * NOISE_BLOCK * n_inner].reshape(n_t, NOISE_BLOCK, n_inner)
    z = np.empty((NOISE_BLOCK, n_inner, dim))
    sq = np.empty((NOISE_BLOCK, n_inner))
    inside = np.empty((NOISE_BLOCK, n_inner), dtype=bool)
    for start in range(lo, hi, NOISE_BLOCK):
        if stop.is_set():
            return
        b = min(NOISE_BLOCK, hi - start)
        ks = slice(start, start + b)
        u, zb, sqb, inb, vb = draws[:b], z[:b], sq[:b], inside[:b], vals[:, :b]
        for i in range(b):
            stream(seed, "noise-inner", start + i).random(out=u[i])
        np.matmul(normals_from_uniforms(u), sqrt_q, out=zb)
        x = means[ks, None, :]
        np.einsum("bij,bij->bi", np.subtract(zb, x, out=u), u, out=sqb)
        np.less_equal(sqb, radii_sq[ks, None], out=inb)
        np.exp(np.divide(sqb, neg_t, out=vb), out=vb)
        vb *= inb
        t1[:, ks] = (1.0 - 2.0 * vb.mean(axis=2)) * weights[ks]
        np.einsum("bij,bij->bi", np.add(zb, x, out=u), u, out=sqb)
        np.exp(np.divide(sqb, neg_t, out=vb), out=vb)
        t2[:, ks] = vb.mean(axis=2) * weights[ks]


@dataclass(frozen=True)
class NoiseExponentFit:
    t_grid: tuple
    fit_values: tuple
    alpha_hat: float
    c_hat: float
    floor: float
    degenerate: bool
    valid: bool
    i1_values: tuple | None = None
    i1_se: tuple | None = None
    i2_values: tuple | None = None
    i2_se: tuple | None = None

    def to_json(self) -> dict:
        """The fields, leaving out the integrals of a fit made without them."""
        return {name: value for name, value in fields_json(self).items() if value is not None}


def fit_noise_exponent(t_grid, i_values, floor: float = 1e-12) -> NoiseExponentFit:
    """Least-squares power law I(t) <= C t^alpha on a finite grid.

    The slope comes from (log t, log max(I, floor)) with at-floor points
    excluded; C is the smallest constant covering every positive grid value.
    Fits with alpha <= 0 are kept but marked invalid.
    """
    t = np.asarray(t_grid, dtype=np.float64)
    i = np.asarray(i_values, dtype=np.float64)
    if t.shape != i.shape:
        raise InputError("t and I grids must have the same length")
    mask = i > floor
    if mask.sum() < 2:
        return NoiseExponentFit(
            t_grid=tuple(t),
            fit_values=tuple(i),
            alpha_hat=0.0,
            c_hat=0.0,
            floor=floor,
            degenerate=True,
            valid=False,
        )
    slope, _ = np.polyfit(np.log(t[mask]), np.log(i[mask]), 1)
    alpha = float(slope)
    pos = i > 0
    c_hat = float(np.max(i[pos] / t[pos] ** alpha)) if np.any(pos) else 0.0
    return NoiseExponentFit(
        t_grid=tuple(t),
        fit_values=tuple(i),
        alpha_hat=alpha,
        c_hat=c_hat,
        floor=floor,
        degenerate=False,
        valid=alpha > 0,
    )


def fit_geometric_noise(
    meta: MetaDistribution,
    q: CovarianceOperator,
    t_grid,
    n_outer: int,
    n_inner: int,
    seed: int,
    floor: float = 1e-12,
) -> NoiseExponentFit:
    """Estimate both integrals on the grid and fit their pointwise maximum.

    One (C, alpha) pair has to cover both localization integrals, so the fit
    runs on max(I1, I2), and one `geometric_noise_integrals` call serves the
    whole grid. The grid (at least 3 values > 0) and the floor (> 0) are those
    that the `noise-exponent` table admits; they are not checked again here.
    """
    ints = geometric_noise_integrals(meta, t_grid, q, n_outer, n_inner, seed)
    fit = fit_noise_exponent(t_grid, np.maximum(ints.i1, ints.i2), floor)
    return replace(fit, i1_values=tuple(ints.i1), i1_se=tuple(ints.i1_se), i2_values=tuple(ints.i2), i2_se=tuple(ints.i2_se))
