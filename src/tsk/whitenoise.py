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
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError, fields_json
from .rng import mc_mean_se, normals, stream
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

MIN_MC = 1000  # fewest Monte Carlo draws a verification check accepts


@dataclass(frozen=True)
class CovarianceOperator:
    """Symmetric positive-definite covariance via its eigendecomposition."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # orthonormal columns

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=np.float64)
        vec = np.asarray(self.eigenvectors, dtype=np.float64)
        d = lam.shape[0]
        if lam.ndim != 1 or vec.shape != (d, d):
            raise InputError("eigenvalues must be (d,), eigenvectors (d, d)")
        if not np.all(lam > 0):
            raise InputError("covariance eigenvalues must all be > 0 (trivial kernel)")
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
    _check_mc(n_mc)
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
    _check_mc(n_mc)
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
    _check_mc(n_mc)
    if not (gamma > 0):
        raise InputError(f"gamma must be > 0, got {gamma}")
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
    _check_mc(n_mc)
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

    `t` is a nonempty 1-D sequence of positive scales. Each outer point opens
    its inner stream and draws its normals once, and that one draw serves
    every t, so the cost grows with n_outer * n_inner and not with the grid
    length. Row j of the result equals that of the one-point grid [t[j]] bit
    for bit.
    """
    ts = np.asarray(t, dtype=np.float64)
    if ts.ndim != 1 or ts.shape[0] < 1 or not np.all(ts > 0):
        raise InputError(f"t must be a nonempty 1-D grid of values > 0, got {t}")
    if n_outer < 1 or n_inner < 1:
        raise InputError("n_outer and n_inner must be >= 1")
    if q.dim != meta.dim:
        raise InputError("covariance dimension must match the problem dimension")
    means, _ = sample_first_stage(meta, n_outer, seed)
    weights = np.abs(2.0 * eta_batch(meta, means) - 1.0)
    deltas = delta_batch(meta, means)
    sqrt_q = q.sqrt_matrix()
    col = ts[:, None]
    t1 = np.empty((ts.shape[0], n_outer))
    t2 = np.empty((ts.shape[0], n_outer))
    for k in range(n_outer):
        gen = stream(seed, "noise-inner", k)
        z = normals(gen, (n_inner, meta.dim)) @ sqrt_q
        x = means[k]
        diff = z - x
        sq = np.einsum("ij,ij->i", diff, diff)
        inside = sq <= deltas[k] ** 2
        # row-wise means of C-contiguous (T, n_inner) blocks: each row sums
        # exactly as np.mean over one t's n_inner values
        ball_mass = np.mean(np.exp(-sq / col) * inside, axis=1)
        t1[:, k] = (1.0 - 2.0 * ball_mass) * weights[k]
        shifted = z + x
        sq2 = np.einsum("ij,ij->i", shifted, shifted)
        t2[:, k] = np.mean(np.exp(-sq2 / col), axis=1) * weights[k]
    i1, i1_se, i2, i2_se = np.array([(*mc_mean_se(row1), *mc_mean_se(row2)) for row1, row2 in zip(t1, t2)]).T
    return NoiseIntegrals(ts, i1, i1_se, i2, i2_se, t1, t2)


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


def _check_fit_grid(t_grid, floor: float) -> np.ndarray:
    """The t grid of a power-law fit: 1-D, at least 3 finite values > 0; floor finite and > 0."""
    t = np.asarray(t_grid, dtype=np.float64)
    if t.ndim != 1 or t.shape[0] < 3:
        raise InputError(f"t grid needs at least 3 points, got {t.tolist()}")
    if not np.all(np.isfinite(t) & (t > 0)):
        raise InputError(f"t grid must be finite and positive, got {t.tolist()}")
    if not (math.isfinite(floor) and floor > 0):
        raise InputError(f"floor must be finite and > 0, got {floor}")
    return t


def fit_noise_exponent(t_grid, i_values, floor: float = 1e-12) -> NoiseExponentFit:
    """Least-squares power law I(t) <= C t^alpha on a finite grid.

    The slope comes from (log t, log max(I, floor)) with at-floor points
    excluded; C is the smallest constant covering every positive grid value.
    Fits with alpha <= 0 are kept but marked invalid.
    """
    t = _check_fit_grid(t_grid, floor)
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
    runs on max(I1, I2). The grid and floor are checked before any sampling,
    and one `geometric_noise_integrals` call serves the whole grid.
    """
    t = _check_fit_grid(t_grid, floor)
    ints = geometric_noise_integrals(meta, t, q, n_outer, n_inner, seed)
    fit = fit_noise_exponent(t_grid, np.maximum(ints.i1, ints.i2), floor)
    return replace(fit, i1_values=tuple(ints.i1), i1_se=tuple(ints.i1_se), i2_values=tuple(ints.i2), i2_se=tuple(ints.i2_se))


def _check_mc(n_mc: int):
    if n_mc < MIN_MC:
        raise InputError(f"Monte Carlo checks need n_mc >= {MIN_MC}, got {n_mc}")
