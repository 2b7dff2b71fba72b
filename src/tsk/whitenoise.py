"""Finite-dimensional Gaussian-measure laboratory.

R^d stands in for the separable Hilbert space: a covariance operator with
strictly positive spectrum makes Q^{1/2} invertible, so the white noise
mapping W_h(z) = <Q^{-1/2} h, z> is exact rather than a density-argument
limit. On top of it sit Monte Carlo checks of the characteristic identity,
the feature-space construction for the Hilbert-space Gaussian kernel, the
smoothed Bayes hypothesis, and the geometric-noise localization integrals
with a power-law exponent fit.

Complex quantities are carried explicitly; every "real part" below is a
literal component extraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, config_floats, config_int
from .rng import mc_mean_se, normals, stream
from .synth import MetaDistribution, delta_batch, eta_batch, sample_first_stage

__all__ = [
    "CovarianceOperator",
    "VerificationReport",
    "NoiseExponentFit",
    "white_noise",
    "white_noise_isometry_check",
    "characteristic_identity_check",
    "feature_inner_mc",
    "canonical_surjection_eval",
    "smoothed_bayes_eval",
    "geometric_noise_integrals",
    "fit_noise_exponent",
    "fit_geometric_noise",
    "random_covariance",
]


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

    @classmethod
    def from_matrix(cls, q: np.ndarray) -> "CovarianceOperator":
        q = np.asarray(q, dtype=np.float64)
        if not np.allclose(q, q.T, atol=1e-12):
            raise InputError("covariance matrix must be symmetric")
        lam, vec = np.linalg.eigh(q)
        op = cls(lam, vec)
        if np.abs(op.matrix() - q).max() > 1e-10:
            raise InputError("eigendecomposition failed to reconstruct the covariance")
        return op

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def trace(self) -> float:
        return float(self.eigenvalues.sum())

    def matrix(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.T

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
        lam = np.asarray(config_floats(cfg["eigenvalues"], "covariance eigenvalues"))
        if "eigenvectors" in cfg:
            return cls(lam, np.array([config_floats(row, "covariance eigenvectors") for row in cfg["eigenvectors"]]))
        if "rotation_seed" in cfg:
            gen = stream(config_int(cfg["rotation_seed"], "covariance rotation_seed", minimum=0), "covariance-rotation")
            q, _ = np.linalg.qr(normals(gen, (lam.shape[0], lam.shape[0])))
            return cls(lam, q)
        return cls(lam, np.eye(lam.shape[0]))


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


def white_noise(h, z, q: CovarianceOperator) -> float:
    """W_h(z) = <Q^{-1/2} h, z>."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (q.dim,):
        raise InputError(f"z must have shape ({q.dim},), got {z.shape}")
    return float(q.wn_coeff(h) @ z)


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


def smoothed_bayes_eval(
    meta: MetaDistribution,
    x,
    gamma: float,
    q: CovarianceOperator,
    n_mc: int,
    seed: int,
    labeler=None,
) -> VerificationReport:
    """Gaussian smoothing of the Bayes classifier of a hard-margin geometry.

    fhat(x) = E_{y ~ N(0,Q)}[ f*(y) exp(-||x-y||^2 / gamma^2) ] with f*(y) the
    halfspace sign (+1 iff <e1, y> >= 0); pass `labeler` (batch of points ->
    values in [-1, 1]) to smooth a different target. The raw estimate is
    reported; a to [-1, 1] clamped copy rides along in the extras.
    """
    _check_mc(n_mc)
    gen = stream(seed, "smoothed-bayes")
    x = np.asarray(x, dtype=np.float64)
    y = q.sample(gen, n_mc)
    fstar = np.where(y[:, 0] >= 0.0, 1.0, -1.0) if labeler is None else np.asarray(labeler(y))
    diff = y - x
    weights = np.exp(-np.einsum("ij,ij->i", diff, diff) / gamma**2)
    raw, se = mc_mean_se(fstar * weights)
    clamped = min(1.0, max(-1.0, raw))
    within = abs(raw) <= 1.0 + 4.0 * se
    return VerificationReport(raw, se, clamped, within, extras={"clamped": clamped})


@dataclass(frozen=True)
class NoiseIntegrals:
    t: float
    i1: float
    i1_se: float
    i2: float
    i2_se: float


def geometric_noise_integrals(
    meta: MetaDistribution,
    t,
    q: CovarianceOperator,
    n_outer: int,
    n_inner: int,
    seed: int,
    return_terms: bool = False,
):
    """Nested MC estimates of the two localization integrals at scale t.

    I1 integrates (1 - 2 * [Gaussian mass of the delta-ball around x weighted
    by exp(-||x-y||^2/t)]) against the predictability |2 eta - 1| over the
    input law; I2 integrates the mass that N(x, Q) leaves near the origin at
    scale t. Outer draws x ~ P_X and the inner normal draws are functions of
    (seed, outer index) only, so a t-grid shares all randomness and the
    pointwise monotonicity in t is preserved exactly.

    `t` is one positive float or a 1-D sequence of them. Each outer point
    opens its inner stream and draws its normals once, and that one draw
    serves every t, so the cost grows with n_outer * n_inner and not with
    the grid length. A float returns one `NoiseIntegrals` (terms of shape
    (n_outer,)); a sequence returns a list with one per t (terms of shape
    (len(t), n_outer)). Every value equals that of a single-t call bit for
    bit.
    """
    scalar = np.ndim(t) == 0
    ts = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if ts.ndim != 1 or ts.shape[0] < 1 or not np.all(ts > 0):
        raise InputError(f"t must be > 0 (a float or a nonempty 1-D grid), got {t}")
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
    results = [
        NoiseIntegrals(float(tj), *mc_mean_se(t1[j]), *mc_mean_se(t2[j])) for j, tj in enumerate(ts)
    ]
    if scalar:
        results, t1, t2 = results[0], t1[0], t2[0]
    if return_terms:
        return results, t1, t2
    return results


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
        out = {
            "t_grid": list(self.t_grid),
            "fit_values": list(self.fit_values),
            "alpha_hat": self.alpha_hat,
            "c_hat": self.c_hat,
            "floor": self.floor,
            "degenerate": self.degenerate,
            "valid": self.valid,
        }
        for name in ("i1_values", "i1_se", "i2_values", "i2_se"):
            val = getattr(self, name)
            if val is not None:
                out[name] = list(val)
        return out


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
    results = geometric_noise_integrals(meta, t, q, n_outer, n_inner, seed)
    i1 = np.array([r.i1 for r in results])
    i2 = np.array([r.i2 for r in results])
    fit = fit_noise_exponent(t_grid, np.maximum(i1, i2), floor)
    return NoiseExponentFit(
        t_grid=fit.t_grid,
        fit_values=fit.fit_values,
        alpha_hat=fit.alpha_hat,
        c_hat=fit.c_hat,
        floor=fit.floor,
        degenerate=fit.degenerate,
        valid=fit.valid,
        i1_values=tuple(i1),
        i1_se=tuple(r.i1_se for r in results),
        i2_values=tuple(i2),
        i2_se=tuple(r.i2_se for r in results),
    )


def _check_mc(n_mc: int):
    if n_mc < 1000:
        raise InputError(f"Monte Carlo checks need n_mc >= 1000, got {n_mc}")
