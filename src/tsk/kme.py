"""Kernel mean embeddings and their RKHS algebra.

Elements of the base RKHS are carried in two forms: finite weighted point
expansions (empirical embeddings of bags) and closed-form embeddings of
isotropic Gaussian inputs. Everything downstream consumes only
`cross_inner` and `squared_norms`, the one place that picks a formula by
embedding kind, so the two forms mix freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from . import _backend
from .base_kernels import FAMILY_CODES, GAUSSIAN, BaseKernel
from .errors import InputError, NumericalConsistencyError, UnsupportedError

__all__ = [
    "SampleSet",
    "EmpiricalEmbedding",
    "GaussianKmeEmbedding",
    "embed",
    "exact_gaussian_embedding",
    "inner",
    "cross_inner",
    "squared_norms",
    "squared_distance",
    "rkhs_distance",
    "concentration_bound",
    "gaussian_family_kme_inner",
    "gaussian_kme_inner_matrix",
    "gaussian_kme_cross_inner",
]

# squared distances this far below zero are floating-point noise; beyond is corruption
NEG_TOL = 1e-10


@dataclass(frozen=True)
class SampleSet:
    """A bag of M i.i.d. draws from one input distribution, rows of shape (M, d)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise InputError(f"sample set must be a nonempty (M, d) matrix, got shape {pts.shape}")
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class EmpiricalEmbedding:
    """Weighted expansion sum_m w_m k(., s_m) in the base RKHS."""

    kernel: BaseKernel
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] != self.kernel.dim or not np.all(np.isfinite(pts)):
            raise InputError(
                f"embedding points must be finite and (m, {self.kernel.dim}) with m >= 1, got shape {pts.shape}"
            )
        if w.shape != (pts.shape[0],) or not np.all(np.isfinite(w)):
            raise InputError("weights must be finite and match the number of points")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class GaussianKmeEmbedding:
    """Exact KME of N(mean, spread^2 I) under a gaussian base kernel."""

    kernel: BaseKernel
    mean: np.ndarray
    spread: float

    def __post_init__(self):
        if self.kernel.family != GAUSSIAN:
            raise UnsupportedError("exact KMEs are available only for the gaussian base kernel")
        m = np.ascontiguousarray(self.mean, dtype=np.float64)
        if m.shape != (self.kernel.dim,):
            raise InputError(f"mean must have shape ({self.kernel.dim},), got {m.shape}")
        if self.spread < 0:
            raise InputError(f"spread must be >= 0, got {self.spread}")
        object.__setattr__(self, "mean", m)


Embedding = EmpiricalEmbedding | GaussianKmeEmbedding


def embed(k: BaseKernel, s: SampleSet) -> EmpiricalEmbedding:
    """Uniform-weight empirical embedding of a bag."""
    if s.dim != k.dim:
        raise InputError(f"bag dimension {s.dim} does not match kernel dimension {k.dim}")
    m = s.size
    return EmpiricalEmbedding(k, s.points, np.full(m, 1.0 / m))


def exact_gaussian_embedding(k: BaseKernel, mean, spread: float) -> GaussianKmeEmbedding:
    return GaussianKmeEmbedding(k, np.asarray(mean, dtype=np.float64), float(spread))


def gaussian_family_kme_inner(m, sigma: float, mp, sigma_p: float, k: BaseKernel) -> float:
    """<mu_Q, mu_Q'> for Q = N(m, sigma^2 I), Q' = N(m', sigma_p^2 I).

    Closed form (g = width^2, v = g + 2 sigma^2 + 2 sigma_p^2):
    (g / v)^(d/2) * exp(-||m - m'||^2 / v). Reduces to the base kernel at
    sigma = sigma_p = 0.
    """
    m = np.asarray(m, dtype=np.float64)
    mp = np.asarray(mp, dtype=np.float64)
    if m.shape != (k.dim,) or mp.shape != (k.dim,):
        raise InputError(f"means must have shape ({k.dim},)")
    if sigma < 0 or sigma_p < 0:
        raise InputError("spreads must be >= 0")
    return float(gaussian_kme_cross_inner(k, m[None, :], [sigma], mp[None, :], [sigma_p])[0, 0])


def _closed_form(k: BaseKernel, d2, s2a, s2b):
    # symmetric grouping keeps the swap (m, s) <-> (m', s') bit-exact
    g = k.width * k.width
    v = g + 2.0 * (s2a + s2b)
    return (g / v) ** (k.dim / 2.0) * np.exp(-d2 / v)


def _common_kernel(embs) -> BaseKernel | None:
    k = embs[0].kernel if embs else None
    for e in embs:
        if e.kernel != k:
            raise InputError(f"embeddings use different base kernels: {k} vs {e.kernel}")
    return k


def _split(embs):
    """Indices, means and spreads of the exact embeddings; indices of the empirical ones."""
    x = [i for i, e in enumerate(embs) if isinstance(e, GaussianKmeEmbedding)]
    e = [i for i, emb in enumerate(embs) if isinstance(emb, EmpiricalEmbedding)]
    return x, np.array([embs[i].mean for i in x]), np.array([embs[i].spread for i in x]), e


def _stacked(embs, idx):
    """Stacked points and weights of the empirical embeddings embs[idx], with segment offsets."""
    offsets = np.concatenate(([0], np.cumsum([len(embs[i].weights) for i in idx])))
    points = np.concatenate([embs[i].points for i in idx])
    return points, np.concatenate([embs[i].weights for i in idx]), offsets


def _pair_sums(k: BaseKernel, e: EmpiricalEmbedding, points, weights, offsets) -> np.ndarray:
    return _backend.pair_sums(e.points, e.weights, points, weights, offsets, FAMILY_CODES[k.family], k.width)


def _atoms_inner(k: BaseKernel, means, spreads, e: EmpiricalEmbedding) -> np.ndarray:
    # each expansion atom of e is the sigma' = 0 case of the closed form
    return gaussian_kme_cross_inner(k, means, spreads, e.points, np.zeros(len(e.points))) @ e.weights


def cross_inner(a, b) -> np.ndarray:
    """Matrix of <a_i, b_j> between two sequences of embeddings with one base kernel.

    The single place where the formula depends on the embedding kind: the
    closed form for exact x exact, the sigma' = 0 closed form per expansion
    atom for mixed pairs, and for empirical x empirical one blocked kernel
    pass (`_backend.pair_sums`) per empirical a_i against the stacked points
    of all empirical b_j. Every entry depends only on its two embeddings, so
    it equals `cross_inner([a_i], [b_j])` bit for bit whatever else is in
    the batch. When b is a, row i covers only the columns j >= i and is
    mirrored, so the matrix is exactly symmetric and its diagonal equals
    `squared_norms(a)` bit for bit.
    """
    same = b is a
    a = list(a)
    b = a if same else list(b)
    k = _common_kernel(a if same else a + b)
    out = np.empty((len(a), len(b)))
    xa, ma, sa, ea = _split(a)
    xb, mb, sb, eb = (xa, ma, sa, ea) if same else _split(b)
    if xa and xb:
        out[np.ix_(xa, xb)] = gaussian_kme_cross_inner(k, ma, sa, mb, sb)
    if xa:
        for j in eb:
            out[xa, j] = _atoms_inner(k, ma, sa, b[j])
    if eb:
        points, weights, offsets = _stacked(b, eb)
    for r, i in enumerate(ea):
        if same:  # row i covers the columns j >= i and is mirrored
            out[i, xa] = out[xa, i]
            lo = offsets[r]
            out[i, eb[r:]] = out[eb[r:], i] = _pair_sums(k, a[i], points[lo:], weights[lo:], offsets[r:] - lo)
            continue
        if xb:
            out[i, xb] = _atoms_inner(k, mb, sb, a[i])
        if eb:
            out[i, eb] = _pair_sums(k, a[i], points, weights, offsets)
    return out


def squared_norms(embs) -> np.ndarray:
    """||e||^2 for each embedding, computed once each: the closed form at zero
    mean distance for exact embeddings, a one-segment `_backend.pair_sums`
    for empirical ones."""
    embs = list(embs)
    k = _common_kernel(embs)
    out = np.empty(len(embs))
    x, _, spreads, e = _split(embs)
    if x:
        out[x] = _closed_form(k, 0.0, spreads**2, spreads**2)
    for i in e:
        out[i] = _pair_sums(k, embs[i], embs[i].points, embs[i].weights, [0, len(embs[i].weights)])[0]
    return out


def inner(e1: Embedding, e2: Embedding) -> float:
    """RKHS inner product via the reproducing property; symmetric in arguments."""
    return float(cross_inner([e1], [e2])[0, 0])


def _clamp_sq(sq):
    """Squared distances (scalar or array) with noise in [-NEG_TOL, 0) set to 0; lower or NaN raises."""
    low = np.min(sq, initial=0.0)
    if not low >= -NEG_TOL:
        raise NumericalConsistencyError(
            f"squared RKHS distance {low} is below -{NEG_TOL}; inner products are inconsistent"
        )
    return np.maximum(sq, 0.0)


def squared_distance(e1: Embedding, e2: Embedding) -> float:
    """||e1 - e2||^2 with tiny negative values clamped to 0."""
    n1, n2 = squared_norms([e1, e2])
    return float(_clamp_sq(n1 + n2 - 2.0 * inner(e1, e2)))


def rkhs_distance(e1: Embedding, e2: Embedding) -> float:
    return math.sqrt(squared_distance(e1, e2))


def concentration_bound(m: int, delta: float, kernel_sup: float) -> float:
    """High-probability estimation radius for the empirical embedding of one bag.

    2 sqrt(s^2 / M) + sqrt(2 s ln(1/delta) / M) for sup-norm s; valid with
    probability at least 1 - delta.
    """
    if not (0.0 < delta < 1.0):
        raise InputError(f"delta must lie in (0, 1), got {delta}")
    if m < 1:
        raise InputError(f"bag size must be >= 1, got {m}")
    if not (kernel_sup > 0):
        raise InputError(f"kernel sup-norm must be > 0, got {kernel_sup}")
    return 2.0 * math.sqrt(kernel_sup * kernel_sup / m) + math.sqrt(
        2.0 * kernel_sup * math.log(1.0 / delta) / m
    )


def gaussian_kme_inner_matrix(k: BaseKernel, means: np.ndarray, spreads: np.ndarray) -> np.ndarray:
    """All pairwise exact-KME inner products for isotropic Gaussian inputs."""
    return gaussian_kme_cross_inner(k, means, spreads, means, spreads)


def gaussian_kme_cross_inner(
    k: BaseKernel, means_a: np.ndarray, spreads_a: np.ndarray, means_b: np.ndarray, spreads_b: np.ndarray
) -> np.ndarray:
    """Cross inner-product matrix between two families of exact Gaussian KMEs.

    Mean distances come from cdist, so a pair with equal means and spreads
    gets exactly the squared norm of `squared_norms`.
    """
    if k.family != GAUSSIAN:
        raise UnsupportedError("closed-form KME inner products require the gaussian base kernel")
    d2 = cdist(np.asarray(means_a, dtype=np.float64), np.asarray(means_b, dtype=np.float64), "sqeuclidean")
    sa2 = np.asarray(spreads_a, dtype=np.float64) ** 2
    sb2 = np.asarray(spreads_b, dtype=np.float64) ** 2
    return _closed_form(k, d2, sa2[:, None], sb2[None, :])
