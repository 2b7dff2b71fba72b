"""Kernel mean embeddings and their RKHS algebra.

Embeddings travel in batches, one array-backed class per geometry:
`ExactBatch` holds the closed-form embeddings of isotropic Gaussian inputs,
`EmpiricalBatch` the weighted point expansions of sample bags, stacked at
segment offsets, and `PointBatch` raw Hilbert-space points under the
identity embedding. Each batch validates its arrays once, in its
constructor, and computes its squared norms at most once. Its arrays are
shared, not copied, so callers treat them as read-only. Everything
downstream consumes only `cross_inner` and `squared_norms`, which pick one
formula per pair of batches, so exact and empirical batches mix freely as
pairs. A single embedding is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _backend
from .base_kernels import FAMILY_CODES, GAUSSIAN, BaseKernel
from .errors import InputError, NumericalConsistencyError, UnsupportedError

__all__ = [
    "SampleSet",
    "ExactBatch",
    "EmpiricalBatch",
    "PointBatch",
    "embed",
    "embed_bags",
    "uniform_weights",
    "exact_gaussian_embedding",
    "inner",
    "cross_inner",
    "squared_norms",
    "squared_distance",
    "squared_distances",
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


@dataclass(frozen=True, eq=False)
class ExactBatch:
    """Exact KMEs of N(means[i], spreads[i]^2 I) under a gaussian base kernel."""

    kernel: BaseKernel
    means: np.ndarray
    spreads: np.ndarray

    def __post_init__(self):
        if self.kernel.family != GAUSSIAN:
            raise UnsupportedError("exact KMEs are available only for the gaussian base kernel")
        means = np.ascontiguousarray(self.means, dtype=np.float64)
        spreads = np.ascontiguousarray(self.spreads, dtype=np.float64)
        if means.ndim != 2 or means.shape[1] != self.kernel.dim or not np.all(np.isfinite(means)):
            raise InputError(f"means must be finite and of shape (n, {self.kernel.dim}), got shape {means.shape}")
        if spreads.shape != (means.shape[0],) or not np.all(np.isfinite(spreads) & (spreads >= 0.0)):
            raise InputError(f"spreads must be finite, >= 0 and one per mean, got {spreads}")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "spreads", spreads)

    def __len__(self) -> int:
        return self.means.shape[0]

    def take(self, idx) -> ExactBatch:
        return ExactBatch(self.kernel, self.means[idx], self.spreads[idx])

    @cached_property
    def _norms(self) -> np.ndarray:
        return _closed_form_into(self.kernel, np.zeros(len(self)), self.spreads**2, self.spreads**2)


@dataclass(frozen=True, eq=False)
class EmpiricalBatch:
    """Weighted expansions sum_m w_m k(., s_m), expansion i on the rows
    offsets[i]:offsets[i + 1] of points and weights."""

    kernel: BaseKernel
    points: np.ndarray
    weights: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        off = np.asarray(self.offsets)
        if pts.ndim != 2 or pts.shape[1] != self.kernel.dim or not np.all(np.isfinite(pts)):
            raise InputError(f"embedding points must be finite and of shape (m, {self.kernel.dim}), got shape {pts.shape}")
        if w.shape != (pts.shape[0],) or not np.all(np.isfinite(w)):
            raise InputError("weights must be finite and match the number of points")
        if off.ndim != 1 or off.size < 1 or off.dtype.kind not in "iu" or off[0] != 0 or off[-1] != len(pts) or np.any(np.diff(off) < 1):
            raise InputError("offsets must be integers running from 0 to the number of points, every expansion nonempty")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "offsets", off.astype(np.intp, copy=False))

    def __len__(self) -> int:
        return self.offsets.shape[0] - 1

    def take(self, idx) -> EmpiricalBatch:
        idx = np.asarray(idx, dtype=np.intp)
        sizes = np.diff(self.offsets)[idx]
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        rows = np.repeat(self.offsets[idx] - offsets[:-1], sizes) + np.arange(offsets[-1])
        return EmpiricalBatch(self.kernel, self.points[rows], self.weights[rows], offsets)

    def expansion(self, i: int):
        """Points and weights of expansion i."""
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return self.points[lo:hi], self.weights[lo:hi]

    @cached_property
    def _norms(self) -> np.ndarray:
        code = FAMILY_CODES[self.kernel.family]
        out = np.empty(len(self))
        for i in range(len(self)):
            x, w = self.expansion(i)
            out[i] = _backend.pair_sums(x, w, x, w, [0, len(w)], code, self.kernel.width)[0]
        return out


@dataclass(frozen=True, eq=False)
class PointBatch:
    """Points of R^d embedded by the identity: the inner product is the dot product."""

    points: np.ndarray
    kernel = None  # no base kernel: the points already live in the Hilbert space

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or not np.all(np.isfinite(pts)):
            raise InputError(f"points must be a finite (n, d) matrix, got shape {pts.shape}")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    def take(self, idx) -> PointBatch:
        return PointBatch(self.points[idx])

    @cached_property
    def _norms(self) -> np.ndarray:
        return _dot_into(self.points, self.points, np.empty(len(self)), np.empty(len(self)))


def uniform_weights(m: int) -> np.ndarray:
    """The weights 1/m of the empirical embedding of an m-point bag."""
    return np.full(m, 1.0 / m)


def embed_bags(k: BaseKernel, bags) -> EmpiricalBatch:
    """Uniform-weight empirical embeddings of a sequence of bags."""
    if any(s.dim != k.dim for s in bags):
        raise InputError(f"bag dimensions {sorted({s.dim for s in bags})} do not match kernel dimension {k.dim}")
    sizes = [s.size for s in bags]
    points = np.concatenate([np.empty((0, k.dim))] + [s.points for s in bags])
    weights = np.concatenate([np.empty(0)] + [uniform_weights(m) for m in sizes])
    return EmpiricalBatch(k, points, weights, np.cumsum([0] + sizes))


def embed(k: BaseKernel, s: SampleSet) -> EmpiricalBatch:
    """Uniform-weight empirical embedding of one bag, a batch of one."""
    return embed_bags(k, [s])


def exact_gaussian_embedding(k: BaseKernel, mean, spread: float) -> ExactBatch:
    """Exact KME of N(mean, spread^2 I), a batch of one."""
    return ExactBatch(k, np.asarray(mean, dtype=np.float64)[None], [spread])


def _closed_form_into(k: BaseKernel, d2: np.ndarray, s2a, s2b) -> np.ndarray:
    """(g / v)^(d/2) exp(-d2 / v), v = g + 2 (s2a + s2b) and g = width^2, computed in the
    caller's array of squared mean distances through one temporary of the spreads'
    broadcast shape; the symmetric grouping keeps the swap (m, s) <-> (m', s') bit-exact."""
    g = k.width * k.width
    t = np.add(s2a, s2b)
    t *= -2.0
    t -= g  # -v
    np.exp(np.divide(d2, t, out=d2), out=d2)
    np.divide(-g, t, out=t)  # g / v
    t **= k.dim / 2.0
    d2 *= t
    return d2


def _dot_into(x: np.ndarray, y: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Dot products over the last axis written into out, accumulated from 0 coordinate by
    coordinate through tmp: each value depends only on its own two points."""
    out.fill(0.0)
    for c in range(x.shape[-1]):
        out += np.multiply(x[..., c], y[..., c], out=tmp)
    return out


def _point_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix of x_i . y_j by `_dot_into`, one row block at a time through one reused temporary."""
    out = np.empty((len(x), len(y)))
    blocks = _backend.row_blocks(*out.shape)
    tmp = np.empty_like(out[blocks[0]])
    for rows in blocks:
        _dot_into(x[rows, None], y[None], out[rows], tmp[: rows.stop - rows.start])
    return out


def _atoms_inner(k: BaseKernel, x: ExactBatch, e: EmpiricalBatch) -> np.ndarray:
    """<x_i, e_j>: each atom of e_j is the sigma' = 0 case of the closed form, and
    x_i's row of atom values is weighted and summed on its own by
    `_backend.weighted_row_sums`."""
    out = np.empty((len(x), len(e)))
    for j in range(len(e)):
        pts, w = e.expansion(j)
        block = gaussian_kme_cross_inner(k, x.means, x.spreads, pts, np.zeros(len(pts)))
        _backend.weighted_row_sums(block, w, out=out[:, j])
    return out


def _expansions_inner(k: BaseKernel, a: EmpiricalBatch, b: EmpiricalBatch, same: bool) -> np.ndarray:
    """<a_i, b_j> from one `_backend.pair_sums` pass per expansion of a against
    the stacked points of b; when b is a, row i covers only the columns j >= i
    and is mirrored."""
    code = FAMILY_CODES[k.family]
    out = np.empty((len(a), len(b)))
    for i in range(len(a)):
        x, w = a.expansion(i)
        if same:
            lo = b.offsets[i]
            out[i, i:] = out[i:, i] = _backend.pair_sums(
                x, w, b.points[lo:], b.weights[lo:], b.offsets[i:] - lo, code, k.width
            )
        else:
            out[i] = _backend.pair_sums(x, w, b.points, b.weights, b.offsets, code, k.width)
    return out


def cross_inner(a, b) -> np.ndarray:
    """Matrix of <a_i, b_j> between two batches with one base kernel.

    The single place where the formula depends on the geometry: the dot
    product for points, the closed form for exact x exact, the sigma' = 0
    closed form per expansion atom for exact x empirical (either order),
    and for empirical x empirical one blocked kernel pass per expansion of
    a. Every entry depends only on its two embeddings, so it equals
    `cross_inner(a.take([i]), b.take([j]))` bit for bit whatever else is in
    the batches. When b is a, the matrix is exactly symmetric and its
    diagonal equals `squared_norms(a)` bit for bit.
    """
    if a.kernel != b.kernel:
        raise InputError(f"embeddings use different base kernels: {a.kernel} vs {b.kernel}")
    k, kinds = a.kernel, (type(a), type(b))
    if kinds == (PointBatch, PointBatch):
        return _point_dots(a.points, b.points)
    if kinds == (ExactBatch, ExactBatch):
        return gaussian_kme_cross_inner(k, a.means, a.spreads, b.means, b.spreads)
    if kinds == (ExactBatch, EmpiricalBatch):
        return _atoms_inner(k, a, b)
    if kinds == (EmpiricalBatch, ExactBatch):
        return np.ascontiguousarray(_atoms_inner(k, b, a).T)
    if kinds == (EmpiricalBatch, EmpiricalBatch):
        return _expansions_inner(k, a, b, b is a)


def squared_norms(batch) -> np.ndarray:
    """||e||^2 for each embedding of the batch, computed at most once per batch:
    the dot product for points, the closed form at zero mean distance for
    exact embeddings, a one-segment `_backend.pair_sums` for empirical ones.
    The cached array is shared, so it is read-only."""
    batch._norms.flags.writeable = False
    return batch._norms


def inner(e1, e2) -> float:
    """RKHS inner product of two embeddings (batches of one); symmetric in its arguments."""
    return float(cross_inner(e1, e2)[0, 0])


def _clamp_sq(sq: np.ndarray) -> np.ndarray:
    """Squared distances with noise in [-NEG_TOL, 0) set to 0 in place (no pass
    when none is below 0); lower or NaN raises."""
    low = np.min(sq, initial=0.0)
    if not low >= -NEG_TOL:
        raise NumericalConsistencyError(
            f"squared RKHS distance {low} is below -{NEG_TOL}; inner products are inconsistent"
        )
    return np.maximum(sq, 0.0, out=sq) if low < 0.0 else sq


def _shrink(x: np.ndarray) -> np.ndarray:
    """x, or its first entry alone when every entry of the nonempty x is that
    same number, so a block broadcasts it as one number."""
    return x[:1] if x.size and np.all(x == x[0]) else x


def _squared_distances_into(inners: np.ndarray, norms_a: np.ndarray, norms_b: np.ndarray) -> np.ndarray:
    """Overwrite the caller's float64 matrix of <a_i, b_j> with the clamped squared
    distances (||a_i||^2 + ||b_j||^2) - 2 <a_i, b_j> and return it. The norm sums
    are formed one row block at a time, each side broadcast as one number when
    its norms are one number (exact batches with one spread); 2x is exact, so
    every entry is bit for bit the one of the full-size expression."""
    nb = _shrink(norms_b)[None, :]
    for rows in _backend.row_blocks(*inners.shape):
        block = inners[rows]
        block *= 2.0
        np.subtract(_shrink(norms_a[rows])[:, None] + nb, block, out=block)
    return _clamp_sq(inners)


def squared_distances(inners: np.ndarray, norms_a: np.ndarray, norms_b: np.ndarray) -> np.ndarray:
    """Matrix of ||a_i - b_j||^2 = ||a_i||^2 + ||b_j||^2 - 2 <a_i, b_j> from the
    inner products and both vectors of squared norms, noise below 0 clamped by
    `_clamp_sq`; computed in one copy of the inner products, the inputs are unchanged."""
    return _squared_distances_into(np.array(inners, dtype=np.float64), norms_a, norms_b)


def squared_distance(e1, e2) -> float:
    """||e1 - e2||^2 of two embeddings (batches of one), tiny negative values clamped to 0."""
    return float(squared_distances(cross_inner(e1, e2), squared_norms(e1), squared_norms(e2))[0, 0])


def rkhs_distance(e1, e2) -> float:
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


def gaussian_family_kme_inner(m, sigma: float, mp, sigma_p: float, k: BaseKernel) -> float:
    """<mu_Q, mu_Q'> for Q = N(m, sigma^2 I), Q' = N(m', sigma_p^2 I).

    Closed form (g = width^2, v = g + 2 sigma^2 + 2 sigma_p^2):
    (g / v)^(d/2) * exp(-||m - m'||^2 / v). Reduces to the base kernel at
    sigma = sigma_p = 0.
    """
    return inner(exact_gaussian_embedding(k, m, sigma), exact_gaussian_embedding(k, mp, sigma_p))


def gaussian_kme_inner_matrix(k: BaseKernel, means: np.ndarray, spreads: np.ndarray) -> np.ndarray:
    """All pairwise exact-KME inner products for isotropic Gaussian inputs."""
    return cross_inner(batch := ExactBatch(k, means, spreads), batch)


def gaussian_kme_cross_inner(
    k: BaseKernel, means_a: np.ndarray, spreads_a: np.ndarray, means_b: np.ndarray, spreads_b: np.ndarray
) -> np.ndarray:
    """Cross inner-product matrix between two families of exact Gaussian KMEs.

    Mean distances come from `_backend.sqeuclidean` (a numpy sum in cdist's
    order at every d), so a pair with equal means and spreads gets exactly
    the squared norm of `squared_norms`. The closed form is
    (g / v)^(d/2) exp(-d2 / v), and v and (g / v)^(d/2) depend only on the
    two spreads. They are computed one row block of the distances at a time
    by broadcasting the block's spreads against the columns' spreads, each
    side taking part as one number when its spreads are all that number, so
    the distances are the only full-size array.
    """
    if k.family != GAUSSIAN:
        raise UnsupportedError("closed-form KME inner products require the gaussian base kernel")
    d2 = _backend.sqeuclidean(means_a, means_b)
    sa2 = np.asarray(spreads_a, dtype=np.float64) ** 2
    sb2 = _shrink(np.asarray(spreads_b, dtype=np.float64) ** 2)[None, :]
    for rows in _backend.row_blocks(*d2.shape):
        _closed_form_into(k, d2[rows], _shrink(sa2[rows])[:, None], sb2)
    return d2
