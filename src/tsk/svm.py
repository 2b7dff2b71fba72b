"""Hinge-loss regularized empirical risk minimization over the second-level RKHS.

The primal problem min_f (1/N) sum hinge(y_n, f(x_n)) + lambda ||f||^2 has no
offset term, so its dual is a plain box-constrained quadratic maximization
    max_alpha sum_i alpha_i - 1/2 sum_ij alpha_i alpha_j y_i y_j K_ij,
    0 <= alpha_i <= C = 1/(2 lambda N),
solved here by cyclic coordinate ascent. The reported objective is rescaled
to primal units (2 lambda * dual), which at the optimum equals the minimal
regularized empirical risk.

Grams and decision values over embeddings come only from `kme.cross_inner`,
`kme.squared_norms` and `hilbert_kernel.hk_from_inner`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from . import _backend
from .errors import InputError, NumericalConsistencyError, UnsupportedError
from .hilbert_kernel import H_GAUSSIAN, HilbertKernel, hk_from_inner
from .kme import Embedding, EmpiricalEmbedding, GaussianKmeEmbedding, SampleSet, cross_inner, embed, squared_norms

__all__ = [
    "GramMatrix",
    "SvmModel",
    "hinge",
    "zero_one",
    "clip",
    "sgn",
    "train",
    "decision_value",
    "decision_values",
    "predict",
    "regularized_empirical_risk",
    "kkt_residual",
    "build_gram",
    "gram_from_points",
    "model_to_json",
    "model_from_json",
]

DIAG_FLOOR = 1e-12  # linear-kernel coordinates below this norm are inert


def sgn(t: float) -> float:
    """Sign with ties sent to +1."""
    return 1.0 if t >= 0.0 else -1.0


def _check_label(y) -> float:
    if y not in (-1, 1, -1.0, 1.0):
        raise InputError(f"labels must be -1 or +1, got {y!r}")
    return float(y)


def hinge(y, t: float) -> float:
    """max(0, 1 - y t)."""
    y = _check_label(y)
    return max(0.0, 1.0 - y * t)


def zero_one(y, t: float) -> float:
    """0 iff sgn(t) == y, with sgn(0) = +1."""
    y = _check_label(y)
    return 0.0 if sgn(t) == y else 1.0


def clip(t: float, m: float) -> float:
    """Truncate t to [-m, m]."""
    if not (m > 0):
        raise InputError(f"clip bound must be > 0, got {m}")
    return min(m, max(-m, t))


@dataclass(frozen=True)
class GramMatrix:
    """Cached second-level kernel matrix over the training bags."""

    entries: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.entries, dtype=np.float64)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise InputError(f"Gram matrix must be square, got shape {k.shape}")
        if not np.array_equal(k, k.T):
            raise InputError("Gram matrix must be symmetric")
        object.__setattr__(self, "entries", k)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SvmModel:
    dual_coefs: np.ndarray
    labels: np.ndarray
    lam: float
    box_c: float
    clip_bound: float
    converged: bool
    kkt: float
    sweeps: int
    objective: float  # 2 lambda * dual value == optimal regularized risk at convergence
    norm_sq: float  # ||f||_k^2 at the returned coefficients
    objective_path: tuple = field(repr=False, default=())
    support: object = None  # tuple of embeddings, or (N, d) point array
    hkernel: HilbertKernel | None = None


def _margins(gram: GramMatrix, labels: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    return gram.entries @ (alpha * labels)


def _projected_gradient_residual(
    g: np.ndarray, alpha: np.ndarray, box_c: float, active: np.ndarray
) -> float:
    viol = np.abs(g)
    viol = np.where(alpha <= 0.0, np.maximum(g, 0.0), viol)
    viol = np.where(alpha >= box_c, np.maximum(-g, 0.0), viol)
    viol = np.where(active, viol, 0.0)
    return float(viol.max(initial=0.0))


def kkt_residual(model: SvmModel, gram: GramMatrix, labels) -> float:
    """Max projected-gradient magnitude of the dual objective onto [0, C].

    Coordinates with K_ii <= 1e-12 are inert under the linear kernel (zero-norm
    atoms) and are excluded, matching the solver.
    """
    labels = _as_labels(labels, gram.size)
    alpha = np.asarray(model.dual_coefs, dtype=np.float64)
    g = 1.0 - labels * _margins(gram, labels, alpha)
    active = np.diag(gram.entries) > DIAG_FLOOR
    return _projected_gradient_residual(g, alpha, model.box_c, active)


def _as_labels(labels, n: int) -> np.ndarray:
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != (n,):
        raise InputError(f"labels must have shape ({n},), got {y.shape}")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise InputError("labels must be -1 or +1")
    return y


def train(
    gram: GramMatrix,
    labels,
    lam: float,
    tol: float = 1e-8,
    max_sweeps: int = 10_000,
    support=None,
    hkernel: HilbertKernel | None = None,
    clip_bound: float = 1.0,
) -> SvmModel:
    """Solve the dual by cyclic coordinate ascent.

    Returns a model whose KKT residual is <= tol, or one flagged
    converged=False carrying the residual reached after max_sweeps.
    """
    n = gram.size
    y = _as_labels(labels, n)
    if not (lam > 0):
        raise InputError(f"lambda must be > 0, got {lam}")
    k = gram.entries
    if not np.all(np.isfinite(k)):
        raise InputError("Gram matrix contains non-finite entries")

    box_c = 1.0 / (2.0 * lam * n)
    alpha = np.zeros(n)
    f = np.zeros(n)
    active = np.diag(k) > DIAG_FLOOR
    scale = 2.0 * lam

    objective_path = []
    residual = math.inf
    sweeps = 0
    converged = False
    for sweeps in range(1, max_sweeps + 1):
        _backend.cd_sweep(k, y, alpha, f, box_c, DIAG_FLOOR)
        objective_path.append(scale * (alpha.sum() - 0.5 * np.dot(alpha * y, f)))
        g = 1.0 - y * f
        residual = _projected_gradient_residual(g, alpha, box_c, active)
        if residual <= tol:
            converged = True
            break

    norm_sq = float(np.dot(alpha * y, f))
    if norm_sq > 1.0 / lam + 1e-9:
        raise NumericalConsistencyError(
            f"||f||^2 = {norm_sq} exceeds the a-priori bound 1/lambda = {1.0 / lam}"
        )

    return SvmModel(
        dual_coefs=alpha,
        labels=y,
        lam=float(lam),
        box_c=box_c,
        clip_bound=float(clip_bound),
        converged=converged,
        kkt=residual,
        sweeps=sweeps,
        objective=objective_path[-1] if objective_path else 0.0,
        norm_sq=norm_sq,
        objective_path=tuple(objective_path),
        support=tuple(support) if isinstance(support, (list, tuple)) else support,
        hkernel=hkernel,
    )


def _require_support(model: SvmModel):
    if model.support is None or model.hkernel is None:
        raise InputError("model carries no support embeddings; prediction is unavailable")


def decision_values(model: SvmModel, embeddings) -> np.ndarray:
    """f(e) = sum_i alpha_i y_i k(support_i, e) for each embedding, summed over
    the support entries with nonzero coefficients only."""
    _require_support(model)
    coef = model.dual_coefs * model.labels
    nonzero = np.flatnonzero(coef)
    support, targets = [model.support[i] for i in nonzero], list(embeddings)
    inners = cross_inner(support, targets)
    return coef[nonzero] @ hk_from_inner(model.hkernel, inners, squared_norms(support), squared_norms(targets))


def decision_value(model: SvmModel, e: Embedding) -> float:
    """f(e) for one embedding."""
    return float(decision_values(model, [e])[0])


def predict(model: SvmModel, s: SampleSet) -> int:
    """sgn(clip(f(embed(s)))) with sgn(0) = +1; clipping never flips the sign."""
    _require_support(model)
    base = model.support[0].kernel
    val = decision_value(model, embed(base, s))
    return int(sgn(clip(val, model.clip_bound)))


def regularized_empirical_risk(
    model: SvmModel, gram: GramMatrix, labels, lam: float, loss: str = "hinge", clipped: bool = False
) -> float:
    """(1/N) sum loss(y_n, [clip] f(x_n)) + lambda ||f||^2 on the training Gram."""
    y = _as_labels(labels, gram.size)
    alpha = np.asarray(model.dual_coefs, dtype=np.float64)
    f = _margins(gram, y, alpha)
    norm_sq = float(np.dot(alpha * y, f))
    vals = np.clip(f, -model.clip_bound, model.clip_bound) if clipped else f
    if loss == "hinge":
        emp = float(np.mean(np.maximum(0.0, 1.0 - y * vals)))
    elif loss == "zero_one":
        emp = float(np.mean(np.where(vals >= 0.0, 1.0, -1.0) != y))
    else:
        raise InputError(f"unknown loss {loss!r}")
    return emp + lam * norm_sq


def build_gram(hk: HilbertKernel, embeddings) -> GramMatrix:
    """Second-level Gram over a list of embeddings.

    The inner products come from one `kme.cross_inner` pass over the upper
    triangle, whose diagonal holds the squared norms, so the matrix is exactly
    symmetric and a gaussian Gram has an exact unit diagonal.
    """
    embs = list(embeddings)
    if not embs:
        raise InputError("cannot build a Gram matrix from zero embeddings")
    inners = cross_inner(embs, embs)
    norms = np.diag(inners)
    return GramMatrix(hk_from_inner(hk, inners, norms, norms))


def gram_from_points(hk: HilbertKernel, x: np.ndarray) -> GramMatrix:
    """Gram over raw Hilbert-space points (identity embedding geometry)."""
    x = np.asarray(x, dtype=np.float64)
    if hk.family == H_GAUSSIAN:
        d2 = cdist(x, x, "sqeuclidean")
        entries = np.exp(-d2 / (hk.width**2))
    else:
        entries = x @ x.T
    entries = np.tril(entries) + np.tril(entries, -1).T
    return GramMatrix(entries)


def model_to_json(model: SvmModel) -> dict:
    """Persistable form: coefficients, kernels, and raw support data.

    Empirical support embeddings are stored as their raw sample bags so
    prediction re-embeds from samples; exact Gaussian embeddings store their
    (mean, spread) parameters.
    """
    _require_support(model)
    support = []
    if isinstance(model.support, np.ndarray):
        raise UnsupportedError("point-geometry models have no bag representation to persist")
    for e in model.support:
        if isinstance(e, EmpiricalEmbedding):
            support.append({"samples": e.points.tolist(), "weights": e.weights.tolist()})
        else:
            support.append({"mean": e.mean.tolist(), "spread": e.spread})
    base = model.support[0].kernel
    return {
        "lambda": model.lam,
        "clip_bound": model.clip_bound,
        "dual_coefs": model.dual_coefs.tolist(),
        "labels": model.labels.astype(int).tolist(),
        "base_kernel": base.to_config(),
        "hilbert_kernel": model.hkernel.to_config(),
        "converged": model.converged,
        "kkt_residual": model.kkt,
        "norm_sq": model.norm_sq,
    } | {"support": support}


def model_from_json(data: dict) -> SvmModel:
    """Rebuild a model written by `model_to_json`, validating it once here.

    Coefficient, label and support counts must agree and be nonzero,
    coefficients finite and >= 0, labels +-1, lambda and clip_bound > 0.
    """
    from .base_kernels import BaseKernel

    try:
        base = BaseKernel.from_config(data["base_kernel"])
        hk = HilbertKernel.from_config(data["hilbert_kernel"])
        support = []
        for rec in data["support"]:
            if "samples" in rec:
                pts = np.asarray(rec["samples"], dtype=np.float64)
                w = np.asarray(rec.get("weights", np.full(len(pts), 1.0 / len(pts))), dtype=np.float64)
                support.append(EmpiricalEmbedding(base, pts, w))
            else:
                support.append(GaussianKmeEmbedding(base, np.asarray(rec["mean"]), float(rec["spread"])))
        alpha = np.asarray(data["dual_coefs"], dtype=np.float64)
        n = len(support)
        labels = _as_labels(data["labels"], n)
        lam, clip_bound = float(data["lambda"]), float(data["clip_bound"])
        if n == 0 or alpha.shape != (n,) or not np.all(np.isfinite(alpha) & (alpha >= 0.0)):
            raise InputError(f"dual_coefs must hold {n} > 0 finite values >= 0, one per support bag; got {alpha}")
        if not (lam > 0 and clip_bound > 0):
            raise InputError(f"lambda and clip_bound must be > 0, got {lam} and {clip_bound}")
        return SvmModel(
            dual_coefs=alpha,
            labels=labels,
            lam=lam,
            box_c=1.0 / (2.0 * lam * n),
            clip_bound=clip_bound,
            converged=bool(data.get("converged", True)),
            kkt=float(data.get("kkt_residual", 0.0)),
            sweeps=0,
            objective=0.0,
            norm_sq=float(data.get("norm_sq", 0.0)),
            support=tuple(support),
            hkernel=hk,
        )
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed model JSON: {exc}") from exc


def decision_values_points(model: SvmModel, x: np.ndarray) -> np.ndarray:
    """f over raw points for models trained on point Grams."""
    _require_support(model)
    sup = model.support
    if not isinstance(sup, np.ndarray):
        raise UnsupportedError("model was not trained on raw points")
    x = np.asarray(x, dtype=np.float64)
    coef = model.dual_coefs * model.labels
    if model.hkernel.family == H_GAUSSIAN:
        km = np.exp(-cdist(sup, x, "sqeuclidean") / (model.hkernel.width**2))
    else:
        km = sup @ x.T
    return coef @ km
