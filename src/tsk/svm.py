"""Hinge-loss regularized empirical risk minimization over the second-level RKHS.

The primal problem min_f (1/N) sum hinge(y_n, f(x_n)) + lambda ||f||^2 has no
offset term, so its dual is a plain box-constrained quadratic maximization
    max_alpha sum_i alpha_i - 1/2 alpha' Q alpha,  Q = (y y') o K,
    0 <= alpha_i <= C = 1/(2 lambda N).
`train` solves it by alternating a coordinate pass over the coordinates that
violate the KKT conditions with an exact Newton step on the free set
{0 < alpha_i < C}, truncated at the box walls. The reported objective is
rescaled to primal units (2 lambda * dual), which at the optimum equals the
minimal regularized empirical risk.

Grams and decision values over batches of embeddings (`kme.ExactBatch`,
`kme.EmpiricalBatch`, `kme.PointBatch`) come only from `kme.cross_inner`,
`kme.squared_norms` and the second-level kernel of `hilbert_kernel`, computed
in the one buffer `cross_inner` returns.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import _backend
from .errors import InputError, NumericalConsistencyError, UnsupportedError
from .hilbert_kernel import HilbertKernel, _hk_into
from .kme import EmpiricalBatch, ExactBatch, SampleSet, cross_inner, embed, squared_norms, uniform_weights

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
    "decision_values_path",
    "predict",
    "regularized_empirical_risk",
    "kkt_residual",
    "build_gram",
    "model_to_json",
    "model_from_json",
]

DIAG_FLOOR = 1e-12  # linear-kernel coordinates below this norm are inert


def _float_or_array(a: np.ndarray):
    return float(a) if a.ndim == 0 else a


def _pm_one(y) -> np.ndarray:
    """Labels (a scalar or an array) as float64, every entry a number equal to -1 or +1."""
    arr = np.asarray(y)
    if arr.dtype.kind not in "iuf" or not np.all((arr == 1) | (arr == -1)):
        raise InputError("labels must be -1 or +1" + (f", got {y!r}" if arr.ndim == 0 else ""))
    return arr.astype(np.float64)


def sgn(t):
    """Sign with ties sent to +1, elementwise; a scalar gives a float."""
    return _float_or_array(np.where(np.asarray(t) >= 0.0, 1.0, -1.0))


def hinge(y, t):
    """max(0, 1 - y t), elementwise over labels y and decision values t."""
    return _float_or_array(np.maximum(0.0, 1.0 - _pm_one(y) * t))


def zero_one(y, t):
    """0 where sgn(t) == y, else 1 (sgn(0) = +1), elementwise."""
    return _float_or_array(np.where(sgn(t) == _pm_one(y), 0.0, 1.0))


def clip(t, m: float):
    """Truncate t to [-m, m], elementwise."""
    if not (m > 0):
        raise InputError(f"clip bound must be > 0, got {m}")
    return _float_or_array(np.clip(t, -m, m))


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
    support: object = None  # batch of the N training embeddings
    hkernel: HilbertKernel | None = None


def _margins(gram: GramMatrix, labels: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    return gram.entries @ (alpha * labels)


def _kkt_violations(g: np.ndarray, alpha: np.ndarray, box_c: float, active: np.ndarray) -> np.ndarray:
    """|projected gradient| of the dual per coordinate; 0 on inert coordinates."""
    viol = np.abs(g)
    viol = np.where(alpha <= 0.0, np.maximum(g, 0.0), viol)
    viol = np.where(alpha >= box_c, np.maximum(-g, 0.0), viol)
    return np.where(active, viol, 0.0)


def kkt_residual(model: SvmModel, gram: GramMatrix, labels) -> float:
    """Max projected-gradient magnitude of the dual objective onto [0, C].

    Coordinates with K_ii <= 1e-12 are inert under the linear kernel (zero-norm
    atoms) and are excluded, matching the solver.
    """
    labels = _as_labels(labels, gram.size)
    alpha = np.asarray(model.dual_coefs, dtype=np.float64)
    g = 1.0 - labels * _margins(gram, labels, alpha)
    active = np.diag(gram.entries) > DIAG_FLOOR
    return float(_kkt_violations(g, alpha, model.box_c, active).max(initial=0.0))


def _as_labels(labels, n: int) -> np.ndarray:
    y = _pm_one(labels)
    if y.shape != (n,):
        raise InputError(f"labels must have shape ({n},), got {y.shape}")
    return y


def _box_path_max(q: np.ndarray, g: np.ndarray, a: np.ndarray, d: np.ndarray, box_c: float):
    """First maximum of the dual along the projected path P(a + t d), 0 <= t <= 1.

    Each coordinate moves along d until it reaches its box wall and stays
    there. Between two walls the dual gain is a concave quadratic in t with
    slope g'p and curvature p'Qp (p = d on the coordinates still moving, g
    the gradient there); the search stops at its maximum if that comes
    before the next wall. Returns the point and whether the path was
    followed to its end.
    """
    wall = np.where(d > 0.0, box_c, 0.0)
    reach = np.divide(wall - a, d, out=np.full(d.size, np.inf), where=d != 0.0)
    x, p, g = a.copy(), d.copy(), g.copy()
    qp = q @ p
    t = 0.0
    for i in np.argsort(reach, kind="stable").tolist():
        step = min(reach[i], 1.0) - t
        if step > 0.0:
            slope, curv = float(g @ p), float(p @ qp)
            if slope <= 0.0:
                return np.minimum(np.maximum(x, 0.0), box_c), False
            if slope < step * curv:
                x += (slope / curv) * p
                return np.minimum(np.maximum(x, 0.0), box_c), False
            x += step * p
            g -= step * qp
            t += step
        if reach[i] >= 1.0:
            break
        x[i] = wall[i]
        qp -= q[:, i] * p[i]
        p[i] = 0.0
    return np.minimum(np.maximum(x, 0.0), box_c), True


def _newton_step(k: np.ndarray, y: np.ndarray, alpha: np.ndarray, f: np.ndarray, box_c: float, free: np.ndarray) -> bool:
    """Exact Newton step on the free coordinates, truncated at the box; mutates
    alpha and f. Returns whether the step was taken.

    On the free set F, d solves Q_FF d = g_F on the eigenvectors of Q_FF whose
    eigenvalues exceed the rank tolerance |F| * eps * max eigenvalue (the
    exact-embedding Grams are numerically singular, and the rest is rounding
    noise). The step follows alpha_F + t d, 0 <= t <= 1, with each coordinate
    stopping at its box wall, to the first maximum of the dual on that path
    (`_box_path_max`). Coordinates that stopped at a wall leave F and the
    Newton direction is recomputed on the rest, until the path is followed
    to its end. The whole step is taken only if its gain
    g_F's - s'Q_FF s / 2, recomputed from the total move s, is finite and
    >= 0, so the dual objective never falls.
    """
    idx = np.flatnonzero(free)
    if idx.size == 0:
        return False
    yf, rows = y[idx], k[idx]
    q = rows[:, idx] * np.outer(yf, yf)
    g_start = 1.0 - yf * f[idx]
    g = g_start.copy()
    a_start = alpha[idx]
    a = a_start.copy()
    live = np.arange(idx.size)
    while live.size:
        q_live = q if live.size == idx.size else q[live][:, live]
        w, v = np.linalg.eigh(q_live)
        keep = w > live.size * np.finfo(np.float64).eps * w[-1]
        g_live = g[live]
        d = v[:, keep] @ ((v[:, keep].T @ g_live) / w[keep])
        if not g_live @ d > 0.0:
            break
        a_live = a[live]
        moved, whole = _box_path_max(q_live, g_live, a_live, d, box_c)
        g -= q[:, live] @ (moved - a_live)
        a[live] = moved
        inside = (moved > 0.0) & (moved < box_c)
        if whole or inside.all():
            break
        live = live[inside]
    s = a - a_start
    gain = g_start @ s - 0.5 * (s @ q @ s)
    if not (np.isfinite(gain) and gain >= 0.0) or not s.any():
        return False
    alpha[idx] = a
    f += (s * yf) @ rows
    return True


def train(
    gram: GramMatrix,
    labels,
    lam: float,
    tol: float = 1e-8,
    max_sweeps: int = 10_000,
    support=None,
    hkernel: HilbertKernel | None = None,
    clip_bound: float = 1.0,
    deadline: float | None = None,
) -> SvmModel:
    """Solve the dual by coordinate passes and Newton steps on the free set.

    Each outer iteration makes one coordinate pass (`_backend.cd_sweep`) over
    the coordinates whose projected gradient exceeds tol, in index order,
    then one exact Newton step on the free coordinates {0 < alpha_i < C}
    (`_newton_step`), accepted only when it raises the dual. It stops when
    the projected-gradient (KKT) residual is <= tol, after max_sweeps outer
    iterations, or at the first check past `deadline` (a `time.perf_counter`
    value), made between iterations. Returns a model whose KKT residual is
    <= tol, or one flagged converged=False carrying the residual reached;
    `sweeps` counts the outer iterations.
    """
    n = gram.size
    y = _as_labels(labels, n)
    if support is not None and len(support) != n:
        raise InputError(f"support holds {len(support)} embeddings for {n} training labels")
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
    viol = _kkt_violations(1.0 - y * f, alpha, box_c, active)
    residual = math.inf
    sweeps = 0
    converged = False
    for sweeps in range(1, max_sweeps + 1):
        _backend.cd_sweep(k, y, alpha, f, box_c, np.flatnonzero(viol > tol).tolist())
        _newton_step(k, y, alpha, f, box_c, active & (alpha > 0.0) & (alpha < box_c))
        objective_path.append(scale * (alpha.sum() - 0.5 * np.dot(alpha * y, f)))
        viol = _kkt_violations(1.0 - y * f, alpha, box_c, active)
        residual = float(viol.max(initial=0.0))
        if residual <= tol:
            converged = True
            break
        if deadline is not None and time.perf_counter() > deadline:
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
        support=support,
        hkernel=hkernel,
    )


def _require_support(model: SvmModel):
    if model.support is None or model.hkernel is None:
        raise InputError("model carries no support embeddings; prediction is unavailable")


def decision_values_path(models, targets) -> np.ndarray:
    """Decision values of several models on one target batch, one row per model.

    The models must share one support batch and one second-level kernel, as
    the models of a lambda grid trained on one Gram do. The kernel between
    the union of their nonzero-coefficient support rows and the targets is
    evaluated once, in the buffer `kme.cross_inner` returns; row j is
    coef_j[nz_j] @ K[rows of nz_j], bit for bit the `decision_values` of
    model j on its own.
    """
    models = list(models)
    if not models:
        raise InputError("decision_values_path needs at least one model")
    for model in models:
        _require_support(model)
        if model.support is not models[0].support or model.hkernel != models[0].hkernel:
            raise InputError("models of one decision path must share one support batch and one second-level kernel")
    coefs = [m.dual_coefs * m.labels for m in models]
    nonzeros = [np.flatnonzero(c) for c in coefs]
    union = np.unique(np.concatenate(nonzeros))
    support = models[0].support.take(union)
    kernel = _hk_into(models[0].hkernel, cross_inner(support, targets), squared_norms(support), squared_norms(targets))
    out = np.empty((len(models), kernel.shape[1]))
    for row, coef, nz in zip(out, coefs, nonzeros):
        # the gather copies as much as the kernel costs, so skip it when nz is the union
        row[:] = coef[nz] @ (kernel if nz.size == union.size else kernel[np.searchsorted(union, nz)])
    return out


def decision_values(model: SvmModel, targets) -> np.ndarray:
    """f(e) = sum_i alpha_i y_i k(support_i, e) for each embedding of the target
    batch, summed over the support entries with nonzero coefficients only."""
    return decision_values_path([model], targets)[0]


def decision_value(model: SvmModel, e) -> float:
    """f(e) for one embedding (a batch of one)."""
    return float(decision_values(model, e)[0])


def predict(model: SvmModel, s: SampleSet) -> int:
    """sgn(clip(f(embed(s)))) with sgn(0) = +1; clipping never flips the sign."""
    _require_support(model)
    val = decision_value(model, embed(model.support.kernel, s))
    return int(sgn(clip(val, model.clip_bound)))


def regularized_empirical_risk(
    model: SvmModel, gram: GramMatrix, labels, lam: float, loss: str = "hinge", clipped: bool = False
) -> float:
    """(1/N) sum loss(y_n, [clip] f(x_n)) + lambda ||f||^2 on the training Gram."""
    y = _as_labels(labels, gram.size)
    alpha = np.asarray(model.dual_coefs, dtype=np.float64)
    f = _margins(gram, y, alpha)
    norm_sq = float(np.dot(alpha * y, f))
    vals = clip(f, model.clip_bound) if clipped else f
    if loss == "hinge":
        emp = float(np.mean(hinge(y, vals)))
    elif loss == "zero_one":
        emp = float(np.mean(zero_one(y, vals)))
    else:
        raise InputError(f"unknown loss {loss!r}")
    return emp + lam * norm_sq


def build_gram(hk: HilbertKernel, batch) -> GramMatrix:
    """Second-level Gram over a batch of embeddings.

    The inner products come from one `kme.cross_inner(batch, batch)` call,
    exactly symmetric with the squared norms on its diagonal, so a gaussian
    Gram has an exact unit diagonal.
    """
    if len(batch) == 0:
        raise InputError("cannot build a Gram matrix from zero embeddings")
    inners = cross_inner(batch, batch)
    norms = np.diag(inners).copy()  # a view of the buffer that `_hk_into` overwrites
    return GramMatrix(_hk_into(hk, inners, norms, norms))


def model_to_json(model: SvmModel) -> dict:
    """Persistable form: coefficients, kernels, and raw support data.

    Empirical support embeddings are stored as their raw sample bags so
    prediction re-embeds from samples, with their weights only when these
    are not the uniform 1/m restored on load; exact Gaussian embeddings store
    their (mean, spread) parameters.
    """
    _require_support(model)
    sup = model.support
    if isinstance(sup, EmpiricalBatch):
        support = [_bag_record(*sup.expansion(i)) for i in range(len(sup))]
    elif isinstance(sup, ExactBatch):
        support = [{"mean": m.tolist(), "spread": float(s)} for m, s in zip(sup.means, sup.spreads)]
    else:
        raise UnsupportedError("point-geometry models have no bag representation to persist")
    return {
        "lambda": model.lam,
        "clip_bound": model.clip_bound,
        "dual_coefs": model.dual_coefs.tolist(),
        "labels": model.labels.astype(int).tolist(),
        "base_kernel": sup.kernel.to_config(),
        "hilbert_kernel": model.hkernel.to_config(),
        "converged": model.converged,
        "kkt_residual": model.kkt,
        "norm_sq": model.norm_sq,
    } | {"support": support}


def _bag_record(points: np.ndarray, weights: np.ndarray) -> dict:
    """A support bag's record; its weights are left out when they are the uniform 1/m."""
    record = {"samples": points.tolist()}
    if not np.array_equal(weights, uniform_weights(len(weights))):
        record["weights"] = weights.tolist()
    return record


def model_from_json(data: dict) -> SvmModel:
    """Rebuild a model written by `model_to_json`, read once by the model table of `config.FILES`."""
    from .config import FILES, read  # the config module imports this one
    return read(FILES["model"], data)
