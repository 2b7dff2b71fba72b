"""Synthetic meta-distributions over (input distribution, label) pairs.

Input distributions are isotropic Gaussians N(m, sigma^2 I), so exact
embeddings exist in closed form and the conditional class probability
depends on an input only through its mean. Two families:

  hard_margin      class centers drawn uniformly from disjoint balls around
                   +/- c e1, so the conditional probability is 0/1 and the
                   Bayes risk is exactly zero;
  gaussian_overlap class centers drawn from overlapping Gaussians, giving a
                   logistic conditional probability and positive Bayes risk.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .kme import ExactBatch, SampleSet, embed_bags
from .rng import mc_mean_se, normals, stream

__all__ = [
    "MetaDistribution",
    "sample_first_stage",
    "sample_second_stage",
    "embed_inputs",
    "eta_batch",
    "bayes_risk",
    "delta_batch",
    "bags_to_json",
    "bags_from_json",
]

HARD_MARGIN = "hard_margin"
GAUSSIAN_OVERLAP = "gaussian_overlap"


@dataclass(frozen=True)
class MetaDistribution:
    """Law of (Q, y): y from the class prior, then mean(Q) from the class's center law."""

    family: str
    dim: int
    center_offset: float  # c: class centers sit at +/- c e1
    center_spread: float  # s: radius (hard_margin ball) or std (gaussian_overlap)
    bag_spread: float  # sigma of the input distributions
    p_plus: float
    margin: float = 0.0  # r: guaranteed half-gap between the hard_margin supports

    def __post_init__(self):
        if self.family not in (HARD_MARGIN, GAUSSIAN_OVERLAP):
            raise InputError(f"unknown meta-distribution family {self.family!r}")
        if self.dim < 1:
            raise InputError("dim must be >= 1")
        if not (self.center_offset > 0):
            raise InputError("center offset c must be > 0")
        if self.center_spread < 0 or self.bag_spread < 0:
            raise InputError("spreads must be >= 0")
        if not (0.0 < self.p_plus < 1.0) and self.p_plus not in (0.0, 1.0):
            raise InputError(f"p_plus must lie in [0, 1], got {self.p_plus}")
        if self.family == HARD_MARGIN:
            if not (self.margin > 0):
                raise InputError("hard_margin needs margin r > 0")
            if self.center_offset - self.center_spread < self.margin - 1e-12:
                raise InputError(
                    "hard_margin supports must be separated by at least 2r: need c - s >= r"
                )
        if self.family == GAUSSIAN_OVERLAP and not (self.center_spread > 0):
            raise InputError("gaussian_overlap needs center spread s > 0")

    def to_config(self) -> dict:
        cfg = {"family": self.family, "dim": self.dim, "c": self.center_offset, "s": self.center_spread,
               "sigma": self.bag_spread, "p_plus": self.p_plus}
        return cfg | {"r": self.margin} if self.family == HARD_MARGIN else cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "MetaDistribution":
        from .config import META, read  # the config module imports this one
        return read(META, cfg, "meta")


def _axis(meta: MetaDistribution) -> np.ndarray:
    e1 = np.zeros(meta.dim)
    e1[0] = 1.0
    return e1


def _ball_points(gen, n: int, dim: int, radius: float) -> np.ndarray:
    # uniform in the ball: direction from normals, radius via u^(1/d) scaling
    g = normals(gen, (n, dim))
    norms = np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
    u = gen.random(n)
    return g / norms * (radius * u ** (1.0 / dim))[:, None]


def sample_first_stage(meta: MetaDistribution, n: int, seed: int):
    """Draw n i.i.d. (Q, y) pairs; returns (means (n, d), labels (n,))."""
    if n < 1:
        raise InputError("first-stage sample size must be >= 1")
    gen = stream(seed, "first-stage")
    u = gen.random(n)
    labels = np.where(u < meta.p_plus, 1, -1)
    centers = labels[:, None] * meta.center_offset * _axis(meta)[None, :]
    if meta.family == HARD_MARGIN:
        offsets = _ball_points(gen, n, meta.dim, meta.center_spread)
    else:
        offsets = meta.center_spread * normals(gen, (n, meta.dim))
    return centers + offsets, labels


def sample_second_stage(q_params, m: int, seed: int) -> SampleSet:
    """m i.i.d. rows from N(mean, spread^2 I); spread 0 yields m copies of the mean."""
    mean, spread = q_params
    mean = np.asarray(mean, dtype=np.float64)
    if m < 1:
        raise InputError("bag size must be >= 1")
    if spread < 0:
        raise InputError("spread must be >= 0")
    if spread == 0.0:
        return SampleSet(np.tile(mean, (m, 1)))
    gen = stream(seed, "second-stage")
    return SampleSet(mean + spread * normals(gen, (m, mean.shape[0])))


def embed_inputs(kernel, means, spread: float, size, bag_seed):
    """Embeddings of the inputs N(means[i], spread^2 I) as one batch: exact
    when size is "exact", else empirical embeddings of bags of `size` draws,
    bag i drawn from seed bag_seed(i)."""
    if size == "exact":
        return ExactBatch(kernel, means, np.full(len(means), spread))
    return embed_bags(kernel, [sample_second_stage((m, spread), int(size), bag_seed(i)) for i, m in enumerate(means)])


def eta_batch(meta: MetaDistribution, means: np.ndarray) -> np.ndarray:
    """Conditional probability of label +1 for each row of means (no support
    check: a hard_margin mean counts by the sign of its first coordinate)."""
    means = np.asarray(means, dtype=np.float64)
    if meta.family == HARD_MARGIN:
        return np.where(means[:, 0] >= 0.0, 1.0, 0.0)
    if meta.p_plus in (0.0, 1.0):
        return np.full(means.shape[0], meta.p_plus)
    # posterior of two isotropic Gaussian center densities with prior p_plus:
    # log(phi_minus / phi_plus) = -2 c <m, e1> / s^2
    logit = -2.0 * meta.center_offset * means[:, 0] / meta.center_spread**2
    logit += math.log((1.0 - meta.p_plus) / meta.p_plus)
    return 1.0 / (1.0 + np.exp(logit))


def bayes_risk(meta: MetaDistribution, mc_draws: int, seed: int):
    """Monte Carlo estimate of E[min(eta, 1 - eta)] over the center law.

    Returns (estimate, standard_error). Exactly (0.0, 0.0) for hard_margin,
    without sampling, since the conditional probability is 0/1 there.
    """
    if mc_draws < 1:
        raise InputError("mc_draws must be >= 1")
    if meta.family == HARD_MARGIN:
        return 0.0, 0.0
    means, _ = sample_first_stage(meta, mc_draws, seed)
    e = eta_batch(meta, means)
    return mc_mean_se(np.minimum(e, 1.0 - e))


def delta_batch(meta: MetaDistribution, x: np.ndarray) -> np.ndarray:
    """Distance of each row of x to the opposite decision class: for the hard_margin geometry
    the distance to the hyperplane <e1, x> = 0, truncated at the distance to the opposite
    class support ball; |<e1, x>| outside it."""
    x = np.asarray(x, dtype=np.float64)
    if meta.family != HARD_MARGIN:
        return np.abs(x[:, 0])
    c = meta.center_offset * _axis(meta)
    other = np.where(x[:, :1] >= 0.0, -c[None, :], c[None, :])
    to_ball = np.maximum(np.linalg.norm(x - other, axis=1) - meta.center_spread, 0.0)
    return np.minimum(np.abs(x[:, 0]), to_ball)


def bags_to_json(bags, labels) -> str:
    """Serialize bags as [{"label": ..., "samples": [[...], ...]}, ...]."""
    records = [
        {"label": int(y), "samples": np.asarray(b.points if isinstance(b, SampleSet) else b).tolist()}
        for b, y in zip(bags, labels)
    ]
    return json.dumps(records)


def bags_from_json(text: str):
    """Parse the dataset format; returns (list of SampleSet, labels array). The
    dataset is read once, by the dataset table of `config.FILES`."""
    from .config import FILES, read  # the config module imports this one
    try:
        records = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid dataset JSON: {exc}") from exc
    return read(FILES["dataset"], {"bags": records})
