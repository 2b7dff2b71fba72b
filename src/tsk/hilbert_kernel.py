"""Second-level kernels acting on embedding-space elements.

The gaussian family is the Hilbert-space Gaussian kernel evaluated on RKHS
distances; linear is the plain inner product, kept as a baseline. Both are
computed only by `hk_from_inner`, from first-level inner products and
squared norms. The gaussian kernel's feature map is Lipschitz with an
explicit power-law modulus, which the bound evaluators consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, UnsupportedError, config_float
from .kme import _squared_distances_into, cross_inner, squared_norms

__all__ = ["HilbertKernel", "HolderModulus", "hk_from_inner", "hk_eval", "feature_distance", "lipschitz_modulus"]

H_GAUSSIAN = "gaussian"
H_LINEAR = "linear"


@dataclass(frozen=True)
class HilbertKernel:
    family: str
    width: float | None = None  # length scale in embedding-space norm units

    def __post_init__(self):
        if self.family not in (H_GAUSSIAN, H_LINEAR):
            raise InputError(f"unknown second-level kernel family {self.family!r}")
        if self.family == H_GAUSSIAN:
            if self.width is None or not (self.width > 0):
                raise InputError(f"gaussian second-level kernel needs width > 0, got {self.width}")

    def to_config(self) -> dict:
        cfg = {"family": self.family}
        if self.width is not None:
            cfg["width"] = float(self.width)
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "HilbertKernel":
        try:
            fam = cfg["family"]
        except KeyError as exc:
            raise InputError(f"second-level kernel config missing field {exc}") from exc
        width = cfg.get("width")
        return cls(family=fam, width=None if width is None else config_float(width, "second-level kernel width"))

    def with_width(self, width: float) -> "HilbertKernel":
        return HilbertKernel(self.family, width)


@dataclass(frozen=True)
class HolderModulus:
    """Power-law modulus s -> coefficient * s^exponent with exponent in (0, 2]."""

    coefficient: float
    exponent: float

    def __post_init__(self):
        if not (self.coefficient > 0):
            raise InputError(f"modulus coefficient must be > 0, got {self.coefficient}")
        if not (0.0 < self.exponent <= 2.0):
            raise InputError(f"modulus exponent must lie in (0, 2], got {self.exponent}")

    def __call__(self, s: float) -> float:
        if s < 0:
            raise InputError(f"modulus argument must be >= 0, got {s}")
        return self.coefficient * s**self.exponent


def _hk_into(hk: HilbertKernel, inners: np.ndarray, norms_a: np.ndarray, norms_b: np.ndarray) -> np.ndarray:
    """`hk_from_inner` computed in the caller's float64 matrix of inner products,
    which it overwrites and returns: one buffer per kernel block."""
    if hk.family == H_LINEAR:
        return inners
    d2 = _squared_distances_into(inners, norms_a, norms_b)
    return np.exp(np.divide(d2, -(hk.width**2), out=d2), out=d2)


def hk_from_inner(hk: HilbertKernel, inners: np.ndarray, norms_a: np.ndarray, norms_b: np.ndarray) -> np.ndarray:
    """Second-level values from <a_i, b_j>, ||a_i||^2 and ||b_j||^2; the inputs are unchanged.

    gaussian: exp(-d2 / width^2) with d2 the squared distances of
    `kme.squared_distances`, in one copy of the inner products; linear: the
    inner products themselves.
    """
    if hk.family == H_LINEAR:
        return inners
    return _hk_into(hk, np.array(inners, dtype=np.float64), norms_a, norms_b)


def hk_eval(hk: HilbertKernel, e1, e2) -> float:
    """k(e1, e2) for batches of one: exp(-||e1-e2||^2 / width^2) for gaussian, <e1, e2> for linear."""
    return float(hk_from_inner(hk, cross_inner(e1, e2), squared_norms(e1), squared_norms(e2))[0, 0])


def feature_distance(hk: HilbertKernel, e1, e2) -> float:
    """||phi(e1) - phi(e2)|| in the second-level RKHS; gaussian only, <= sqrt(2)."""
    if hk.family != H_GAUSSIAN:
        raise UnsupportedError("feature distance is defined for the gaussian family only")
    return math.sqrt(max(2.0 - 2.0 * hk_eval(hk, e1, e2), 0.0))


def lipschitz_modulus(hk: HilbertKernel) -> HolderModulus:
    """Linear majorant of the gaussian feature-map modulus.

    sqrt(2 - 2 exp(-s^2/w^2)) <= (sqrt(2)/w) * s, from 1 - e^-u <= u.
    """
    if hk.family != H_GAUSSIAN:
        raise UnsupportedError("the power-law modulus is defined for the gaussian family only")
    return HolderModulus(coefficient=math.sqrt(2.0) / hk.width, exponent=1.0)
