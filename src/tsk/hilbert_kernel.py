"""The second-level kernel acting on embedding-space elements.

It is the Hilbert-space Gaussian kernel exp(-||e - e'||^2 / width^2)
evaluated on RKHS distances, the one family of the paper's rates. It is
computed only by `_hk_into`, from first-level inner products and squared
norms, in the buffer of inner products it is given. Its feature map is
Lipschitz with an explicit power-law modulus, which the bound evaluators
consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base_kernels import GAUSSIAN
from .errors import InputError
from .kme import _squared_distances_into, cross_inner, squared_norms

__all__ = ["HilbertKernel", "HolderModulus", "hk_eval", "lipschitz_modulus"]


@dataclass(frozen=True)
class HilbertKernel:
    family: str  # always "gaussian"
    width: float  # length scale in embedding-space norm units

    def __post_init__(self):
        if self.family != GAUSSIAN:
            raise InputError(f"unknown second-level kernel family {self.family!r}")
        if self.width is None or not (self.width > 0):
            raise InputError(f"gaussian second-level kernel needs width > 0, got {self.width}")

    def to_config(self) -> dict:
        return {"family": self.family, "width": float(self.width)}

    @classmethod
    def from_config(cls, cfg: dict) -> "HilbertKernel":
        from .config import HILBERT_KERNEL, read  # the config module imports this one
        return read(HILBERT_KERNEL, cfg, "hilbert_kernel")

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
    """Second-level values exp(-d2 / width^2) from <a_i, b_j>, ||a_i||^2 and ||b_j||^2, with d2
    the clamped squared distances of `kme._squared_distances_into`, computed in the caller's
    float64 matrix of inner products, which it overwrites and returns: one buffer per kernel block."""
    d2 = _squared_distances_into(inners, norms_a, norms_b)
    return np.exp(np.divide(d2, -(hk.width**2), out=d2), out=d2)


def hk_eval(hk: HilbertKernel, e1, e2) -> float:
    """k(e1, e2) = exp(-||e1-e2||^2 / width^2) for batches of one."""
    return float(_hk_into(hk, cross_inner(e1, e2), squared_norms(e1), squared_norms(e2))[0, 0])


def lipschitz_modulus(hk: HilbertKernel) -> HolderModulus:
    """Linear majorant of the gaussian feature-map modulus.

    sqrt(2 - 2 exp(-s^2/w^2)) <= (sqrt(2)/w) * s, from 1 - e^-u <= u.
    """
    return HolderModulus(coefficient=math.sqrt(2.0) / hk.width, exponent=1.0)
