"""Kernels on the sampling space Z, the first embedding stage.

Both families are radial with k(x, x) = 1, so the sup-norm is 1 everywhere
and the concentration bounds downstream simplify accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = ["BaseKernel", "sup_norm", "GAUSSIAN", "LAPLACIAN"]

GAUSSIAN = "gaussian"
LAPLACIAN = "laplacian"
_FAMILIES = (GAUSSIAN, LAPLACIAN)

# family codes of `_backend.pair_sums`
FAMILY_CODES = {GAUSSIAN: 0, LAPLACIAN: 1}


@dataclass(frozen=True)
class BaseKernel:
    """Radial kernel on R^d: gaussian exp(-||x-x'||^2/w^2), laplacian exp(-||x-x'||_1/w)."""

    family: str
    width: float
    dim: int

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InputError(f"unknown base kernel family {self.family!r}")
        if not (self.width > 0):
            raise InputError(f"kernel width must be > 0, got {self.width}")
        if not (isinstance(self.dim, (int, np.integer)) and self.dim >= 1):
            raise InputError(f"kernel dim must be an integer >= 1, got {self.dim}")

    def to_config(self) -> dict:
        return {"family": self.family, "width": float(self.width), "dim": int(self.dim)}

    @classmethod
    def from_config(cls, cfg: dict) -> "BaseKernel":
        from .config import BASE_KERNEL, read  # the config module imports this one
        return read(BASE_KERNEL, cfg, "base_kernel")


def sup_norm(k: BaseKernel) -> float:
    """sup_x sqrt(k(x, x)); equals 1 for both families at any width."""
    return 1.0
