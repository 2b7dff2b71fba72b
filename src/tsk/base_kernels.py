"""The kernel on the sampling space Z, the first embedding stage.

The gaussian kernel, the one family of the paper's rates, is radial with
k(x, x) = 1, so the sup-norm is 1 everywhere and the concentration bounds
downstream simplify accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = ["BaseKernel", "sup_norm", "GAUSSIAN"]

GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class BaseKernel:
    """The gaussian kernel exp(-||x-x'||^2/w^2) on R^d; `family` is always "gaussian"."""

    family: str
    width: float
    dim: int

    def __post_init__(self):
        if self.family != GAUSSIAN:
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
    """sup_x sqrt(k(x, x)); equals 1 at any width."""
    return 1.0
