"""The kernel on the sampling space Z, the first embedding stage.

The gaussian kernel, the one family of the paper's rates, is radial with
k(x, x) = 1, so the sup-norm is 1 everywhere and the concentration bounds
downstream simplify accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BaseKernel", "sup_norm", "GAUSSIAN"]

GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class BaseKernel:
    """The gaussian kernel exp(-||x-x'||^2/w^2) on R^d; its config names the family "gaussian"."""

    width: float
    dim: int

    def to_config(self) -> dict:
        return {"family": GAUSSIAN, "width": float(self.width), "dim": int(self.dim)}

    @classmethod
    def from_config(cls, cfg: dict) -> "BaseKernel":
        from .config import BASE_KERNEL, read  # the config module imports this one
        return read(BASE_KERNEL, cfg, "base_kernel")


def sup_norm(k: BaseKernel) -> float:
    """sup_x sqrt(k(x, x)); equals 1 at any width."""
    return 1.0
