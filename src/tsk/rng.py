"""Deterministic, parallel-safe random streams.

Every sampler in the package draws from a counter-based generator (Philox)
keyed by an integer seed plus a structured path, so any piece of work owns an
independent stream that is a pure function of (seed, path) -- replicates can
run in any order, on any number of workers, and reproduce bitwise.

Normal variates are produced by the inverse-CDF transform of the uniform
stream, so the normal sequence is pinned to the uniform sequence.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy.special import ndtri

__all__ = ["stream", "normals", "subseed", "mc_mean_se"]


def _encode(part) -> int:
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"stream path ints must be >= 0, got {part}")
        return int(part) % (2**32)
    digest = hashlib.blake2s(str(part).encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def stream(seed: int, *path) -> np.random.Generator:
    """Independent generator for (seed, path); path parts are ints or labels."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(_encode(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def subseed(seed: int, *path) -> int:
    """Integer seed derived from (seed, path), for samplers that take seeds."""
    return int(stream(seed, *path).integers(0, 2**63 - 1))


def normals(gen: np.random.Generator, shape) -> np.ndarray:
    """Standard normals via inverse CDF of the uniform stream.

    The u == 0 case (probability 2^-53 per draw) is nudged to 2^-53 so the
    transform stays finite.
    """
    u = gen.random(shape)
    u = np.maximum(u, 2.0**-53)
    return ndtri(u)


def mc_mean_se(vals: np.ndarray):
    """Monte Carlo mean of the draws along axis 0 and its standard error (sample
    SD with ddof=1 over sqrt(n); 0 for a single draw): two floats for 1-D draws,
    else two arrays over the remaining axes."""
    n = vals.shape[0]
    est = vals.mean(axis=0)
    se = vals.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros_like(est)
    return (float(est), float(se)) if vals.ndim == 1 else (est, se)
