"""The two numpy inner loops: blocked pair sums and the dual coordinate pass.

`pair_sums` is the one pair-sum path of `kme`: one kernel pass of a left
expansion against the stacked points of many right expansions. Each right
point's kernel row is reduced over the left atoms in a fixed order, then the
per-point values are summed per right expansion, so every value depends only
on its two expansions, not on the other expansions in the batch or on the
memory blocking. `pair_sum` is its one-segment call.

`cd_sweep` is the coordinate pass of `svm.train`.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

HAVE_EXT = False  # no compiled extension; kept for the benchmark's record stamp


def active_backend() -> str:
    """The name of the implementation in use: always "python" (numpy)."""
    return "python"


_BLOCK_BUDGET = 2**16  # floats per kernel block in pair_sums


def _dist_block(Y: np.ndarray, X: np.ndarray, family: int, out: np.ndarray) -> np.ndarray:
    """Squared euclidean (family 0) or cityblock (family 1) distances, written into out."""
    if X.shape[1] <= 64:
        return cdist(Y, X, "sqeuclidean" if family == 0 else "cityblock", out=out)
    # wide rows: broadcast + pairwise summation over the axis
    diff = Y[:, None, :] - X[None, :, :]
    if family == 0:
        np.square(diff, out=diff)
    else:
        np.abs(diff, out=diff)
    return np.sum(diff, axis=2, out=out)


def pair_sums(X, wx, Y, wy, offsets, family: int, width: float, row_block=None) -> np.ndarray:
    """sum_ij wx_i wy_j k(x_i, y_j) of the left expansion (X, wx) against each
    right expansion Y[offsets[s]:offsets[s + 1]], for family 0 = gaussian,
    1 = laplacian; offsets run from 0 to len(Y) and every segment is nonempty.

    One kernel pass: the (right points x left atoms) block is built
    `row_block` whole right points at a time, each right point's row is
    weighted by wx and summed in a fixed order, and the per-point values
    times wy are summed per segment. A value therefore depends only on
    (X, wx) and its own segment, never on the other segments, their order,
    `row_block` or the block budget.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    wx = np.ascontiguousarray(wx, dtype=np.float64)
    wy = np.ascontiguousarray(wy, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.intp)
    m, n = X.shape[0], Y.shape[0]
    if m < 1 or offsets[0] != 0 or offsets[-1] != n or np.any(np.diff(offsets) < 1):
        raise ValueError("pair_sums needs a nonempty left expansion and nonempty segments covering Y")
    if row_block is None:
        row_block = max(1, _BLOCK_BUDGET // (m * (X.shape[1] if X.shape[1] > 64 else 1)))
    row_block = min(row_block, n)
    scale = -(width * width if family == 0 else width)
    buf = np.empty(row_block * m)
    v = np.empty(n)
    for r0 in range(0, n, row_block):
        r1 = min(r0 + row_block, n)
        block = _dist_block(Y[r0:r1], X, family, buf[: (r1 - r0) * m].reshape(r1 - r0, m))
        np.divide(block, scale, out=block)
        np.exp(block, out=block)
        block *= wx
        np.sum(block, axis=1, out=v[r0:r1])
    v *= wy
    return np.add.reduceat(v, offsets[:-1])


def pair_sum(X, wx, Y, wy, family: int, width: float, row_block=None) -> float:
    """sum_ij wx_i wy_j k(x_i, y_j) for family 0 = gaussian, 1 = laplacian."""
    return float(pair_sums(X, wx, Y, wy, [0, len(Y)], family, width, row_block=row_block)[0])


def cd_sweep(K, y, alpha, f, box_c: float, coords) -> None:
    """One dual coordinate pass over `coords`, in the given order.

    Each alpha_i moves to the maximiser of the dual along coordinate i,
    clipped to [0, box_c], and f = K (alpha * y) follows it. Mutates alpha and
    f. Every coordinate in `coords` needs K_ii > 0.
    """
    y_list, diag = y.tolist(), K.diagonal().tolist()
    for i in coords:
        yi, ai = y_list[i], alpha.item(i)
        anew = min(max(ai + (1.0 - yi * f.item(i)) / diag[i], 0.0), box_c)
        if anew != ai:
            alpha[i] = anew
            f += ((anew - ai) * yi) * K[i]
