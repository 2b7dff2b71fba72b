"""The numpy inner loops: blocked pair sums, mean distances and the dual coordinate pass.

`pair_sums` is the one pair-sum path of `kme`: one kernel pass of a left
expansion against the stacked points of many right expansions. Each block
takes four array passes: distances into a reused buffer, one multiply by the
precomputed rate, `exp`, and one fused weighted row sum. Each right point's
kernel row is reduced over the left atoms in a fixed order, then the
per-point values are summed per right expansion, so every value depends only
on its two expansions, not on the other expansions in the batch or on the
memory blocking. `pair_sum` is its one-segment call.

`weighted_row_sums` is the one rule for a weighted kernel-row sum in `tsk`:
numpy's own `einsum` loop, not BLAS, whose order of summation within a row
does not depend on the other rows. A BLAS matrix-vector product may block
rows differently with the shape, so a row could change with its neighbours.

`sqeuclidean` gives the mean distances of the exact closed form, summed in
numpy in `cdist`'s order, so they equal `cdist`'s bit for bit.

`row_blocks` is the one row-block rule of `tsk`: every full-size kernel
matrix is worked on in its row slices of about `_BLOCK_BUDGET` floats.

`cd_sweep` is the coordinate pass of `svm.train`.

This is the one module of `tsk` that loads `scipy.spatial`, and only
`_dist_block` does so, on the first empirical kernel pass: `cdist` computes
every pair-sum distance block, at every width. Programs that
compute no distance (the white-noise checks, the noise-exponent fit) or
only exact ones (the rates and approximation-error runs on exact
embeddings) never hold it.
"""

from __future__ import annotations

import numpy as np

HAVE_EXT = False  # no compiled extension; kept for the benchmark's record stamp


def active_backend() -> str:
    """The name of the implementation in use: always "python" (numpy)."""
    return "python"


_BLOCK_BUDGET = 2**16  # floats per row block of a full-size kernel matrix


def row_blocks(n: int, row_size: int, rows: int | None = None) -> list:
    """Row slices of an n-row array of row_size floats per row: `rows` rows each, by default as
    many as fit in `_BLOCK_BUDGET` floats; the first slice always exists (empty when n is 0)."""
    rows = rows or max(1, _BLOCK_BUDGET // max(row_size, 1))
    return [slice(lo, min(lo + rows, n)) for lo in range(0, max(n, 1), rows)]


def _dist_block(Y: np.ndarray, X: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Squared euclidean distances by `cdist`, written into out."""
    from scipy.spatial.distance import cdist

    return cdist(Y, X, "sqeuclidean", out=out)


def sqeuclidean(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """All squared euclidean distances between the rows of A and of B.

    Each entry is summed over the coordinates in order, (a_0 - b_0)^2 +
    (a_1 - b_1)^2 + ..., the order of `cdist(A, B, "sqeuclidean")`, so the
    two agree bit for bit at every d. One coordinate is added at a time to a
    row block of the output, through one temporary the size of a block.
    """
    At, Bt = (np.array(np.asarray(X, dtype=np.float64).T, order="C") for X in (A, B))
    (d, n), m = At.shape, Bt.shape[1]
    if d == 0:
        return np.zeros((n, m))
    out = np.empty((n, m))
    blocks = row_blocks(n, m)
    tmp = np.empty_like(out[blocks[0]])
    for rows in blocks:
        block = out[rows]
        term = tmp[: len(block)]
        for c in range(d):
            dst = block if c == 0 else term
            np.subtract(At[c, rows, None], Bt[c, None, :], out=dst)
            np.multiply(dst, dst, out=dst)
            if c:
                block += term
    return out


def weighted_row_sums(block: np.ndarray, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sum_j block[i, j] w[j] for each row i, written into out; each row is
    reduced on its own in a fixed order (numpy's einsum loop, no BLAS)."""
    return np.einsum("ij,j->i", block, w, out=out)


def pair_sums(X, wx, Y, wy, offsets, width: float, row_block=None) -> np.ndarray:
    """sum_ij wx_i wy_j k(x_i, y_j) of the gaussian kernel of `width`, for the left
    expansion (X, wx) against each right expansion Y[offsets[s]:offsets[s + 1]];
    offsets run from 0 to len(Y) and every segment is nonempty.

    One kernel pass: the (right points x left atoms) block is built
    `row_block` whole right points at a time (by default `row_blocks`) into one reused buffer, scaled
    in place by rate = -1/width^2, exponentiated in place, and each right point's row is weighted by
    wx and summed by `weighted_row_sums`; the per-point values times wy are then
    summed per segment. A value therefore depends only on (X, wx) and its own
    segment, never on the other segments, their order, `row_block` or the
    block budget.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    wx = np.ascontiguousarray(wx, dtype=np.float64)
    wy = np.ascontiguousarray(wy, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.intp)
    m, n = X.shape[0], Y.shape[0]
    if m < 1 or offsets[0] != 0 or offsets[-1] != n or np.any(np.diff(offsets) < 1):
        raise ValueError("pair_sums needs a nonempty left expansion and nonempty segments covering Y")
    blocks = row_blocks(n, m, row_block)
    rate = -1.0 / (width * width)
    buf = np.empty((blocks[0].stop, m))
    v = np.empty(n)
    for rows in blocks:
        block = _dist_block(Y[rows], X, buf[: rows.stop - rows.start])
        block *= rate
        np.exp(block, out=block)
        weighted_row_sums(block, wx, out=v[rows])
    v *= wy
    return np.add.reduceat(v, offsets[:-1])


def pair_sum(X, wx, Y, wy, width: float, row_block=None) -> float:
    """sum_ij wx_i wy_j k(x_i, y_j) of the gaussian kernel of `width`."""
    return float(pair_sums(X, wx, Y, wy, [0, len(Y)], width, row_block=row_block)[0])


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
