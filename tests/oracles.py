"""Independent oracles used by the tests.

Everything here deliberately avoids the library's own computational paths:
brute-force double sums, projected gradient ascent on the dual, randomized
grid search on the primal, and closed-form Gaussian integrals.
"""

import math

import numpy as np


def brute_pair_sum(x, wx, y, wy, family, width):
    """Direct O(m n d) double sum with math.fsum accumulation."""
    total = []
    for i in range(len(x)):
        for j in range(len(y)):
            if family == "gaussian":
                d = math.fsum((a - b) ** 2 for a, b in zip(x[i], y[j]))
                k = math.exp(-d / width**2)
            else:
                d = math.fsum(abs(a - b) for a, b in zip(x[i], y[j]))
                k = math.exp(-d / width)
            total.append(wx[i] * wy[j] * k)
    return math.fsum(total)


def rand_psd(rng, n, lo=0.3, hi=3.0):
    """Random symmetric PSD matrix with spectrum in [lo, hi]."""
    lam = rng.uniform(lo, hi, size=n)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    k = (q * lam) @ q.T
    return (k + k.T) / 2.0


def pgd_dual_objectives(instances, iters=10**6):
    """Batched projected gradient ascent on the SVM duals.

    instances: list of (gram, labels, lam). Runs the stated oracle -- `iters`
    synchronized steps at step size 1/||Q||_2 -- and returns the dual
    objectives in primal units, 2 lam (sum a - a'Qa/2).
    """
    b = len(instances)
    p = max(k.shape[0] for k, _, _ in instances)
    q = np.zeros((b, p, p))
    box = np.zeros((b, p))
    ones = np.zeros((b, p))
    for i, (k, y, lam) in enumerate(instances):
        n = k.shape[0]
        q[i, :n, :n] = k * np.outer(y, y)
        box[i, :n] = 1.0 / (2.0 * lam * n)
        ones[i, :n] = 1.0
    step = np.empty((b, 1))
    for i in range(b):
        step[i] = 1.0 / max(np.linalg.eigvalsh(q[i])[-1], 1e-12)
    alpha = np.zeros((b, p))
    for _ in range(iters):
        g = ones - np.matmul(q, alpha[..., None])[..., 0]
        alpha = np.clip(alpha + step * g, 0.0, box)
    out = []
    for i, (k, y, lam) in enumerate(instances):
        n = k.shape[0]
        a = alpha[i, :n]
        out.append(2.0 * lam * (a.sum() - 0.5 * a @ (k * np.outer(y, y)) @ a))
    return out


def primal_grid_min(k, y, lam, pts=17, max_rounds=200, seed=0, restarts=3):
    """Grid search over span coefficients, randomized mesh orientation.

    min_beta (1/N) sum hinge(y, (K beta)) + lam beta' K beta, searched by a
    shrinking full mesh whose orientation is redrawn every round (a fixed
    axis-aligned mesh can stall inside narrow kink valleys). Best of a few
    restarts.
    """
    return min(
        _grid_once(k, y, lam, pts, max_rounds, seed + 7919 * r) for r in range(restarts)
    )


def _grid_once(k, y, lam, pts, max_rounds, seed):
    n = k.shape[0]
    rng = np.random.default_rng(seed)
    c_box = 1.0 / (2.0 * lam * n)
    center = np.zeros(n)
    half = c_box * math.sqrt(n)
    best, best_pt = np.inf, center
    offs = [np.linspace(-1.0, 1.0, pts)] * n
    mesh = np.stack([g.ravel() for g in np.meshgrid(*offs, indexing="ij")], axis=1)
    for rd in range(max_rounds):
        rot = np.eye(n) if (n == 1 or rd == 0) else np.linalg.qr(rng.normal(size=(n, n)))[0]
        beta = center[None, :] + (half * mesh) @ rot.T
        f = beta @ k
        risk = np.mean(np.maximum(0.0, 1.0 - y[None, :] * f), axis=1)
        risk += lam * np.einsum("bi,bi->b", f, beta)
        j = int(np.argmin(risk))
        improved = risk[j] < best
        if improved:
            best, best_pt = float(risk[j]), beta[j]
        center = best_pt
        if not improved:
            half *= 0.82
        if half < 1e-13 * max(c_box, 1.0):
            break
    return best


def gaussian_weight_integral(x, t, eigenvalues, eigenvectors):
    """E_{y ~ N(0, Q)}[exp(-||x - y||^2 / t)] in closed form.

    Per eigen-coordinate: (1 + 2 l_i/t)^(-1/2) exp(-x_i^2 / (t + 2 l_i)).
    """
    xi = eigenvectors.T @ np.asarray(x, dtype=np.float64)
    scale = np.prod((1.0 + 2.0 * eigenvalues / t) ** -0.5)
    return float(scale * np.exp(-np.sum(xi**2 / (t + 2.0 * eigenvalues))))


def i2_inner_closed_form(x, t, eigenvalues, eigenvectors):
    """E_{y ~ N(x, Q)}[exp(-||y||^2 / t)]; same form as the weight integral."""
    return gaussian_weight_integral(x, t, eigenvalues, eigenvectors)


def loglog_lsq_slope(xs, ys):
    """Plain least-squares slope of (log x, log y), written out longhand."""
    lx = np.log(np.asarray(xs, dtype=np.float64))
    ly = np.log(np.asarray(ys, dtype=np.float64))
    dx = lx - lx.mean()
    return float(np.sum(dx * (ly - ly.mean())) / np.sum(dx * dx))


def noise_terms_one_t(meta, t, q, n_outer, n_inner, seed):
    """Per-outer-point terms (t1, t2) of the geometric-noise integrals at one t.

    The one-t-at-a-time loop: it redraws the inner normals for every t, and
    its arithmetic is what the library's shared-draw grid must reproduce
    bit for bit.
    """
    from tsk.rng import normals, stream
    from tsk.synth import delta_batch, eta_batch, sample_first_stage

    means, _ = sample_first_stage(meta, n_outer, seed)
    weights = np.abs(2.0 * eta_batch(meta, means) - 1.0)
    deltas = delta_batch(meta, means)
    sqrt_q = q.sqrt_matrix()
    t1, t2 = np.empty(n_outer), np.empty(n_outer)
    for k in range(n_outer):
        z = normals(stream(seed, "noise-inner", k), (n_inner, meta.dim)) @ sqrt_q
        diff = z - means[k]
        sq = np.einsum("ij,ij->i", diff, diff)
        inside = sq <= deltas[k] ** 2
        t1[k] = (1.0 - 2.0 * float(np.mean(np.exp(-sq / t) * inside))) * weights[k]
        shifted = z + means[k]
        t2[k] = float(np.mean(np.exp(-np.einsum("ij,ij->i", shifted, shifted) / t))) * weights[k]
    return t1, t2


def coverage_distances_one_by_one(kernel, mean, sigma, m, trials, seed):
    """rkhs_distance(empirical, exact) for each coverage trial, one trial at a time.

    The per-trial loop the batched coverage campaign must reproduce bit for
    bit: the same bag streams, one `rkhs_distance` call per bag.
    """
    from tsk import SampleSet, embed, exact_gaussian_embedding, rkhs_distance
    from tsk.rng import normals, stream

    exact = exact_gaussian_embedding(kernel, mean, sigma)
    out = np.empty(trials)
    for r in range(trials):
        pts = mean + sigma * normals(stream(seed, "coverage", m, r), (m, kernel.dim))
        out[r] = rkhs_distance(embed(kernel, SampleSet(pts)), exact)
    return out
