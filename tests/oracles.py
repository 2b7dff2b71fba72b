"""Independent oracles used by the tests.

Everything here deliberately avoids the library's own computational paths:
brute-force double sums, projected gradient ascent on the dual, randomized
grid search on the primal, the dual's KKT residual and the regularized risk
written out in numpy, and closed-form Gaussian integrals. The exceptions are
`feature_distance`, which reads the second-level kernel through
`hk_eval`, and `tabulated_kme_cross_inner`, the earlier form of the
library's closed-form cross inner products, kept as the reference its
replacement must equal bit for bit.
"""

import math

import numpy as np

from tsk import _backend


def brute_pair_sum(x, wx, y, wy, width):
    """Direct O(m n d) double sum of the gaussian kernel with math.fsum accumulation."""
    total = []
    for i in range(len(x)):
        for j in range(len(y)):
            d = math.fsum((a - b) ** 2 for a, b in zip(x[i], y[j]))
            total.append(wx[i] * wy[j] * math.exp(-d / width**2))
    return math.fsum(total)


def rand_psd(rng, n, lo=0.3, hi=3.0):
    """Random symmetric PSD matrix with spectrum in [lo, hi]."""
    lam = rng.uniform(lo, hi, size=n)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    k = (q * lam) @ q.T
    return (k + k.T) / 2.0


def primal_objective(k, y, lam, alpha):
    """P(f) = (1/N) sum_i hinge(y_i, f(x_i)) + lam ||f||^2 of f = sum_j alpha_j y_j k(x_j, .)."""
    coef = alpha * y
    f = k @ coef
    return float(np.mean(np.maximum(0.0, 1.0 - y * f)) + lam * coef @ k @ coef)


def pgd_dual_objectives(instances, iters=10**6, gap_tol=1e-10):
    """Batched projected gradient ascent on the SVM duals, certified by weak duality.

    instances: list of (gram, labels, lam). Takes synchronized steps at step
    size 1/||Q||_2 until every instance's primal-dual gap P(f_a) - 2 lam D(a)
    is at most `gap_tol`, or `iters` steps have been taken; f_a is
    sum_j a_j y_j k(x_j, .), P its primal objective (`primal_objective`) and
    D(a) = sum a - a'Qa/2. Returns the dual objectives in primal units,
    2 lam D(a), and the gaps: weak duality puts each optimum between 2 lam D(a)
    and 2 lam D(a) + gap.
    """
    b = len(instances)
    p = max(k.shape[0] for k, _, _ in instances)
    q = np.zeros((b, p, p))
    box = np.zeros((b, p))
    ones = np.zeros((b, p))
    lams = np.array([lam for _, _, lam in instances])
    sizes = np.array([k.shape[0] for k, _, _ in instances])
    for i, (k, y, lam) in enumerate(instances):
        n = k.shape[0]
        q[i, :n, :n] = k * np.outer(y, y)
        box[i, :n] = 1.0 / (2.0 * lam * n)
        ones[i, :n] = 1.0
    step = np.empty((b, 1))
    for i in range(b):
        step[i] = 1.0 / max(np.linalg.eigvalsh(q[i])[-1], 1e-12)
    alpha = np.zeros((b, p))
    for taken in range(iters + 1):
        qa = np.matmul(q, alpha[..., None])[..., 0]  # (Qa)_i = y_i f_a(x_i)
        quad = (alpha * qa).sum(axis=1)
        primal = (ones * np.maximum(0.0, 1.0 - qa)).sum(axis=1) / sizes + lams * quad
        gaps = primal - 2.0 * lams * (alpha.sum(axis=1) - 0.5 * quad)
        if gaps.max() <= gap_tol or taken == iters:
            break
        alpha = np.clip(alpha + step * (ones - qa), 0.0, box)
    out = []
    for i, (k, y, lam) in enumerate(instances):
        n = k.shape[0]
        a = alpha[i, :n]
        out.append(2.0 * lam * (a.sum() - 0.5 * a @ (k * np.outer(y, y)) @ a))
    return out, gaps.tolist()


def kkt_residual(model, gram, labels) -> float:
    """Max over the coordinates of the dual's projected gradient onto the box [0, C], one
    coordinate at a time: the gradient g_i = 1 - y_i f(x_i), f = K (alpha * y), counts
    where alpha_i is inside the box, only its positive part at alpha_i = 0 and only its
    negative part at alpha_i = C."""
    y = np.asarray(labels, dtype=np.float64)
    alpha = np.asarray(model.dual_coefs, dtype=np.float64)
    g = 1.0 - y * (gram.entries @ (alpha * y))
    worst = 0.0
    for a, gi in zip(alpha.tolist(), g.tolist()):
        worst = max(worst, max(gi, 0.0) if a <= 0.0 else max(-gi, 0.0) if a >= model.box_c else abs(gi))
    return worst


def regularized_empirical_risk(model, gram, labels, lam, clipped=False) -> float:
    """(1/N) sum_n hinge(y_n, f(x_n)) + lam ||f||^2 on the training Gram, f = K (alpha * y),
    f first clipped to [-clip_bound, clip_bound] when `clipped`."""
    y = np.asarray(labels, dtype=np.float64)
    coef = np.asarray(model.dual_coefs, dtype=np.float64) * y
    f = gram.entries @ coef
    vals = np.clip(f, -model.clip_bound, model.clip_bound) if clipped else f
    return float(np.mean(np.maximum(0.0, 1.0 - y * vals))) + lam * float(np.dot(coef, f))


def feature_distance(hk, e1, e2) -> float:
    """||phi(e1) - phi(e2)|| in the second-level RKHS, sqrt(2 - 2 k(e1, e2)) <= sqrt(2)."""
    from tsk import hk_eval

    return math.sqrt(max(2.0 - 2.0 * hk_eval(hk, e1, e2), 0.0))


def covariance_matrix(q):
    """The matrix V diag(eigenvalues) V' of a covariance operator."""
    return (q.eigenvectors * q.eigenvalues) @ q.eigenvectors.T


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


def i2_inner_closed_form(x, t, eigenvalues, eigenvectors):
    """E_{y ~ N(x, Q)}[exp(-||y||^2 / t)] in closed form.

    Per eigen-coordinate: (1 + 2 l_i/t)^(-1/2) exp(-x_i^2 / (t + 2 l_i)).
    """
    xi = eigenvectors.T @ np.asarray(x, dtype=np.float64)
    scale = np.prod((1.0 + 2.0 * eigenvalues / t) ** -0.5)
    return float(scale * np.exp(-np.sum(xi**2 / (t + 2.0 * eigenvalues))))


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
    """The RKHS distance of each coverage trial's empirical embedding to the exact one, one trial at a time.

    The per-trial loop the batched coverage campaign must reproduce bit for
    bit: the same bag streams, one 1x1 distance per bag.
    """
    from tsk import SampleSet, embed, exact_gaussian_embedding
    from tsk.kme import _squared_distances_into, cross_inner, squared_norms
    from tsk.rng import normals, stream

    exact = exact_gaussian_embedding(kernel, mean, sigma)
    out = np.empty(trials)
    for r in range(trials):
        e = embed(kernel, SampleSet(mean + sigma * normals(stream(seed, "coverage", m, r), (m, kernel.dim))))
        out[r] = math.sqrt(_squared_distances_into(cross_inner(e, exact), squared_norms(e), squared_norms(exact))[0, 0])
    return out


def _variance_terms(k, s2a, s2b):
    """v = g + 2 (s2a + s2b) and (g / v)^(d/2) of the closed form, g = width^2;
    the symmetric grouping keeps the swap (m, s) <-> (m', s') bit-exact."""
    g = k.width * k.width
    v = g + 2.0 * (s2a + s2b)
    return v, (g / v) ** (k.dim / 2.0)


# entries of the row-block temporaries of `tabulated_kme_cross_inner`
_BLOCK_ENTRIES = 1 << 15


def _one_value(x):
    """x[0] when every entry of the nonempty x is that same number, else None."""
    return x[0] if x.size and np.all(x == x[0]) else None


def tabulated_kme_cross_inner(k, means_a, spreads_a, means_b, spreads_b):
    """The exact Gaussian KME cross inner products as `kme.gaussian_kme_cross_inner`
    computed them before every row block broadcast its spreads: v and (g / v)^(d/2)
    once in all when each side has one spread, else tabulated once per distinct
    pair of spreads and gathered one row block at a time."""
    d2 = _backend.sqeuclidean(means_a, means_b)
    sa2, sb2 = np.asarray(spreads_a, dtype=np.float64) ** 2, np.asarray(spreads_b, dtype=np.float64) ** 2
    if _one_value(sa2) is not None and _one_value(sb2) is not None:
        v, scale = _variance_terms(k, sa2[:1, None], sb2[None, :1])
        np.exp(np.divide(d2, -v, out=d2), out=d2)
        d2 *= scale
        return d2
    sa2, ia = np.unique(sa2, return_inverse=True)
    sb2, ib = np.unique(sb2, return_inverse=True)
    # about four block-sized temporaries are live at once: the two tables and a gather
    rows = max(1, _BLOCK_ENTRIES // (4 * max(d2.shape[1], 1)))
    for lo in range(0, d2.shape[0], rows):
        ua, ia_block = np.unique(ia[lo : lo + rows], return_inverse=True)
        neg_v, scale = _variance_terms(k, sa2[ua, None], sb2[None, :])
        np.negative(neg_v, out=neg_v)
        sel = np.ix_(ia_block, ib)
        block = d2[lo : lo + rows]
        np.exp(np.divide(block, neg_v[sel], out=block), out=block)
        block *= scale[sel]
        del neg_v, scale  # freed before the next block's tables are built
    return d2
