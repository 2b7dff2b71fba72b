"""The second-level kernel computed in one buffer per block, and the decision
path that evaluates one test kernel for a whole lambda grid.

The oracles are the full-size expressions the in-place code replaced; every
comparison is bit for bit.
"""

import math
import tracemalloc

import numpy as np
import pytest

from tsk import BaseKernel, HilbertKernel, MetaDistribution, bayes_risk
from tsk.errors import InputError
from tsk.hilbert_kernel import _hk_into
from tsk.kme import (
    EmpiricalBatch,
    ExactBatch,
    PointBatch,
    _squared_distances_into,
    cross_inner,
    gaussian_kme_cross_inner,
    squared_norms,
)
from tsk.rng import mc_mean_se, stream
from tsk.svm import SvmModel, build_gram, decision_values, decision_values_path

from oracles import tabulated_kme_cross_inner

BASE = BaseKernel(1.0, 2)
GAUSS = HilbertKernel(0.7)


def old_squared_distances(inners, na, nb):
    """The full-size expression of the clamped squared distances."""
    return np.maximum(na[:, None] + nb[None, :] - 2.0 * inners, 0.0)


def point_block(rows, cols, seed):
    """Inner products and squared norms of random points, the first point shared
    by both sides so that one distance is rounding noise around 0."""
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=(rows, 3)), rng.normal(size=(cols, 3))
    y[0] = x[0]
    return x @ y.T, (x * x).sum(axis=1), (y * y).sum(axis=1)


@pytest.mark.parametrize("shape", [(1, 1), (1, 5000), (5000, 1), (37, 2000)])
def test_in_place_core_equals_full_size_expression(shape):
    inners, na, nb = point_block(*shape, seed=shape[0] + shape[1])
    want = old_squared_distances(inners, na, nb)
    assert np.array_equal(_squared_distances_into(inners.copy(), na, nb), want)
    assert np.array_equal(_hk_into(GAUSS, inners.copy(), na, nb), np.exp(want / -(GAUSS.width**2)))


def spreads_of(kind, n, side, rng):
    """Spreads of one side: one value (on both sides, or on side a or b only,
    the other side distinct), a few repeated values, or all distinct."""
    if kind == "one" or kind == f"{side}_only_one":
        return np.full(n, 0.3)
    if kind == "few":
        return rng.choice([0.0, 0.1, 0.25, 0.5], size=n)
    return rng.uniform(0.0, 0.6, size=n)


# 3000 x 50 and 700 x 300 span several row blocks of the closed form
@pytest.mark.parametrize("shape", [(1, 1), (5, 40), (3000, 50), (700, 300)])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("spreads", ["one", "few", "distinct", "a_only_one", "b_only_one"])
def test_broadcast_closed_form_equals_tabulated(shape, d, spreads):
    rng = np.random.default_rng(shape[0] + 7 * d)
    k = BaseKernel(0.8, d)
    means_a, means_b = rng.normal(size=(shape[0], d)), rng.normal(size=(shape[1], d))
    sa, sb = spreads_of(spreads, shape[0], "a", rng), spreads_of(spreads, shape[1], "b", rng)
    got = gaussian_kme_cross_inner(k, means_a, sa, means_b, sb)
    assert np.array_equal(got, tabulated_kme_cross_inner(k, means_a, sa, means_b, sb))


def make_batch(kind, n, seed):
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(n, 2))
    if kind == "exact":
        return ExactBatch(BASE, means, rng.uniform(0.0, 0.5, size=n))
    if kind == "point":
        return PointBatch(means)
    sizes = rng.integers(1, 5, size=n)
    points = np.repeat(means, sizes, axis=0) + 0.3 * rng.normal(size=(sizes.sum(), 2))
    return EmpiricalBatch(BASE, points, rng.uniform(0.1, 1.0, size=sizes.sum()), np.cumsum(np.r_[0, sizes]))


@pytest.mark.parametrize("kind", ["exact", "empirical", "point"])
def test_gaussian_gram_has_exact_unit_diagonal(kind):
    assert np.all(np.diag(build_gram(GAUSS, make_batch(kind, 40, seed=1)).entries) == 1.0)


N_SUPPORT = 12
# nonzero-coefficient rows of the two models of each case
NONZERO_SETS = {
    "nested": ([0, 1, 2, 3, 4, 5], [1, 3, 4]),
    "disjoint": ([0, 2, 4, 6], [1, 3, 9, 11]),
    "all_rows": (range(N_SUPPORT), range(N_SUPPORT)),
    "one_empty": ([], [3, 7]),
}
PAIRS = [("exact", "exact"), ("exact", "empirical"), ("empirical", "exact"), ("empirical", "empirical"), ("point", "point")]


def model_on(support, hk, nonzero, seed):
    rng = np.random.default_rng(seed)
    alpha = np.zeros(len(support))
    alpha[list(nonzero)] = rng.uniform(0.1, 1.0, size=len(nonzero))
    labels = np.where(rng.random(len(support)) < 0.5, -1.0, 1.0)
    return SvmModel(alpha, labels, 0.1, 1.0, 1.0, True, 0.0, 0, 0.0, 0.0, support=support, hkernel=hk)


@pytest.mark.parametrize("hk", [GAUSS], ids=["gaussian"])
@pytest.mark.parametrize("sets", NONZERO_SETS.values(), ids=NONZERO_SETS.keys())
@pytest.mark.parametrize("support_kind, target_kind", PAIRS)
def test_path_rows_equal_each_models_own_kernel(support_kind, target_kind, sets, hk):
    support, targets = make_batch(support_kind, N_SUPPORT, seed=2), make_batch(target_kind, 9, seed=3)
    models = [model_on(support, hk, nz, seed) for seed, nz in enumerate(sets)]
    path = decision_values_path(models, targets)
    assert path.shape == (len(models), len(targets))
    for row, model in zip(path, models):
        coef = model.dual_coefs * model.labels
        nz = np.flatnonzero(coef)
        sup = support.take(nz)
        want = coef[nz] @ _hk_into(hk, cross_inner(sup, targets), squared_norms(sup), squared_norms(targets))
        assert np.array_equal(row, want)
        assert np.array_equal(decision_values(model, targets), want)


def test_path_refuses_models_that_do_not_share_support_and_kernel():
    support, targets = make_batch("exact", N_SUPPORT, seed=2), make_batch("exact", 5, seed=3)
    twin = make_batch("exact", N_SUPPORT, seed=2)  # equal values, another batch
    model = model_on(support, GAUSS, range(4), 0)
    for other in (model_on(twin, GAUSS, range(4), 1), model_on(support, GAUSS.with_width(2.0), range(4), 1)):
        with pytest.raises(InputError, match="share one support batch"):
            decision_values_path([model, other], targets)
    with pytest.raises(InputError):
        decision_values_path([], targets)


def test_hard_margin_bayes_risk_is_exactly_zero_without_sampling():
    hm = MetaDistribution("hard_margin", 2, 2.0, 0.25, 0.5, 0.5, margin=1.0)
    assert bayes_risk(hm, 10**9, 3) == (0.0, 0.0)


def test_mc_mean_se_reduces_along_axis_0():
    vals = np.random.default_rng(4).normal(size=(7, 3))
    est, se = mc_mean_se(vals)
    assert np.array_equal(est, vals.mean(axis=0))
    assert np.array_equal(se, vals.std(axis=0, ddof=1) / math.sqrt(7))
    assert np.array_equal(mc_mean_se(vals[:1])[1], np.zeros(3))
    one_d = mc_mean_se(vals[:, 0])
    assert all(type(v) is float for v in one_d)
    assert one_d == (float(vals[:, 0].mean()), float(vals[:, 0].std(ddof=1) / math.sqrt(7)))


def test_stream_path_ints_must_be_nonnegative():
    with pytest.raises(ValueError, match="stream path ints must be >= 0"):
        stream(0, -1)


def traced_peak(fn) -> int:
    """Peak bytes allocated while fn runs, as traced by tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def exact_batch(n, seed, distinct=False):
    # one spread for the whole batch, as the meta-distributions draw it, or one per embedding
    rng = np.random.default_rng(seed)
    return ExactBatch(BASE, rng.normal(size=(n, 2)), rng.uniform(0.0, 0.5, size=n) if distinct else np.full(n, 0.3))


def test_kernel_blocks_allocate_about_one_output():
    build_gram(GAUSS, exact_batch(8, 0))  # lazy set-up outside the traced calls
    for distinct in (False, True):
        batch = exact_batch(512, 1, distinct)
        assert traced_peak(lambda: build_gram(GAUSS, batch)) <= 1.5 * 512 * 512 * 8
    nsv, support, targets = 100, exact_batch(100, 2), exact_batch(2000, 3)
    model = model_on(support, GAUSS, range(nsv), 4)
    assert traced_peak(lambda: decision_values(model, targets)) <= 1.5 * nsv * 2000 * 8
    points = PointBatch(np.random.default_rng(5).normal(size=(512, 2)))
    assert traced_peak(lambda: build_gram(GAUSS, points)) <= 1.5 * 512 * 512 * 8
