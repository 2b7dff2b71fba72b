"""The three embedding batches: per-entry independence, subsets, norms and validation.

Every `cross_inner` entry must equal the 1x1 call on its two embeddings
alone, bit for bit, for each geometry and for the mixed exact x empirical
pair in both orders; `take` must equal building the subset directly; and the
diagonal of a batch's Gram must equal its `squared_norms`.
"""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from tsk import BaseKernel, HilbertKernel
from tsk.errors import InputError
from tsk.kme import EmpiricalBatch, ExactBatch, PointBatch, cross_inner, squared_norms
from tsk.svm import SvmModel, build_gram, decision_values

BASE = BaseKernel("gaussian", 0.9, 3)
SIZES = (1, 4, 2, 9, 1, 6, 3)
KINDS = ("exact", "empirical", "point")
PAIRS = (("exact", "exact"), ("empirical", "empirical"), ("point", "point"), ("exact", "empirical"), ("empirical", "exact"))
HKERNELS = (HilbertKernel("gaussian", 1.3),)


def make(kind, seed, n=len(SIZES)):
    """A batch of n embeddings of one geometry, and a function that builds
    the batch of any list of their indices directly from the raw data."""
    rng = np.random.default_rng(seed)
    if kind == "exact":
        means, spreads = rng.normal(size=(n, 3)), rng.uniform(0.0, 0.6, size=n)

        def build(idx):
            return ExactBatch(BASE, means[idx], spreads[idx])

    elif kind == "empirical":
        bags = [rng.normal(size=(m, 3)) for m in SIZES[:n]]
        weights = [rng.uniform(0.1, 1.0, size=m) for m in SIZES[:n]]

        def build(idx):
            return EmpiricalBatch(
                BASE,
                np.concatenate([np.empty((0, 3))] + [bags[i] for i in idx]),
                np.concatenate([np.empty(0)] + [weights[i] for i in idx]),
                np.cumsum([0] + [SIZES[i] for i in idx]),
            )

    else:
        points = 2.0 * rng.normal(size=(n, 3))

        def build(idx):
            return PointBatch(points[idx])

    return build(list(range(n))), build


@pytest.mark.parametrize("left, right", PAIRS)
def test_every_cross_entry_equals_the_one_by_one_call(left, right):
    (a, _), (b, _) = make(left, 1), make(right, 2)
    full = cross_inner(a, b)
    assert full.shape == (len(a), len(b))
    for i in range(len(a)):
        for j in range(len(b)):
            assert full[i, j] == cross_inner(a.take([i]), b.take([j]))[0, 0]


def test_mixed_pair_is_the_transpose_of_its_swap():
    (x, _), (e, _) = make("exact", 3), make("empirical", 4)
    assert np.array_equal(cross_inner(e, x), cross_inner(x, e).T)


@pytest.mark.parametrize("kind", KINDS)
def test_self_inner_is_symmetric_with_one_by_one_entries(kind):
    # the upper triangle is computed and mirrored
    a, _ = make(kind, 5)
    gram = cross_inner(a, a)
    for i in range(len(a)):
        for j in range(i, len(a)):
            assert gram[i, j] == gram[j, i] == cross_inner(a.take([i]), a.take([j]))[0, 0]


@pytest.mark.parametrize("hk", HKERNELS, ids=lambda hk: hk.family)
@pytest.mark.parametrize("kind", KINDS)
def test_gram_diagonal_equals_squared_norms(kind, hk):
    a, _ = make(kind, 6)
    norms = squared_norms(a)
    assert np.array_equal(np.diag(cross_inner(a, a)), norms)
    assert np.array_equal(np.diag(build_gram(hk, a).entries), np.ones(len(a)))
    assert squared_norms(a) is norms  # computed once per batch


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("idx", [[5, 0, 3, 3], [6], []], ids=["repeats", "one", "empty"])
def test_take_equals_the_subset_built_directly(kind, idx):
    batch, build = make(kind, 7)
    sub, direct = batch.take(idx), build(idx)
    assert type(sub) is type(direct) and len(sub) == len(direct) == len(idx)
    for name in ("means", "spreads", "points", "weights", "offsets"):
        if hasattr(direct, name):
            assert np.array_equal(getattr(sub, name), getattr(direct, name))
    other, _ = make(kind, 8)
    assert np.array_equal(cross_inner(sub, other), cross_inner(direct, other))
    assert np.array_equal(squared_norms(sub), squared_norms(direct))


@pytest.mark.parametrize("hk", HKERNELS, ids=lambda hk: hk.family)
def test_point_geometry_matches_the_distance_formula(hk):
    # the identity embedding: the Gram is exp(-|x - x'|^2 / w^2)
    a, _ = make("point", 9)
    want = np.exp(-cdist(a.points, a.points, "sqeuclidean") / hk.width**2)
    np.testing.assert_allclose(build_gram(hk, a).entries, want, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("kind", KINDS)
def test_zero_coefficients_decide_zero(kind):
    a, _ = make(kind, 10)
    labels = np.where(np.arange(len(a)) % 2 == 0, 1.0, -1.0)
    model = SvmModel(np.zeros(len(a)), labels, 0.1, 1.0, 1.0, True, 0.0, 0, 0.0, 0.0, support=a, hkernel=HKERNELS[0])
    assert np.array_equal(decision_values(model, make(kind, 11)[0]), np.zeros(len(SIZES)))


BAD_BATCHES = {
    "exact nan mean": lambda: ExactBatch(BASE, [[0.0, np.nan, 0.0]], [0.1]),
    "exact nan spread": lambda: ExactBatch(BASE, [[0.0, 0.0, 0.0]], [np.nan]),
    "exact negative spread": lambda: ExactBatch(BASE, [[0.0, 0.0, 0.0]], [-0.1]),
    "exact wrong dim": lambda: ExactBatch(BASE, [[0.0, 0.0]], [0.1]),
    "exact spread count": lambda: ExactBatch(BASE, [[0.0, 0.0, 0.0]], [0.1, 0.2]),
    "empirical empty expansion": lambda: EmpiricalBatch(BASE, np.zeros((3, 3)), np.ones(3), [0, 3, 3]),
    "empirical offsets short": lambda: EmpiricalBatch(BASE, np.zeros((3, 3)), np.ones(3), [0, 2]),
    "empirical offsets float": lambda: EmpiricalBatch(BASE, np.zeros((3, 3)), np.ones(3), [0.0, 3.0]),
    "empirical no offsets": lambda: EmpiricalBatch(BASE, np.zeros((0, 3)), np.ones(0), []),
    "empirical nan weight": lambda: EmpiricalBatch(BASE, np.zeros((2, 3)), [1.0, np.nan], [0, 2]),
    "point inf": lambda: PointBatch([[0.0, np.inf]]),
}


@pytest.mark.parametrize("name", BAD_BATCHES)
def test_constructor_rejects_invalid_arrays(name):
    with pytest.raises(InputError):
        BAD_BATCHES[name]()


def test_exact_batch_needs_the_gaussian_base_kernel():
    with pytest.raises(InputError):
        ExactBatch(BaseKernel("laplacian", 1.0, 3), [[0.0, 0.0, 0.0]], [0.1])


def test_batches_of_different_kernels_or_geometries_do_not_mix():
    (x, _), (p, _) = make("exact", 12), make("point", 13)
    wider = ExactBatch(BaseKernel("gaussian", 2.0, 3), x.means, x.spreads)
    for a, b in ((x, wider), (x, p), (p, x)):
        with pytest.raises(InputError):
            cross_inner(a, b)
