import math

import numpy as np
import pytest

from tsk import (
    BaseKernel,
    EmpiricalBatch,
    SampleSet,
    concentration_bound,
    embed,
    embed_bags,
    exact_gaussian_embedding,
    inner,
)
from scipy.spatial.distance import cdist

from tsk._backend import _BLOCK_BUDGET, pair_sum, pair_sums, sqeuclidean
from tsk.errors import InputError, NumericalConsistencyError
from tsk.kme import ExactBatch, _squared_distances_into, cross_inner, gaussian_kme_inner_matrix, squared_norms

from oracles import brute_pair_sum

K2 = BaseKernel(1.0, 2)


def atoms(*points):
    return [EmpiricalBatch(K2, np.array([p]), np.array([1.0]), [0, 1]) for p in points]


class TestEmbed:
    def test_single_atom(self):
        e = embed(K2, SampleSet(np.array([[1.0, 2.0]])))
        assert e.weights.tolist() == [1.0]
        assert inner(e, e) == pytest.approx(1.0, abs=1e-12)

    def test_identical_rows_unit_self_inner(self):
        e = embed(K2, SampleSet(np.tile([0.5, -0.5], (4, 1))))
        assert np.allclose(e.weights, 0.25)
        assert inner(e, e) == pytest.approx(1.0, abs=1e-12)

    def test_two_point_bag_self_inner(self):
        # hand expansion of the double sum: (1/4)(1 + 1 + 2 e^-1)
        e = embed(K2, SampleSet(np.array([[0.0, 0.0], [1.0, 0.0]])))
        expected = (2.0 + 2.0 * math.exp(-1.0)) / 4.0
        assert inner(e, e) == pytest.approx(expected, abs=1e-12)

    def test_empty_bag_rejected(self):
        with pytest.raises(InputError):
            SampleSet(np.empty((0, 2)))
        with pytest.raises(InputError):
            embed(K2, SampleSet(np.zeros((3, 5))))

    def test_zero_point_expansion_rejected(self):
        with pytest.raises(InputError):
            EmpiricalBatch(K2, np.empty((0, 2)), np.empty(0), [0, 0])


class TestInner:
    def test_single_atoms(self):
        a, b = atoms([0.0, 0.0], [1.0, 0.0])
        assert inner(a, a) == pytest.approx(1.0, abs=1e-15)
        assert inner(a, b) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_signed_weights_difference_norm(self):
        # weights (1, -1) against itself is ||phi(a) - phi(b)||^2 = 2 - 2 e^-1
        e = EmpiricalBatch(K2, np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1.0, -1.0]), [0, 2])
        assert inner(e, e) == pytest.approx(2.0 - 2.0 * math.exp(-1.0), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            e1 = embed(K2, SampleSet(rng.normal(size=(3, 2))))
            e2 = embed(K2, SampleSet(rng.normal(size=(5, 2))))
            assert inner(e1, e2) == pytest.approx(inner(e2, e1), rel=1e-13)

    def test_kernel_mismatch(self):
        e1 = embed(K2, SampleSet(np.zeros((1, 2))))
        e2 = embed(BaseKernel(2.0, 2), SampleSet(np.zeros((1, 2))))
        with pytest.raises(InputError):
            inner(e1, e2)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        k = BaseKernel(0.8, 3)
        p1, p2 = rng.normal(size=(4, 3)), rng.normal(size=(6, 3))
        w1, w2 = rng.normal(size=4), rng.normal(size=6)
        got = inner(EmpiricalBatch(k, p1, w1, [0, 4]), EmpiricalBatch(k, p2, w2, [0, 6]))
        assert got == pytest.approx(brute_pair_sum(p1, w1, p2, w2, 0.8), rel=1e-12)


class TestRkhsDistance:
    def test_identical(self):
        (a,) = atoms([0.3, 0.4])
        assert _squared_distances_into(cross_inner(a, a), squared_norms(a), squared_norms(a))[0, 0] == 0.0

    def test_single_atoms_closed_form(self):
        a, b = atoms([0.0, 0.0], [1.0, 0.0])
        d2 = _squared_distances_into(cross_inner(a, b), squared_norms(a), squared_norms(b))[0, 0]
        assert math.sqrt(d2) == pytest.approx(math.sqrt(2.0 - 2.0 * math.exp(-1.0)), abs=1e-12)

    def test_triangle_inequality(self):
        # every triple of 150 bags: dist[i, k] <= dist[i, j] + dist[j, k]
        rng = np.random.default_rng(21)
        embs = embed_bags(K2, [SampleSet(rng.normal(size=(4, 2))) for _ in range(150)])
        norms = squared_norms(embs)
        dist = np.sqrt(_squared_distances_into(cross_inner(embs, embs), norms, norms))
        assert np.all(dist[:, None, :] <= dist[:, :, None] + dist[None, :, :] + 1e-9)

    def test_noise_clamped_but_corruption_raises(self):
        # ||a||^2 + ||b||^2 - 2 <a, b> with ||a||^2 below 0 by noise, then by corruption
        assert _squared_distances_into(np.zeros((1, 1)), np.array([-5e-11]), np.zeros(1))[0, 0] == 0.0
        with pytest.raises(NumericalConsistencyError):
            _squared_distances_into(np.zeros((1, 1)), np.array([-1e-9]), np.zeros(1))


class TestConcentrationBound:
    def test_reference_values(self):
        assert concentration_bound(100, 0.01, 1.0) == pytest.approx(
            0.2 + math.sqrt(2.0 * math.log(100.0) / 100.0), abs=1e-12
        )
        assert concentration_bound(4, math.exp(-1.0), 1.0) == pytest.approx(1.0 + math.sqrt(0.5), abs=1e-12)

    def test_first_term_sqrt_scaling(self):
        # quadrupling M halves the 2 sqrt(s^2/M) term
        assert 2.0 * math.sqrt(1.0 / 400.0) == pytest.approx(0.1)
        assert concentration_bound(400, 0.01, 1.0) < concentration_bound(100, 0.01, 1.0)

    def test_decreasing_in_m(self):
        vals = [concentration_bound(m, 0.05, 1.0) for m in (1, 4, 25, 100, 1000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_delta_domain(self):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(InputError):
                concentration_bound(10, bad, 1.0)


class TestGaussianFamilyKme:
    """<mu_Q, mu_Q'> for Q = N(m, sigma^2 I), Q' = N(m', sigma_p^2 I): (g / v)^(d/2) exp(-||m - m'||^2 / v)."""

    def test_point_mass_reduces_to_base_kernel(self):
        k = BaseKernel(1.3, 2)
        m, mp = np.array([0.1, 0.2]), np.array([1.0, -0.5])
        d2 = float(np.sum((m - mp) ** 2))
        assert cross_inner(ExactBatch(k, [m], [0.0]), ExactBatch(k, [mp], [0.0]))[0, 0] == pytest.approx(
            math.exp(-d2 / 1.3**2), abs=1e-12
        )

    def test_symmetry_in_arguments(self):
        k = BaseKernel(1.0, 3)
        a, b = ExactBatch(k, [[0.0, 1.0, 2.0]], [0.3]), ExactBatch(k, [[0.5, 0.5, 0.5]], [0.7])
        assert cross_inner(a, b)[0, 0] == cross_inner(b, a)[0, 0]

    def test_monte_carlo_double_integral(self):
        # E k(x, y) for x ~ N(0, 0.25), y ~ N(1, 0.25) in d = 1, 1e7 pairs
        k = BaseKernel(1.0, 1)
        rng = np.random.default_rng(123)
        n = 10**7
        x = rng.normal(0.0, 0.5, size=n)
        y = rng.normal(1.0, 0.5, size=n)
        vals = np.exp(-((x - y) ** 2))
        est, se = vals.mean(), vals.std(ddof=1) / math.sqrt(n)
        closed = cross_inner(ExactBatch(k, [[0.0]], [0.5]), ExactBatch(k, [[1.0]], [0.5]))[0, 0]
        assert closed == pytest.approx(math.sqrt(0.5) * math.exp(-0.5), abs=1e-12)
        assert abs(closed - est) <= 3.0 * se

    def test_matrix_matches_scalar(self):
        k = BaseKernel(0.9, 2)
        rng = np.random.default_rng(3)
        means = rng.normal(size=(5, 2))
        spreads = rng.uniform(0.0, 0.6, size=5)
        mat, batch = gaussian_kme_inner_matrix(k, means, spreads), ExactBatch(k, means, spreads)
        for i in range(5):
            for j in range(5):
                assert mat[i, j] == cross_inner(batch.take([i]), batch.take([j]))[0, 0]


class TestMixedAndProperties:
    def test_gram_positivity_mixed_embeddings(self):
        rng = np.random.default_rng(17)
        embs = []
        for i in range(10):
            if i % 2 == 0:
                embs.append(embed(K2, SampleSet(rng.normal(size=(3, 2)))))
            else:
                embs.append(exact_gaussian_embedding(K2, rng.normal(size=2), float(rng.uniform(0, 0.5))))
        gram = np.array([[inner(a, b) for b in embs] for a in embs])
        assert np.linalg.eigvalsh(gram)[0] >= -1e-8 * 10

    def test_estimator_consistency_in_bag_size(self):
        # median distance to the exact embedding decreases through M = 10, 100, 1000
        rng = np.random.default_rng(29)
        exact = exact_gaussian_embedding(K2, np.zeros(2), 0.5)
        medians = []
        for m in (10, 100, 1000):
            embs = embed_bags(K2, [SampleSet(rng.normal(0.0, 0.5, size=(m, 2))) for _ in range(100)])
            d2 = _squared_distances_into(cross_inner(embs, exact), squared_norms(embs), squared_norms(exact))
            medians.append(np.median(np.sqrt(d2)))
        assert medians[0] > medians[1] > medians[2]

    def test_blocked_sum_independent_of_row_block(self):
        rng = np.random.default_rng(31)
        x, y = rng.normal(size=(37, 2)), rng.normal(size=(53, 2))
        wx, wy = rng.normal(size=37), rng.normal(size=53)
        vals = {pair_sum(x, wx, y, wy, 1.0, row_block=rb) for rb in (1, 5, 17, None)}
        assert len(vals) == 1


def distance_inputs(case, d, rng):
    """Row sets for the mean-distance check; "blocks" spans several row blocks of sqeuclidean."""
    a, b = rng.normal(size=(37, d)), rng.normal(size=(53, d))
    if case == "repeated":
        a[1::3] = a[0]
        b[:5] = a[0]
    elif case == "offset":
        a += 1e6
        b += 1e6
    elif case == "one_row":
        a, b = a[:1], b[:1]
    elif case == "one_row_left":
        a = a[:1]
    elif case == "blocks":
        a, b = rng.normal(size=(_BLOCK_BUDGET // 100 + 7, d)), rng.normal(size=(100, d))
    return a, b


class TestSqeuclidean:
    """The exact closed form's mean distances against cdist, the oracle, bit for bit."""

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 64, 65, 130])
    @pytest.mark.parametrize("case", ["random", "repeated", "offset", "one_row", "one_row_left", "blocks"])
    def test_equals_cdist_bit_for_bit(self, case, d):
        a, b = distance_inputs(case, d, np.random.default_rng(d))
        assert np.array_equal(sqeuclidean(a, b), cdist(a, b, "sqeuclidean"))
        assert np.array_equal(sqeuclidean(b, a), cdist(b, a, "sqeuclidean"))


class TestPairSums:
    """One left expansion against right expansions stacked at offsets."""

    SEGMENTS = (1, 2, 7, 60, 1, 33)

    def stacked(self, rng, m, d):
        # points scaled so squared distances stay O(1) in any dimension
        x = rng.normal(size=(m, d)) / math.sqrt(d)
        y = rng.normal(size=(sum(self.SEGMENTS), d)) / math.sqrt(d)
        wx, wy = rng.uniform(0.1, 1.0, size=m), rng.uniform(0.1, 1.0, size=len(y))
        return x, wx, y, wy, np.concatenate(([0], np.cumsum(self.SEGMENTS)))

    @pytest.mark.parametrize("d", [2, 70, 130])  # cdist computes the distances at every width
    @pytest.mark.parametrize("family", ["gaussian"])  # the one base-kernel family
    @pytest.mark.parametrize("m", [1, 60])
    def test_matches_brute_force(self, family, d, m):
        x, wx, y, wy, offs = self.stacked(np.random.default_rng(41), m, d)
        for width in (0.05, 0.9, 20.0):  # kernel values from ~1e-170 up to ~1
            got = pair_sums(x, wx, y, wy, offs, width)
            want = [brute_pair_sum(x, wx, y[a:b], wy[a:b], width) for a, b in zip(offs, offs[1:])]
            np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("d", [2, 70, 130])
    @pytest.mark.parametrize("family", ["gaussian"])  # the one base-kernel family
    def test_independent_of_row_block_and_of_other_segments(self, family, d):
        x, wx, y, wy, offs = self.stacked(np.random.default_rng(43), 17, d)
        runs = [pair_sums(x, wx, y, wy, offs, 1.1, row_block=rb) for rb in (1, 5, 17, None)]
        assert all(np.array_equal(r, runs[0]) for r in runs)
        for s, (a, b) in enumerate(zip(offs, offs[1:])):
            assert pair_sums(x, wx, y[a:b], wy[a:b], [0, b - a], 1.1)[0] == runs[0][s]

    def test_pair_sum_is_the_one_segment_call(self):
        x, wx, y, wy, _ = self.stacked(np.random.default_rng(47), 9, 2)
        assert pair_sum(x, wx, y, wy, 0.7) == pair_sums(x, wx, y, wy, [0, len(y)], 0.7)[0]

    def test_empty_segment_rejected(self):
        x, wx, y, wy, _ = self.stacked(np.random.default_rng(53), 3, 2)
        with pytest.raises(ValueError):
            pair_sums(x, wx, y, wy, [0, 5, 5, len(y)], 1.0)
