import copy
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from tsk import (
    BaseKernel,
    GramMatrix,
    HilbertKernel,
    SampleSet,
    build_gram,
    clip,
    decision_value,
    embed,
    hinge,
    train,
    zero_one,
)
from tsk.errors import InputError, NumericalConsistencyError, UnsupportedError
from tsk.kme import EmpiricalBatch, ExactBatch, PointBatch, embed_bags
import tsk.svm as svm_module
from tsk.svm import SvmModel, _box_path_max, _newton_step, decision_values, model_from_json, model_to_json, sgn

from oracles import kkt_residual, pgd_dual_objectives, primal_grid_min, rand_psd, regularized_empirical_risk


class TestLosses:
    def test_hinge_values(self):
        assert hinge(1, 1.0) == 0.0
        assert hinge(1, 0.3) == pytest.approx(0.7)
        assert hinge(-1, 1.0) == pytest.approx(2.0)

    def test_zero_one_tie_goes_positive(self):
        assert zero_one(1, 0.0) == 0.0
        assert zero_one(-1, 0.0) == 1.0
        assert zero_one(1, -2.0) == 1.0

    def test_label_validation(self):
        with pytest.raises(InputError):
            hinge(0, 1.0)
        with pytest.raises(InputError):
            zero_one(2, 1.0)

    def test_clip(self):
        assert clip(0.5, 1.0) == 0.5
        assert clip(1.7, 1.0) == 1.0
        assert clip(-3.0, 1.0) == -1.0
        with pytest.raises(InputError):
            clip(1.0, 0.0)

    def test_hinge_convex_and_lipschitz(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            t1, t2, w = rng.uniform(-3, 3, size=3)
            w = abs(w) % 1.0
            mid = w * t1 + (1 - w) * t2
            assert hinge(1, mid) <= w * hinge(1, t1) + (1 - w) * hinge(1, t2) + 1e-12
            assert abs(hinge(-1, t1) - hinge(-1, t2)) <= abs(t1 - t2) + 1e-12


class TestAnalyticSolutions:
    def test_single_point(self):
        # analytic maximizer of a - a^2/2 clipped to [0, 1/2]
        gram = GramMatrix(np.array([[1.0]]))
        model = train(gram, [1], 1.0)
        assert model.dual_coefs[0] == pytest.approx(0.5, abs=1e-10)
        assert model.objective == pytest.approx(0.75, abs=1e-10)
        assert regularized_empirical_risk(model, gram, [1], 1.0) == pytest.approx(0.75, abs=1e-10)
        assert kkt_residual(model, gram, [1]) <= 1e-12

    def test_orthonormal_pair(self):
        gram = GramMatrix(np.eye(2))
        model = train(gram, [1, -1], 0.25)
        assert np.allclose(model.dual_coefs, [1.0, 1.0], atol=1e-10)
        assert model.norm_sq == pytest.approx(2.0, abs=1e-10)
        assert regularized_empirical_risk(model, gram, [1, -1], 0.25) == pytest.approx(0.5, abs=1e-10)
        f = gram.entries @ (model.dual_coefs * np.array([1.0, -1.0]))
        assert np.allclose(f, [1.0, -1.0], atol=1e-10)

    def test_huge_lambda_kills_coefficients(self):
        gram = GramMatrix(np.eye(2))
        model = train(gram, [1, -1], 1e12)
        assert np.all(model.dual_coefs <= 1.0 / (2.0 * 1e12 * 2) + 1e-30)
        assert abs(decision_value_from_gram(model, gram)).max() < 1e-11


def decision_value_from_gram(model, gram):
    return gram.entries @ (model.dual_coefs * model.labels)


class TestSolverProperties:
    def test_monotone_dual_ascent(self):
        rng = np.random.default_rng(10)
        for trial in range(20):
            n = int(rng.integers(2, 8))
            gram = GramMatrix(rand_psd(rng, n))
            y = rng.choice([-1.0, 1.0], size=n)
            model = train(gram, y, 0.1)
            path = np.array(model.objective_path)
            assert np.all(np.diff(path) >= -1e-12)

    def test_norm_bound_from_zero_function(self):
        # lam ||f||^2 <= empirical risk of 0 = 1, so ||f|| <= sqrt(1/lam)
        rng = np.random.default_rng(11)
        for lam in (0.01, 0.1, 1.0, 10.0):
            for _ in range(5):
                n = int(rng.integers(1, 7))
                gram = GramMatrix(rand_psd(rng, n))
                y = rng.choice([-1.0, 1.0], size=n)
                model = train(gram, y, lam)
                assert model.norm_sq <= 1.0 / lam + 1e-9

    def test_norm_monotone_in_lambda(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            gram = GramMatrix(rand_psd(rng, n))
            y = rng.choice([-1.0, 1.0], size=n)
            norms = [train(gram, y, lam).norm_sq for lam in (0.01, 0.1, 1.0, 10.0)]
            assert all(a >= b - 1e-8 for a, b in zip(norms, norms[1:]))

    def test_kkt_residual_alpha_zero(self):
        # gradient of sum(a) at a = 0 is 1 in every coordinate
        gram = GramMatrix(np.eye(3))
        model = SvmModel(np.zeros(3), np.array([1.0, -1.0, 1.0]), 0.1, 1.0, 1.0, True, 0.0, 0, 0.0, 0.0)
        assert kkt_residual(model, gram, [1, -1, 1]) == 1.0

    def test_kkt_invariant_under_permutation(self):
        rng = np.random.default_rng(13)
        k = rand_psd(rng, 5)
        y = rng.choice([-1.0, 1.0], size=5)
        model = train(GramMatrix(k), y, 0.1, max_sweeps=3)
        perm = rng.permutation(5)
        kp = (k[np.ix_(perm, perm)] + k[np.ix_(perm, perm)].T) / 2.0
        mp = SvmModel(
            model.dual_coefs[perm], y[perm], model.lam, model.box_c, 1.0, True, 0.0, 0, 0.0, 0.0
        )
        r1 = kkt_residual(model, GramMatrix(k), y)
        r2 = kkt_residual(mp, GramMatrix(kp), y[perm])
        assert r1 == pytest.approx(r2, rel=1e-10)

    def test_duplicate_bags_rank_deficient_gram(self):
        base = BaseKernel(1.0, 2)
        hk = HilbertKernel(1.0)
        bag = SampleSet(np.array([[0.0, 0.0], [0.3, 0.1]]))
        embs = embed_bags(base, [bag, bag, SampleSet(np.array([[2.0, 2.0]]))])
        gram = build_gram(hk, embs)
        model = train(gram, [1, 1, -1], 0.1)
        assert model.converged
        assert kkt_residual(model, gram, [1, 1, -1]) <= 1e-8

    def test_nonfinite_gram_rejected(self):
        # NaN is not equal to itself, so a NaN Gram is named non-finite ahead of the symmetry check
        k = np.eye(2)
        k[0, 1] = k[1, 0] = np.nan
        with pytest.raises(InputError, match="non-finite"):
            GramMatrix(k)

    def test_non_square_or_asymmetric_gram_rejected(self):
        for k in (np.ones((2, 3)), np.ones(3)):
            with pytest.raises(InputError, match="Gram matrix must be square"):
                GramMatrix(k)
        with pytest.raises(InputError, match="Gram matrix must be symmetric"):
            GramMatrix(np.array([[1.0, 0.5], [0.5 + 2.0**-52, 1.0]]))

    def test_labels_and_support_must_match_the_gram(self):
        gram = GramMatrix(np.eye(3))
        with pytest.raises(InputError, match=re.escape("labels must have shape (3,)")):
            train(gram, [1, -1], 0.1)
        support = embed_bags(BaseKernel(1.0, 2), [SampleSet(np.zeros((1, 2)))] * 2)
        with pytest.raises(InputError, match="support holds 2 embeddings for 3 training labels"):
            train(gram, [1, -1, 1], 0.1, support=support)

    def test_norm_above_the_a_priori_bound_raises(self, monkeypatch):
        # every coefficient at C on K = 100 I gives ||f||^2 = 100 N C^2 = 1250 > 1/lambda = 10
        def all_at_the_wall(k, y, alpha, f, box_c, coords):
            alpha[:] = box_c
            f[:] = k @ (alpha * y)

        monkeypatch.setattr(svm_module._backend, "cd_sweep", all_at_the_wall)
        with pytest.raises(NumericalConsistencyError, match="exceeds the a-priori bound"):
            train(GramMatrix(100.0 * np.eye(2)), [1, -1], 0.1, max_sweeps=1)

    @pytest.mark.parametrize("entry", [0.0, -0.5])
    def test_nonpositive_diagonal_rejected(self, entry):
        # a second-level Gram has a unit diagonal, and a coordinate pass divides by K_ii
        k = np.array([[1.0, 0.0, 0.5], [0.0, entry, 0.0], [0.5, 0.0, 2.0]])
        with pytest.raises(InputError, match="diagonal"):
            train(GramMatrix(k), [1, -1, -1], 0.1)

    def test_nonconvergence_flagged_not_raised(self):
        # one coordinate pass and Newton step cannot find this active set
        gram, y = noisy_points_gram(np.random.default_rng(14), 200)
        model = train(gram, y, 0.001, tol=1e-14, max_sweeps=1)
        assert not model.converged
        assert model.kkt > 1e-14


def noisy_points_gram(rng, n, ridge=0.0):
    """Gaussian Gram of n points in R^3 whose labels follow the first axis with noise."""
    x = rng.normal(size=(n, 3))
    y = np.where(x[:, 0] + 0.5 * rng.normal(size=n) > 0, 1.0, -1.0)
    k = np.exp(-cdist(x, x, "sqeuclidean") / 2.0) + ridge * np.eye(n)
    return GramMatrix(np.tril(k) + np.tril(k, -1).T), y


class TestNewtonSolver:
    def test_rank_deficient_gram_of_duplicate_bags_converges(self):
        # 12 distinct exact embeddings, each three times: Q_FF is singular
        rng = np.random.default_rng(21)
        base = BaseKernel(1.0, 2)
        means = rng.normal(size=(12, 2)) + np.where(np.arange(12) % 2 == 0, 1.0, -1.0)[:, None]
        embs = ExactBatch(base, np.repeat(means, 3, axis=0), np.full(36, 0.3))
        y = np.repeat(np.where(np.arange(12) % 2 == 0, 1.0, -1.0), 3)
        gram = build_gram(HilbertKernel(1.0), embs)
        assert np.linalg.matrix_rank(gram.entries) <= 12
        lams = (0.001, 0.01, 0.1)
        oracle, _ = pgd_dual_objectives([(gram.entries, y, lam) for lam in lams], iters=200_000)
        for lam, target in zip(lams, oracle):
            model = train(gram, y, lam)
            assert model.converged
            assert kkt_residual(model, gram, y) <= 1e-8
            assert np.all(np.diff(model.objective_path) >= -1e-12)
            assert model.objective == pytest.approx(target, rel=1e-6)

    def test_newton_step_that_lowers_the_objective_is_rejected(self, monkeypatch):
        # a path search that walks against the Newton direction lowers the
        # dual; the recomputed gain must refuse the step
        k = rand_psd(np.random.default_rng(22), 5)
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        alpha = np.full(5, 0.5)
        f = k @ (alpha * y)

        def backwards(q, g, a, d, box_c):
            return a - d, True

        monkeypatch.setattr(svm_module, "_box_path_max", backwards)
        before = (alpha.copy(), f.copy())
        assert not _newton_step(k, y, alpha, f, 1e6, np.ones(5, dtype=bool))
        assert np.array_equal(alpha, before[0]) and np.array_equal(f, before[1])
        # the coordinate passes alone still reach the optimum, monotonically
        model = train(GramMatrix(k), y, 0.01)
        assert model.converged
        assert np.all(np.diff(model.objective_path) >= -1e-12)

    def test_path_search_stops_at_the_maximum_along_the_path(self):
        # a direction 10x too long is cut back to the Newton point
        k = rand_psd(np.random.default_rng(25), 5)
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        q = k * np.outer(y, y)
        a, g = np.full(5, 0.5), np.ones(5) - q @ np.full(5, 0.5)
        newton = np.linalg.solve(q, g)
        x, whole = _box_path_max(q, g, a, 10.0 * newton, 1e6)
        assert not whole
        np.testing.assert_allclose(x, a + newton, rtol=1e-10)

    def test_sweep_cap_reported_not_raised(self):
        gram, y = noisy_points_gram(np.random.default_rng(23), 120)
        for cap in (1, 2, 3):
            model = train(gram, y, 0.001, max_sweeps=cap)
            assert not model.converged
            assert model.sweeps == cap == len(model.objective_path)
            assert model.kkt > 1e-8
            assert model.kkt == pytest.approx(kkt_residual(model, gram, y), rel=1e-9)
        assert train(gram, y, 0.001).converged

    def test_against_pgd_on_larger_instances(self):
        rng = np.random.default_rng(2024)
        instances = []
        for n in (20, 40, 60):
            for lam in (0.003, 0.01, 0.03):
                gram, y = noisy_points_gram(rng, n, ridge=0.05)
                instances.append((gram.entries, y, lam))
        oracle, _ = pgd_dual_objectives(instances, iters=100_000)
        seen = np.zeros(3, dtype=bool)  # some coefficient at 0, at C, strictly between
        for (k, y, lam), target in zip(instances, oracle):
            model = train(GramMatrix(k), y, lam, tol=1e-10)
            assert model.converged
            assert model.objective == pytest.approx(target, rel=1e-6)
            a, c = model.dual_coefs, model.box_c
            seen |= [(a == 0.0).any(), (a == c).any(), ((a > 0.0) & (a < c)).any()]
        assert seen.all()


class TestDualPrimalAgainstOracles:
    def test_against_pgd_and_grid(self):
        # smaller spot check; the acceptance suite runs the full 200-instance gate
        rng = np.random.default_rng(99)
        instances = []
        for trial in range(24):
            n = int(rng.integers(1, 7))
            k = rand_psd(rng, n)
            y = rng.choice([-1.0, 1.0], size=n)
            instances.append((k, y, [0.01, 0.1, 1.0][trial % 3]))
        oracle, _ = pgd_dual_objectives(instances, iters=200_000)
        for (k, y, lam), target in zip(instances, oracle):
            model = train(GramMatrix(k), y, lam, tol=1e-10)
            assert model.objective == pytest.approx(target, abs=1e-6)
            assert kkt_residual(model, GramMatrix(k), y) <= 1e-6
            if k.shape[0] <= 3:
                assert model.objective == pytest.approx(primal_grid_min(k, y, lam), abs=1e-5)


class TestDecisionAndPrediction:
    def setup_method(self):
        self.base = BaseKernel(1.0, 2)
        self.hk = HilbertKernel(1.0)
        rng = np.random.default_rng(5)
        self.embs = embed_bags(
            self.base, [SampleSet(rng.normal(size=(3, 2)) + (2.0 if i % 2 == 0 else -2.0)) for i in range(6)]
        )
        self.labels = np.array([1.0, -1.0] * 3)
        self.gram = build_gram(self.hk, self.embs)
        self.model = train(self.gram, self.labels, 0.1, support=self.embs, hkernel=self.hk)

    def test_zero_coefficients_give_zero(self):
        m0 = SvmModel(
            np.zeros(6), self.labels, 0.1, 1.0, 1.0, True, 0.0, 0, 0.0, 0.0,
            support=self.embs, hkernel=self.hk,
        )
        assert decision_value(m0, self.embs.take([0])) == 0.0

    def test_single_point_model_at_support(self):
        gram = GramMatrix(np.array([[1.0]]))
        e = embed(self.base, SampleSet(np.array([[0.0, 0.0]])))
        model = train(gram, [1], 1.0, support=e, hkernel=self.hk)
        assert decision_value(model, e) == pytest.approx(0.5, abs=1e-10)

    def test_linear_in_coefficients(self):
        doubled = SvmModel(
            2.0 * self.model.dual_coefs, self.labels, 0.1, 1.0, 1.0, True, 0.0, 0, 0.0, 0.0,
            support=self.embs, hkernel=self.hk,
        )
        e = embed(self.base, SampleSet(np.array([[0.5, 0.5]])))
        assert decision_value(doubled, e) == pytest.approx(2.0 * decision_value(self.model, e), rel=1e-12)

    def test_predict_sign_convention_and_clip_neutrality(self):
        assert sgn(0.0) == 1.0
        for t in np.linspace(-3, 3, 25):
            assert sgn(clip(t, 1.0)) == sgn(t)
        val = decision_value(self.model, embed(self.base, SampleSet(np.array([[2.0, 0.0]]))))
        label = sgn(clip(val, self.model.clip_bound))  # the label `tsk predict` writes
        assert label in (-1, 1)
        assert label == sgn(val)

    def test_clipped_risk_never_larger(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            gram = GramMatrix(rand_psd(rng, n))
            y = rng.choice([-1.0, 1.0], size=n)
            model = train(gram, y, float(rng.uniform(0.01, 1.0)))
            clipped = regularized_empirical_risk(model, gram, y, model.lam, clipped=True)
            unclipped = regularized_empirical_risk(model, gram, y, model.lam, clipped=False)
            assert clipped <= unclipped + 1e-12

    def test_zero_function_hinge_risk_is_one(self):
        m0 = SvmModel(np.zeros(6), self.labels, 0.1, 1.0, 1.0, True, 0.0, 0, 0.0, 0.0)
        assert regularized_empirical_risk(m0, self.gram, self.labels, 0.1) == pytest.approx(1.0)

    def test_model_json_roundtrip(self):
        blob = json.dumps(model_to_json(self.model))
        loaded = model_from_json(json.loads(blob))
        e = embed(self.base, SampleSet(np.array([[1.5, -0.5], [2.5, 0.5]])))
        assert decision_value(loaded, e) == pytest.approx(decision_value(self.model, e), rel=1e-12)

    def test_uniform_weights_are_omitted_and_restored_bit_for_bit(self):
        data = json.loads(json.dumps(model_to_json(self.model)))
        assert all(set(rec) == {"samples"} for rec in data["support"])
        loaded = model_from_json(data).support
        assert all(np.array_equal(getattr(loaded, f), getattr(self.embs, f)) for f in ("points", "weights", "offsets"))

    def test_nonuniform_weights_are_not_written(self):
        # a model file holds bags of weights 1/m, so a bag weighted otherwise has no record
        weights = np.random.default_rng(8).uniform(0.1, 1.0, size=len(self.embs.points))
        embs = EmpiricalBatch(self.base, self.embs.points, weights, self.embs.offsets)
        model = train(build_gram(self.hk, embs), self.labels, 0.1, support=embs, hkernel=self.hk)
        with pytest.raises(UnsupportedError, match="weighted otherwise"):
            model_to_json(model)

    def test_support_other_than_bags_is_not_written(self):
        # exact and point support have no record in a model file
        points = np.array([[2.0, 0.0], [-2.0, 0.0]] * 3)
        for kind, support in {"ExactBatch": ExactBatch(self.base, points, np.full(6, 0.3)), "PointBatch": PointBatch(points)}.items():
            model = train(build_gram(self.hk, support), self.labels, 0.1, support=support, hkernel=self.hk)
            with pytest.raises(UnsupportedError, match=kind):
                model_to_json(model)

    def test_model_without_support_neither_decides_nor_is_written(self):
        model = train(self.gram, self.labels, 0.1)
        for use in (lambda: decision_values(model, self.embs), lambda: model_to_json(model)):
            with pytest.raises(InputError, match="carries no support embeddings"):
                use()

    def test_no_gram_of_zero_embeddings(self):
        with pytest.raises(InputError, match="zero embeddings"):
            build_gram(self.hk, embed_bags(self.base, []))

    def test_decision_values_batch_matches_scalar(self):
        rng = np.random.default_rng(15)
        tests = embed_bags(self.base, [SampleSet(rng.normal(size=(2, 2))) for _ in range(5)])
        batch = decision_values(self.model, tests)
        for i, b in enumerate(batch):
            assert b == pytest.approx(decision_value(self.model, tests.take([i])), rel=1e-12)


def _valid_model_json():
    base = BaseKernel(1.0, 2)
    hk = HilbertKernel(1.0)
    rng = np.random.default_rng(7)
    embs = embed_bags(base, [SampleSet(rng.normal(size=(3, 2)) + (2.0 if i % 2 == 0 else -2.0)) for i in range(4)])
    labels = [1, -1, 1, -1]
    model = train(build_gram(hk, embs), labels, 0.1, support=embs, hkernel=hk)
    return model_to_json(model)


VALID_MODEL = _valid_model_json()
COUNTED = ("dual_coefs", "labels", "support")


@st.composite
def corrupted_models(draw):
    """A copy of VALID_MODEL with one corruption model_from_json must reject. The kinds of one
    field's value (a coefficient, lambda, clip_bound, a string or boolean in any field, the samples)
    are left to the generated fuzz of tests/test_config.py."""
    data = copy.deepcopy(VALID_MODEL)
    n = len(data["dual_coefs"])
    index = st.integers(0, n - 1)
    kind = draw(st.sampled_from(["count", "empty", "label"]))
    if kind == "count":
        field = draw(st.sampled_from(COUNTED))
        if draw(st.booleans()):
            del data[field][draw(index)]
        else:
            data[field].append(data[field][draw(index)])
    elif kind == "empty":
        for field in COUNTED:
            data[field] = []
    else:
        data["labels"][draw(index)] = draw((st.integers() | st.floats()).filter(lambda v: v not in (-1, 1)))
    return data


class TestModelJsonValidation:
    def test_valid_model_loads(self):
        model = model_from_json(copy.deepcopy(VALID_MODEL))
        assert len(model.support) == len(model.dual_coefs) == 4

    def test_records_of_other_support_are_refused(self):
        # weights, and the (mean, spread) record of an exact embedding, are no fields of a support bag
        weighted, exact = copy.deepcopy(VALID_MODEL), copy.deepcopy(VALID_MODEL)
        weighted["support"][0]["weights"] = [1.0 / 3] * 3
        exact["support"][0] = {"mean": [2.0, 0.0], "spread": 0.3}
        for data, message in ((weighted, "unknown field support[0].weights"), (exact, "missing field support[0].samples")):
            with pytest.raises(InputError, match=re.escape(message)):
                model_from_json(data)

    @settings(max_examples=300, deadline=None)
    @given(corrupted_models())
    def test_every_corruption_is_an_input_error(self, data):
        with pytest.raises(InputError):
            model_from_json(data)
