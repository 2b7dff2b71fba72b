import math
from unittest import mock

import numpy as np
import pytest

from tsk import (
    CovarianceOperator,
    MetaDistribution,
    characteristic_identity_check,
    feature_inner_mc,
    fit_noise_exponent,
    geometric_noise_integrals,
    white_noise_isometry_check,
)
from tsk.errors import InputError
from tsk.rng import normals, stream
from tsk.whitenoise import canonical_surjection_eval, fit_geometric_noise, random_covariance

from oracles import covariance_matrix, i2_inner_closed_form, loglog_lsq_slope, noise_terms_one_t

Q_DIAG = CovarianceOperator(np.array([1.0, 0.5]), np.eye(2))
HM5 = MetaDistribution("hard_margin", 5, 2.0, 0.25, 0.0, 0.5, margin=1.0)
Q5 = CovarianceOperator(np.array([1.0, 0.8, 0.6, 0.4, 0.2]), np.eye(5))


class TestCovarianceOperator:
    def test_basic_validation(self):
        with pytest.raises(InputError):
            CovarianceOperator(np.array([1.0, 0.0]), np.eye(2))
        with pytest.raises(InputError):
            CovarianceOperator(np.array([1.0, 1.0]), np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_matrix_roundtrip_through_constructor(self):
        q = random_covariance(4, 123)
        q2 = CovarianceOperator(*np.linalg.eigh(covariance_matrix(q)))
        assert np.abs(covariance_matrix(q2) - covariance_matrix(q)).max() <= 1e-10

    def test_sample_covariance(self):
        q = random_covariance(3, 7)
        z = q.sample(stream(5, "cov-test"), 200_000)
        emp = z.T @ z / z.shape[0]
        assert np.abs(emp - covariance_matrix(q)).max() <= 0.05


class TestWhiteNoise:
    # W_h(z) = <Q^{-1/2} h, z>
    def test_zero_vector(self):
        assert Q_DIAG.wn_coeff(np.zeros(2)) @ np.array([1.0, -3.0]) == 0.0

    def test_identity_covariance_is_plain_inner(self):
        q = CovarianceOperator(np.ones(3), np.eye(3))
        h, z = np.array([1.0, 2.0, -1.0]), np.array([0.5, 0.5, 2.0])
        assert q.wn_coeff(h) @ z == pytest.approx(float(h @ z), abs=1e-12)

    def test_diagonal_rescaling(self):
        # Q^{-1/2} h = (1, sqrt(2)) for h = (1, 1), Q = diag(1, 1/2)
        val = Q_DIAG.wn_coeff(np.array([1.0, 1.0])) @ np.array([1.0, 1.0])
        assert val == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-12)

    def test_isometry_orthogonal_vectors(self):
        r = white_noise_isometry_check(np.array([1.0, 0.0]), np.array([0.0, 1.0]), Q_DIAG, 50_000, 3)
        assert r.target == 0.0 and r.passed

    def test_isometry_self_norm(self):
        h = np.array([0.7, -1.1])
        r = white_noise_isometry_check(h, h, Q_DIAG, 50_000, 4)
        assert r.target == pytest.approx(float(h @ h))
        assert r.passed

    def test_isometry_bilinear_scaling(self):
        h1, h2 = np.array([0.3, 0.4]), np.array([1.0, -1.0])
        r1 = white_noise_isometry_check(h1, h2, Q_DIAG, 10_000, 5)
        r2 = white_noise_isometry_check(2.0 * h1, h2, Q_DIAG, 10_000, 5)
        assert r2.target == pytest.approx(2.0 * r1.target, rel=1e-12)
        assert r2.estimate == pytest.approx(2.0 * r1.estimate, rel=1e-12)


class TestCharacteristicIdentity:
    def test_zero_vector_exact(self):
        r = characteristic_identity_check(np.zeros(2), 1.3, Q_DIAG, 2000, 1)
        assert r.estimate == 1.0 and r.target == 1.0 and r.passed

    def test_reference_case(self):
        # W_h ~ N(0, ||h||^2) exactly, so the target is e^-1 at lam = 1
        h = np.array([1.0, 1.0])
        r = characteristic_identity_check(h, 1.0, Q_DIAG, 100_000, 2)
        assert r.target == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert r.passed
        assert abs(r.extras["imag_estimate"]) <= 4.0 * r.extras["imag_std_error"]

    def test_even_in_lambda(self):
        h = np.array([0.5, -0.2])
        r1 = characteristic_identity_check(h, 0.8, Q_DIAG, 5000, 9)
        r2 = characteristic_identity_check(h, -0.8, Q_DIAG, 5000, 9)
        assert r1.estimate == r2.estimate


class TestFeatureSpace:
    def test_coincident_points_exact(self):
        x = np.array([0.4, 0.6])
        r = feature_inner_mc(x, x, 1.0, Q_DIAG, 2000, 3)
        assert r.estimate == 1.0 and r.std_error == 0.0 and r.passed

    def test_unit_separation(self):
        r = feature_inner_mc(np.zeros(2), np.array([1.0, 0.0]), 1.0, Q_DIAG, 200_000, 5)
        assert r.target == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert r.passed

    def test_target_independent_of_covariance(self):
        x, xp = np.array([0.2, -0.3]), np.array([-0.5, 0.4])
        qa = random_covariance(2, 11)
        qb = random_covariance(2, 12)
        ra = feature_inner_mc(x, xp, 0.8, qa, 150_000, 6)
        rb = feature_inner_mc(x, xp, 0.8, qb, 150_000, 7)
        assert ra.target == rb.target
        assert abs(ra.estimate - rb.estimate) <= 4.0 * math.hypot(ra.std_error, rb.std_error)


class TestCanonicalSurjection:
    def test_zero_function(self):
        est, se = canonical_surjection_eval(lambda z: np.zeros(len(z)), np.array([1.0, 0.0]), 1.0, Q_DIAG, 2000, 1)
        assert est == 0.0 and se == 0.0

    def test_reproducing_identity(self):
        # applying the surjection to the feature of x' returns k(x, x')
        x, xp = np.array([0.3, 0.3]), np.array([-0.4, 0.2])
        lam = math.sqrt(2.0)
        wn = Q_DIAG.wn_coeff(xp)
        est, se = canonical_surjection_eval(
            lambda z: np.exp(1j * lam * (z @ wn)), x, 1.0, Q_DIAG, 200_000, 8
        )
        target = math.exp(-float(np.sum((x - xp) ** 2)))
        assert abs(est - target) <= 4.0 * se

    def test_linear_in_g_bitwise_with_shared_seed(self):
        # a power-of-two scale keeps every intermediate rounding identical
        x = np.array([0.1, 0.9])
        g = lambda z: np.exp(1j * (z @ np.array([0.5, -0.5])))
        e1, _ = canonical_surjection_eval(g, x, 1.0, Q_DIAG, 5000, 21)
        e2, _ = canonical_surjection_eval(lambda z: 4.0 * g(z), x, 1.0, Q_DIAG, 5000, 21)
        assert e2 == 4.0 * e1


class TestGeometricNoise:
    def test_pure_noise_problem_zero(self):
        with mock.patch("tsk.whitenoise.eta_batch", return_value=np.full(50, 0.5)):
            r = geometric_noise_integrals(HM5, [1.0], Q5, 50, 200, 3)
        assert r.i1[0] == 0.0 and r.i2[0] == 0.0

    def test_shared_seed_monotonicity(self):
        rs = [geometric_noise_integrals(HM5, [t], Q5, 200, 400, 7) for t in (1.0, 0.5, 0.25)]
        i2 = [r.i2[0] for r in rs]
        assert i2[0] > i2[1] > i2[2]
        i1 = [r.i1[0] for r in rs]
        assert i1[0] < i1[1] < i1[2]

    def test_terms_monotone_along_the_grid_point_by_point(self):
        # the inner draws are shared across the grid, and the per-entry divide,
        # exp and fixed-order mean keep their order, so no tolerance is needed
        r = geometric_noise_integrals(HM5, [0.25, 0.5, 1.0, 1.0, 2.0, 4.0], Q5, 1000, 100, 99)
        assert np.all(np.diff(r.terms1, axis=0) <= 0.0)
        assert np.all(np.diff(r.terms2, axis=0) >= 0.0)

    def test_term_bounds(self):
        r = geometric_noise_integrals(HM5, [0.7], Q5, 100, 300, 9)
        assert np.all(r.terms1 >= -1.0) and np.all(r.terms1 <= 1.0)
        assert np.all(r.terms2 >= 0.0) and np.all(r.terms2 <= 1.0)

    def test_i2_against_closed_inner(self):
        # same outer draws, inner replaced by the exact Gaussian integral
        from tsk.synth import eta_batch as eb, sample_first_stage

        n_outer = 400
        t2 = geometric_noise_integrals(HM5, [0.5], Q5, n_outer, 500, 11).terms2[0]
        means, _ = sample_first_stage(HM5, n_outer, 11)
        w = np.abs(2.0 * eb(HM5, means) - 1.0)
        exact_terms = np.array(
            [i2_inner_closed_form(x, 0.5, Q5.eigenvalues, Q5.eigenvectors) for x in means]
        ) * w
        diff = t2 - exact_terms
        assert abs(diff.mean()) <= 4.0 * diff.std(ddof=1) / math.sqrt(n_outer)

    def test_input_validation(self):
        with pytest.raises(InputError):
            geometric_noise_integrals(HM5, [0.0], Q5, 10, 10, 1)
        with pytest.raises(InputError):
            geometric_noise_integrals(HM5, [1.0], Q_DIAG, 10, 10, 1)

    def test_grid_call_equals_single_t_calls(self):
        grid = (2.0, 1.0, 1.0, 0.25)  # a repeated t must give repeated rows
        r = geometric_noise_integrals(HM5, grid, Q5, 60, 300, 17)
        assert r.i1.shape == r.i2.shape == (len(grid),) and r.terms1.shape == r.terms2.shape == (len(grid), 60)
        fields = ("t", "i1", "i1_se", "i2", "i2_se", "terms1", "terms2")
        for j, t in enumerate(grid):
            one = geometric_noise_integrals(HM5, [t], Q5, 60, 300, 17)
            for name in fields:
                assert np.all(getattr(r, name)[j] == getattr(one, name)[0]), name
            ref1, ref2 = noise_terms_one_t(HM5, t, Q5, 60, 300, 17)
            assert np.all(one.terms1[0] == ref1) and np.all(one.terms2[0] == ref2)

    def test_grid_validation(self):
        for bad in (1.0, [], [1.0, -0.5], [[1.0, 0.5]], [1.0, math.nan]):
            with pytest.raises(InputError):
                geometric_noise_integrals(HM5, bad, Q5, 10, 10, 1)

    def test_fit_opens_one_inner_stream_per_outer_point(self):
        from tsk import whitenoise

        opened = []

        def counting_stream(seed, *path):
            opened.append(path)
            return stream(seed, *path)

        with mock.patch.object(whitenoise, "stream", counting_stream):
            fit_geometric_noise(HM5, Q5, [2.0, 1.0, 0.5, 0.25], 40, 50, 13)
        assert sum(path[0] == "noise-inner" for path in opened) == 40

    @pytest.mark.parametrize(
        "grid, floor",
        [([2.0, 1.0, 0.5, -1.0], 1e-12), ([2.0, 1.0], 1e-12), ([2.0, math.inf, 0.5], 1e-12), ([2.0, 1.0, 0.5], math.inf)],
    )
    def test_fit_rejects_grid_before_sampling(self, grid, floor):
        with mock.patch("tsk.whitenoise.geometric_noise_integrals") as integrals:
            with pytest.raises(InputError):
                fit_geometric_noise(HM5, Q5, grid, 40, 50, 13, floor=floor)
        integrals.assert_not_called()


class TestNoiseExponentFit:
    def test_exact_linear_law(self):
        f = fit_noise_exponent([1.0, 0.5, 0.25], [1.0, 0.5, 0.25])
        assert f.alpha_hat == pytest.approx(1.0, abs=1e-12)
        assert f.c_hat == pytest.approx(1.0, abs=1e-12)
        assert f.valid and not f.degenerate

    def test_exact_quadratic_law(self):
        t = np.array([1.0, 0.5, 0.25])
        f = fit_noise_exponent(t, 2.0 * t**2)
        assert f.alpha_hat == pytest.approx(2.0, abs=1e-12)
        assert f.c_hat == pytest.approx(2.0, abs=1e-12)

    def test_mixed_law_matches_hand_least_squares(self):
        t = np.array([1.0, 0.5, 0.25])
        i = t + t**2
        f = fit_noise_exponent(t, i)
        slope = loglog_lsq_slope(t, i)
        assert f.alpha_hat == pytest.approx(slope, abs=1e-12)
        assert f.c_hat == pytest.approx(np.max(i / t**slope), rel=1e-12)
        # the covering constant really covers the grid
        assert np.all(i <= f.c_hat * t**f.alpha_hat + 1e-12)

    def test_degenerate_below_floor(self):
        f = fit_noise_exponent([1.0, 0.5, 0.25], [0.0, 0.0, 0.0], floor=1e-12)
        assert f.degenerate and not f.valid

    def test_increasing_values_fit_invalid(self):
        f = fit_noise_exponent([1.0, 0.5, 0.25], [0.5, 0.7, 0.9])
        assert not f.degenerate and not f.valid
        assert f.alpha_hat < 0

    def test_grid_validation(self):
        with pytest.raises(InputError):
            fit_noise_exponent([1.0, 0.5], [1.0, 0.5])
        with pytest.raises(InputError):
            fit_noise_exponent([1.0, -0.5, 0.25], [1.0, 0.5, 0.2])


def test_fit_geometric_noise_smoke():
    fit = fit_geometric_noise(HM5, Q5, [2.0, 1.0, 0.5, 0.25], 150, 200, 13)
    assert len(fit.i1_values) == 4 and len(fit.i2_values) == 4
    assert np.all(np.maximum(fit.i1_values, fit.i2_values) <= fit.c_hat * np.array(fit.t_grid) ** fit.alpha_hat + 1e-9)
