import json
import math
from dataclasses import replace

import numpy as np
import pytest

from tsk import (
    BaseKernel,
    HilbertKernel,
    MetaDistribution,
    approx_error_estimate,
    consistency_check,
    fit_approx_exponent,
    make_schedule,
    oracle_rhs,
)
from tsk.bounds import ApproxErrorEstimate, OracleTerms, approx_error_summary
from tsk.errors import InputError
from tsk.svm import train
from tsk.hilbert_kernel import HolderModulus

MOD = HolderModulus(math.sqrt(2.0), 1.0)


def spreadsheet_rhs(n, lam, tau, a, gap, c, b, m, ck, alpha, llip=1.0, ksup=1.0):
    """Term-by-term evaluation, written out independently of the library."""
    t1 = 9.0 * a
    t2 = 9.0 * gap
    t3 = c * llip**2 * ksup * math.log(n) / (n * lam)
    t4 = 300.0 * b * tau / math.sqrt(n)
    t5 = 15.0 * (tau / n) * llip * ksup * math.sqrt(a / lam)
    delta = math.exp(-tau) / n
    bound = 2.0 * math.sqrt(ksup**2 / m) + math.sqrt(2.0 * ksup * math.log(1.0 / delta) / m)
    alpha_lam = (llip * math.sqrt(a / lam) + llip * math.sqrt(b / lam)) * ck * bound**alpha
    t6 = 3.0 * alpha_lam
    return (t1, t2, t3, t4, t5, t6)


class TestOracleRhs:
    def test_reference_fixture(self):
        terms = OracleTerms(
            n=100, lam=0.1, tau=1.0, bag_sizes=(10**4,) * 100, modulus=MOD,
            approx_error=0.05, universal_c=100.0,
        )
        rhs = oracle_rhs(terms)
        t1, t2, t3, t4, t5, t6 = spreadsheet_rhs(
            100, 0.1, 1.0, 0.05, 0.0, 100.0, 2.0, 10**4, math.sqrt(2.0), 1.0
        )
        assert rhs.approx == pytest.approx(t1, rel=1e-12)
        assert rhs.gap == t2
        assert rhs.estimation == pytest.approx(t3, rel=1e-12)
        assert rhs.confidence == pytest.approx(t4, rel=1e-12)
        assert rhs.shift == pytest.approx(t5, rel=1e-12)
        assert rhs.embedding == pytest.approx(t6, rel=1e-12)
        assert rhs.total == pytest.approx(sum((t1, t2, t3, t4, t5, t6)), rel=1e-12)

    def test_total_is_exact_sum_of_terms(self):
        terms = OracleTerms(
            n=64, lam=0.05, tau=2.0, bag_sizes=tuple([100] * 32 + [400] * 32), modulus=MOD,
            approx_error=0.2, bayes_gap=0.01,
        )
        rhs = oracle_rhs(terms)
        assert rhs.total == rhs.approx + rhs.gap + rhs.estimation + rhs.confidence + rhs.shift + rhs.embedding

    def test_vanishing_terms_at_zero_approx_and_huge_bags(self):
        terms = OracleTerms(
            n=100, lam=0.1, tau=1.0, bag_sizes=(10**20,) * 100, modulus=MOD, approx_error=0.0,
        )
        rhs = oracle_rhs(terms)
        assert rhs.approx == 0.0 and rhs.shift == 0.0
        assert rhs.embedding < 1e-7
        assert rhs.total == pytest.approx(rhs.estimation + rhs.confidence, abs=1e-7)

    def test_monotone_in_tau(self):
        def total(tau):
            return oracle_rhs(
                OracleTerms(n=50, lam=0.1, tau=tau, bag_sizes=(100,) * 50, modulus=MOD, approx_error=0.1)
            ).total

        vals = [total(t) for t in (1.0, 1.5, 2.0, 4.0, 8.0)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_input_validation(self):
        with pytest.raises(InputError):
            OracleTerms(n=1, lam=0.1, tau=1.0, bag_sizes=(10,), modulus=MOD, approx_error=0.0)
        with pytest.raises(InputError):
            OracleTerms(n=10, lam=0.0, tau=1.0, bag_sizes=(10,) * 10, modulus=MOD, approx_error=0.0)
        with pytest.raises(InputError):
            OracleTerms(n=10, lam=0.1, tau=0.5, bag_sizes=(10,) * 10, modulus=MOD, approx_error=0.0)


class TestConsistencyCheck:
    def test_reference_schedule_passes(self):
        # the last < first/10 heuristic needs a grid long enough for ln N / sqrt(N)
        n = np.array([10.0, 1000.0, 10000.0, 100000.0])
        rep = consistency_check(n, n**-0.5, n**2, MOD)
        assert rep.estimation_ok and rep.embedding_ok and rep.ok

    def test_too_fast_lambda_decay_fails_first(self):
        n = np.array([10.0, 100.0, 1000.0, 10000.0])
        rep = consistency_check(n, 1.0 / n, n**2, MOD)
        assert not rep.estimation_ok  # ln N / (N lam) = ln N diverges

    def test_constant_bags_fail_second(self):
        n = np.array([10.0, 100.0, 1000.0, 10000.0])
        rep = consistency_check(n, n**-0.5, np.full(4, 50.0), MOD)
        assert not rep.embedding_ok

    def test_grid_length_validation(self):
        with pytest.raises(InputError):
            consistency_check([10, 100, 1000], [0.1, 0.01, 0.001], [10, 10, 10], MOD)


class TestSchedules:
    def test_thm45_values(self):
        s = make_schedule("thm45", [10, 100], alpha=1.0, beta=1.0)
        assert s.lam[1] == pytest.approx(0.1, abs=1e-12)  # 100^(-1/2)
        assert s.bag_sizes[0] == 100  # ceil(10^2)
        assert s.gamma is None

    def test_thm55_values(self):
        s = make_schedule("thm55", [16, 32], alpha=1.0, mu=0.25)
        assert s.gamma[0] == pytest.approx(0.5, abs=1e-12)  # 16^(-1/4)
        assert s.lam[0] == pytest.approx(0.25, abs=1e-12)

    def test_monotone_invariants(self):
        s = make_schedule("thm55", [8, 16, 64, 256], alpha=1.5, mu=0.3)
        assert all(a > b for a, b in zip(s.lam, s.lam[1:]))
        assert all(a <= b for a, b in zip(s.bag_sizes, s.bag_sizes[1:]))
        assert all(a > b for a, b in zip(s.gamma, s.gamma[1:]))
        assert all(isinstance(m, int) for m in s.bag_sizes)

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            make_schedule("thm45", [10, 100], alpha=1.0, beta=1.5)
        with pytest.raises(InputError):
            make_schedule("thm45", [10, 100], alpha=2.5, beta=0.5)
        with pytest.raises(InputError):
            make_schedule("thm55", [10, 100], alpha=1.0, mu=0.0)
        with pytest.raises(InputError):
            make_schedule("thm55", [100, 10], alpha=1.0, mu=0.5)
        with pytest.raises(InputError):
            make_schedule("thm99", [10, 100], alpha=1.0)


class TestApproxExponentFit:
    def test_exact_identity_law(self):
        est = ApproxErrorEstimate((0.25, 0.5, 1.0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0.25, 0.5, 1.0))
        c, beta, degenerate = fit_approx_exponent(est)
        assert (c, beta) == (pytest.approx(1.0), pytest.approx(1.0))
        assert not degenerate

    def test_exact_sqrt_law(self):
        lam = np.array([0.25, 0.5, 1.0])
        est = ApproxErrorEstimate(tuple(lam), (0,) * 3, (0,) * 3, (0,) * 3, tuple(3.0 * lam**0.5))
        c, beta, _ = fit_approx_exponent(est)
        assert beta == pytest.approx(0.5, abs=1e-12)
        assert c == pytest.approx(3.0, rel=1e-12)

    def test_superlinear_clamps_to_one(self):
        lam = np.array([0.25, 0.5, 1.0])
        est = ApproxErrorEstimate(tuple(lam), (0,) * 3, (0,) * 3, (0,) * 3, tuple(lam**1.5))
        c, beta, degenerate = fit_approx_exponent(est)
        assert beta == 1.0 and not degenerate
        assert np.all(lam**1.5 <= c * lam**1.0 + 1e-12)

    def test_degenerate_flag(self):
        est = ApproxErrorEstimate((0.25, 0.5, 1.0), (0,) * 3, (0,) * 3, (0,) * 3, (0.0, 0.0, 0.1))
        _, _, degenerate = fit_approx_exponent(est)
        assert degenerate


HM = MetaDistribution("hard_margin", 2, 2.0, 0.25, 0.5, 0.5, margin=1.0)
BASE = BaseKernel("gaussian", 1.0, 2)
HK = HilbertKernel("gaussian", 1.0)


class TestApproxErrorEstimate:
    def test_basic_properties(self):
        est = approx_error_estimate(HM, HK, [0.01, 0.1, 1.0], 200, "exact", 5, base_kernel=BASE)
        assert all(a >= 0.0 for a in est.ahat)
        assert all(a <= 1.0 + 1e-9 for a in est.ahat)  # zero function feasibility
        assert est.ahat[0] <= est.ahat[-1] + 1e-9  # monotone up to noise at this scale

    def test_deterministic(self):
        a = approx_error_estimate(HM, HK, [0.01, 0.1], 100, "exact", 9, base_kernel=BASE)
        b = approx_error_estimate(HM, HK, [0.01, 0.1], 100, "exact", 9, base_kernel=BASE)
        assert a.ahat == b.ahat and a.test_risks == b.test_risks

    def test_reports_convergence_per_lambda(self):
        est = approx_error_estimate(HM, HK, [0.001, 0.1], 200, "exact", 4, base_kernel=BASE)
        out = est.to_json()
        assert out["converged"] == [True, True]
        assert len(out["kkt"]) == 2 and all(0.0 <= r <= 1e-8 for r in out["kkt"])
        assert json.dumps(out) == json.dumps(approx_error_estimate(HM, HK, [0.001, 0.1], 200, "exact", 4, base_kernel=BASE).to_json())

    def test_reports_an_unconverged_solve(self, monkeypatch):
        from tsk import bounds

        monkeypatch.setattr(bounds, "train", lambda *args, **kwargs: replace(train(*args, **kwargs), converged=False, kkt=0.25))
        est = approx_error_estimate(HM, HK, [0.01], 50, "exact", 4, base_kernel=BASE)
        assert est.converged == (False,) and est.kkt == (0.25,)

    def test_empirical_bags_path(self):
        est = approx_error_estimate(HM, HK, [0.1], 60, 30, 3, base_kernel=BASE)
        assert len(est.ahat) == 1 and est.ahat[0] >= 0.0

    def test_mean_input_space(self):
        meta5 = MetaDistribution("hard_margin", 5, 2.0, 0.25, 0.0, 0.5, margin=1.0)
        est = approx_error_estimate(meta5, HilbertKernel("gaussian", 0.5), [0.01, 0.1], 150, "exact", 7, input_space="mean")
        assert all(a >= 0.0 for a in est.ahat)

    def test_summary_over_seeds(self):
        out = approx_error_summary(HM, HK, [0.01, 0.1], 80, "exact", [1, 2, 3], base_kernel=BASE)
        assert len(out["ahat_mean"]) == 2 and len(out["ahat_se"]) == 2
        assert all(se >= 0.0 for se in out["ahat_se"])

    def test_validation(self):
        with pytest.raises(InputError):
            approx_error_estimate(HM, HK, [], 100, "exact", 1, base_kernel=BASE)
        with pytest.raises(InputError):
            approx_error_estimate(HM, HK, [0.1], 100, "exact", 1)  # kme needs a base kernel
        with pytest.raises(InputError):
            approx_error_estimate(HM, HK, [0.1], 100, "exact", 1, base_kernel=BASE, input_space="identity")
