import json
import math
from pathlib import Path

import numpy as np
import pytest

from tsk import (
    BaseKernel,
    ExperimentConfig,
    HilbertKernel,
    MetaDistribution,
    estimate_risks,
    run_kme_coverage,
    run_rate_experiment,
)
from tsk.errors import InputError
from tsk.experiments import CSV_COLUMNS, rate_report_csv
from tsk.kme import exact_gaussian_embedding
from tsk.svm import SvmModel, build_gram, decision_values, train

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

HM = MetaDistribution("hard_margin", 2, 2.0, 0.25, 0.5, 0.5, margin=1.0)
BASE = BaseKernel("gaussian", 1.0, 2)
HK = HilbertKernel("gaussian", 1.0)


def smoke_config(**overrides):
    cfg = ExperimentConfig(
        meta=HM,
        base_kernel=BASE,
        hkernel=HK,
        schedule_kind="thm55",
        alpha=1.0,
        mu=0.25,
        n_grid=(8,),
        replicates=1,
        test_bags=300,
        seed=11,
        train_embedding="empirical",
        bayes_mc=2000,
    )
    if overrides:
        from dataclasses import replace

        cfg = replace(cfg, **overrides)
    return cfg


def trained_separating_model(n=32, seed=3):
    from tsk.rng import subseed
    from tsk.synth import sample_first_stage

    means, labels = sample_first_stage(HM, n, subseed(seed, "fit"))
    embs = [exact_gaussian_embedding(BASE, m, HM.bag_spread) for m in means]
    gram = build_gram(HK, embs)
    return train(gram, labels, 0.1, support=embs, hkernel=HK)


class TestEstimateRisks:
    def test_zero_model_near_half(self):
        # sgn(0) = +1 classifies everything +1; half the draws are -1
        model = trained_separating_model()
        m0 = SvmModel(
            np.zeros_like(model.dual_coefs), model.labels, 0.1, 1.0, 1.0, True, 0.0, 0, 0.0, 0.0,
            support=model.support, hkernel=HK,
        )
        t = 2000
        risk01, hinge_clipped, bayes = estimate_risks(m0, HM, t, "exact", 5, bayes_mc=2000)
        se = math.sqrt(0.25 / t)
        assert abs(risk01 - 0.5) <= 3.0 * se
        assert hinge_clipped == pytest.approx(1.0, abs=1e-12)  # hinge(y, 0) = 1
        assert bayes == 0.0

    def test_separating_model_zero_risk(self):
        model = trained_separating_model()
        risk01, hinge_clipped, bayes = estimate_risks(model, HM, 500, "exact", 7, bayes_mc=2000)
        assert risk01 == 0.0
        assert bayes == 0.0

    def test_finite_test_bags_path(self):
        model = trained_separating_model()
        risk01, _, _ = estimate_risks(model, HM, 100, 20, 9, bayes_mc=1000)
        assert risk01 <= 0.05

    def test_clipped_hinge_never_larger(self):
        from tsk.rng import subseed
        from tsk.synth import sample_first_stage

        model = trained_separating_model()
        means, labels = sample_first_stage(HM, 400, subseed(1, "t"))
        embs = [exact_gaussian_embedding(BASE, m, HM.bag_spread) for m in means]
        vals = decision_values(model, embs)
        raw = np.maximum(0.0, 1.0 - labels * vals).mean()
        clipped = np.maximum(0.0, 1.0 - labels * np.clip(vals, -1, 1)).mean()
        assert clipped <= raw + 1e-12


class TestRateExperiment:
    def test_smoke_row(self):
        rep = run_rate_experiment(smoke_config())
        assert len(rep.rows) == 1
        row = rep.rows[0]
        assert row.error == ""
        assert np.isfinite(row.emp_risk_01) and np.isfinite(row.oracle_rhs_value)
        assert -3.0 * row.se_01 <= row.excess_01 <= 0.5
        assert row.m_n == 64  # ceil(8^2)

    def test_median_excess_above_noise_floor(self):
        rep = run_rate_experiment(smoke_config(n_grid=(8, 16), replicates=3))
        for med, se in zip(rep.medians_excess_01, rep.median_ses):
            assert med >= -3.0 * max(se, 1e-12)

    def test_csv_deterministic_and_fixed_columns(self):
        cfg = smoke_config(n_grid=(8, 16), replicates=2)
        csv1 = rate_report_csv(run_rate_experiment(cfg))
        csv2 = rate_report_csv(run_rate_experiment(cfg))
        assert csv1 == csv2
        header = csv1.splitlines()[0].split(",")
        assert tuple(header) == CSV_COLUMNS
        assert len(csv1.splitlines()) == 1 + 2 * 2

    def test_threads_do_not_change_output(self):
        cfg = smoke_config(n_grid=(8, 16), replicates=2)
        serial = rate_report_csv(run_rate_experiment(cfg, threads=1))
        parallel = rate_report_csv(run_rate_experiment(cfg, threads=2))
        assert serial == parallel

    def test_tsk_threads_env_respected(self, monkeypatch):
        monkeypatch.setenv("TSK_THREADS", "2")
        cfg = smoke_config()
        via_env = rate_report_csv(run_rate_experiment(cfg))
        monkeypatch.delenv("TSK_THREADS")
        assert via_env == rate_report_csv(run_rate_experiment(cfg, threads=1))

    def test_timing_column_off_by_default(self):
        rep = run_rate_experiment(smoke_config())
        line = rate_report_csv(rep).splitlines()[1]
        assert line.endswith(",")  # wall_seconds cell left empty
        timed = rate_report_csv(rep, timing=True).splitlines()[1]
        assert not timed.endswith(",")

    def test_exact_training_path_matches_sigma_zero_empirical(self):
        # with sigma = 0 the empirical embedding equals the exact one, so the
        # two training paths must agree on every reported number
        meta0 = MetaDistribution("hard_margin", 2, 2.0, 0.25, 0.0, 0.5, margin=1.0)
        from dataclasses import replace

        cfg_e = smoke_config(meta=meta0, train_embedding="empirical", n_grid=(8,), replicates=1)
        cfg_x = replace(cfg_e, train_embedding="exact")
        r1 = run_rate_experiment(cfg_e).rows[0]
        r2 = run_rate_experiment(cfg_x).rows[0]
        assert r1.emp_risk_01 == r2.emp_risk_01
        assert r1.emp_risk_hinge_clipped == pytest.approx(r2.emp_risk_hinge_clipped, rel=1e-9)

    def test_failed_row_recorded_not_raised(self):
        cfg = smoke_config(row_time_cap_s=0.0)
        rep = run_rate_experiment(cfg)
        assert rep.rows[0].error != ""
        assert math.isnan(rep.rows[0].emp_risk_01)
        assert len(rep.failures) == 1

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("injected")

        monkeypatch.setattr("tsk.experiments.build_gram", broken)
        with pytest.raises(TypeError, match="injected"):
            run_rate_experiment(smoke_config(), threads=1)

    def test_config_json_roundtrip(self):
        raw = json.loads((CONFIGS / "rates_hard_margin.json").read_text())
        cfg = ExperimentConfig.from_json(raw)
        assert cfg.n_grid == (32, 64, 128, 256, 512, 1024)
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    def test_config_validation(self):
        with pytest.raises(InputError):
            smoke_config(replicates=0)
        with pytest.raises(InputError):
            smoke_config(train_embedding="approximate")
        with pytest.raises(InputError):
            smoke_config(approx_error_model={"model": "spline"})


class TestKmeCoverage:
    def test_loose_confidence_smoke(self):
        rep = run_kme_coverage(
            {
                "base_kernel": BASE.to_config(),
                "sigma": 0.5,
                "bag_sizes": [100],
                "deltas": [0.5, 0.1],
                "trials": 300,
            },
            seed=5,
        )
        rates = {r["delta"]: r["violation_rate"] for r in rep["results"]}
        assert rates[0.5] < 0.5
        # tighter delta cannot have a smaller violation rate beyond noise
        se = math.sqrt(0.25 / 300)
        assert rates[0.1] <= rates[0.5] + 2.0 * se

    def test_deterministic(self):
        params = {
            "base_kernel": BASE.to_config(),
            "sigma": 0.5,
            "bag_sizes": [25],
            "deltas": [0.1],
            "trials": 100,
        }
        assert run_kme_coverage(params, 7) == run_kme_coverage(params, 7)

    def test_validation(self):
        with pytest.raises(InputError):
            run_kme_coverage({"sigma": 0.5}, 1)
