import copy
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from tsk.experiments import CSV_COLUMNS, _coverage_distances, rate_report_csv
from tsk.kme import ExactBatch
from tsk.svm import SvmModel, build_gram, decision_values, train

from oracles import coverage_distances_one_by_one

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
    embs = ExactBatch(BASE, means, np.full(n, HM.bag_spread))
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
        embs = ExactBatch(BASE, means, np.full(400, HM.bag_spread))
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

    def test_unconverged_solve_is_a_failed_row(self, monkeypatch):
        def unconverged(*args, **kwargs):
            return replace(train(*args, **kwargs), converged=False, kkt=0.25)

        monkeypatch.setattr("tsk.experiments.train", unconverged)
        rep = run_rate_experiment(smoke_config())
        row = rep.rows[0]
        assert "_Unconverged" in row.error and "KKT residual 2.500e-01" in row.error
        assert math.isnan(row.emp_risk_01) and math.isnan(row.oracle_violated)
        assert len(rep.failures) == 1

    def test_solve_gets_the_row_deadline(self, monkeypatch):
        seen = []

        def recording(*args, **kwargs):
            seen.append(kwargs["deadline"] - time.perf_counter())
            return train(*args, **kwargs)

        monkeypatch.setattr("tsk.experiments.train", recording)
        rep = run_rate_experiment(smoke_config(row_time_cap_s=50.0))
        assert not rep.failures and len(seen) == 1 and 0.0 < seen[0] <= 50.0

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
        # the fields are checked where a config is read, by `tsk.config`
        with pytest.raises(InputError):
            ExperimentConfig.from_json(VALID_RATES | {"replicates": 0})
        with pytest.raises(InputError):
            ExperimentConfig.from_json(VALID_RATES | {"train_embedding": "approximate"})
        with pytest.raises(InputError):
            ExperimentConfig.from_json(VALID_RATES | {"approx_error": {"model": "spline"}})


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

    def test_distances_equal_per_trial_loop(self):
        for m in (1, 25):
            got = _coverage_distances(BASE, np.array([0.2, -0.1]), 0.5, m, 40, 5)
            assert np.array_equal(got, coverage_distances_one_by_one(BASE, np.array([0.2, -0.1]), 0.5, m, 40, 5))


VALID_RATES = json.loads((CONFIGS / "rates_smoke_empirical.json").read_text())
VALID_COVERAGE = {"base_kernel": BASE.to_config(), "sigma": 0.5, "bag_sizes": [2, 3], "deltas": [0.1], "trials": 3}
NOT_AN_INTEGER = (
    st.floats().filter(lambda v: not v.is_integer())
    | st.booleans()
    | st.text()
    | st.none()
    | st.lists(st.integers(), max_size=2)
    | st.just({"n": 1})
)
# size and seed fields of each config; the list-valued ones take a corrupt entry or a non-list
RATES_FIELDS = ("n_grid", "replicates", "test_bags", "seed", "bayes_mc", "test_embedding")
COVERAGE_FIELDS = ("bag_sizes", "trials", "seed")
LIST_FIELDS = ("n_grid", "bag_sizes")


@st.composite
def corrupted_field(draw, valid, fields):
    """A copy of valid with one size or seed field replaced by a value that is not an integer."""
    cfg = copy.deepcopy(valid)
    name = draw(st.sampled_from(fields))
    bad = draw(NOT_AN_INTEGER.filter(lambda v: v != "exact") | (st.integers(max_value=-1) if name == "seed" else st.nothing()))
    if name in LIST_FIELDS and (isinstance(bad, list) or draw(st.booleans())):
        cfg[name][draw(st.integers(0, len(cfg[name]) - 1))] = bad
    else:
        cfg[name] = bad
    return cfg


class TestConfigIntegers:
    def test_integral_floats_load_as_ints(self):
        cfg = ExperimentConfig.from_json(VALID_RATES | {"n_grid": [8.0, 16], "replicates": 2.0, "seed": 11.0})
        assert cfg.n_grid == (8, 16) and cfg.replicates == 2 and cfg.seed == 11
        assert all(type(v) is int for v in (*cfg.n_grid, cfg.replicates, cfg.seed))

    @settings(max_examples=300, deadline=None)
    @given(corrupted_field(VALID_RATES, RATES_FIELDS))
    def test_every_rates_corruption_is_an_input_error(self, cfg):
        with pytest.raises(InputError):
            ExperimentConfig.from_json(cfg)

    @settings(max_examples=200, deadline=None)
    @given(corrupted_field(VALID_COVERAGE | {"seed": 7}, COVERAGE_FIELDS))
    def test_every_coverage_corruption_is_an_input_error(self, cfg):
        with pytest.raises(InputError):
            run_kme_coverage(cfg, cfg.pop("seed"))


NOT_A_FINITE_NUMBER = (
    st.booleans()
    | st.text()
    | st.none()
    | st.lists(st.floats(0.1, 0.9), max_size=2)
    | st.just({"x": 0.5})
    | st.sampled_from([math.nan, math.inf, -math.inf])
)
NOT_POSITIVE = st.floats(max_value=0.0, allow_nan=False) | st.integers(max_value=0)
# real-valued fields of each config, as (key path, whether the value must be > 0)
RATES_FLOATS = ((("schedule", "alpha"), False), (("schedule", "mu"), False), (("universal_c",), True), (("tau",), True), (("row_time_cap_s",), True))
COVERAGE_FLOATS = ((("sigma",), False), (("deltas",), False))


@st.composite
def corrupted_real(draw, valid, fields):
    """A copy of valid with one real-valued field replaced by a value that is
    not a finite number, or not > 0 where the field must be positive."""
    cfg = copy.deepcopy(valid)
    (*outer, name), positive = draw(st.sampled_from(fields))
    bad = draw(NOT_A_FINITE_NUMBER | (NOT_POSITIVE if positive else st.nothing()))
    target = cfg
    for key in outer:
        target = target[key]
    if isinstance(target.get(name), list) and (isinstance(bad, list) or draw(st.booleans())):
        target[name][draw(st.integers(0, len(target[name]) - 1))] = bad
    else:
        target[name] = bad
    return cfg


class TestConfigReals:
    def test_integers_load_as_floats(self):
        cfg = ExperimentConfig.from_json(VALID_RATES | {"tau": 2, "row_time_cap_s": 60})
        assert type(cfg.tau) is float and type(cfg.row_time_cap_s) is float

    @settings(max_examples=300, deadline=None)
    @given(corrupted_real(VALID_RATES, RATES_FLOATS))
    def test_every_rates_corruption_is_an_input_error(self, cfg):
        with pytest.raises(InputError):
            ExperimentConfig.from_json(cfg)

    @settings(max_examples=200, deadline=None)
    @given(corrupted_real(VALID_COVERAGE, COVERAGE_FLOATS))
    def test_every_coverage_corruption_is_an_input_error(self, cfg):
        with pytest.raises(InputError):
            run_kme_coverage(cfg, 7)


# real-valued fields of the kernel, meta-distribution and approx-error sections
# of a rates config, as (key path, whether the value must be > 0)
NESTED_FLOATS = (
    (("base_kernel", "width"), True),
    (("hilbert_kernel", "width"), True),
    (("meta", "c"), True),
    (("meta", "s"), False),
    (("meta", "sigma"), False),
    (("meta", "p_plus"), False),
    (("meta", "r"), True),
    (("approx_error", "c"), False),
    (("approx_error", "beta"), False),
)
VALID_POWER_RATES = VALID_RATES | {"approx_error": {"model": "power", "c": 0.1, "beta": 0.5}}
VALID_CONSTANT_RATES = VALID_RATES | {"approx_error": {"model": "constant", "value": 0.01}}


@st.composite
def corrupted_dim(draw):
    """A copy of VALID_RATES whose base-kernel or meta dim is not an integer >= 1."""
    cfg = copy.deepcopy(VALID_RATES)
    bad = draw(NOT_AN_INTEGER | st.integers(max_value=0))
    cfg[draw(st.sampled_from(["base_kernel", "meta"]))]["dim"] = bad
    return cfg


class TestNestedConfigFields:
    def test_integral_values_load(self):
        cfg = ExperimentConfig.from_json(
            VALID_POWER_RATES | {"base_kernel": {"family": "gaussian", "width": 1, "dim": 2.0}}
        )
        assert type(cfg.base_kernel.width) is float and type(cfg.base_kernel.dim) is int

    @settings(max_examples=300, deadline=None)
    @given(corrupted_real(VALID_POWER_RATES, NESTED_FLOATS))
    def test_every_real_corruption_is_an_input_error(self, cfg):
        with pytest.raises(InputError):
            ExperimentConfig.from_json(cfg)

    @settings(max_examples=50, deadline=None)
    @given(corrupted_real(VALID_CONSTANT_RATES, ((("approx_error", "value"), False),)))
    def test_every_constant_approx_error_corruption_is_an_input_error(self, cfg):
        with pytest.raises(InputError):
            ExperimentConfig.from_json(cfg)

    @settings(max_examples=200, deadline=None)
    @given(corrupted_dim())
    def test_every_dim_corruption_is_an_input_error(self, cfg):
        with pytest.raises(InputError):
            ExperimentConfig.from_json(cfg)
