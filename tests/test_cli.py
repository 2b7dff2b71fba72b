import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from tsk import BaseKernel, HilbertKernel
from tsk.cli import main
from tsk.errors import InputError, NumericalConsistencyError, UnsupportedError
from tsk.experiments import ExperimentConfig, run_rate_experiment
from tsk.kme import ExactBatch, embed_bags
from tsk.svm import build_gram, decision_values, model_to_json, sgn, train
from tsk.synth import MetaDistribution, bags_to_json, sample_first_stage, sample_second_stage

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# The sha256 pins in this file hold on one machine, one numpy/scipy build and one
# OpenBLAS kernel. They pass with numpy 2.4.6, scipy 1.17.1 and Python 3.11.7 on
# an x86-64 CPU whose numpy dispatch reaches AVX512_SPR and whose OpenBLAS core is
# SkylakeX (`OPENBLAS_VERBOSE=2 python -c "import numpy"` prints the core). With
# NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" numpy's exp/log/power
# kernels change last bits, and this pin and APPROX_ERROR_EXACT_SHA256 fail while
# RATES_EXACT_SHA256 holds. With OPENBLAS_CORETYPE=Haswell (an AVX2 kernel) all
# three fail: this pin, TestExactOutputsPinned::test_rates and ::test_approx_error.
NOISE_FIT_SHA256 = "e7cda79f3b0c5542b601244564468f069f7c44758a46e8dc2a5f459d881cb9ba"

SMOKE_RATES = {
    "meta": {"family": "hard_margin", "dim": 2, "c": 2.0, "s": 0.25, "sigma": 0.5, "p_plus": 0.5, "r": 1.0},
    "base_kernel": {"family": "gaussian", "width": 1.0, "dim": 2},
    "hilbert_kernel": {"family": "gaussian", "width": 1.0},
    "schedule": {"kind": "thm55", "alpha": 1.0, "mu": 0.25},
    "n_grid": [8],
    "replicates": 1,
    "test_bags": 100,
    "train_embedding": "empirical",
    "seed": 4,
    "bayes_mc": 1000,
}


def write_dataset(path, n=12, m=6, seed=2):
    meta = MetaDistribution("hard_margin", 2, 2.0, 0.25, 0.5, 0.5, margin=1.0)
    means, labels = sample_first_stage(meta, n, seed)
    bags = [sample_second_stage((mean, 0.5), m, seed + 100 + i) for i, mean in enumerate(means)]
    path.write_text(bags_to_json(bags, labels))


class TestRates:
    def test_happy_path_and_bitwise_rerun(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMOKE_RATES))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["rates", "--config", str(cfg), "--out", str(out1), "--summary", str(tmp_path / "s.json")]) == 0
        assert main(["rates", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        summary = json.loads((tmp_path / "s.json").read_text())
        assert "slope" in summary and "medians_excess_01" in summary

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMOKE_RATES))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["rates", "--config", str(cfg), "--out", str(out1)])
        main(["rates", "--config", str(cfg), "--out", str(out2), "--seed", "5"])
        assert out1.read_bytes() != out2.read_bytes()

    def test_no_row_succeeding_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMOKE_RATES))
        out = tmp_path / "o.csv"
        with mock.patch("tsk.experiments.build_gram", side_effect=NumericalConsistencyError("injected")):
            assert main(["rates", "--config", str(cfg), "--out", str(out)]) == 3
        assert "NumericalConsistencyError: injected" in capsys.readouterr().err
        row = dict(zip(*(line.split(",") for line in out.read_text().splitlines())))
        assert row["oracle_violated"] == "nan"

    # two checks that a valid config reaches: a large mu makes gamma_N = N^-mu 0, and a large
    # tau makes the confidence e^-tau / N of the embedding term 0, so every row fails
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"schedule": {"kind": "thm55", "alpha": 1.0, "mu": 2000}}, "InputError: second-level kernel width must be >= 1.4916681462400413e-154, got 0.0"),
            ({"tau": 2000}, "InputError: delta must lie in (0, 1), got 0.0"),
        ],
        ids=["mu 2000", "tau 2000"],
    )
    def test_a_check_that_every_row_reaches_exits_3(self, tmp_path, capsys, fields, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMOKE_RATES | fields))
        assert main(["rates", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 3
        assert capsys.readouterr().err == f"error: no row succeeded; first failure: N=8 rep=0: {message}\n"

    def test_unwritable_out_exits_2_before_computing(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMOKE_RATES))
        out = tmp_path / "missing" / "x.json"
        with mock.patch("tsk.cli.run_rate_experiment") as run:
            assert main(["rates", "--config", str(cfg), "--out", str(out)]) == 2
        run.assert_not_called()
        assert str(out) in capsys.readouterr().err

    def test_missing_config_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["rates", "--config", str(missing), "--out", str(tmp_path / "o.csv")]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_truncated_config_exits_2_naming_path(self, tmp_path, capsys):
        text = (CONFIGS / "rates_hard_margin.json").read_text()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text[: len(text) // 2])
        assert main(["rates", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        assert f"invalid JSON in {cfg}" in capsys.readouterr().err


NOISE_EXPONENT = json.loads((CONFIGS / "noise_exponent_r5.json").read_text())
KME_COVERAGE = json.loads((CONFIGS / "kme_coverage.json").read_text())
NON_INTEGER_SIZES = [
    ("rates", SMOKE_RATES, {"n_grid": [8.7, 16]}),
    ("rates", SMOKE_RATES, {"replicates": 1.5}),
    ("rates", SMOKE_RATES, {"test_bags": True}),
    ("rates", SMOKE_RATES, {"n_grid": ["a", 16]}),
    ("rates", SMOKE_RATES, {"replicates": None}),
    ("kme-coverage", KME_COVERAGE, {"trials": 20.9}),
    ("noise-exponent", NOISE_EXPONENT, {"n_outer": 20.7, "n_inner": 50}),
    ("approx-error", json.loads((CONFIGS / "approx_error_hard_margin.json").read_text()), {"big_n": 10.5}),
    ("approx-error", json.loads((CONFIGS / "approx_error_hard_margin.json").read_text()), {"test_n": "80"}),
    ("approx-error", json.loads((CONFIGS / "approx_error_hard_margin.json").read_text()), {"embedding": 2.5}),
    ("approx-error", json.loads((CONFIGS / "approx_error_hard_margin.json").read_text()), {"embedding": "x"}),
    ("noise-exponent", NOISE_EXPONENT, {"seed": 3.7}),
]


@pytest.mark.parametrize("cmd, base, fields", NON_INTEGER_SIZES)
def test_non_integer_size_exits_2(tmp_path, capsys, cmd, base, fields):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(base | fields))
    assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "must be an integer" in err and any(name in err for name in fields)


def test_train_nonpositive_width_exits_2_naming_it(tmp_path, capsys):
    data, cfg = tmp_path / "bags.json", tmp_path / "cfg.json"
    write_dataset(data)
    cfg.write_text(json.dumps(json.loads((CONFIGS / "train_example.json").read_text()) | {"hilbert_kernel": {"family": "gaussian", "width": -1}}))
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err.startswith("error: hilbert_kernel.width must be >= 1.4916681462400413e-154, got -1")


def test_train_non_integer_max_sweeps_exits_2(tmp_path, capsys):
    data, cfg = tmp_path / "bags.json", tmp_path / "cfg.json"
    write_dataset(data)
    cfg.write_text(json.dumps(json.loads((CONFIGS / "train_example.json").read_text()) | {"max_sweeps": 100.5}))
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "m.json")]) == 2
    assert "must be an integer" in capsys.readouterr().err


NOT_FINITE_NUMBERS = [
    ("rates", SMOKE_RATES, {"schedule": {"kind": "thm55", "alpha": "x", "mu": 0.25}}, "must be a finite number"),
    ("rates", SMOKE_RATES, {"universal_c": 0}, "must be > 0"),
    ("kme-coverage", KME_COVERAGE, {"sigma": "wide"}, "must be a finite number"),
    ("approx-error", json.loads((CONFIGS / "approx_error_hard_margin.json").read_text()), {"lambda_grid": ["a", 0.1]}, "must be a finite number"),
    ("approx-error", json.loads((CONFIGS / "approx_error_hard_margin.json").read_text()), {"lambda_grid": [0.0, 0.1]}, "must be > 0"),
    ("kme-coverage", KME_COVERAGE, {"mean": ["a", "b"]}, "mean must be a finite number"),
    ("noise-exponent", NOISE_EXPONENT, {"t_grid": ["2.0", 1, 0.5, 0.25]}, "t_grid must be a finite number"),
    ("noise-exponent", NOISE_EXPONENT, {"t_grid": [True, 1, 0.5, 0.25]}, "t_grid must be a finite number"),
    ("noise-exponent", NOISE_EXPONENT, {"floor": "1e-12"}, "floor must be a finite number"),
    ("noise-exponent", NOISE_EXPONENT, {"covariance": {"eigenvalues": ["1", "0.5", "0.5", "0.5", "0.5"]}}, "eigenvalues must be a finite number"),
]


@pytest.mark.parametrize("cmd, base, fields, message", NOT_FINITE_NUMBERS)
def test_bad_real_field_exits_2(tmp_path, capsys, cmd, base, fields, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(base | fields))
    assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


SMOKE_EMPIRICAL = json.loads((CONFIGS / "rates_smoke_empirical.json").read_text())
NESTED_FIELDS = [
    ("base_kernel", "width", "wide", "must be a finite number"),
    ("hilbert_kernel", "width", "w", "must be a finite number"),
    ("meta", "sigma", "x", "must be a finite number"),
    ("meta", "sigma", math.nan, "must be a finite number"),
    (None, "approx_error", {"model": "constant", "value": "x"}, "must be a finite number"),
    ("base_kernel", "dim", 2.7, "must be an integer"),
    ("meta", "dim", 2.7, "must be an integer"),
    (None, "approx_error", {"model": "constant", "value": -0.1}, "approx_error.value must be >= 0"),
    (None, "approx_error", {"model": "power", "c": -1.0, "beta": 0.5}, "approx_error.c must be >= 0"),
    # every row would fail on this, so it is rejected at load
    (None, "tau", 0.5, "tau must be >= 1"),
    (None, "hilbert_kernel", {"family": "linear"}, "hilbert_kernel.family must be one of 'gaussian'"),
    ("meta", "dim", 3, "meta dim 3 does not match base_kernel dim 2"),
]


@pytest.mark.parametrize("section, name, value, message", NESTED_FIELDS)
def test_bad_nested_config_field_exits_2(tmp_path, capsys, section, name, value, message):
    cfg = json.loads(json.dumps(SMOKE_EMPIRICAL))
    (cfg[section] if section else cfg)[name] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["rates", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    assert message in capsys.readouterr().err


APPROX_ERROR = json.loads((CONFIGS / "approx_error_hard_margin.json").read_text())
TRAIN = json.loads((CONFIGS / "train_example.json").read_text())
# a config or a nested section of the wrong JSON type; base None is a whole config replaced by fields
WRONG_JSON_TYPES = [
    ("approx-error", APPROX_ERROR, {"base_kernel": 5}, "base_kernel must be a JSON object"),
    ("approx-error", APPROX_ERROR, {"meta": []}, "meta must be a JSON object"),
    ("rates", SMOKE_RATES, {"meta": "x"}, "meta must be a JSON object"),
    ("rates", SMOKE_RATES, {"schedule": 3}, "schedule must be a JSON object"),
    ("rates", SMOKE_RATES, {"hilbert_kernel": "g"}, "hilbert_kernel must be a JSON object"),
    ("rates", SMOKE_RATES, {"approx_error": "zero"}, "approx_error must be a JSON object"),
    ("train", TRAIN, {"base_kernel": 5}, "base_kernel must be a JSON object"),
    ("train", TRAIN, {"hilbert_kernel": []}, "hilbert_kernel must be a JSON object"),
    ("kme-coverage", KME_COVERAGE, {"base_kernel": 5}, "base_kernel must be a JSON object"),
    ("rates", None, [SMOKE_RATES], "must be a JSON object"),
    ("train", None, [TRAIN], "must be a JSON object"),
    ("kme-coverage", None, [KME_COVERAGE], "must be a JSON object"),
]


@pytest.mark.parametrize("cmd, base, fields, message", WRONG_JSON_TYPES)
def test_wrong_json_type_exits_2(tmp_path, capsys, cmd, base, fields, message):
    cfg, data = tmp_path / "cfg.json", tmp_path / "bags.json"
    cfg.write_text(json.dumps(fields if base is None else base | fields))
    write_dataset(data)
    extra = ["--data", str(data)] if cmd == "train" else []
    assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / "out"), *extra]) == 2
    assert message in capsys.readouterr().err


def test_non_integer_threads_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMOKE_EMPIRICAL))
    assert main(["rates", "--config", str(path), "--out", str(tmp_path / "o.csv"), "--threads", "abc"]) == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--threads", "0"], ["--threads", "-3"]])
def test_worker_count_below_one_exits_2(tmp_path, capsys, flag):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMOKE_EMPIRICAL))
    with mock.patch("tsk.experiments._compute_row") as compute_row:
        code = main(["rates", "--config", str(path), "--out", str(tmp_path / "o.csv"), *flag])
    compute_row.assert_not_called()
    assert code == 2
    assert "threads must be >= 1" in capsys.readouterr().err


def test_run_rate_experiment_rejects_zero_threads():
    with pytest.raises(InputError, match="threads must be >= 1"):
        run_rate_experiment(ExperimentConfig.from_json(SMOKE_EMPIRICAL), threads=0)


@pytest.mark.parametrize("fields", [{"lambda": "x"}, {"lambda": -0.1}, {"tol": None}, {"tol": 0.0}])
def test_train_bad_lambda_or_tol_exits_2(tmp_path, capsys, fields):
    data, cfg = tmp_path / "bags.json", tmp_path / "cfg.json"
    write_dataset(data)
    cfg.write_text(json.dumps(json.loads((CONFIGS / "train_example.json").read_text()) | fields))
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "m.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_numerical_consistency_maps_to_3(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMOKE_RATES))
    with mock.patch("tsk.cli.run_rate_experiment", side_effect=NumericalConsistencyError("corrupt gram")):
        code = main(["rates", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    assert code == 3
    assert "corrupt gram" in capsys.readouterr().err


class TestKmeCoverage:
    def test_reference_config(self, tmp_path):
        cfg = json.loads((CONFIGS / "kme_coverage.json").read_text())
        cfg["trials"] = 150
        path = tmp_path / "cov.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "report.json"
        assert main(["kme-coverage", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert all(r["violation_rate"] < r["delta"] for r in report["results"])


class TestWhitenoiseVerify:
    def test_json_report(self, tmp_path):
        out = tmp_path / "wn.json"
        code = main(
            ["whitenoise-verify", "--dim", "3", "--gamma", "1.0", "--mc", "20000", "--seed", "7", "--checks", "2", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["all_pass"] is True
        assert len(report["checks"]) == 2
        for group in report["checks"]:
            for name in ("isometry", "characteristic", "feature_inner", "surjection"):
                assert set(group[name]) >= {"estimate", "std_error", "target", "pass"}

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["whitenoise-verify", "--dim", "2", "--gamma", "0.8", "--mc", "5000", "--seed", "3", "--checks", "1"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--dim", "0"),
            ("--dim", "-1"),
            ("--checks", "0"),
            ("--checks", "-2"),
            ("--seed", "-1"),
            ("--gamma", "inf"),
            ("--gamma", "nan"),
            ("--gamma", "0"),
            ("--gamma", "-1.5"),
            ("--mc", "10"),
            ("--mc", "999"),
        ],
    )
    def test_bad_flag_exits_2_before_any_draw(self, tmp_path, capsys, flag, value):
        flags = {"--dim": "2", "--gamma": "1.0", "--mc": "5000", "--seed": "3", "--checks": "1"} | {flag: value}
        args = ["whitenoise-verify", *(item for pair in flags.items() for item in pair), "--out", str(tmp_path / "wn.json")]
        with mock.patch("tsk.cli.stream") as open_stream:
            code = main(args)
        open_stream.assert_not_called()
        assert code == 2
        assert f"error: {flag} must be" in capsys.readouterr().err


class TestNoiseExponent:
    def test_reference_config_small(self, tmp_path):
        cfg = json.loads((CONFIGS / "noise_exponent_r5.json").read_text())
        cfg.update(n_outer=200, n_inner=200)
        path = tmp_path / "ne.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "fit.json"
        assert main(["noise-exponent", "--config", str(path), "--out", str(out)]) == 0
        fit = json.loads(out.read_text())
        assert len(fit["i1_values"]) == 4 and len(fit["i2_values"]) == 4
        assert "alpha_hat" in fit and "c_hat" in fit

    def test_reference_config_bytes_pinned(self, tmp_path):
        # sha256 of the fit written before the t grid shared its inner draws
        cfg = json.loads((CONFIGS / "noise_exponent_r5.json").read_text())
        cfg.update(n_outer=200, n_inner=400)
        path = tmp_path / "ne.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "fit.json"
        assert main(["noise-exponent", "--config", str(path), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == NOISE_FIT_SHA256

    def _run_with(self, tmp_path, **fields):
        cfg = json.loads((CONFIGS / "noise_exponent_r5.json").read_text())
        cfg.update(n_outer=50, n_inner=50, **fields)
        path = tmp_path / "ne.json"
        path.write_text(json.dumps(cfg))
        with mock.patch("tsk.whitenoise.geometric_noise_integrals") as integrals:
            code = main(["noise-exponent", "--config", str(path), "--out", str(tmp_path / "fit.json")])
        integrals.assert_not_called()
        return code

    def test_negative_t_exits_2_before_sampling(self, tmp_path):
        assert self._run_with(tmp_path, t_grid=[2, 1, 0.5, -1]) == 2

    def test_two_point_grid_exits_2_before_sampling(self, tmp_path):
        assert self._run_with(tmp_path, t_grid=[2, 1]) == 2

    def test_scalar_grid_exits_2(self, tmp_path):
        assert self._run_with(tmp_path, t_grid=2.0) == 2

    def test_non_numeric_grid_exits_2(self, tmp_path):
        assert self._run_with(tmp_path, t_grid=["a", 1, 0.5]) == 2

    def test_infinite_t_exits_2_before_sampling(self, tmp_path):
        # json writes inf as the non-standard token Infinity, which json.loads reads back
        assert self._run_with(tmp_path, t_grid=[2, math.inf, 0.5]) == 2


# sha256 of the outputs on a small exact-embedding config: the csv recorded before
# embeddings were carried as batches, the summary since its config echo lost
# row_time_cap_s (the environment is noted at NOISE_FIT_SHA256)
RATES_EXACT_SHA256 = {
    "csv": "a958edd8c9fa1f770e8fb65a90ea7a3f2ee3120eefec7bc04796a91a4f64298d",
    "summary": "130716e4cb5546e12aa2cabd225f91cbecb3282cbdb5b8d90d6861bcd38b448d",
}
APPROX_ERROR_EXACT_SHA256 = "5fafc4afbcb529abecde6d7d9ff09b3d9d3e4dcb179964617184bd3f9fb9980d"


class TestExactOutputsPinned:
    def test_rates(self, tmp_path):
        cfg = json.loads((CONFIGS / "rates_hard_margin.json").read_text())
        cfg.update(n_grid=[32, 64], replicates=2, test_bags=200, bayes_mc=10000)
        path, out, summary = tmp_path / "r.json", tmp_path / "r.csv", tmp_path / "r.summary.json"
        path.write_text(json.dumps(cfg))
        assert main(["rates", "--config", str(path), "--out", str(out), "--summary", str(summary)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == RATES_EXACT_SHA256["csv"]
        assert hashlib.sha256(summary.read_bytes()).hexdigest() == RATES_EXACT_SHA256["summary"]

    def test_approx_error(self, tmp_path):
        cfg = json.loads((CONFIGS / "approx_error_hard_margin.json").read_text())
        cfg.update(big_n=100, test_n=200, seeds=[1, 2])
        path, out = tmp_path / "a.json", tmp_path / "a.out.json"
        path.write_text(json.dumps(cfg))
        assert main(["approx-error", "--config", str(path), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == APPROX_ERROR_EXACT_SHA256


class TestApproxError:
    def test_small_run(self, tmp_path):
        cfg = json.loads((CONFIGS / "approx_error_hard_margin.json").read_text())
        cfg.update(big_n=80, test_n=80, seeds=[1, 2], lambda_grid=[0.01, 0.1])
        path = tmp_path / "ae.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "ae_out.json"
        assert main(["approx-error", "--config", str(path), "--out", str(out)]) == 0
        res = json.loads(out.read_text())
        assert len(res["ahat_mean"]) == 2
        assert all(v >= 0.0 for v in res["ahat_mean"])


class TestTrainPredict:
    def test_roundtrip(self, tmp_path):
        data = tmp_path / "bags.json"
        write_dataset(data)
        model_path = tmp_path / "model.json"
        assert main(["train", "--config", str(CONFIGS / "train_example.json"), "--data", str(data), "--out", str(model_path)]) == 0
        model = json.loads(model_path.read_text())
        assert set(model) >= {"lambda", "dual_coefs", "labels", "support", "base_kernel", "hilbert_kernel", "clip_bound"}

        preds_path = tmp_path / "preds.json"
        assert main(["predict", "--model", str(model_path), "--data", str(data), "--out", str(preds_path)]) == 0
        preds = json.loads(preds_path.read_text())
        assert preds["accuracy"] == 1.0  # wide-margin training data
        assert all(p["label"] in (-1, 1) for p in preds["predictions"])

    def test_predict_deterministic(self, tmp_path):
        data = tmp_path / "bags.json"
        write_dataset(data)
        model_path = tmp_path / "model.json"
        main(["train", "--config", str(CONFIGS / "train_example.json"), "--data", str(data), "--out", str(model_path)])
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["predict", "--model", str(model_path), "--data", str(data), "--out", str(a)])
        main(["predict", "--model", str(model_path), "--data", str(data), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_predict_rejects_corrupt_model(self, tmp_path, capsys):
        data = tmp_path / "bags.json"
        write_dataset(data)
        model_path = tmp_path / "model.json"
        main(["train", "--config", str(CONFIGS / "train_example.json"), "--data", str(data), "--out", str(model_path)])
        model = json.loads(model_path.read_text())
        model["dual_coefs"].append(0.5)
        model_path.write_text(json.dumps(model))
        code = main(["predict", "--model", str(model_path), "--data", str(data), "--out", str(tmp_path / "p.json")])
        assert code == 2
        assert "dual_coefs" in capsys.readouterr().err

    def test_unconverged_model_warns_and_predicts_the_same(self, tmp_path, capsys):
        data, model_path = tmp_path / "bags.json", tmp_path / "model.json"
        write_dataset(data)
        main(["train", "--config", str(CONFIGS / "train_example.json"), "--data", str(data), "--out", str(model_path)])
        converged, unconverged = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["predict", "--model", str(model_path), "--data", str(data), "--out", str(converged)]) == 0
        model_path.write_text(json.dumps(json.loads(model_path.read_text()) | {"converged": False, "kkt_residual": 0.25}))
        assert capsys.readouterr().err == ""
        assert main(["predict", "--model", str(model_path), "--data", str(data), "--out", str(unconverged)]) == 0
        warning = capsys.readouterr().err.splitlines()
        assert len(warning) == 1 and "not converged" in warning[0] and "KKT residual 2.500e-01" in warning[0]
        assert converged.read_bytes() == unconverged.read_bytes()

    def test_nan_sample_is_an_input_error(self, tmp_path, capsys):
        data = tmp_path / "bags.json"
        write_dataset(data)
        bags = json.loads(data.read_text())
        bags[0]["samples"][0][0] = math.nan
        data.write_text(json.dumps(bags))
        code = main(["train", "--config", str(CONFIGS / "train_example.json"), "--data", str(data), "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_predict_rejects_labels_other_than_plus_minus_one(self, tmp_path, capsys):
        data = tmp_path / "bags.json"
        write_dataset(data)
        model_path = tmp_path / "model.json"
        main(["train", "--config", str(CONFIGS / "train_example.json"), "--data", str(data), "--out", str(model_path)])
        bags = json.loads(data.read_text())
        for bag, label in zip(bags, [3, -1, 1, 0]):
            bag["label"] = label
        data.write_text(json.dumps(bags))
        code = main(["predict", "--model", str(model_path), "--data", str(data), "--out", str(tmp_path / "p.json")])
        assert code == 2
        assert "label" in capsys.readouterr().err

    def _predict_exit(self, tmp_path, edit):
        """Exit code of `tsk predict` on the model that `tsk train` writes, its support list edited by `edit`."""
        data, model_path = tmp_path / "bags.json", tmp_path / "model.json"
        write_dataset(data)
        main(["train", "--config", str(CONFIGS / "train_example.json"), "--data", str(data), "--out", str(model_path)])
        model = json.loads(model_path.read_text())
        edit(model["support"])
        model_path.write_text(json.dumps(model))
        return main(["predict", "--model", str(model_path), "--data", str(data), "--out", str(tmp_path / "p.json")])

    def test_exact_support_predicts(self, tmp_path, capsys):
        # a model on exact Gaussian embeddings predicts in memory, as the rates experiment's exact rows do,
        # but a model file holds sample bags only: it is not written, and (mean, spread) records are refused
        means, labels = sample_first_stage(MetaDistribution("hard_margin", 2, 2.0, 0.25, 0.5, 0.5, margin=1.0), 6, 3)
        base, hk = BaseKernel(1.0, 2), HilbertKernel(1.0)
        support = ExactBatch(base, means, np.full(6, 0.5))
        model = train(build_gram(hk, support), labels, 0.1, support=support, hkernel=hk)
        bags = [sample_second_stage((mean, 0.5), 40, 50 + i) for i, mean in enumerate(means)]
        assert np.array_equal(sgn(decision_values(model, embed_bags(base, bags))), labels)
        with pytest.raises(UnsupportedError, match="ExactBatch"):
            model_to_json(model)
        records = [{"mean": mean.tolist(), "spread": 0.5} for mean in means]
        assert self._predict_exit(tmp_path, lambda sup: sup.__setitem__(slice(None), records)) == 2
        assert "missing field support[0].samples" in capsys.readouterr().err

    def test_bag_weights_in_support_exit_2(self, tmp_path, capsys):
        # a model file holds bags of weights 1/m, which it does not write out
        assert self._predict_exit(tmp_path, lambda sup: sup[0].update(weights=[1.0 / len(sup[0]["samples"])] * len(sup[0]["samples"]))) == 2
        assert "unknown field support[0].weights" in capsys.readouterr().err

    def test_nan_spread_in_support_exits_2(self, tmp_path, capsys):
        assert self._predict_exit(tmp_path, lambda sup: sup.__setitem__(2, {"mean": [0.0, 0.0], "spread": math.nan})) == 2
        assert "missing field support[2].samples" in capsys.readouterr().err

    def test_support_bag_of_another_dimension_exits_2(self, tmp_path, capsys):
        # the base kernel of the model is 2-D; its first support bag gets a third column
        assert self._predict_exit(tmp_path, lambda sup: [row.append(0.0) for row in sup[0]["samples"]]) == 2
        assert "support[0].samples must have base_kernel.dim = 2 columns, got 3" in capsys.readouterr().err

    def test_nan_mean_in_support_exits_2(self, tmp_path, capsys):
        assert self._predict_exit(tmp_path, lambda sup: sup.__setitem__(0, {"mean": [0.0, math.nan], "spread": 0.5})) == 2
        assert "missing field support[0].samples" in capsys.readouterr().err

    def test_support_mixing_means_and_bags_exits_2(self, tmp_path, capsys):
        # a (mean, spread) record among bags is refused as a bag without samples, wherever it stands
        assert self._predict_exit(tmp_path, lambda sup: sup.__setitem__(1, {"mean": [0.0, 0.0], "spread": 0.5})) == 2
        assert "missing field support[1].samples" in capsys.readouterr().err

    def test_missing_data_file(self, tmp_path, capsys):
        code = main(["train", "--config", str(CONFIGS / "train_example.json"), "--data", str(tmp_path / "no.json"), "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "no.json" in capsys.readouterr().err


# an output path that names an input file or the other output: the run would replace that file
CLASHING_OUTPUTS = [
    ("train", ["--config", "cfg.json", "--data", "bags.json", "--out", "bags.json"], ("--out", "--data")),
    ("train", ["--config", "cfg.json", "--data", "bags.json", "--out", "./cfg.json"], ("--out", "--config")),
    ("predict", ["--model", "model.json", "--data", "bags.json", "--out", "model.json"], ("--out", "--model")),
    ("predict", ["--model", "model.json", "--data", "bags.json", "--out", "sub/../bags.json"], ("--out", "--data")),
    ("rates", ["--config", "rates.json", "--out", "r", "--summary", "r"], ("--out", "--summary")),
    ("rates", ["--config", "rates.json", "--out", "r.csv", "--summary", "rates.json"], ("--summary", "--config")),
]


@pytest.mark.parametrize("cmd, args, flags", CLASHING_OUTPUTS)
def test_output_naming_an_input_or_the_other_output_exits_2_before_computing(tmp_path, monkeypatch, capsys, cmd, args, flags):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    write_dataset(tmp_path / "bags.json")
    (tmp_path / "cfg.json").write_text((CONFIGS / "train_example.json").read_text())
    (tmp_path / "rates.json").write_text(json.dumps(SMOKE_RATES))
    assert main(["train", "--config", "cfg.json", "--data", "bags.json", "--out", "model.json"]) == 0
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    with mock.patch(f"tsk.cli._cmd_{cmd}") as run:
        assert main([cmd, *args]) == 2
    run.assert_not_called()
    err = capsys.readouterr().err
    assert all(flag in err for flag in flags)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()} == before


class TestBoundedMessages:
    """A whole file given where one field belongs is named in a short message, not repeated."""

    def test_dataset_given_as_the_model(self, tmp_path, capsys):
        data = tmp_path / "bags.json"
        write_dataset(data, n=60, m=50)
        assert data.stat().st_size > 100_000
        assert main(["predict", "--model", str(data), "--data", str(data), "--out", str(tmp_path / "p.json")]) == 2
        err = capsys.readouterr().err
        assert len(err.encode()) < 300 and f"{data} must be a JSON object" in err

    def test_support_given_as_an_object(self, tmp_path, capsys):
        data, model_path = tmp_path / "bags.json", tmp_path / "model.json"
        write_dataset(data, n=60, m=50)
        assert main(["train", "--config", str(CONFIGS / "train_example.json"), "--data", str(data), "--out", str(model_path)]) == 0
        model = json.loads(model_path.read_text())
        model_path.write_text(json.dumps(model | {"support": dict(enumerate(model["support"]))}))
        assert model_path.stat().st_size > 100_000
        assert main(["predict", "--model", str(model_path), "--data", str(data), "--out", str(tmp_path / "p.json")]) == 2
        err = capsys.readouterr().err
        assert len(err.encode()) < 300 and "support must be a nonempty list of objects" in err

    def test_short_values_are_shown_whole(self):
        from tsk.errors import shown

        assert shown([1, 2]) == "[1, 2]" and shown("x" * 78) == repr("x" * 78)
        assert shown("x" * 79).startswith(repr("x" * 79)[:80] + "...")


README = CONFIGS.parent / "README.md"


def readme_commands(prefix: str) -> list:
    """The README's command lines that start with `prefix`, split as a shell would."""
    return [shlex.split(line) for line in README.read_text().splitlines() if line.startswith(prefix)]


class TestReadmeExample:
    def test_dataset_command_writes_the_checked_in_file(self):
        ((python, *argv, redirect, target),) = readme_commands('python -c "')
        assert (python, redirect, target) == ("python", ">", "configs/bags_example.json")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(CONFIGS.parent / "src"), os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, *argv], cwd=CONFIGS.parent, env=env, capture_output=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout == (CONFIGS / target.split("/")[1]).read_bytes()

    def test_train_and_predict_commands_run(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        ((_, *train_args),), ((_, *predict_args),) = readme_commands("tsk train "), readme_commands("tsk predict ")
        for args in (train_args, predict_args):
            assert main([str(CONFIGS.parent / a) if a.startswith("configs/") else a for a in args]) == 0
        preds = json.loads((tmp_path / "preds.json").read_text())
        assert len(preds["predictions"]) == 40 and preds["accuracy"] == 1.0
