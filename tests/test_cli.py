import hashlib
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from tsk import BaseKernel, HilbertKernel
from tsk.cli import main
from tsk.errors import InputError, NumericalConsistencyError
from tsk.experiments import ExperimentConfig, run_rate_experiment
from tsk.kme import ExactBatch
from tsk.svm import build_gram, model_to_json, train
from tsk.synth import MetaDistribution, bags_to_json, sample_first_stage, sample_second_stage

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# The sha256 pins in this file hold on one machine and one numpy/scipy build.
# They pass with numpy 2.4.6, scipy 1.17.1 and Python 3.11.7 on an x86-64 CPU
# whose numpy dispatch reaches AVX512_SPR. With NPY_DISABLE_CPU_FEATURES=
# "AVX512_SPR AVX512_ICL X86_V4" numpy's exp/log/power kernels change last bits,
# and this pin and APPROX_ERROR_EXACT_SHA256 fail; RATES_EXACT_SHA256 holds.
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
        cfg.write_text(json.dumps(SMOKE_RATES | {"row_time_cap_s": 1e-6}))
        out = tmp_path / "o.csv"
        assert main(["rates", "--config", str(cfg), "--out", str(out)]) == 3
        assert "RowTimeout" in capsys.readouterr().err
        row = dict(zip(*(line.split(",") for line in out.read_text().splitlines())))
        assert row["oracle_violated"] == "nan"

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
    ("noise-exponent", NOISE_EXPONENT, {"covariance": {"eigenvalues": [1.0, 0.8, 0.6, 0.4, 0.2], "rotation_seed": 3.7}}),
]


@pytest.mark.parametrize("cmd, base, fields", NON_INTEGER_SIZES)
def test_non_integer_size_exits_2(tmp_path, capsys, cmd, base, fields):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(base | fields))
    assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "must be an integer" in err and any(name in err for name in fields)


def test_train_non_integer_max_sweeps_exits_2(tmp_path, capsys):
    data, cfg = tmp_path / "bags.json", tmp_path / "cfg.json"
    write_dataset(data)
    cfg.write_text(json.dumps(json.loads((CONFIGS / "train_example.json").read_text()) | {"max_sweeps": 100.5}))
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "m.json")]) == 2
    assert "must be an integer" in capsys.readouterr().err


COV_EIGENVALUES = {"eigenvalues": [1.0, 0.8, 0.6, 0.4, 0.2]}
NOT_FINITE_NUMBERS = [
    ("rates", SMOKE_RATES, {"schedule": {"kind": "thm55", "alpha": "x", "mu": 0.25}}, "must be a finite number"),
    ("rates", SMOKE_RATES, {"row_time_cap_s": 0}, "must be > 0"),
    ("kme-coverage", KME_COVERAGE, {"sigma": "wide"}, "must be a finite number"),
    ("approx-error", json.loads((CONFIGS / "approx_error_hard_margin.json").read_text()), {"lambda_grid": ["a", 0.1]}, "must be a finite number"),
    ("approx-error", json.loads((CONFIGS / "approx_error_hard_margin.json").read_text()), {"lambda_grid": [0.0, 0.1]}, "must be > 0"),
    ("kme-coverage", KME_COVERAGE, {"mean": ["a", "b"]}, "mean must be a finite number"),
    ("noise-exponent", NOISE_EXPONENT, {"t_grid": ["2.0", 1, 0.5, 0.25]}, "t_grid must be a finite number"),
    ("noise-exponent", NOISE_EXPONENT, {"t_grid": [True, 1, 0.5, 0.25]}, "t_grid must be a finite number"),
    ("noise-exponent", NOISE_EXPONENT, {"floor": "1e-12"}, "floor must be a finite number"),
    ("noise-exponent", NOISE_EXPONENT, {"covariance": {"eigenvalues": ["1", "0.5", "0.5", "0.5", "0.5"]}}, "eigenvalues must be a finite number"),
    ("noise-exponent", NOISE_EXPONENT, {"covariance": COV_EIGENVALUES | {"eigenvectors": [[str(v) for v in row] for row in np.eye(5)]}}, "eigenvectors must be a finite number"),
    ("noise-exponent", NOISE_EXPONENT, {"covariance": COV_EIGENVALUES | {"eigenvectors": [[bool(v) for v in row] for row in np.eye(5)]}}, "eigenvectors must be a finite number"),
    ("noise-exponent", NOISE_EXPONENT, {"covariance": COV_EIGENVALUES | {"eigenvectors": [[math.nan] * 5] + np.eye(5)[1:].tolist()}}, "eigenvectors must be a finite number"),
    ("noise-exponent", NOISE_EXPONENT, {"covariance": COV_EIGENVALUES | {"eigenvectors": ["1 0 0 0 0"] + np.eye(5)[1:].tolist()}}, "eigenvectors must be a list of numbers"),
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
    # every row would fail on these, so they are rejected at load
    (None, "tau", 0.5, "tau must be >= 1"),
    (None, "hilbert_kernel", {"family": "linear"}, "defined for the gaussian family only"),
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
    ("noise-exponent", NOISE_EXPONENT, {"covariance": COV_EIGENVALUES | {"eigenvectors": 5}}, "eigenvectors must be a list of 5 rows of 5 numbers"),
    ("noise-exponent", NOISE_EXPONENT, {"covariance": COV_EIGENVALUES | {"eigenvectors": np.eye(5)[:, :4].tolist()}}, "eigenvectors must be a list of 5 rows"),
    ("noise-exponent", NOISE_EXPONENT, {"covariance": COV_EIGENVALUES | {"eigenvectors": [[1.0]] + np.eye(5)[1:].tolist()}}, "eigenvectors must be a list of 5 rows"),
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


# sha256 of the outputs on a small exact-embedding config, recorded before
# embeddings were carried as batches (the environment is noted at NOISE_FIT_SHA256)
RATES_EXACT_SHA256 = {
    "csv": "a958edd8c9fa1f770e8fb65a90ea7a3f2ee3120eefec7bc04796a91a4f64298d",
    "summary": "1047ef40508432f413846fa4cf71020b9e8b0442b7fd9b8ce7ef2e4c6504c64b",
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

    def _exact_model(self, tmp_path):
        """A model JSON trained on exact Gaussian embeddings, and a dataset to predict."""
        means, labels = sample_first_stage(MetaDistribution("hard_margin", 2, 2.0, 0.25, 0.5, 0.5, margin=1.0), 6, 3)
        support = ExactBatch(BaseKernel("gaussian", 1.0, 2), means, np.full(6, 0.5))
        hk = HilbertKernel("gaussian", 1.0)
        model = model_to_json(train(build_gram(hk, support), labels, 0.1, support=support, hkernel=hk))
        data = tmp_path / "bags.json"
        write_dataset(data)
        return model, data

    def _predict_exit(self, tmp_path, model, data):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        return main(["predict", "--model", str(path), "--data", str(data), "--out", str(tmp_path / "p.json")])

    def test_exact_support_predicts(self, tmp_path):
        model, data = self._exact_model(tmp_path)
        assert self._predict_exit(tmp_path, model, data) == 0

    def test_nan_spread_in_support_exits_2(self, tmp_path, capsys):
        model, data = self._exact_model(tmp_path)
        model["support"][2]["spread"] = math.nan
        assert self._predict_exit(tmp_path, model, data) == 2
        assert "spread must be a finite number" in capsys.readouterr().err

    def test_nan_mean_in_support_exits_2(self, tmp_path, capsys):
        model, data = self._exact_model(tmp_path)
        model["support"][0]["mean"][1] = math.nan
        assert self._predict_exit(tmp_path, model, data) == 2
        assert "mean must be a finite number" in capsys.readouterr().err

    def test_support_mixing_means_and_bags_exits_2(self, tmp_path, capsys):
        model, data = self._exact_model(tmp_path)
        model["support"][1] = {"samples": [[0.0, 0.0], [1.0, 1.0]]}
        assert self._predict_exit(tmp_path, model, data) == 2
        assert "missing field support[1].mean" in capsys.readouterr().err  # support[0] sets the kind of every record

    def test_missing_data_file(self, tmp_path, capsys):
        code = main(["train", "--config", str(CONFIGS / "train_example.json"), "--data", str(tmp_path / "no.json"), "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "no.json" in capsys.readouterr().err
