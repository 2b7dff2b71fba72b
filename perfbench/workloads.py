"""The benchmark workloads: inputs, one job each, and output checks.

Each workload is a closed-loop batch job for a single caller. `prepare` builds
the inputs of one job from an input seed (this is set-up), `run` executes the
job through the public `tsk` entry points and returns its output bytes and
operation counts, and `check` returns the names of the output checks that
failed. Sizes are scaled down from the reference configs so that one
measured window holds many jobs; `SIZES` records the scale.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
RECORDED = json.loads((Path(__file__).resolve().parent / "recorded.json").read_text())

# input sizes per workload, next to the reference config each one scales
SIZES = {
    "rates_exact": {"config": "rates_hard_margin.json", "n_grid": [32, 64, 128, 256], "replicates": 10},
    # the reference test set, a training set small enough for 110-160 estimates per window
    "approx_error": {"config": "approx_error_hard_margin.json", "big_n": 10, "test_n": 2000},
    "noise_exponent": {"config": "noise_exponent_r5.json", "n_outer": 1000, "n_inner": 2000},
    # bags are drawn from the wide-margin meta-distribution of the approx-error config
    "train_predict": {"config": "train_example.json", "meta": "approx_error_hard_margin.json", "train_bags": 60, "test_bags": 60, "bag_size": 50},
}

# outputs are recorded at one reference seed per workload (the config's seed where it has one)
REFERENCE_SEED = {name: rec["seed"] for name, rec in RECORDED.items()}


def input_seed(seed: int, i: int) -> int:
    """Seed of the i-th job of a run: the workload seed itself, then derived ones."""
    if i == 0:
        return seed
    digest = hashlib.blake2b(f"{seed}:{i}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass
class JobResult:
    output: bytes
    operations: int  # rows, t values or CLI calls attempted
    failed: int  # operations that raised, returned an error row or a nonzero exit
    details: dict = field(default_factory=dict)


def _config(name: str, key: str = "config") -> dict:
    return json.loads((CONFIGS / SIZES[name][key]).read_text())


class RatesExact:
    name = "rates_exact"

    def prepare(self, seed: int, workdir: Path):
        from tsk import ExperimentConfig

        cfg = _config(self.name)
        cfg.update(n_grid=SIZES[self.name]["n_grid"], replicates=SIZES[self.name]["replicates"], seed=seed)
        return ExperimentConfig.from_json(cfg)

    def run(self, cfg) -> JobResult:
        from tsk.experiments import rate_report_csv, run_rate_experiment

        rep = run_rate_experiment(cfg, threads=1)
        out = rate_report_csv(rep) + json.dumps(rep.summary_json(cfg), sort_keys=True)
        return JobResult(
            out.encode(),
            operations=len(rep.rows),
            failed=sum(1 for r in rep.rows if r.error),
            details={"report": rep, "row_seconds": [r.wall_seconds for r in rep.rows]},
        )

    def check(self, cfg, res: JobResult, reference: bool) -> list:
        rep = res.details["report"]
        failed = []
        if rep.failures:
            failed.append("rates_exact: failed rows")
        ok_rows = [r for r in rep.rows if not r.error]
        n = len(ok_rows)
        if n:
            rate = sum(r.oracle_violated for r in ok_rows) / n
            se = math.sqrt(max(rate * (1.0 - rate), 0.25 / n) / n)
            if rate > 4.0 * math.exp(-1.0) + 2.0 * se:
                failed.append("rates_exact: oracle violation rate above the c09 limit")
        med = rep.medians_excess_01
        if not (med[-1] <= 0.05 and rep.slope <= -0.25):
            failed.append("rates_exact: learning curve (final median <= 0.05, slope <= -0.25)")
        if reference:
            want = RECORDED[self.name]
            if abs(rep.slope - want["slope"]) > 0.35 or abs(med[0] - want["first_median"]) > 0.05:
                failed.append("rates_exact: slope or first median off the recorded reference")
        return failed


class ApproxError:
    name = "approx_error"

    def prepare(self, seed: int, workdir: Path):
        from tsk import BaseKernel, HilbertKernel, MetaDistribution

        cfg = _config(self.name)
        return {
            "meta": MetaDistribution.from_config(cfg["meta"]),
            "base": BaseKernel.from_config(cfg["base_kernel"]),
            "hk": HilbertKernel.from_config(cfg["hilbert_kernel"]),
            "lam_grid": [float(lam) for lam in cfg["lambda_grid"]],
            "seed": seed,
        }

    def run(self, p) -> JobResult:
        from tsk.bounds import approx_error_estimate

        s = SIZES[self.name]
        est = approx_error_estimate(
            p["meta"], p["hk"], p["lam_grid"], s["big_n"], "exact", p["seed"],
            base_kernel=p["base"], test_n=s["test_n"],
        )
        out = json.dumps(est.to_json(), sort_keys=True).encode()
        return JobResult(out, operations=len(p["lam_grid"]), failed=0, details={"estimate": est})

    def check(self, p, res: JobResult, reference: bool) -> list:
        ahat = res.details["estimate"].ahat
        failed = []
        if not all(math.isfinite(a) and a >= 0.0 for a in ahat):
            failed.append("approx_error: Ahat not finite and nonnegative")
        # the lambda grid is increasing, and so is A(lambda) by definition
        if not all(a <= b for a, b in zip(ahat, ahat[1:])):
            failed.append("approx_error: Ahat not monotone in lambda")
        if reference:
            want = RECORDED[self.name]
            if any(abs(a - m) > 3.0 * sd for a, m, sd in zip(ahat, want["ahat_mean"], want["ahat_sd"])):
                failed.append("approx_error: Ahat more than 3 per-seed SDs off the recorded mean")
        return failed


class NoiseExponent:
    name = "noise_exponent"

    def prepare(self, seed: int, workdir: Path):
        from tsk.whitenoise import CovarianceOperator
        from tsk import MetaDistribution

        cfg = _config(self.name)
        return {
            "meta": MetaDistribution.from_config(cfg["meta"]),
            "q": CovarianceOperator.from_config(cfg["covariance"]),
            "t_grid": [float(t) for t in cfg["t_grid"]],
            "floor": float(cfg.get("floor", 1e-12)),
            "seed": seed,
        }

    def run(self, p) -> JobResult:
        from tsk.whitenoise import fit_geometric_noise

        s = SIZES[self.name]
        fit = fit_geometric_noise(p["meta"], p["q"], p["t_grid"], s["n_outer"], s["n_inner"], p["seed"], floor=p["floor"])
        # the bytes `tsk noise-exponent` writes
        out = (json.dumps(fit.to_json(), indent=2, sort_keys=True) + "\n").encode()
        return JobResult(out, operations=len(p["t_grid"]), failed=0, details={"fit": fit})

    def check(self, p, res: JobResult, reference: bool) -> list:
        fit = res.details["fit"]
        failed = []
        # inner draws are shared across the t grid, so as t grows I1 falls and
        # I2 rises exactly, draw by draw
        by_t = sorted(zip(fit.t_grid, fit.i1_values, fit.i2_values))
        i1 = [v for _, v, _ in by_t]
        i2 = [v for _, _, v in by_t]
        if not (all(a >= b for a, b in zip(i1, i1[1:])) and all(a <= b for a, b in zip(i2, i2[1:]))):
            failed.append("noise_exponent: integrals not monotone in t")
        if list(fit.fit_values) != [max(a, b) for a, b in zip(fit.i1_values, fit.i2_values)]:
            failed.append("noise_exponent: fitted values are not max(I1, I2)")
        if not math.isfinite(fit.alpha_hat):
            failed.append("noise_exponent: exponent not finite")
        if reference and hashlib.sha256(res.output).hexdigest() != RECORDED[self.name]["fit_sha256"]:
            failed.append("noise_exponent: fit JSON differs from the recorded bytes")
        return failed


class TrainPredict:
    name = "train_predict"

    def prepare(self, seed: int, workdir: Path):
        """Generate train and test bag sets and write them as dataset JSON."""
        from tsk import MetaDistribution
        from tsk.rng import subseed
        from tsk.synth import bags_to_json, sample_first_stage, sample_second_stage

        s = SIZES[self.name]
        meta = MetaDistribution.from_config(_config(self.name, "meta")["meta"])
        workdir.mkdir(parents=True, exist_ok=True)
        paths = {}
        for part, n in (("train", s["train_bags"]), ("test", s["test_bags"])):
            means, labels = sample_first_stage(meta, n, subseed(seed, part))
            bags = [
                sample_second_stage((m, meta.bag_spread), s["bag_size"], subseed(seed, part, i))
                for i, m in enumerate(means)
            ]
            paths[part] = workdir / f"{part}.json"
            paths[part].write_text(bags_to_json(bags, labels))
        paths["model"] = workdir / "model.json"
        paths["preds"] = workdir / "preds.json"
        paths["config"] = CONFIGS / s["config"]
        return paths

    def run(self, p) -> JobResult:
        from tsk.cli import main

        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc_train = main(["train", "--config", str(p["config"]), "--data", str(p["train"]), "--out", str(p["model"])])
            rc_pred = main(["predict", "--model", str(p["model"]), "--data", str(p["test"]), "--out", str(p["preds"])])
        out = b""
        if rc_train == 0 and rc_pred == 0:
            out = p["model"].read_bytes() + p["preds"].read_bytes()
        return JobResult(out, operations=2, failed=int(rc_train != 0) + int(rc_pred != 0), details={"rc": (rc_train, rc_pred)})

    def check(self, p, res: JobResult, reference: bool) -> list:
        if res.details["rc"] != (0, 0):
            return [f"train_predict: CLI exit codes {res.details['rc']}"]
        failed = []
        model = json.loads(p["model"].read_text())
        if not model["converged"]:
            failed.append("train_predict: model reports converged=false")
        preds = json.loads(p["preds"].read_text())
        labels = [r["label"] for r in preds["predictions"]]
        if any(lab not in (-1, 1) for lab in labels) or len(labels) != SIZES[self.name]["test_bags"]:
            failed.append("train_predict: malformed predictions")
        # the class supports are at least 2r = 2 apart, so nearly every bag is separable
        if preds["accuracy"] < 0.9:
            failed.append(f"train_predict: test accuracy {preds['accuracy']} below 0.9")
        if reference and labels != RECORDED[self.name]["labels"]:
            failed.append("train_predict: predicted labels differ from the recorded ones")
        return failed


WORKLOADS = {w.name: w for w in (RatesExact(), ApproxError(), NoiseExponent(), TrainPredict())}
