"""Command-line interface.

Subcommands: rates, kme-coverage, whitenoise-verify, noise-exponent,
approx-error, train, predict. Exit codes: 0 success, 2 input error
(including an output path that cannot be written, found before any
computation), 3 internal numerical-consistency error or a rate sweep in
which no row succeeded. All outputs are pure functions of (config, seed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .base_kernels import BaseKernel
from .bounds import approx_error_summary
from .errors import InputError, NumericalConsistencyError, config_float, config_floats, config_int, config_ints
from .experiments import ExperimentConfig, rate_report_csv, run_kme_coverage, run_rate_experiment
from .hilbert_kernel import HilbertKernel
from .kme import SampleSet
from .rng import normals, stream
from .svm import build_gram, clip, decision_values, model_from_json, model_to_json, sgn, train
from .synth import MetaDistribution, bags_from_json
from .whitenoise import (
    CovarianceOperator,
    canonical_surjection_eval,
    characteristic_identity_check,
    feature_inner_mc,
    fit_geometric_noise,
    random_covariance,
    white_noise_isometry_check,
)
from .kme import embed


def _load_json(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise InputError(f"file not found: {path}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc


def _check_writable(path: str):
    p = Path(path)
    if p.is_dir() or not p.parent.is_dir() or not os.access(p.parent, os.W_OK | os.X_OK):
        raise InputError(f"cannot write output {path}: not a file in an existing, writable directory")


def _write_output(path: str, text: str):
    """Write via a temporary file in the same directory and a rename, so no run leaves a truncated file."""
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_json(path: str, payload: dict):
    _write_output(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cmd_rates(args) -> int:
    cfg_data = _load_json(args.config)
    if args.seed is not None:
        cfg_data["seed"] = args.seed
    cfg = ExperimentConfig.from_json(cfg_data)
    report = run_rate_experiment(cfg, threads=args.threads)
    _write_output(args.out, rate_report_csv(report, timing=args.timing))
    if args.summary:
        _write_json(args.summary, report.summary_json(cfg))
    print(f"rates: wrote {len(report.rows)} rows to {args.out} (slope {report.slope:.4f})")
    if len(report.failures) == len(report.rows):
        print(f"error: no row succeeded; first failure: {report.failures[0]}", file=sys.stderr)
        return 3
    return 0


def _cmd_kme_coverage(args) -> int:
    params = _load_json(args.config)
    seed = args.seed if args.seed is not None else params.get("seed", 0)
    report = run_kme_coverage(params, seed)
    _write_json(args.out, report)
    worst = max((r["violation_rate"] - r["delta"] for r in report["results"]), default=0.0)
    print(f"kme-coverage: wrote {args.out} (worst rate-minus-delta {worst:+.4f})")
    return 0


def _cmd_whitenoise_verify(args) -> int:
    dim, gamma, n_mc, seed = args.dim, args.gamma, args.mc, args.seed
    checks = []
    for i in range(args.checks):
        gen = stream(seed, "verify-draw", i)
        q = random_covariance(dim, int(gen.integers(2**31)))
        h1 = normals(gen, dim)
        h2 = normals(gen, dim)
        lam = float(gen.uniform(0.2, 2.0))
        iso = white_noise_isometry_check(h1, h2, q, n_mc, seed + 7 * i + 1)
        char = characteristic_identity_check(h1, lam, q, n_mc, seed + 7 * i + 2)
        feat = feature_inner_mc(h1, h2, gamma, q, n_mc, seed + 7 * i + 3)
        x, xp = h1, h2
        wn = q.wn_coeff(xp)
        est, se = canonical_surjection_eval(
            lambda z: np.exp(1j * (np.sqrt(2.0) / gamma) * (z @ wn)), x, gamma, q, n_mc, seed + 7 * i + 4
        )
        diff = np.asarray(x) - np.asarray(xp)
        target = float(np.exp(-np.dot(diff, diff) / gamma**2))
        surj = {
            "estimate": est,
            "std_error": se,
            "target": target,
            "pass": abs(est - target) <= 4.0 * se,
        }
        checks.append(
            {
                "isometry": iso.to_json(),
                "characteristic": char.to_json(),
                "feature_inner": feat.to_json(),
                "surjection": surj,
            }
        )
    all_pass = all(
        c["isometry"]["pass"] and c["characteristic"]["pass"] and c["feature_inner"]["pass"] and c["surjection"]["pass"]
        for c in checks
    )
    payload = {"dim": dim, "gamma": gamma, "n_mc": n_mc, "seed": seed, "checks": checks, "all_pass": all_pass}
    if args.out:
        _write_json(args.out, payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"whitenoise-verify: {'PASS' if all_pass else 'FAIL'} ({len(checks)} check groups)")
    return 0


def _cmd_noise_exponent(args) -> int:
    cfg = _load_json(args.config)
    try:
        meta = MetaDistribution.from_config(cfg["meta"])
        q = CovarianceOperator.from_config(cfg["covariance"])
        t_grid = [float(t) for t in cfg["t_grid"]]
        n_outer = config_int(cfg["n_outer"], "n_outer")
        n_inner = config_int(cfg["n_inner"], "n_inner")
        seed = config_int(cfg["seed"] if args.seed is None else args.seed, "seed", minimum=0)
        floor = float(cfg.get("floor", 1e-12))
    except KeyError as exc:
        raise InputError(f"noise-exponent config missing field {exc}") from exc
    except InputError:
        raise
    except (TypeError, ValueError) as exc:
        raise InputError(f"noise-exponent config has a malformed field: {exc}") from exc
    fit = fit_geometric_noise(meta, q, t_grid, n_outer, n_inner, seed, floor=floor)
    _write_json(args.out, fit.to_json())
    print(f"noise-exponent: alpha_hat={fit.alpha_hat:.4f} c_hat={fit.c_hat:.4f} valid={fit.valid}")
    return 0


def _cmd_approx_error(args) -> int:
    cfg = _load_json(args.config)
    try:
        meta = MetaDistribution.from_config(cfg["meta"])
        hk = HilbertKernel.from_config(cfg["hilbert_kernel"])
        lam_grid = config_floats(cfg["lambda_grid"], "lambda_grid", above=0.0)
        big_n = config_int(cfg["big_n"], "big_n")
        embedding = cfg.get("embedding", "exact")
        embedding = embedding if embedding == "exact" else config_int(embedding, "embedding", minimum=1)
        seeds = config_ints(cfg.get("seeds", [cfg.get("seed", 0)]), "seeds", minimum=0)
        test_n = None if cfg.get("test_n") is None else config_int(cfg["test_n"], "test_n")
    except KeyError as exc:
        raise InputError(f"approx-error config missing field {exc}") from exc
    base = BaseKernel.from_config(cfg["base_kernel"]) if "base_kernel" in cfg else None
    summary = approx_error_summary(
        meta,
        hk,
        lam_grid,
        big_n,
        embedding,
        seeds,
        base_kernel=base,
        input_space=cfg.get("input_space", "kme"),
        test_n=test_n,
    )
    _write_json(args.out, summary)
    print(f"approx-error: wrote {args.out} (ahat {summary['ahat_mean']})")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_json(args.config)
    try:
        base = BaseKernel.from_config(cfg["base_kernel"])
        hk = HilbertKernel.from_config(cfg["hilbert_kernel"])
        lam = config_float(cfg["lambda"], "lambda", above=0.0)
        tol = config_float(cfg.get("tol", 1e-8), "tol", above=0.0)
        max_sweeps = config_int(cfg.get("max_sweeps", 10_000), "max_sweeps", minimum=1)
    except KeyError as exc:
        raise InputError(f"train config missing field {exc}") from exc
    data_path = Path(args.data)
    if not data_path.exists():
        raise InputError(f"dataset file not found: {args.data}")
    bags, labels = bags_from_json(data_path.read_text())
    embs = [embed(base, b) for b in bags]
    gram = build_gram(hk, embs)
    model = train(
        gram,
        labels,
        lam,
        tol=tol,
        max_sweeps=max_sweeps,
        support=embs,
        hkernel=hk,
    )
    _write_json(args.out, model_to_json(model))
    print(
        f"train: N={len(bags)} lambda={lam} kkt={model.kkt:.2e} "
        f"{'converged' if model.converged else 'NOT converged'} -> {args.out}"
    )
    return 0


def _cmd_predict(args) -> int:
    model = model_from_json(_load_json(args.model))
    data_path = Path(args.data)
    if not data_path.exists():
        raise InputError(f"dataset file not found: {args.data}")
    bags, labels = bags_from_json(data_path.read_text())
    base = model.support[0].kernel
    vals = decision_values(model, [embed(base, bag) for bag in bags])
    preds = [int(sgn(clip(val, model.clip_bound))) for val in vals]
    records = [{"decision": float(val), "label": pred} for val, pred in zip(vals, preds)]
    correct = sum(pred == label for pred, label in zip(preds, labels))
    payload = {"predictions": records, "accuracy": correct / len(bags)}
    _write_json(args.out, payload)
    print(f"predict: {len(bags)} bags, accuracy {payload['accuracy']:.4f} -> {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tsk", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("rates", help="learning-rate sweep over the schedule grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--summary", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--timing", action="store_true", help="fill the wall_seconds column (breaks bitwise reruns)")
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("kme-coverage", help="embedding concentration coverage rates")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_kme_coverage)

    p = sub.add_parser("whitenoise-verify", help="white-noise and feature-space MC checks")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--mc", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--checks", type=int, default=5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_whitenoise_verify)

    p = sub.add_parser("noise-exponent", help="geometric-noise integrals and power-law fit")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_noise_exponent)

    p = sub.add_parser("approx-error", help="approximation-error function estimate")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_approx_error)

    p = sub.add_parser("train", help="train an SVM on a bag dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict labels for a bag dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        for path in (vars(args).get("out"), vars(args).get("summary")):
            if path is not None:
                _check_writable(path)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalConsistencyError as exc:
        print(f"numerical-consistency error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
