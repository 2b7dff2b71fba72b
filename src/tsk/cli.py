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

from .bounds import approx_error_summary
from .config import COMMANDS, read
from .errors import InputError, NumericalConsistencyError, config_float, config_int
from .experiments import ExperimentConfig, rate_report_csv, run_kme_coverage, run_rate_experiment
from .kme import embed_bags
from .rng import normals, stream
from .svm import build_gram, clip, decision_values, model_from_json, model_to_json, sgn, train
from .synth import bags_from_json
from .whitenoise import (
    MIN_MC,
    canonical_surjection_eval,
    characteristic_identity_check,
    feature_inner_mc,
    fit_geometric_noise,
    random_covariance,
    white_noise_isometry_check,
)


def _read_input(path: str) -> str:
    """The text of an input file (config, model or dataset); one that cannot be read as UTF-8 is an InputError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_json(path: str) -> dict:
    """A config or model file: one JSON object."""
    try:
        data = json.loads(_read_input(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path} must be a JSON object, got {data!r}")
    return data


def _load_config(args) -> dict:
    """The --config file, with --seed, when the command has it and it is given, in place of the file's seed."""
    cfg = _load_json(args.config)
    return cfg if getattr(args, "seed", None) is None else cfg | {"seed": args.seed}


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


def _write_json(path: str, payload: dict, indent: int | None = 2):
    _write_output(path, json.dumps(payload, indent=indent, sort_keys=True) + "\n")


def _cmd_rates(args) -> int:
    cfg = ExperimentConfig.from_json(_load_config(args))
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
    report = run_kme_coverage(_load_config(args))
    _write_json(args.out, report)
    worst = max((r["violation_rate"] - r["delta"] for r in report["results"]), default=0.0)
    print(f"kme-coverage: wrote {args.out} (worst rate-minus-delta {worst:+.4f})")
    return 0


def _cmd_whitenoise_verify(args) -> int:
    dim = config_int(args.dim, "--dim", minimum=1)
    gamma = config_float(args.gamma, "--gamma", above=0.0)
    seed = config_int(args.seed, "--seed", minimum=0)
    n_checks = config_int(args.checks, "--checks", minimum=1)
    n_mc = config_int(args.mc, "--mc", minimum=MIN_MC)
    checks = []
    for i in range(n_checks):
        gen = stream(seed, "verify-draw", i)
        q = random_covariance(dim, int(gen.integers(2**31)))
        h1 = normals(gen, dim)
        h2 = normals(gen, dim)
        lam = float(gen.uniform(0.2, 2.0))
        iso = white_noise_isometry_check(h1, h2, q, n_mc, seed + 7 * i + 1)
        char = characteristic_identity_check(h1, lam, q, n_mc, seed + 7 * i + 2)
        feat = feature_inner_mc(h1, h2, gamma, q, n_mc, seed + 7 * i + 3)
        wn = q.wn_coeff(h2)
        est, se = canonical_surjection_eval(
            lambda z: np.exp(1j * (np.sqrt(2.0) / gamma) * (z @ wn)), h1, gamma, q, n_mc, seed + 7 * i + 4
        )
        diff = h1 - h2
        target = float(np.exp(-np.dot(diff, diff) / gamma**2))
        surj = {"estimate": est, "std_error": se, "target": target, "pass": abs(est - target) <= 4.0 * se}
        checks.append({"isometry": iso.to_json(), "characteristic": char.to_json(), "feature_inner": feat.to_json(), "surjection": surj})
    all_pass = all(part["pass"] for c in checks for part in c.values())
    payload = {"dim": dim, "gamma": gamma, "n_mc": n_mc, "seed": seed, "checks": checks, "all_pass": all_pass}
    if args.out:
        _write_json(args.out, payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"whitenoise-verify: {'PASS' if all_pass else 'FAIL'} ({len(checks)} check groups)")
    return 0


def _cmd_noise_exponent(args) -> int:
    cfg = read(COMMANDS["noise-exponent"], _load_config(args))
    fit = fit_geometric_noise(
        cfg["meta"], cfg["covariance"], cfg["t_grid"], cfg["n_outer"], cfg["n_inner"], cfg["seed"], floor=cfg["floor"]
    )
    _write_json(args.out, fit.to_json())
    print(f"noise-exponent: alpha_hat={fit.alpha_hat:.4f} c_hat={fit.c_hat:.4f} valid={fit.valid}")
    return 0


def _cmd_approx_error(args) -> int:
    cfg = read(COMMANDS["approx-error"], _load_config(args))
    seeds = cfg["seeds"] if cfg["seed"] is None else (cfg["seed"],)
    summary = approx_error_summary(
        cfg["meta"], cfg["hilbert_kernel"], cfg["lambda_grid"], cfg["big_n"], cfg["embedding"], seeds,
        base_kernel=cfg["base_kernel"], input_space=cfg["input_space"], test_n=cfg["test_n"],
    )
    _write_json(args.out, summary)
    print(f"approx-error: wrote {args.out} (ahat {summary['ahat_mean']})")
    return 0


def _cmd_train(args) -> int:
    cfg = read(COMMANDS["train"], _load_config(args))
    lam, hk = cfg["lambda"], cfg["hilbert_kernel"]
    bags, labels = bags_from_json(_read_input(args.data))
    embs = embed_bags(cfg["base_kernel"], bags)
    model = train(build_gram(hk, embs), labels, lam, tol=cfg["tol"], max_sweeps=cfg["max_sweeps"], support=embs, hkernel=hk)
    # a model holds every support sample: written on one line, it goes through
    # json's C encoder, which an indent would switch off (~4x slower)
    _write_json(args.out, model_to_json(model), indent=None)
    status = "converged" if model.converged else "NOT converged"
    print(f"train: N={len(bags)} lambda={lam} kkt={model.kkt:.2e} {status} -> {args.out}")
    return 0


def _cmd_predict(args) -> int:
    model = model_from_json(_load_json(args.model))
    if not model.converged:
        print(f"warning: {args.model} was not converged (KKT residual {model.kkt:.3e}); predicting with it as it is", file=sys.stderr)
    bags, labels = bags_from_json(_read_input(args.data))
    vals = decision_values(model, embed_bags(model.support.kernel, bags))
    preds = sgn(clip(vals, model.clip_bound))
    records = [{"decision": float(val), "label": int(pred)} for val, pred in zip(vals, preds)]
    payload = {"predictions": records, "accuracy": int(np.sum(preds == labels)) / len(bags)}
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
