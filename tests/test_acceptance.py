"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criteria 8 and 9 share a single reference sweep (module-scoped fixture).
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from tsk import (
    BaseKernel,
    ExperimentConfig,
    GramMatrix,
    HilbertKernel,
    MetaDistribution,
    run_kme_coverage,
    run_rate_experiment,
    train,
)
from tsk.bounds import approx_error_estimate
from tsk.cli import main as cli_main
from tsk.rng import normals, stream
from tsk.whitenoise import (
    CovarianceOperator,
    canonical_surjection_eval,
    characteristic_identity_check,
    feature_inner_mc,
    fit_geometric_noise,
    random_covariance,
    white_noise_isometry_check,
)

from oracles import kkt_residual, pgd_dual_objectives, primal_grid_min, primal_objective, rand_psd, regularized_empirical_risk

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def report(cid: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{cid}: {detail}"


# --- pre-build fixtures (frozen from the runs recorded in the repo history) ---
# approx-error on configs/approx_error_hard_margin.json (big_N = 2000, 5 seeds)
AHAT_FIXTURE_MEAN = [0.003476095533035133, 0.0346768673414943, 0.3372483581618949, 0.9248319991407168]
AHAT_FIXTURE_SE = [2.9285991414649117e-07, 6.80364989816269e-06, 7.195876712633028e-05, 3.550485510384585e-05]
# rates on configs/rates_hard_margin.json, seed 42
RATE_SLOPE_FIXTURE = -1.618380847466353
RATE_FIRST_MEDIAN_FIXTURE = 0.089


def test_criterion_01_kme_concentration_coverage():
    params = json.loads((CONFIGS / "kme_coverage.json").read_text())
    rep = run_kme_coverage(params)
    worst = max(r["violation_rate"] - r["delta"] for r in rep["results"])
    ok = all(r["violation_rate"] < r["delta"] for r in rep["results"])
    rates = {(r["bag_size"], r["delta"]): r["violation_rate"] for r in rep["results"]}
    # pre-build fixture: the bound is loose at these sizes, zero violations observed
    ok = ok and all(v == 0.0 for v in rates.values())
    report("c01 kme-coverage", ok, f"violation rates {rates}, worst margin {worst:+.4f}")


def _dual_instances(n_instances=200, seed=20240) -> list:
    rng = np.random.default_rng(seed)
    out = []
    for trial in range(n_instances):
        n = int(rng.integers(1, 7))
        k = rand_psd(rng, n)
        y = rng.choice([-1.0, 1.0], size=n)
        out.append((k, y, [0.01, 0.1, 1.0][trial % 3]))
    return out


def test_criterion_02_svm_dual_correctness():
    instances = _dual_instances()
    # the oracle stops once weak duality certifies every value to 1e-10, within 10^6 steps
    oracle, oracle_gaps = pgd_dual_objectives(instances, iters=10**6, gap_tol=1e-10)
    worst_dual = worst_kkt = worst_grid = worst_gap = 0.0
    grid_checked = 0
    for idx, ((k, y, lam), target) in enumerate(zip(instances, oracle)):
        gram = GramMatrix(k)
        model = train(gram, y, lam, tol=1e-10)
        worst_dual = max(worst_dual, abs(model.objective - target))
        worst_kkt = max(worst_kkt, kkt_residual(model, gram, y))
        # tsk's own certificate: the primal objective of its f against its dual objective
        worst_gap = max(worst_gap, primal_objective(k, y, lam, model.dual_coefs) - model.objective)
        if k.shape[0] <= 3:
            grid = primal_grid_min(k, y, lam, seed=idx)
            worst_grid = max(worst_grid, abs(model.objective - grid))
            grid_checked += 1
    oracle_gap = max(oracle_gaps)
    ok = oracle_gap <= 1e-10 and worst_dual <= 1e-6 and worst_kkt <= 1e-6 and worst_grid <= 1e-5 and worst_gap <= 1e-6
    report(
        "c02 svm-dual",
        ok,
        f"200 instances: pgd gap max {oracle_gap:.2e}, |dual-pgd| max {worst_dual:.2e}, "
        f"primal-dual gap of tsk max {worst_gap:.2e}, kkt max {worst_kkt:.2e}, "
        f"|dual-grid| max {worst_grid:.2e} over {grid_checked} small instances",
    )


def test_criterion_03_analytic_fixtures():
    g1 = GramMatrix(np.array([[1.0]]))
    m1 = train(g1, [1], 1.0)
    r1 = regularized_empirical_risk(m1, g1, [1], 1.0)
    g2 = GramMatrix(np.eye(2))
    m2 = train(g2, [1, -1], 0.25)
    r2 = regularized_empirical_risk(m2, g2, [1, -1], 0.25)
    # the residual each solve reports, against the oracle's formula
    kkt_gap = max(abs(m1.kkt - kkt_residual(m1, g1, [1])), abs(m2.kkt - kkt_residual(m2, g2, [1, -1])))
    ok = abs(r1 - 0.75) <= 1e-10 and abs(r2 - 0.5) <= 1e-10 and kkt_gap <= 1e-12
    report("c03 analytic-fixtures", ok, f"N=1 risk {r1!r}, N=2 risk {r2!r}, |reported kkt - oracle kkt| {kkt_gap:.1e}")


def test_criterion_04_clippability():
    rng = np.random.default_rng(7)
    worst = -np.inf
    for _ in range(100):
        n = int(rng.integers(1, 13))
        gram = GramMatrix(rand_psd(rng, n))
        y = rng.choice([-1.0, 1.0], size=n)
        model = train(gram, y, float(rng.uniform(0.005, 2.0)))
        clipped = regularized_empirical_risk(model, gram, y, model.lam, clipped=True)
        unclipped = regularized_empirical_risk(model, gram, y, model.lam, clipped=False)
        worst = max(worst, clipped - unclipped)
    ok = worst <= 1e-12
    report("c04 clippability", ok, f"max clipped-minus-unclipped {worst:.2e} over 100 models")


def _two_covariances():
    q_a = CovarianceOperator(np.array([1.0, 0.8, 0.6, 0.4, 0.2]), np.eye(5))
    q_b = random_covariance(5, 505)
    return q_a, q_b


def test_criterion_05_feature_space_monte_carlo():
    n_mc = 200_000
    details = []
    ok = True
    for tag, q in zip(("Qa", "Qb"), _two_covariances()):
        passes = 0
        for i in range(25):
            gen = stream(42, "c5-pair", i)
            x = 0.6 * normals(gen, 5)
            xp = 0.6 * normals(gen, 5)
            r = feature_inner_mc(x, xp, 1.0, q, n_mc, 9000 + i)
            passes += int(r.passed)
        details.append(f"{tag} {passes}/25")
        ok = ok and passes >= 24
    surj_pass = 0
    q_a, _ = _two_covariances()
    for i in range(10):
        gen = stream(43, "c5-surj", i)
        x = 0.5 * normals(gen, 5)
        xp = 0.5 * normals(gen, 5)
        wn = q_a.wn_coeff(xp)
        est, se = canonical_surjection_eval(
            lambda z: np.exp(1j * math.sqrt(2.0) * (z @ wn)), x, 1.0, q_a, n_mc, 9500 + i
        )
        target = math.exp(-float(np.sum((x - xp) ** 2)))
        surj_pass += int(abs(est - target) <= 4.0 * se)
    ok = ok and surj_pass == 10
    report("c05 feature-space-mc", ok, f"inner {details}, surjection {surj_pass}/10")


def test_criterion_06_white_noise_identities():
    n_mc = 100_000
    passes = 0
    for i in range(20):
        gen = stream(44, "c6", i)
        q = random_covariance(4, 600 + i)
        h1, h2 = normals(gen, 4), normals(gen, 4)
        lam = float(gen.uniform(0.2, 2.0))
        char = characteristic_identity_check(h1, lam, q, n_mc, 7000 + i)
        iso = white_noise_isometry_check(h1, h2, q, n_mc, 7100 + i)
        passes += int(char.passed and iso.passed)
    ok = passes == 20
    report("c06 white-noise", ok, f"{passes}/20 joint characteristic+isometry checks at 4 SE")


def test_criterion_07_geometric_noise_pipeline():
    meta = MetaDistribution("hard_margin", 5, 2.0, 0.25, 0.0, 0.5, margin=1.0)
    q = CovarianceOperator(np.array([1.0, 0.8, 0.6, 0.4, 0.2]), np.eye(5))
    t_grid = [2.0, 1.0, 0.5, 0.25]  # gamma^2 < t_bar = 2 for every test gamma
    fit = fit_geometric_noise(meta, q, t_grid, n_outer=3000, n_inner=2000, seed=99)
    se_c = max(max(fit.i1_se), max(fit.i2_se))
    lines = [f"alpha_hat {fit.alpha_hat:.3f}, C_hat {fit.c_hat:.3f}, valid {fit.valid}"]
    ok = True
    for gamma in (0.25, 0.5, 1.0):
        est_runs = [
            approx_error_estimate(
                meta, HilbertKernel(gamma), [0.01, 0.1], 2000, "exact",
                seed, test_n=2000,  # no base kernel: the means are the Hilbert-space points
            )
            for seed in (31, 32, 33)
        ]
        ahat = np.array([r.ahat for r in est_runs])
        mean = ahat.mean(axis=0)
        se = ahat.std(axis=0, ddof=1) / math.sqrt(3)
        for j, lam in enumerate((0.01, 0.1)):
            rhs = 2.0 * fit.c_hat * gamma ** (2.0 * fit.alpha_hat) + lam
            combined_se = math.hypot(se[j], 2.0 * gamma ** (2.0 * fit.alpha_hat) * se_c)
            holds = mean[j] <= rhs + 3.0 * combined_se
            ok = ok and holds
            lines.append(f"gamma={gamma} lam={lam}: ahat {mean[j]:.4f} <= {rhs:.3f}+3se {holds}")
    report("c07 geometric-noise", ok, "; ".join(lines))


@pytest.fixture(scope="module")
def reference_rate_report():
    cfg = ExperimentConfig.from_json(json.loads((CONFIGS / "rates_hard_margin.json").read_text()))
    return run_rate_experiment(cfg), cfg


def test_criterion_08_learning_curve(reference_rate_report):
    rep, cfg = reference_rate_report
    assert not rep.failures, f"failed rows: {rep.failures}"
    med = rep.medians_excess_01
    ses = rep.median_ses
    monotone = all(
        med[i + 1] <= med[i] + 2.0 * math.hypot(ses[i], ses[i + 1]) for i in range(len(med) - 1)
    )
    final_ok = med[-1] <= 0.05
    slope_ok = rep.slope <= -0.25
    # regression guard against the recorded pre-build run (loose enough for
    # last-ulp backend drift)
    fixture_ok = abs(rep.slope - RATE_SLOPE_FIXTURE) <= 0.35 and abs(med[0] - RATE_FIRST_MEDIAN_FIXTURE) <= 0.05
    ok = monotone and final_ok and slope_ok and fixture_ok
    report(
        "c08 learning-curve",
        ok,
        f"medians {[f'{m:.4f}' for m in med]}, slope {rep.slope:.3f} (<= -0.25), "
        f"final {med[-1]:.4f} (<= 0.05), monotone {monotone}",
    )


def test_criterion_09_oracle_inequality_monitoring(reference_rate_report):
    rep, cfg = reference_rate_report
    rows = [r for r in rep.rows if not r.error]
    rate = float(np.mean([r.oracle_violated for r in rows]))
    n = len(rows)
    se = math.sqrt(max(rate * (1.0 - rate), 0.25 / n) / n)
    limit = 4.0 * math.exp(-1.0) + 2.0 * se
    ok = rate <= limit
    report("c09 oracle-monitoring", ok, f"violation rate {rate:.4f} <= {limit:.4f} over {n} rows")


def test_criterion_10_determinism(tmp_path):
    checks = []

    def rerun_identical(name, args):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}-{run}.out"
            rc = cli_main(args + ["--out", str(out)])
            assert rc == 0, f"{name} exited {rc}"
            outs.append(out.read_bytes())
        checks.append((name, outs[0] == outs[1]))

    rates_cfg = tmp_path / "rates.json"
    cfg = json.loads((CONFIGS / "rates_smoke_empirical.json").read_text())
    rates_cfg.write_text(json.dumps(cfg))
    rerun_identical("rates", ["rates", "--config", str(rates_cfg)])

    cov_cfg = tmp_path / "cov.json"
    cov = json.loads((CONFIGS / "kme_coverage.json").read_text())
    cov["trials"] = 200
    cov_cfg.write_text(json.dumps(cov))
    rerun_identical("kme-coverage", ["kme-coverage", "--config", str(cov_cfg)])

    rerun_identical(
        "whitenoise-verify",
        ["whitenoise-verify", "--dim", "3", "--gamma", "1.0", "--mc", "20000", "--seed", "7", "--checks", "2"],
    )

    ne_cfg = tmp_path / "ne.json"
    ne = json.loads((CONFIGS / "noise_exponent_r5.json").read_text())
    ne.update(n_outer=200, n_inner=200)
    ne_cfg.write_text(json.dumps(ne))
    rerun_identical("noise-exponent", ["noise-exponent", "--config", str(ne_cfg)])

    ae_cfg = tmp_path / "ae.json"
    ae = json.loads((CONFIGS / "approx_error_hard_margin.json").read_text())
    ae.update(big_n=100, test_n=100, seeds=[1, 2], lambda_grid=[0.01, 0.1])
    ae_cfg.write_text(json.dumps(ae))
    rerun_identical("approx-error", ["approx-error", "--config", str(ae_cfg)])

    from tsk.synth import bags_to_json, sample_first_stage, sample_second_stage

    meta = MetaDistribution("hard_margin", 2, 2.0, 0.25, 0.5, 0.5, margin=1.0)
    means, labels = sample_first_stage(meta, 10, 3)
    bags = [sample_second_stage((m, 0.5), 5, 50 + i) for i, m in enumerate(means)]
    data = tmp_path / "bags.json"
    data.write_text(bags_to_json(bags, labels))
    rerun_identical("train", ["train", "--config", str(CONFIGS / "train_example.json"), "--data", str(data)])
    model_path = tmp_path / "train-a.out"
    rerun_identical("predict", ["predict", "--model", str(model_path), "--data", str(data)])

    ok = all(same for _, same in checks)
    report("c10 determinism", ok, ", ".join(f"{n}={'ok' if s else 'DIFF'}" for n, s in checks))


def test_ahat_fixture_regression():
    """Pre-build Ahat fixtures on the wide-margin config reproduce."""
    cfg = json.loads((CONFIGS / "approx_error_hard_margin.json").read_text())
    meta = MetaDistribution.from_config(cfg["meta"])
    base = BaseKernel.from_config(cfg["base_kernel"])
    hk = HilbertKernel.from_config(cfg["hilbert_kernel"])
    runs = [
        approx_error_estimate(
            meta, hk, cfg["lambda_grid"], cfg["big_n"], "exact", s,
            base_kernel=base, test_n=cfg["test_n"],
        )
        for s in cfg["seeds"]
    ]
    mean = np.array([r.ahat for r in runs]).mean(axis=0)
    assert np.allclose(mean, AHAT_FIXTURE_MEAN, rtol=1e-6, atol=1e-9)
    # definitional monotonicity in lambda, far beyond the recorded SEs
    assert all(a <= b + 2 * (sa + sb) for a, b, sa, sb in zip(mean, mean[1:], AHAT_FIXTURE_SE, AHAT_FIXTURE_SE[1:]))
