"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (run pytest with -s or rely on the
captured output of failing tests). The experiment criteria use the bundled
configs at their default 20 trials.
"""

import math

import numpy as np
import pytest
from scipy.special import expit

from fairaudit import (BIASED_SAMPLE_POLICY, GroupedOutcomes, ModelParams,
                       apply_sample_policy, audit,
                       bundled_config_path, fit, load_config,
                       normalized_mutual_information, run_experiment)
from fairaudit.cli import main
from fairaudit.metrics import (FAIR_POINTS, METRIC_NAMES, cell_counts, entropy,
                               nmi_from_counts)
from fairaudit.model import smooth_gradient, subgradient_violation, _design_matrix
from oracles import ORACLES
from conftest import build_outcomes, make_population, random_outcomes


def report_line(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    assert ok, name


@pytest.fixture(scope="module")
def report_A():
    return run_experiment(load_config(bundled_config_path("experiment_A.cfg")))


@pytest.fixture(scope="module")
def report_B():
    return run_experiment(load_config(bundled_config_path("experiment_B.cfg")))


def deviations(report, metric):
    fair = FAIR_POINTS[metric]
    return {i: abs(r.metric_mean(metric) - fair) for i, r in report.datasets.items()}


def test_metric_oracle_suite():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        data = random_outcomes(rng, max_n=200)
        result = audit(data)
        for name in METRIC_NAMES:
            expected = ORACLES[name](data)
            got = result.metric(name).value
            if expected is None:
                assert got is None or result.metric(name).status != "ok" \
                    or (name == "nmi" and got == 0.0)
                continue
            worst = max(worst, abs(got - expected))
    report_line(f"metric oracle suite: 1000 random datasets, max abs err "
                f"{worst:.2e} <= 1e-12", worst <= 1e-12)


def test_confusion_fixture_values():
    data = build_outcomes([
        (1, 1, 1, 20), (1, 1, 0, 30), (1, 0, 1, 10), (1, 0, 0, 40),
        (0, 1, 1, 45), (0, 1, 0, 5), (0, 0, 1, 25), (0, 0, 0, 25),
    ])
    result = audit(data)
    checks = [
        ("equal_opportunity_diff", -0.5, 1e-12),
        ("equal_misopportunity_diff", -0.3, 1e-12),
        ("disparate_impact", 3 / 7, 1e-12),
        ("residual_diff", -0.4, 1e-12),
        ("mean_score_diff", -0.4, 1e-12),
        ("nmi", 0.1187, 1e-3),
    ]
    ok = all(abs(result.metric(n).value - v) <= tol for n, v, tol in checks)
    report_line("confusion fixture: all six metric values at stated tolerance", ok)


def test_experiment_A_dataset1_least_biased(report_A):
    ok = True
    for name in METRIC_NAMES:
        dev = deviations(report_A, name)
        if not all(dev[1] < dev[i] for i in (2, 3, 4)):
            ok = False
    report_line("experiment A: dataset 1 strictly least biased on every metric", ok)


def test_experiment_A_dataset4_most_biased(report_A):
    ok = True
    for name in METRIC_NAMES:
        if name == "residual_diff":
            continue
        dev = deviations(report_A, name)
        if not all(dev[4] > dev[i] for i in (1, 2, 3)):
            ok = False
    report_line("experiment A: dataset 4 most biased on every metric except "
                "residual_diff", ok)


def test_experiment_B_detects_unfairness_without_injected_bias(report_B):
    d1 = report_B.datasets[1]
    di = d1.metric_mean("disparate_impact")
    msd = d1.metric_mean("mean_score_diff")
    ok = abs(di - 1.0) > 0.2 and abs(msd) > 0.05
    report_line(f"experiment B: dataset 1 |DI-1|={abs(di - 1):.3f} > 0.2 and "
                f"|mean_score_diff|={abs(msd):.3f} > 0.05", ok)


def test_experiment_B_label_bias_insensitivity(report_B):
    ok = True
    for name in ("mean_score_diff", "equal_opportunity_diff",
                 "disparate_impact", "nmi"):
        m = {i: report_B.datasets[i].metric_mean(name) for i in (1, 2, 3)}
        if not abs(m[3] - m[1]) < abs(m[2] - m[1]):
            ok = False
    report_line("experiment B: |m(D3)-m(D1)| < |m(D2)-m(D1)| for metrics "
                "1, 3, 5, 6", ok)


def test_gradient_and_subgradient_optimality():
    rng = np.random.default_rng(7)
    worst_rel = 0.0
    for _ in range(100):
        n, d = int(rng.integers(20, 80)), int(rng.integers(1, 6))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, n).astype(float)
        beta = rng.normal(size=d)
        b = float(rng.normal())
        lam, alpha = float(rng.uniform(0, 0.2)), float(rng.uniform(0, 1))
        g_beta, g_b = smooth_gradient(X, y, beta, b, lam, alpha)

        def smooth(beta_, b_):
            eta = X @ beta_ + b_
            loss = float(np.mean(np.logaddexp(0.0, eta) - y * eta))
            return loss + 0.5 * lam * (1 - alpha) * float(beta_ @ beta_)

        eps = 1e-6
        grads = list(g_beta) + [g_b]
        fds = []
        for j in range(d):
            e = np.zeros(d)
            e[j] = eps
            fds.append((smooth(beta + e, b) - smooth(beta - e, b)) / (2 * eps))
        fds.append((smooth(beta, b + eps) - smooth(beta, b - eps)) / (2 * eps))
        for g, f in zip(grads, fds):
            worst_rel = max(worst_rel, abs(g - f) / max(1.0, abs(f)))

    # subgradient optimality of an actual fit
    features, labels, groups = [], [], []
    for _ in range(400):
        x = rng.normal(size=3)
        features.append(x)
        labels.append(int(expit(x[0] - 0.5 * x[2]) > rng.random()))
        groups.append(int(rng.integers(0, 2)))
    data = make_population(groups, [0.5] * 400, features, labels)
    params = ModelParams(lam=0.02, alpha=0.6, tolerance=1e-9, max_iters=2000)
    model = fit(data, params)
    X_raw, y = _design_matrix(data, params.include_group_feature), data.label
    Xs = (X_raw - model.feature_means) / model.feature_scales
    viol = subgradient_violation(Xs, y, model.coefficients, model.intercept,
                                 params.lam, params.alpha)
    ok = worst_rel < 1e-5 and model.converged and viol < 1e-4
    report_line(f"elastic-net gradient: FD rel err {worst_rel:.2e} < 1e-5, "
                f"subgradient violation {viol:.2e} at convergence", ok)


def test_sampling_policy_statistics():
    rng = np.random.default_rng(11)
    groups, scores = [], []
    n = 100_000
    for _ in range(n):
        groups.append(int(rng.integers(0, 2)))
        scores.append(float(rng.random()))
    pop = make_population(groups, scores)
    kept = np.isin(pop.id, apply_sample_policy(pop, BIASED_SAMPLE_POLICY, seed=13).id)
    ok = True
    for group in (0, 1):
        for high in (True, False):
            p = getattr(BIASED_SAMPLE_POLICY, f"p_group{group}_{'high' if high else 'low'}")
            band = (pop.group == group) & ((pop.score >= 0.5) == high)
            got = np.count_nonzero(kept & band) / np.count_nonzero(band)
            sd = math.sqrt(p * (1 - p) / np.count_nonzero(band))
            if abs(got - p) > 3 * sd:
                ok = False
    report_line("sampling statistics: inclusion rates within 3 binomial SD "
                "per (group, band) at n=100,000", ok)


def test_experiment_cli_byte_identical(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("\n".join([
        "[experiment]", "name = B", "trials = 2", "base_seed = 51",
        "[population]", "n_group0 = 1500", "n_group1 = 1500",
        "positive_rate_group0 = 0.5408", "positive_rate_group1 = 0.1217",
        "noise_scale = 3.0",
        "[model]", "lambda = 0.01",
    ]) + "\n")
    assert main(["experiment", "--config", str(cfg),
                 "--out", str(tmp_path / "r1")]) == 0
    assert main(["experiment", "--config", str(cfg),
                 "--out", str(tmp_path / "r2")]) == 0
    ok = (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    report_line("determinism: repeated cmd_experiment runs produce "
                "byte-identical JSON", ok)


def test_nmi_properties():
    rng = np.random.default_rng(17)
    ok = True
    for _ in range(300):
        data = random_outcomes(rng, max_n=150)
        counts = cell_counts(data).sum(axis=1).T  # counts[yhat][s]
        v = nmi_from_counts(counts)
        if not (-1e-12 <= v <= 1.0 + 1e-12):
            ok = False
        # symmetry: swap the roles of Yhat and S
        swapped = GroupedOutcomes(group=data.label_hat, label=data.label,
                                  score_hat=data.score_hat, label_hat=data.group)
        if abs(nmi_from_counts(cell_counts(swapped).sum(axis=1).T) - v) > 1e-12:
            ok = False
        # log-base invariance: entropies and MI rescale together, so NMI in
        # base 2 must equal the natural-log value
        joint = counts / counts.sum()
        p_y, p_s = joint.sum(axis=1), joint.sum(axis=0)
        h_y = -sum(p * math.log2(p) for p in p_y if p > 0)
        h_s = -sum(p * math.log2(p) for p in p_s if p > 0)
        if h_y > 0 and h_s > 0:
            mi2 = sum(joint[a][b] * math.log2(joint[a][b] / (p_y[a] * p_s[b]))
                      for a in (0, 1) for b in (0, 1) if joint[a][b] > 0)
            if abs(mi2 / math.sqrt(h_y * h_s) - v) > 1e-12:
                ok = False
    # product distribution has zero NMI
    independent = build_outcomes([(s, 0, yhat, 25)
                                  for s in (0, 1) for yhat in (0, 1)])
    if abs(normalized_mutual_information(independent)) > 1e-12:
        ok = False
    report_line("NMI properties: range, symmetry, log-base invariance, "
                "product-distribution zero (1e-12)", ok)
