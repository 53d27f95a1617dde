import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from fairaudit import (ModelParams, PopulationSpec, build_dataset, fit,
                       generate_population, make_base_dataset_A, predict, split)
from fairaudit import model as model_module
from fairaudit.bias import ALL_BIAS_SPECS
from fairaudit.model import smooth_gradient, subgradient_violation, _design_matrix
from fairaudit.errors import DegenerateDatasetError, ValidationError
from conftest import make_population, same_population
from oracles import _penalized_objective_oracle, fit_oracle


def make_labeled(n, seed, d=3, rule=None):
    """Synthetic labeled records; default rule is a noiseless linear separator."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if rule is None:
        rule = lambda x: int(x[0] + 0.5 * x[1] > 0)
    labels = [rule(x) for x in X]
    groups = [int(rng.integers(0, 2)) for _ in range(n)]
    scores = [0.75 if label else 0.25 for label in labels]
    return make_population(groups, scores, X, labels)


def balanced_labeled(n, seed, d=3):
    """Records with labels independent of group, noisy features."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    labels, groups, scores = [], [], []
    for i in range(n):
        labels.append(int(expit(1.5 * X[i, 0]) > rng.random()))
        groups.append(int(rng.integers(0, 2)))
        scores.append(rng.random())
    return make_population(groups, scores, X, labels)


def cell_counter(data):
    return Counter(zip(data.group.tolist(), data.label.tolist()))


class TestSplit:
    def test_sizes(self):
        data = balanced_labeled(100, 1)
        train, test = split(data, 0.7, seed=0)
        assert len(train) == 70 and len(test) == 30

    def test_disjoint_and_exhaustive(self):
        data = balanced_labeled(137, 2)
        train, test = split(data, 0.7, seed=3)
        ids = sorted(train.id.tolist() + test.id.tolist())
        assert ids == data.id.tolist()
        assert not set(train.id.tolist()) & set(test.id.tolist())

    def test_stratified_within_one(self):
        data = balanced_labeled(211, 5)
        train, _ = split(data, 0.7, seed=9)
        totals = cell_counter(data)
        got = cell_counter(train)
        for cell, n in totals.items():
            assert abs(got[cell] - 0.7 * n) <= 1.0

    def test_determinism_and_seed_sensitivity(self):
        data = balanced_labeled(80, 6)
        a1 = split(data, 0.7, seed=4)
        a2 = split(data, 0.7, seed=4)
        b = split(data, 0.7, seed=5)
        assert all(same_population(x, y) for x, y in zip(a1, a2))
        assert not all(same_population(x, y) for x, y in zip(a1, b))

    def test_small_cell_raises(self):
        data = balanced_labeled(40, 7)
        # shrink one cell to a single record
        keep = np.ones(len(data), dtype=bool)
        keep[np.flatnonzero((data.group == 1) & (data.label == 1))[1:]] = False
        with pytest.raises(DegenerateDatasetError, match="group=1"):
            split(data.take(keep), 0.7, seed=0)

    def test_bad_fraction(self):
        data = balanced_labeled(40, 8)
        with pytest.raises(ValidationError):
            split(data, 1.0, seed=0)


class TestFit:
    def test_separable_data_perfect_train_accuracy(self):
        # keep a margin around the separator so a lightly regularized fit can
        # classify the training set exactly
        rule = lambda x: int(x[0] + 0.5 * x[1] > 0)
        data = make_labeled(300, 10, rule=rule)
        data = data.take(np.abs(data.features[:, 0] + 0.5 * data.features[:, 1]) > 0.2)
        model = fit(data, ModelParams(lam=1e-4, alpha=0.5))
        preds = predict(model, data)
        assert np.array_equal(preds.label_hat, data.label)

    def test_huge_lambda_zeroes_coefficients(self):
        data = balanced_labeled(300, 11)
        model = fit(data, ModelParams(lam=1e6, alpha=0.5))
        assert np.all(model.coefficients == 0.0)
        base_rate = np.mean(data.label)
        assert model.intercept == pytest.approx(math.log(base_rate / (1 - base_rate)),
                                                abs=1e-4)

    def test_monotone_objective(self):
        data = balanced_labeled(250, 12)
        model = fit(data, ModelParams(lam=0.01, alpha=0.5))
        h = np.array(model.objective_history)
        assert np.all(np.diff(h) <= 1e-12)

    def test_converges_with_subgradient_optimality(self):
        data = balanced_labeled(250, 13)
        params = ModelParams(lam=0.01, alpha=0.5)
        model = fit(data, params)
        assert model.converged
        X_raw, y = _design_matrix(data, params.include_group_feature), data.label
        X = (X_raw - model.feature_means) / model.feature_scales
        viol = subgradient_violation(X, y, model.coefficients, model.intercept,
                                     params.lam, params.alpha)
        assert viol < 1e-4

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(50, 4))
        y = rng.integers(0, 2, 50).astype(float)
        beta = rng.normal(size=4)
        b = float(rng.normal())
        lam, alpha = 0.05, 0.3
        g_beta, g_b = smooth_gradient(X, y, beta, b, lam, alpha)
        eps = 1e-6

        def smooth(beta_, b_):
            # objective minus the L1 part, which the smooth gradient excludes
            return (_penalized_objective_oracle(X, y, beta_, b_, lam, alpha)
                    - lam * alpha * np.abs(beta_).sum())

        for j in range(4):
            e = np.zeros(4)
            e[j] = eps
            fd = (smooth(beta + e, b) - smooth(beta - e, b)) / (2 * eps)
            assert abs(fd - g_beta[j]) < 1e-5 * max(1.0, abs(fd))
        fd_b = (smooth(beta, b + eps) - smooth(beta, b - eps)) / (2 * eps)
        assert abs(fd_b - g_b) < 1e-5 * max(1.0, abs(fd_b))

    def test_lambda_zero_matches_newton_oracle_1d(self):
        # one feature, no penalty: compare against a dense Newton solve
        rng = np.random.default_rng(15)
        x = rng.normal(size=120)
        y = (expit(0.8 * x - 0.2) > rng.random(120)).astype(int)
        noise = [float(rng.normal()) for _ in range(120)]
        data = make_population([0] * 120, [0.5] * 120, np.column_stack([x, noise]), y)
        params = ModelParams(lam=0.0, alpha=0.5, tolerance=1e-10, max_iters=5000)
        model = fit(data, params)

        X_raw, yy = _design_matrix(data, False), data.label
        X = (X_raw - model.feature_means) / model.feature_scales
        Xb = np.column_stack([X, np.ones(len(yy))])
        theta = np.zeros(3)
        for _ in range(100):
            p = expit(Xb @ theta)
            g = Xb.T @ (p - yy) / len(yy)
            H = (Xb * (p * (1 - p))[:, None]).T @ Xb / len(yy)
            step = np.linalg.solve(H, g)
            theta -= step
            if np.max(np.abs(step)) < 1e-12:
                break
        assert np.allclose(model.coefficients, theta[:2], atol=1e-4)
        assert abs(model.intercept - theta[2]) < 1e-4

    def test_affine_feature_rescaling_leaves_predictions_invariant(self):
        data = balanced_labeled(200, 16)
        scaled = replace(data, features=3.0 * data.features + 7.0)
        params = ModelParams(lam=0.01, alpha=0.5, tolerance=1e-10)
        p1 = predict(fit(data, params), data)
        p2 = predict(fit(scaled, params), scaled)
        assert np.allclose(p1.score_hat, p2.score_hat, atol=1e-8)

    def test_constant_feature_gets_zero_coefficient(self):
        data = balanced_labeled(150, 17)
        flat = replace(data, features=np.column_stack([data.features[:, :2],
                                                       np.ones(len(data))]))
        model = fit(flat, ModelParams(lam=0.01, alpha=0.5))
        assert model.coefficients[2] == 0.0

    def test_include_group_feature_adds_column(self):
        data = balanced_labeled(150, 18)
        m1 = fit(data, ModelParams(include_group_feature=False))
        m2 = fit(data, ModelParams(include_group_feature=True))
        assert len(m2.coefficients) == len(m1.coefficients) + 1

    def test_empty_train_raises(self):
        with pytest.raises(ValidationError):
            fit(make_population([], [], np.empty((0, 3)), []), ModelParams())
        with pytest.raises(ValidationError, match="labeled"):
            fit(make_population([0, 1], [0.5, 0.5]), ModelParams())

    def test_params_validation(self):
        with pytest.raises(ValidationError):
            ModelParams(lam=-1.0)
        with pytest.raises(ValidationError):
            ModelParams(alpha=2.0)
        with pytest.raises(ValidationError):
            ModelParams(train_fraction=0.0)

    @pytest.mark.parametrize("field", ["lam", "tolerance"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_params_reject_non_finite(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            ModelParams(**{field: value})


class TestPredict:
    def test_zero_model_scores_half(self):
        data = balanced_labeled(20, 20)
        model = fit(data, ModelParams(lam=1e6, alpha=1.0))
        model.intercept = 0.0
        preds = predict(model, data)
        assert np.allclose(preds.score_hat, 0.5)
        assert np.all(preds.label_hat == 1)  # ties go to 1

    def test_threshold_zero_labels_all_one(self):
        data = balanced_labeled(50, 21)
        model = fit(data, ModelParams(lam=0.01))
        model = replace(model, params=replace(model.params, prediction_threshold=0.0))
        preds = predict(model, data)
        assert np.all(preds.label_hat == 1)

    def test_threshold_monotone(self):
        data = balanced_labeled(80, 22)
        model = fit(data, ModelParams(lam=0.01))
        lo = predict(replace(model, params=replace(model.params, prediction_threshold=0.3)),
                     data).label_hat
        hi = predict(replace(model, params=replace(model.params, prediction_threshold=0.7)),
                     data).label_hat
        assert np.all(hi <= lo)

    def test_scores_in_unit_interval(self):
        data = balanced_labeled(80, 23)
        preds = predict(fit(data, ModelParams(lam=0.01)), data)
        assert np.all((preds.score_hat >= 0) & (preds.score_hat <= 1))

    def test_dimension_mismatch(self):
        data = balanced_labeled(60, 24, d=3)
        other = balanced_labeled(10, 24, d=4)
        model = fit(data, ModelParams())
        with pytest.raises(ValidationError, match="dimension"):
            predict(model, other)

    def test_accepts_unlabeled_records(self):
        data = balanced_labeled(60, 25)
        model = fit(data, ModelParams(lam=0.01))
        bare = replace(data, label=None)
        assert np.allclose(predict(model, bare).score_hat,
                           predict(model, data).score_hat)


class TestFitMatchesOracle:
    @pytest.mark.parametrize("seed", [41, 97])
    @pytest.mark.parametrize("base", ["A", "B"])
    @pytest.mark.parametrize("spec", ALL_BIAS_SPECS, ids=lambda s: f"dataset{s.dataset_index}")
    def test_bit_identical_on_grid_cells(self, spec, base, seed):
        pop = generate_population(PopulationSpec(
            n_group0=1000, n_group1=500, target_positive_rate_group0=0.5408,
            target_positive_rate_group1=0.1217, feature_dim=3, noise_scale=3.0,
            seed=seed))
        if base == "A":
            pop = make_base_dataset_A(pop, seed=seed + 2)
        train, _ = split(build_dataset(pop, spec, seed=seed + 3), 0.7, seed=seed + 4)
        params = ModelParams(lam=0.01, alpha=0.5, include_group_feature=base == "A")
        got, want = fit(train, params), fit_oracle(train, params)
        assert got.coefficients.tobytes() == want.coefficients.tobytes()
        assert got.intercept.hex() == want.intercept.hex()
        assert got.n_iters == want.n_iters and got.converged == want.converged
        assert [v.hex() for v in got.objective_history] == \
            [v.hex() for v in want.objective_history]

    def test_bit_identical_through_fallback_step(self, monkeypatch):
        data = balanced_labeled(200, 13)
        params = ModelParams(lam=1e-4, alpha=0.5)
        objectives = []
        real = model_module._objective
        monkeypatch.setattr(model_module, "_objective",
                            lambda *a: objectives.append(real(*a)) or objectives[-1])
        got, want = fit(data, params), fit_oracle(data, params)
        # one objective at the start, one per iterate, one more per fallback
        assert len(objectives) > 1 + got.n_iters, "no iterate took the fallback"
        assert got.coefficients.tobytes() == want.coefficients.tobytes()
        assert got.intercept.hex() == want.intercept.hex()
        assert got.objective_history == want.objective_history
