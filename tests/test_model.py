import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from fairaudit import (ALL_BIAS_SPECS, ExperimentConfig, ModelParams, PopulationSpec, fit,
                       generate_population, make_base_dataset_A, predict, split)
from fairaudit import model as model_module
from fairaudit.datagen import Population
from fairaudit.harness import trial_dataset
from fairaudit.model import smooth_gradient, subgradient_violation, _design_matrix
from fairaudit.errors import DegenerateDatasetError, NumericalFailureError, ValidationError
from conftest import make_population, same_population
from oracles import (_penalized_objective_oracle, fit_oracle, predict_oracle,
                     subgradient_violation_oracle)


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

    def test_unlabeled_raises(self):
        data = replace(balanced_labeled(40, 8), label=None)
        with pytest.raises(ValidationError, match="labeled"):
            split(data, 0.7, seed=0)

    @pytest.mark.parametrize("fraction, side", [(0.95, "test"), (0.05, "train")])
    def test_empty_side_raises(self, fraction, side):
        # two records in each (group, label) cell; round(fraction * 8) is 8 or 0
        data = make_population([0, 0, 0, 0, 1, 1, 1, 1], [0.5] * 8,
                               labels=[0, 0, 1, 1, 0, 0, 1, 1])
        with pytest.raises(DegenerateDatasetError, match=f"{side} set empty"):
            split(data, fraction, seed=0)


class TestFit:
    def test_separable_data_perfect_train_accuracy(self):
        # keep a margin around the separator so a lightly regularized fit can
        # classify the training set exactly
        rule = lambda x: int(x[0] + 0.5 * x[1] > 0)
        data = make_labeled(300, 10, rule=rule)
        data = data.take(np.abs(data.features[:, 0] + 0.5 * data.features[:, 1]) > 0.2)
        model = fit(data, ModelParams(lam=1e-4, alpha=0.5))
        _, label_hat = predict(model, data)
        assert np.array_equal(label_hat, data.label)

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

    def test_converged_exactly_when_the_last_step_meets_the_tolerance(self):
        data = balanced_labeled(250, 13)
        params = ModelParams(lam=0.01, alpha=0.5, max_iters=10_000)
        n = fit(data, params).n_iters
        assert 1 < n < params.max_iters
        at_n = fit(data, replace(params, max_iters=n))
        assert at_n.converged is True and at_n.n_iters == n
        short = fit(data, replace(params, max_iters=n - 1))
        assert short.converged is False and short.n_iters == n - 1

    def test_subgradient_violation_at_zero_coefficients(self):
        # at beta = 0 a coefficient's condition is |g_j| <= lam * alpha, so the
        # violation is the larger of |g_b| and each excess |g_j| - lam * alpha
        X = np.array([[1.0, 0.0], [-1.0, 0.5], [0.5, -0.5], [-0.5, 0.0]])
        y = np.array([1.0, 0.0, 1.0, 0.0])
        g_beta, g_b = smooth_gradient(X, y, np.zeros(2), 0.25, 0.4, 0.5)
        assert abs(g_beta[0]) - 0.2 > abs(g_b) and abs(g_beta[1]) < 0.2  # one excess, one inside
        want = abs(g_beta[0]) - 0.2
        assert subgradient_violation(X, y, np.zeros(2), 0.25, 0.4, 0.5) == want
        # a wider band leaves only the intercept's condition
        assert subgradient_violation(X, y, np.zeros(2), 0.25, 2.0, 0.5) == abs(g_b)

    def test_subgradient_violation_matches_the_loop_bit_for_bit(self):
        # 0-5 columns with about half the coefficients zero, empty beta included
        rng = np.random.default_rng(16)
        for _ in range(300):
            m = int(rng.integers(0, 6))
            X, y = rng.normal(size=(20, m)), rng.integers(0, 2, 20).astype(float)
            beta = rng.normal(size=m) * (rng.random(m) < 0.5)
            intercept, lam, alpha = rng.normal(), rng.exponential(0.5), rng.random()
            g_beta, g_b = smooth_gradient(X, y, beta, intercept, lam, alpha)
            want = subgradient_violation_oracle(g_beta, g_b, beta, lam * alpha)
            got = subgradient_violation(X, y, beta, intercept, lam, alpha)
            assert got.hex() == want.hex(), (m, got, want)

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
        score1, _ = predict(fit(data, params), data)
        score2, _ = predict(fit(scaled, params), scaled)
        assert np.allclose(score1, score2, atol=1e-8)

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

    def test_non_finite_objective_raises(self, monkeypatch):
        # after the starting point every objective is NaN, the fallback step's included
        real_objective, calls = model_module._objective, []

        def objective(*args):
            calls.append(None)
            return real_objective(*args) if len(calls) == 1 else math.nan

        monkeypatch.setattr(model_module, "_objective", objective)
        with pytest.raises(NumericalFailureError,
                           match="^non-finite objective during optimization$"):
            fit(balanced_labeled(100, 13), ModelParams(lam=0.01))
        assert len(calls) == 3  # the start, then the Newton and the fallback step

    def test_overflowing_feature_variance_raises(self):
        # finite features whose squares overflow: without the check the second
        # column's scale is inf, it standardizes to 0 and the fit silently drops it
        rng = np.random.default_rng(19)
        X = rng.normal(size=(200, 2))
        X[:, 1] *= 1e200
        data = make_population(rng.integers(0, 2, 200), np.full(200, 0.5), X,
                               (X[:, 1] > 0).astype(int))
        with pytest.raises(NumericalFailureError,
                           match="^a feature's mean or variance overflows float64$"):
            fit(data, ModelParams())
        # rescaled, the same column separates the labels
        rescaled = replace(data, features=X * np.array([1.0, 1e-200]))
        model = fit(rescaled, ModelParams())
        assert np.mean(predict(model, rescaled)[1] == rescaled.label) > 0.95

    def test_empty_train_raises(self):
        with pytest.raises(ValidationError):
            fit(make_population([], [], np.empty((0, 3)), []), ModelParams())
        with pytest.raises(ValidationError, match="labeled"):
            fit(make_population([0, 1], [0.5, 0.5]), ModelParams())

    def test_no_feature_columns_raises(self):
        data = make_population([0, 1, 0, 1], [0.5] * 4, np.empty((4, 0)), [0, 1, 1, 0])
        with pytest.raises(ValidationError, match="^training set must have at least one feature$"):
            fit(data, ModelParams())
        # the group column alone is a feature
        assert fit(data, ModelParams(include_group_feature=True)).coefficients.shape == (1,)

    def test_params_validation(self):
        with pytest.raises(ValidationError):
            ModelParams(lam=-1.0)
        with pytest.raises(ValidationError):
            ModelParams(alpha=2.0)
        with pytest.raises(ValidationError):
            ModelParams(train_fraction=0.0)
        with pytest.raises(ValidationError, match="^max_iters must be positive, got nan$"):
            ModelParams(max_iters=math.nan)
        with pytest.raises(ValidationError, match="^max_iters must be an integer, got 2.5$"):
            ModelParams(max_iters=2.5)
        with pytest.raises(ValidationError,
                           match="^include_group_feature must be a bool, got -1$"):
            ModelParams(include_group_feature=-1)

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
        score_hat, label_hat = predict(model, data)
        assert np.allclose(score_hat, 0.5)
        assert np.all(label_hat == 1)  # ties go to 1

    def test_threshold_zero_labels_all_one(self):
        data = balanced_labeled(50, 21)
        model = fit(data, ModelParams(lam=0.01))
        model = replace(model, params=replace(model.params, prediction_threshold=0.0))
        _, label_hat = predict(model, data)
        assert np.all(label_hat == 1)

    def test_threshold_monotone(self):
        data = balanced_labeled(80, 22)
        model = fit(data, ModelParams(lam=0.01))
        _, lo = predict(replace(model, params=replace(model.params, prediction_threshold=0.3)),
                        data)
        _, hi = predict(replace(model, params=replace(model.params, prediction_threshold=0.7)),
                        data)
        assert np.all(hi <= lo)

    def test_scores_in_unit_interval(self):
        data = balanced_labeled(80, 23)
        score_hat, _ = predict(fit(data, ModelParams(lam=0.01)), data)
        assert np.all((score_hat >= 0) & (score_hat <= 1))

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
        assert np.allclose(predict(model, bare)[0], predict(model, data)[0])


def with_features(data, features):
    """data with its feature matrix replaced. Population stores the matrix C-ordered
    whatever its layout, so the layout cases below check that normalization."""
    return Population(data.id, data.group, data.score, features, data.label)


@pytest.mark.parametrize("include_group", [False, True], ids=["features", "with_group"])
def test_fit_and_predict_bits_do_not_depend_on_feature_layout(include_group):
    train, test = (balanced_labeled(n, seed, d=4) for n, seed in ((400, 31), (200, 32)))
    params = ModelParams(lam=0.01, include_group_feature=include_group)
    runs = []
    for arrange in (np.ascontiguousarray, np.asfortranarray):
        model = fit(with_features(train, arrange(train.features)), params)
        score, _ = predict(model, with_features(test, arrange(test.features)))
        runs.append((model.coefficients.tobytes(), model.intercept.hex(),
                     [v.hex() for v in model.objective_history], score.tobytes()))
    assert runs[0] == runs[1]


def row_sliced(features):
    """features as every other row of a twice-as-tall matrix: C-ordered rows, not contiguous."""
    tall = np.zeros((2 * len(features), features.shape[1]))
    tall[::2] = features
    return tall[::2]


def constant_column(features):
    out = features.copy()
    out[:, 1] = 2.5
    return out


def read_only(features):
    """A copy of features that raises on any write into it."""
    out = features.copy()
    out.setflags(write=False)
    return out


class TestKernelMatchesOracle:
    """fit and predict reproduce the broadcast and numpy-reduction formulas of
    fit_oracle and predict_oracle bit for bit, whatever the feature matrix's layout."""

    LAYOUTS = {
        "C": lambda f: f,
        "F": np.asfortranarray,
        "row_sliced": row_sliced,
        "single_column": lambda f: f[:, :1].copy(),
        "constant_column": constant_column,
        "read_only": read_only,
    }

    @staticmethod
    def assert_bit_identical(train, test, params):
        inputs = [train.features.copy(), test.features.copy()]
        got, want = fit(train, params), fit_oracle(train, params)
        for name in ("coefficients", "feature_means", "feature_scales"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.intercept.hex() == want.intercept.hex()
        assert got.n_iters == want.n_iters and got.converged == want.converged
        assert [v.hex() for v in got.objective_history] == \
            [v.hex() for v in want.objective_history]
        got_score, got_label = predict(got, test)
        want_score, want_label = predict_oracle(got, test)
        assert got_score.tobytes() == want_score.tobytes()
        assert np.array_equal(got_label, want_label)
        # fit and predict may overwrite only the matrices they build themselves
        assert all(np.array_equal(a, b.features) for a, b in zip(inputs, (train, test)))

    @pytest.mark.parametrize("include_group", [False, True], ids=["features", "with_group"])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_bit_identical_on_layout(self, layout, include_group):
        train, test = (balanced_labeled(n, seed, d=4) for n, seed in ((400, 31), (200, 32)))
        arrange = self.LAYOUTS[layout]
        self.assert_bit_identical(with_features(train, arrange(train.features)),
                                  with_features(test, arrange(test.features)),
                                  ModelParams(lam=0.01, include_group_feature=include_group))

    @pytest.mark.parametrize("include_group", [False, True], ids=["5_columns", "6_columns"])
    def test_bit_identical_at_bundled_size(self, include_group):
        # the bundled experiments fit about 17k training rows of 5 features,
        # plus the group column in Experiment A
        data = balanced_labeled(24_000, 37, d=5)
        train, test = split(data, 0.7, seed=38)
        self.assert_bit_identical(train, test,
                                  ModelParams(lam=0.01, include_group_feature=include_group))


class TestFitMatchesOracle:
    @pytest.mark.parametrize("seed", [41, 97])
    @pytest.mark.parametrize("base", ["A", "B"])
    @pytest.mark.parametrize("spec", ALL_BIAS_SPECS,
                             ids=["dataset1", "dataset2", "dataset3", "dataset4"])
    def test_bit_identical_on_grid_cells(self, spec, base, seed):
        pop = generate_population(PopulationSpec(
            n_group0=1000, n_group1=500, positive_rate_group0=0.5408,
            positive_rate_group1=0.1217, feature_dim=3, noise_scale=3.0), seed)
        if base == "A":
            pop = make_base_dataset_A(pop, seed=seed + 2)
        train, _ = split(trial_dataset(ExperimentConfig(), spec, seed + 3, pop), 0.7,
                         seed=seed + 4)
        params = ModelParams(lam=0.01, alpha=0.5, include_group_feature=base == "A")
        got, want = fit(train, params), fit_oracle(train, params)
        assert got.coefficients.tobytes() == want.coefficients.tobytes()
        assert got.intercept.hex() == want.intercept.hex()
        assert got.n_iters == want.n_iters and got.converged == want.converged
        assert [v.hex() for v in got.objective_history] == \
            [v.hex() for v in want.objective_history]

    # seeds of balanced_labeled(200, seed) at which some iterate takes the fallback:
    # 13 without and 16 with the group column, except in these cases
    FALLBACK_SEEDS = {("constant_column", False): 17, ("constant_column", True): 19,
                      ("single_column", True): 13}

    @pytest.mark.parametrize("include_group", [False, True], ids=["features", "with_group"])
    @pytest.mark.parametrize("layout", TestKernelMatchesOracle.LAYOUTS)
    def test_bit_identical_through_fallback_step(self, monkeypatch, layout, include_group):
        seed = self.FALLBACK_SEEDS.get((layout, include_group), 16 if include_group else 13)
        data = balanced_labeled(200, seed)
        data = with_features(data, TestKernelMatchesOracle.LAYOUTS[layout](data.features))
        params = ModelParams(lam=1e-4, alpha=0.5, include_group_feature=include_group)
        objectives = []
        real = model_module._objective
        monkeypatch.setattr(model_module, "_objective",
                            lambda *a: objectives.append(real(*a)) or objectives[-1])
        got, want = fit(data, params), fit_oracle(data, params)
        # one objective at the start, one per iterate, one more per fallback
        assert len(objectives) > 1 + got.n_iters, "no iterate took the fallback"
        assert got.coefficients.tobytes() == want.coefficients.tobytes()
        assert got.intercept.hex() == want.intercept.hex()
        assert got.n_iters == want.n_iters
        assert [v.hex() for v in got.objective_history] == \
            [v.hex() for v in want.objective_history]


def traced_peak(call):
    """Peak bytes that tracemalloc saw allocated while call() ran."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingMemory:
    def test_fit_and_predict_standardize_one_design_matrix(self):
        # Experiment A's size: about 17k training rows of 5 features plus the group column
        n, rng = 24_000, np.random.default_rng(39)
        features = rng.standard_normal((n, 5))
        data = Population(np.arange(n), rng.integers(0, 2, n), rng.random(n), features,
                          (rng.random(n) < expit(1.5 * features[:, 0])).astype(int))
        train, test = split(data, 0.7, seed=40)
        params = ModelParams(lam=0.01, include_group_feature=True)
        model = fit(train, params)
        matrix_bytes = [8 * len(rows) * 6 for rows in (train, test)]
        # Standardizing the design matrix in place peaks at 3.17 (fit: X, X2 and
        # the row-length vectors of one iteration) and 1.35 (predict) matrices; a
        # centered copy beside it adds one matrix to each.
        assert traced_peak(lambda: fit(train, params)) < 3.5 * matrix_bytes[0]
        assert traced_peak(lambda: predict(model, test)) < 1.85 * matrix_bytes[1]
