"""Stratified splitting and elastic-net logistic regression.

The fitter runs cyclic coordinate descent with soft-thresholding on a local
quadratic approximation of the logistic loss. One pass serves both curvatures,
which the caller chooses: each outer iteration tries the pass with the Newton
weights p(1-p) and falls back to the pass with the global 1/4 curvature bound (a
true majorizer) whenever the penalized objective would increase, so the objective
is monotonically non-increasing across iterations. Features are standardized
internally; the intercept is unpenalized. scipy is imported inside the
functions that use it, as in datagen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datagen import Population
from .errors import (DegenerateDatasetError, NumericalFailureError, ValidationError, in_unit,
                     require, require_types)


@dataclass(frozen=True)
class ModelParams:
    lam: float = 1e-3            # overall regularization strength (lambda)
    alpha: float = 0.5           # elastic-net mix, 1 = pure L1
    max_iters: int = 1000
    tolerance: float = 1e-7      # convergence on max coefficient change
    train_fraction: float = 0.7
    include_group_feature: bool = False
    prediction_threshold: float = 0.5

    def __post_init__(self):
        require(self, "lam tolerance", math.isfinite, "be finite")
        require(self, "lam", lambda v: v >= 0, "be nonnegative")
        require(self, "alpha", in_unit, "lie in [0, 1]")
        require(self, "max_iters tolerance", lambda v: v > 0, "be positive")
        require(self, "train_fraction", lambda v: 0.0 < v < 1.0, "lie strictly inside (0, 1)")
        require(self, "prediction_threshold", in_unit, "lie in [0, 1]")
        require_types(self)


@dataclass
class Model:
    coefficients: np.ndarray
    intercept: float
    feature_means: np.ndarray
    feature_scales: np.ndarray
    params: ModelParams
    converged: bool
    n_iters: int = 0
    objective_history: list = field(default_factory=list, repr=False)


def split(data: Population, train_fraction: float,
          seed: int) -> tuple[Population, Population]:
    """Disjoint, exhaustive partition stratified by (group, label).

    Per-cell train counts are within one record of the exact fraction
    (largest-remainder rounding); the total train size is round(fraction * n),
    and neither side may be empty.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValidationError(
            f"train_fraction must lie strictly inside (0, 1), got {train_fraction}")
    if data.label is None:
        raise ValidationError("data to split must be labeled")
    # stratum key 2 * group + label orders cells as sorted (group, label) pairs
    cell = 2 * data.group + data.label
    sizes = np.bincount(cell, minlength=4).tolist()
    for k, size in enumerate(sizes):
        if size == 1:
            raise DegenerateDatasetError(
                f"cell (group={k // 2}, label={k % 2}) has {size} records, "
                "need at least 2 to stratify")

    total_train = int(round(train_fraction * len(data)))
    for side, size in (("train", total_train), ("test", len(data) - total_train)):
        if size == 0:
            raise DegenerateDatasetError(
                f"train_fraction {train_fraction} of {len(data)} records leaves "
                f"the {side} set empty")
    ideal = [train_fraction * size for size in sizes]
    take = [math.floor(x) for x in ideal]
    extras = total_train - sum(take)
    # hand extras to the largest fractional remainders (an empty cell's is 0), ties by key
    order = sorted(range(4), key=lambda k: (-(ideal[k] - take[k]), k))
    for k in order[:extras]:
        take[k] += 1

    rng = np.random.default_rng(seed)
    train = np.zeros(len(data), dtype=bool)
    # an empty cell's rng.permutation(0) leaves the generator as it was
    for k, t in enumerate(take):
        idx = np.flatnonzero(cell == k)
        train[idx[rng.permutation(idx.size)[:t]]] = True
    return data.take(train), data.take(~train)


def _design_matrix(data: Population, include_group: bool) -> np.ndarray:
    """A new C-ordered matrix, which fit and predict standardize in place: the
    features, with the group column appended if include_group."""
    if include_group:
        return np.column_stack([data.features, data.group])
    return data.features.copy()


def _column_sums(A: np.ndarray) -> np.ndarray:
    """A.sum(axis=0), bit for bit.

    On a C-ordered matrix (every design matrix is one) with two or more columns
    numpy adds row after row into the running column sums, calling its inner loop
    once per short row; einsum makes the same additions in the same order in one
    loop. A single column numpy sums pairwise, so it keeps A.sum(axis=0).
    """
    if A.shape[1] > 1:
        return np.einsum("ij->j", A)
    return A.sum(axis=0)


def _soft(x: float, threshold: float) -> float:
    if x > threshold:
        return x - threshold
    if x < -threshold:
        return x + threshold
    return 0.0


def _objective(eta: np.ndarray, y: np.ndarray, beta: np.ndarray,
               lam: float, alpha: float) -> float:
    """Mean logistic loss plus the elastic-net penalty (intercept unpenalized), given
    the linear predictor eta = X @ beta + intercept."""
    loss = float(np.mean(np.logaddexp(0.0, eta) - y * eta))
    penalty = lam * (alpha * float(np.abs(beta).sum())
                     + 0.5 * (1.0 - alpha) * float(beta @ beta))
    return loss + penalty


def smooth_gradient(X: np.ndarray, y: np.ndarray, beta: np.ndarray,
                    intercept: float, lam: float,
                    alpha: float) -> tuple[np.ndarray, float]:
    """Gradient of the smooth part (logistic loss + L2 term) wrt (beta, intercept)."""
    from scipy.special import expit

    p = expit(X @ beta + intercept)
    g_beta = X.T @ (p - y) / len(y) + lam * (1.0 - alpha) * beta
    g_b = float(np.mean(p - y))
    return g_beta, g_b


def subgradient_violation(X: np.ndarray, y: np.ndarray, beta: np.ndarray,
                          intercept: float, lam: float, alpha: float) -> float:
    """Max violation of the elastic-net subgradient optimality conditions."""
    g_beta, g_b = smooth_gradient(X, y, beta, intercept, lam, alpha)
    l1 = lam * alpha
    # at the optimum g + l1·sign(b) = 0 where b != 0, and |g| <= l1 where b = 0; a
    # negative excess |g| - l1 never exceeds |g_b| >= 0, so it needs no clip at 0
    viol = np.where(beta != 0.0, np.abs(g_beta + l1 * np.sign(beta)), np.abs(g_beta) - l1)
    return float(viol.max(initial=abs(g_b)))


def fit(train: Population, params: ModelParams) -> Model:
    """Fit elastic-net logistic regression on standardized features. train is
    never written to: fit standardizes its own copy of the features."""
    from scipy.special import expit

    if not train:
        raise ValidationError("training set must be non-empty")
    if train.label is None:
        raise ValidationError("training set must be labeled")
    X = _design_matrix(train, params.include_group_feature)
    y = train.label.astype(float)
    if X.shape[1] == 0:
        raise ValidationError("training set must have at least one feature")
    n, m = X.shape
    # the design matrix's mean(axis=0) and std(axis=0), reduced the way numpy does;
    # a finite column may still overflow its sum or its squares
    with np.errstate(over="ignore", invalid="ignore"):
        mu = _column_sums(X) / n
        X -= mu
        sd = np.sqrt(_column_sums(X * X) / n)
    if not np.isfinite(sd).all():
        raise NumericalFailureError("a feature's mean or variance overflows float64")
    sd = np.where(sd > 0.0, sd, 1.0)
    X /= sd

    lam, alpha = params.lam, params.alpha
    l1 = lam * alpha
    l2 = lam * (1.0 - alpha)
    X2 = X * X
    # the global bound 1/4 as (curvature, its column terms, its total), as cd_pass takes them
    bound = (0.25, 0.25 * (_column_sums(X2) / n), 0.25 * n)

    def cd_pass(beta, b, p, curvature, wx2, w_sum):
        """One cyclic pass on the weighted quadratic approximation at (beta, b).

        curvature is the per-row weight, an array or a scalar; wx2[j] is the mean
        of curvature * x_j**2 and w_sum the curvature's total over the rows.
        Returns (beta, b, max coefficient change).
        """
        beta = beta.copy()  # the caller's iterate stays for the fallback pass
        # residual of the working response: curvature * (z - X beta - b) = y - p here
        wr = y - p
        max_delta = 0.0
        for j, x_j in enumerate(X.T):
            denom_j = wx2[j] + l2
            if wx2[j] <= 0.0:
                continue  # constant column: coefficient stays 0
            rho = float(x_j @ wr) / n + wx2[j] * beta[j]
            new = _soft(rho, l1) / denom_j
            d = new - beta[j]
            if d != 0.0:
                wr -= curvature * x_j * d
                beta[j] = new
                max_delta = max(max_delta, abs(d))
        db = float(wr.sum()) / w_sum
        b += db
        return beta, b, max(max_delta, abs(db))

    beta = np.zeros(m)
    b = 0.0
    # the linear predictor of the current iterate feeds its objective and the
    # next iteration's probabilities
    eta = X @ beta + b
    obj = _objective(eta, y, beta, lam, alpha)
    history = [obj]
    for iters in range(1, params.max_iters + 1):
        p = expit(eta)
        # Newton weights clip(p * (1 - p), 1e-6, None), which numpy computes as a maximum
        w = np.maximum(p * (1.0 - p), 1e-6)
        # try the Newton step; if the objective is non-finite or would rise, take the
        # majorizing bound's step, which cannot increase it
        for terms in ((w, X2.T @ w / n, float(w.sum())), bound):
            new_beta, new_b, max_delta = cd_pass(beta, b, p, *terms)
            new_eta = X @ new_beta + new_b
            new_obj = _objective(new_eta, y, new_beta, lam, alpha)
            if np.isfinite(new_obj) and new_obj <= obj:
                break
        if not np.isfinite(new_obj):
            raise NumericalFailureError("non-finite objective during optimization")
        beta, b, eta, obj = new_beta, new_b, new_eta, new_obj
        history.append(obj)
        if max_delta < params.tolerance:
            break
    # max_iters >= 1, so the loop ran and max_delta is the last step's
    converged = bool(max_delta < params.tolerance)

    return Model(coefficients=beta, intercept=float(b), feature_means=mu,
                 feature_scales=sd, params=params, converged=converged,
                 n_iters=iters, objective_history=history)


def predict(model: Model, records: Population) -> tuple[np.ndarray, np.ndarray]:
    """(score_hat, label_hat): the records' scores in [0, 1] under the fitted model, and
    1 where a score is >= its prediction_threshold (ties map to 1), else 0. records is
    never written to: predict standardizes its own copy of the features."""
    from scipy.special import expit

    X = _design_matrix(records, model.params.include_group_feature)
    if X.shape[1] != len(model.coefficients):
        raise ValidationError(
            f"feature dimension mismatch: model has {len(model.coefficients)}, "
            f"records have {X.shape[1]}")
    X -= model.feature_means
    X /= model.feature_scales
    score = expit(X @ model.coefficients + model.intercept)
    return score, (score >= model.params.prediction_threshold).astype(int)
