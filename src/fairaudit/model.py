"""Stratified splitting and elastic-net logistic regression.

The fitter runs cyclic coordinate descent with soft-thresholding on a local
quadratic approximation of the logistic loss. Each outer iteration tries a
Newton-weighted pass and falls back to the global 1/4 curvature bound (a true
majorizer) whenever the penalized objective would increase, so the objective
is monotonically non-increasing across iterations. Features are standardized
internally; the intercept is unpenalized. scipy is imported inside the
functions that use it, as in datagen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datagen import Population
from .errors import DegenerateDatasetError, NumericalFailureError, ValidationError


# [model] config key -> ModelParams field, read by harness._CONFIG_NAMES
MODEL_KEYS = {"lambda": "lam", "alpha": "alpha", "max_iters": "max_iters",
              "tolerance": "tolerance", "train_fraction": "train_fraction",
              "include_group_feature": "include_group_feature",
              "prediction_threshold": "prediction_threshold"}


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
        for name in ("lam", "tolerance"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lam < 0:
            raise ValidationError(f"lam must be nonnegative, got {self.lam}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValidationError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.max_iters <= 0:
            raise ValidationError(f"max_iters must be positive, got {self.max_iters}")
        if self.tolerance <= 0:
            raise ValidationError(f"tolerance must be positive, got {self.tolerance}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValidationError(
                f"train_fraction must lie strictly inside (0, 1), got {self.train_fraction}")
        if not 0.0 <= self.prediction_threshold <= 1.0:
            raise ValidationError(
                f"prediction_threshold must lie in [0, 1], got {self.prediction_threshold}")


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


@dataclass
class Predictions:
    score_hat: np.ndarray  # sigmoid scores in [0, 1]
    label_hat: np.ndarray  # 1 iff score_hat >= params.prediction_threshold


def split(data: Population, train_fraction: float,
          seed: int) -> tuple[Population, Population]:
    """Disjoint, exhaustive partition stratified by (group, label).

    Per-cell train counts are within one record of the exact fraction
    (largest-remainder rounding); the total train size is round(fraction * n).
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValidationError(
            f"train_fraction must lie strictly inside (0, 1), got {train_fraction}")
    # stratum key 2 * group + label orders cells as sorted (group, label) pairs
    cell = 2 * data.group + data.label
    sizes = np.bincount(cell, minlength=4).tolist()
    keys = [k for k in range(4) if sizes[k]]
    for k in keys:
        if sizes[k] < 2:
            raise DegenerateDatasetError(
                f"cell (group={k // 2}, label={k % 2}) has {sizes[k]} records, "
                "need at least 2 to stratify")

    total_train = int(round(train_fraction * len(data)))
    ideal = [train_fraction * sizes[k] for k in keys]
    take = [math.floor(x) for x in ideal]
    extras = total_train - sum(take)
    # hand extras to the largest fractional remainders, ties by cell key order
    order = sorted(range(len(keys)), key=lambda i: (-(ideal[i] - take[i]), i))
    for i in order[:extras]:
        take[i] += 1

    rng = np.random.default_rng(seed)
    train = np.zeros(len(data), dtype=bool)
    for k, t in zip(keys, take):
        idx = np.flatnonzero(cell == k)
        train[idx[rng.permutation(idx.size)[:t]]] = True
    return data.take(train), data.take(~train)


def _design_matrix(data: Population, include_group: bool) -> np.ndarray:
    if include_group:
        return np.column_stack([data.features, data.group.astype(float)])
    return data.features


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
    viol = abs(g_b)
    for j in range(len(beta)):
        if beta[j] != 0.0:
            viol = max(viol, abs(g_beta[j] + l1 * np.sign(beta[j])))
        else:
            viol = max(viol, max(0.0, abs(g_beta[j]) - l1))
    return float(viol)


def fit(train: Population, params: ModelParams) -> Model:
    """Fit elastic-net logistic regression on standardized features."""
    from scipy.special import expit

    if not train:
        raise ValidationError("training set must be non-empty")
    if train.label is None:
        raise ValidationError("training set must be labeled")
    X_raw = _design_matrix(train, params.include_group_feature)
    y = train.label.astype(float)
    if X_raw.shape[1] == 0:
        raise ValidationError("training set must have at least one feature")
    n, m = X_raw.shape
    mu = X_raw.mean(axis=0)
    sd = X_raw.std(axis=0)
    sd = np.where(sd > 0.0, sd, 1.0)
    X = (X_raw - mu) / sd

    lam, alpha = params.lam, params.alpha
    l1 = lam * alpha
    l2 = lam * (1.0 - alpha)
    X2 = X ** 2
    sq = X2.mean(axis=0)

    def cd_pass(beta, b, p, newton: bool):
        """One cyclic pass on the weighted quadratic approximation at (beta, b).

        newton=True uses w = p(1-p); newton=False uses the global bound w = 1/4.
        Returns (beta, b, max coefficient change).
        """
        beta = beta.copy()
        if newton:
            w = np.clip(p * (1.0 - p), 1e-6, None)
            wx2 = X2.T @ w / n
            w_sum = float(w.sum())
        else:
            w = None
            wx2 = 0.25 * sq
            w_sum = 0.25 * n
        # residual of the working response: w * (z - X beta - b) = (y - p) here
        wr = y - p
        max_delta = 0.0
        for j in range(m):
            denom_j = wx2[j] + l2
            if wx2[j] <= 0.0 or denom_j <= 0.0:
                continue  # constant column: coefficient stays 0
            rho = float(X[:, j] @ wr) / n + wx2[j] * beta[j]
            new = _soft(rho, l1) / denom_j
            d = new - beta[j]
            if d != 0.0:
                wr -= (w * X[:, j] if newton else 0.25 * X[:, j]) * d
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
    converged = False
    iters = 0
    for iters in range(1, params.max_iters + 1):
        p = expit(eta)
        new_beta, new_b, max_delta = cd_pass(beta, b, p, newton=True)
        new_eta = X @ new_beta + new_b
        new_obj = _objective(new_eta, y, new_beta, lam, alpha)
        if not np.isfinite(new_obj) or new_obj > obj:
            # fall back to the majorizing bound, which cannot increase the objective
            new_beta, new_b, max_delta = cd_pass(beta, b, p, newton=False)
            new_eta = X @ new_beta + new_b
            new_obj = _objective(new_eta, y, new_beta, lam, alpha)
        if not np.isfinite(new_obj):
            raise NumericalFailureError("non-finite objective during optimization")
        beta, b, eta, obj = new_beta, new_b, new_eta, new_obj
        history.append(obj)
        if max_delta < params.tolerance:
            converged = True
            break

    return Model(coefficients=beta, intercept=float(b), feature_means=mu,
                 feature_scales=sd, params=params, converged=converged,
                 n_iters=iters, objective_history=history)


def predict(model: Model, records: Population) -> Predictions:
    """Score records with the fitted model and threshold into labels (ties map to 1)."""
    from scipy.special import expit

    X_raw = _design_matrix(records, model.params.include_group_feature)
    if X_raw.shape[1] != len(model.coefficients):
        raise ValidationError(
            f"feature dimension mismatch: model has {len(model.coefficients)}, "
            f"records have {X_raw.shape[1]}")
    X = (X_raw - model.feature_means) / model.feature_scales
    score = expit(X @ model.coefficients + model.intercept)
    return Predictions(score_hat=score,
                       label_hat=(score >= model.params.prediction_threshold).astype(int))
