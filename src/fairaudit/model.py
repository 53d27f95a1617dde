"""Stratified splitting and elastic-net logistic regression.

The fitter runs cyclic coordinate descent with soft-thresholding on a local
quadratic approximation of the logistic loss. Each outer iteration tries a
Newton-weighted pass and falls back to the global 1/4 curvature bound (a true
majorizer) whenever the penalized objective would increase, so the objective
is monotonically non-increasing across iterations. Features are standardized
internally; the intercept is unpenalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .datagen import Population
from .errors import DegenerateDatasetError, NumericalFailureError, ValidationError


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

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "alpha": self.alpha,
            "max_iters": self.max_iters,
            "tolerance": self.tolerance,
            "train_fraction": self.train_fraction,
            "include_group_feature": self.include_group_feature,
            "prediction_threshold": self.prediction_threshold,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelParams":
        return cls(lam=d["lambda"], alpha=d["alpha"], max_iters=d["max_iters"],
                   tolerance=d["tolerance"], train_fraction=d["train_fraction"],
                   include_group_feature=d["include_group_feature"],
                   prediction_threshold=d["prediction_threshold"])


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

    def to_json_dict(self) -> dict:
        return {
            "coefficients": [float(c) for c in self.coefficients],
            "intercept": float(self.intercept),
            "feature_means": [float(m) for m in self.feature_means],
            "feature_scales": [float(s) for s in self.feature_scales],
            "params": self.params.to_dict(),
            "converged": self.converged,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Model":
        return cls(coefficients=np.asarray(d["coefficients"], dtype=float),
                   intercept=float(d["intercept"]),
                   feature_means=np.asarray(d["feature_means"], dtype=float),
                   feature_scales=np.asarray(d["feature_scales"], dtype=float),
                   params=ModelParams.from_dict(d["params"]),
                   converged=bool(d["converged"]))


@dataclass
class Predictions:
    score_hat: np.ndarray  # sigmoid scores in [0, 1]
    label_hat: np.ndarray  # 1 iff score_hat >= threshold
    threshold: float


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


def penalized_objective(X: np.ndarray, y: np.ndarray, beta: np.ndarray,
                        intercept: float, lam: float, alpha: float) -> float:
    """Mean logistic loss plus the elastic-net penalty (intercept unpenalized)."""
    eta = X @ beta + intercept
    loss = float(np.mean(np.logaddexp(0.0, eta) - y * eta))
    penalty = lam * (alpha * float(np.abs(beta).sum())
                     + 0.5 * (1.0 - alpha) * float(beta @ beta))
    return loss + penalty


def smooth_gradient(X: np.ndarray, y: np.ndarray, beta: np.ndarray,
                    intercept: float, lam: float,
                    alpha: float) -> tuple[np.ndarray, float]:
    """Gradient of the smooth part (logistic loss + L2 term) wrt (beta, intercept)."""
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
    obj = penalized_objective(X, y, beta, b, lam, alpha)
    history = [obj]
    converged = False
    iters = 0
    for iters in range(1, params.max_iters + 1):
        p = expit(X @ beta + b)
        new_beta, new_b, max_delta = cd_pass(beta, b, p, newton=True)
        new_obj = penalized_objective(X, y, new_beta, new_b, lam, alpha)
        if not np.isfinite(new_obj) or new_obj > obj:
            # fall back to the majorizing bound, which cannot increase the objective
            new_beta, new_b, max_delta = cd_pass(beta, b, p, newton=False)
            new_obj = penalized_objective(X, y, new_beta, new_b, lam, alpha)
        if not np.isfinite(new_obj):
            raise NumericalFailureError("non-finite objective during optimization")
        beta, b, obj = new_beta, new_b, new_obj
        history.append(obj)
        if max_delta < params.tolerance:
            converged = True
            break

    return Model(coefficients=beta, intercept=float(b), feature_means=mu,
                 feature_scales=sd, params=params, converged=converged,
                 n_iters=iters, objective_history=history)


def predict(model: Model, records: Population, threshold: float | None = None) -> Predictions:
    """Score records with the fitted model and threshold into labels (ties map to 1)."""
    X_raw = _design_matrix(records, model.params.include_group_feature)
    if X_raw.shape[1] != len(model.coefficients):
        raise ValidationError(
            f"feature dimension mismatch: model has {len(model.coefficients)}, "
            f"records have {X_raw.shape[1]}")
    X = (X_raw - model.feature_means) / model.feature_scales
    score = expit(X @ model.coefficients + model.intercept)
    t = model.params.prediction_threshold if threshold is None else threshold
    if not 0.0 <= t <= 1.0:
        raise ValidationError(f"threshold must lie in [0, 1], got {t}")
    return Predictions(score_hat=score, label_hat=(score >= t).astype(int), threshold=t)
