"""Independent brute-force references (explicit loops over records): the six
metrics, the sample -> label -> split pipeline, the predictions CSV reader and
the population CSV writer; a frozen copy of the elastic-net fitter; and the
Beta score calibration as scipy.stats and scipy.optimize compute it.

These stay loop-based and self-contained on purpose: they are the reference
the vectorized implementations are checked against.

The exact-bits references are the exception: plain numpy formulas (boolean-mask
gathers, one bincount, the elementwise 0/1 test, a population built one
full-size temporary per step) whose results `audit`, the column checks and
`generate_population` must reproduce bit for bit, not within a tolerance.
"""

import csv
import math

import numpy as np
from scipy.special import expit

from fairaudit.errors import NumericalFailureError, ValidationError
from fairaudit.model import Model


def _rows(data):
    return list(zip(data.group.tolist(), data.label.tolist(),
                    data.score_hat.tolist(), data.label_hat.tolist()))


def mean_score_diff_oracle(data):
    sums = {0: 0.0, 1: 0.0}
    counts = {0: 0, 1: 0}
    for s, _, score, _ in _rows(data):
        sums[s] += score
        counts[s] += 1
    if counts[0] == 0 or counts[1] == 0:
        return None
    return sums[1] / counts[1] - sums[0] / counts[0]


def residual_diff_oracle(data):
    sums = {0: 0.0, 1: 0.0}
    counts = {0: 0, 1: 0}
    for s, y, score, _ in _rows(data):
        sums[s] += score - y
        counts[s] += 1
    if counts[0] == 0 or counts[1] == 0:
        return None
    return sums[1] / counts[1] - sums[0] / counts[0]


def _conditional_rate_oracle(data, s_want, y_want):
    hits = total = 0
    for s, y, _, yhat in _rows(data):
        if s == s_want and y == y_want:
            total += 1
            hits += yhat
    if total == 0:
        return None
    return hits / total


def equal_opportunity_oracle(data):
    r1 = _conditional_rate_oracle(data, 1, 1)
    r0 = _conditional_rate_oracle(data, 0, 1)
    if r1 is None or r0 is None:
        return None
    return r1 - r0


def equal_misopportunity_oracle(data):
    r1 = _conditional_rate_oracle(data, 1, 0)
    r0 = _conditional_rate_oracle(data, 0, 0)
    if r1 is None or r0 is None:
        return None
    return r1 - r0


def disparate_impact_oracle(data):
    pos = {0: 0, 1: 0}
    counts = {0: 0, 1: 0}
    for s, _, _, yhat in _rows(data):
        pos[s] += yhat
        counts[s] += 1
    if counts[0] == 0 or counts[1] == 0:
        return None
    r0, r1 = pos[0] / counts[0], pos[1] / counts[1]
    if r0 == 0.0:
        return None
    return r1 / r0


def nmi_oracle(data):
    rows = _rows(data)
    n = len(rows)
    joint = {(yhat, s): 0 for yhat in (0, 1) for s in (0, 1)}
    for s, _, _, yhat in rows:
        joint[(yhat, s)] += 1
    if sum(joint[(yh, 1)] for yh in (0, 1)) == 0:
        return None
    if sum(joint[(yh, 0)] for yh in (0, 1)) == 0:
        return None
    p_yhat = {yh: sum(joint[(yh, s)] for s in (0, 1)) / n for yh in (0, 1)}
    p_s = {s: sum(joint[(yh, s)] for yh in (0, 1)) / n for s in (0, 1)}
    h_yhat = -sum(p * math.log(p) for p in p_yhat.values() if p > 0)
    h_s = -sum(p * math.log(p) for p in p_s.values() if p > 0)
    if h_yhat == 0.0 or h_s == 0.0:
        return 0.0
    mi = 0.0
    for yh in (0, 1):
        for s in (0, 1):
            p = joint[(yh, s)] / n
            if p > 0:
                mi += p * math.log(p / (p_yhat[yh] * p_s[s]))
    return mi / math.sqrt(h_yhat * h_s)


ORACLES = {
    "mean_score_diff": mean_score_diff_oracle,
    "residual_diff": residual_diff_oracle,
    "equal_opportunity_diff": equal_opportunity_oracle,
    "equal_misopportunity_diff": equal_misopportunity_oracle,
    "disparate_impact": disparate_impact_oracle,
    "nmi": nmi_oracle,
}


def group_mean_difference_exact_oracle(values, group):
    """E{values | S=1} - E{values | S=0}, each group gathered with a boolean mask."""
    return float(values[group == 1].mean() - values[group == 0].mean())


def cell_counts_exact_oracle(group, label, label_hat):
    """(S, Y, Yhat) counts indexed [s, y, yhat], from one bincount of 4 S + 2 Y + Yhat."""
    return np.bincount(4 * group + 2 * label + label_hat, minlength=8).reshape(2, 2, 2)


def binary_exact_oracle(name, values):
    """A 0/1 column as contiguous int64, checked elementwise in its own dtype."""
    values = np.ascontiguousarray(values)
    if not np.all((values == 0) | (values == 1)):
        raise ValidationError(f"{name} must be 0 or 1")
    return values.astype(np.int64, copy=False)


def _group_scores_exact_oracle(rng, n, rate, concentration):
    """datagen._group_scores as one serial scipy.special.betaincinv call per side of the
    0.5 cutoff, each side clipped, then concatenated."""
    from scipy import special

    from fairaudit.datagen import _beta_shape

    a, b = _beta_shape(rate, concentration)
    k = int(round(n * rate))
    split = special.betainc(a, b, 0.5)
    u = rng.random(n)
    high = special.betaincinv(a, b, split + u[:k] * (1.0 - split))
    low = special.betaincinv(a, b, u[k:] * split)
    return np.concatenate([np.clip(high, 0.5, 1.0), np.clip(low, 0.0, np.nextafter(0.5, 0.0))])


def generate_population_exact_oracle(spec, seed):
    """(id, group, score, features) of generate_population(spec, seed), built with a 0/1
    group column concatenated and permuted with the scores, and a new array for
    every step of the logits and features."""
    from fairaudit.datagen import SCORE_CLAMP

    rng = np.random.default_rng(seed)
    d = spec.feature_dim
    slopes = rng.uniform(0.5, 1.5, size=d - 1)

    s0 = _group_scores_exact_oracle(rng, spec.n_group0, spec.positive_rate_group0,
                                    spec.score_concentration)
    s1 = _group_scores_exact_oracle(rng, spec.n_group1, spec.positive_rate_group1,
                                    spec.score_concentration)
    scores = np.concatenate([s0, s1])
    groups = np.concatenate([np.zeros(spec.n_group0, dtype=int),
                             np.ones(spec.n_group1, dtype=int)])
    order = rng.permutation(scores.size)
    scores, groups = scores[order], groups[order]
    n = scores.size

    clamped = np.clip(scores, SCORE_CLAMP, 1.0 - SCORE_CLAMP)
    logits = np.log(clamped / (1.0 - clamped))
    feats = np.empty((n, d))
    for j in range(d - 1):
        feats[:, j] = slopes[j] * logits + spec.noise_scale * rng.standard_normal(n)
    rho = spec.proxy_strength
    g_std = (groups - groups.mean()) / groups.std()
    feats[:, d - 1] = rho * g_std + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n)
    return np.arange(n), groups, scores, feats


def sample_label_split_oracle(pop, sample_policy, label_policy, sample_seed,
                              train_fraction, split_seed):
    """Train and test rows (id, group, score, features, label) built one row at a time.

    Draws the same random numbers as build_dataset and split: one uniform per
    row, then one permutation per present (group, label) cell in sorted order.
    Skips the minimum cell-count checks.
    """
    rows = zip(pop.id.tolist(), pop.group.tolist(), pop.score.tolist(),
               pop.features.tolist())
    u = np.random.default_rng(sample_seed).random(len(pop)).tolist()
    kept = []
    for (rid, group, score, features), x in zip(rows, u):
        high = score >= sample_policy.cutoff
        if group == 1:
            p = sample_policy.p_group1_high if high else sample_policy.p_group1_low
            threshold = label_policy.threshold_group1
        else:
            p = sample_policy.p_group0_high if high else sample_policy.p_group0_low
            threshold = label_policy.threshold_group0
        if x < p:
            kept.append((rid, group, score, features, int(score >= threshold)))

    cells = {}
    for i, (_, group, _, _, label) in enumerate(kept):
        cells.setdefault((group, label), []).append(i)
    keys = sorted(cells)
    ideal = [train_fraction * len(cells[k]) for k in keys]
    take = [math.floor(x) for x in ideal]
    extras = int(round(train_fraction * len(kept))) - sum(take)
    order = sorted(range(len(keys)), key=lambda i: (-(ideal[i] - take[i]), i))
    for i in order[:extras]:
        take[i] += 1
    rng = np.random.default_rng(split_seed)
    in_train = set()
    for k, t in zip(keys, take):
        perm = rng.permutation(len(cells[k])).tolist()
        in_train.update(cells[k][j] for j in perm[:t])
    train = [row for i, row in enumerate(kept) if i in in_train]
    test = [row for i, row in enumerate(kept) if i not in in_train]
    return train, test


def read_predictions_oracle(path):
    """(columns, None) for a predictions CSV read one csv.DictReader row at a
    time, or (None, line) naming the physical line of the first row that does
    not parse with int() and float(). Header errors are not modelled."""
    columns = {"group": [], "label": [], "score_hat": [], "label_hat": []}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                columns["group"].append(int(row["group"]))
                columns["label"].append(int(row["label"]))
                columns["score_hat"].append(float(row["score_hat"]))
                columns["label_hat"].append(int(row["label_hat"]))
            except (TypeError, ValueError):
                return None, reader.line_num
    return {name: np.array(values) for name, values in columns.items()}, None


def write_population_csv_oracle(pop, path):
    """The population CSV one csv.writer row at a time, each real formatted
    with format(x, ".12g"): id,group,score[,label],f0,..."""
    header = ["id", "group", "score"]
    columns = [pop.id.tolist(), pop.group.tolist(), pop.score.tolist()]
    if pop.label is not None:
        header.append("label")
        columns.append(pop.label.tolist())
    header += [f"f{j}" for j in range(pop.features.shape[1])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for *row, features in zip(*columns, pop.features.tolist()):
            row[2] = format(row[2], ".12g")  # the score
            writer.writerow(row + [format(x, ".12g") for x in features])


def beta_shape_oracle(rate, concentration):
    """Beta(a, b) with a + b = concentration and P(X >= 0.5) = rate, solved by
    scipy.optimize.brentq on scipy.stats.beta.sf."""
    from scipy import optimize, stats

    lo = 1e-9 * concentration
    hi = concentration - lo

    def gap(a):
        return stats.beta.sf(0.5, a, concentration - a) - rate

    a = optimize.brentq(gap, lo, hi, xtol=1e-13)
    return a, concentration - a


def group_scores_oracle(rng, n, rate, concentration):
    """n Beta scores with round(n * rate) of them >= 0.5, drawn through
    scipy.stats.beta.cdf and .ppf."""
    from scipy import stats

    a, b = beta_shape_oracle(rate, concentration)
    k = int(round(n * rate))
    split = stats.beta.cdf(0.5, a, b)
    u = rng.random(n)
    s = np.empty(n)
    s[:k] = stats.beta.ppf(split + u[:k] * (1.0 - split), a, b)
    s[k:] = stats.beta.ppf(u[k:] * split, a, b)
    np.clip(s, 0.0, 1.0, out=s)
    s[:k] = np.maximum(s[:k], 0.5)
    s[k:] = np.minimum(s[k:], np.nextafter(0.5, 0.0))
    return s


def _design_matrix_oracle(data, include_group):
    if include_group:
        return np.column_stack([data.features, data.group.astype(float)])
    return data.features


def _soft_oracle(x, threshold):
    if x > threshold:
        return x - threshold
    if x < -threshold:
        return x + threshold
    return 0.0


def _penalized_objective_oracle(X, y, beta, intercept, lam, alpha):
    eta = X @ beta + intercept
    loss = float(np.mean(np.logaddexp(0.0, eta) - y * eta))
    penalty = lam * (alpha * float(np.abs(beta).sum())
                     + 0.5 * (1.0 - alpha) * float(beta @ beta))
    return loss + penalty


def subgradient_violation_oracle(g_beta, g_b, beta, l1):
    """subgradient_violation's coefficient loop, given the smooth gradient."""
    viol = abs(g_b)
    for j in range(len(beta)):
        if beta[j] != 0.0:
            viol = max(viol, abs(g_beta[j] + l1 * np.sign(beta[j])))
        else:
            viol = max(viol, max(0.0, abs(g_beta[j]) - l1))
    return float(viol)


def fit_oracle(train, params):
    """model.fit as it was before the optimizer reused X @ beta between steps:
    every objective recomputes its linear predictor, and the features are
    standardized by numpy's mean, std and broadcast. Its coefficients,
    intercept, iteration count and objective history are the bits fit must keep.
    """
    if not train:
        raise ValidationError("training set must be non-empty")
    if train.label is None:
        raise ValidationError("training set must be labeled")
    X_raw = _design_matrix_oracle(train, params.include_group_feature)
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
        beta = beta.copy()
        if newton:
            w = np.clip(p * (1.0 - p), 1e-6, None)
            wx2 = X2.T @ w / n
            w_sum = float(w.sum())
        else:
            w = None
            wx2 = 0.25 * sq
            w_sum = 0.25 * n
        wr = y - p
        max_delta = 0.0
        for j in range(m):
            denom_j = wx2[j] + l2
            if wx2[j] <= 0.0 or denom_j <= 0.0:
                continue
            rho = float(X[:, j] @ wr) / n + wx2[j] * beta[j]
            new = _soft_oracle(rho, l1) / denom_j
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
    obj = _penalized_objective_oracle(X, y, beta, b, lam, alpha)
    history = [obj]
    converged = False
    iters = 0
    for iters in range(1, params.max_iters + 1):
        p = expit(X @ beta + b)
        new_beta, new_b, max_delta = cd_pass(beta, b, p, newton=True)
        new_obj = _penalized_objective_oracle(X, y, new_beta, new_b, lam, alpha)
        if not np.isfinite(new_obj) or new_obj > obj:
            new_beta, new_b, max_delta = cd_pass(beta, b, p, newton=False)
            new_obj = _penalized_objective_oracle(X, y, new_beta, new_b, lam, alpha)
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


def predict_oracle(model, records):
    """model.predict by the broadcast formula: the (scores, labels) pair predict must
    reproduce bit for bit."""
    X_raw = _design_matrix_oracle(records, model.params.include_group_feature)
    X = (X_raw - model.feature_means) / model.feature_scales
    score = expit(X @ model.coefficients + model.intercept)
    return score, (score >= model.params.prediction_threshold).astype(int)
