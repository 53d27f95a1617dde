"""Independent brute-force references (explicit loops over records): the six
metrics, the sample -> label -> split pipeline, and the predictions CSV reader.

These stay loop-based and self-contained on purpose: they are the reference
the vectorized implementations are checked against.
"""

import csv
import math

import numpy as np


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
