"""The six fairness metrics, computed from predictions, labels, and group membership.

Mean-score and residual differences use the continuous predicted score; the
rate-based metrics and NMI use the thresholded predicted label. Entropies use
the natural logarithm; NMI is base-invariant by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UndefinedMetricError, ValidationError

METRIC_NAMES = (
    "mean_score_diff",
    "residual_diff",
    "equal_opportunity_diff",
    "equal_misopportunity_diff",
    "disparate_impact",
    "nmi",
)

# value of each metric at the non-discrimination point
FAIR_POINTS = {name: 0.0 for name in METRIC_NAMES}
FAIR_POINTS["disparate_impact"] = 1.0


@dataclass
class GroupedOutcomes:
    """Aligned per-record arrays: group S, training label Y, score ŷ, predicted label Ŷ."""

    group: np.ndarray
    label: np.ndarray
    score_hat: np.ndarray
    label_hat: np.ndarray

    def __post_init__(self):
        self.group = np.asarray(self.group, dtype=int)
        self.label = np.asarray(self.label, dtype=int)
        self.score_hat = np.asarray(self.score_hat, dtype=float)
        self.label_hat = np.asarray(self.label_hat, dtype=int)
        n = self.group.size
        if n == 0:
            raise ValidationError("outcomes must be non-empty")
        for name in ("label", "score_hat", "label_hat"):
            if getattr(self, name).size != n:
                raise ValidationError(f"{name} is not aligned with group")
        for name in ("group", "label", "label_hat"):
            arr = getattr(self, name)
            if not np.isin(arr, (0, 1)).all():
                raise ValidationError(f"{name} must be binary")
        if not ((self.score_hat >= 0.0) & (self.score_hat <= 1.0)).all():
            raise ValidationError("score_hat must lie in [0, 1]")

    @classmethod
    def from_labeled(cls, records, predictions) -> "GroupedOutcomes":
        return cls(group=records.group, label=records.label,
                   score_hat=predictions.score_hat,
                   label_hat=predictions.label_hat)

    def _group_mask(self, s: int) -> np.ndarray:
        mask = self.group == s
        if not mask.any():
            raise UndefinedMetricError(f"group {s} is absent")
        return mask


@dataclass
class JointCounts:
    """2x2 counts of (predicted label, group) with derived probabilities."""

    counts: np.ndarray  # counts[yhat][s]

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=float)
        if self.counts.shape != (2, 2):
            raise ValidationError("counts must be a 2x2 table")
        if (self.counts < 0).any():
            raise ValidationError("counts must be nonnegative")
        if self.counts.sum() <= 0:
            raise ValidationError("counts must not all be zero")

    @classmethod
    def from_outcomes(cls, data: GroupedOutcomes) -> "JointCounts":
        counts = np.zeros((2, 2))
        for yhat in (0, 1):
            for s in (0, 1):
                counts[yhat][s] = np.sum((data.label_hat == yhat) & (data.group == s))
        return cls(counts)

    @property
    def joint_probs(self) -> np.ndarray:
        return self.counts / self.counts.sum()

    @property
    def yhat_marginal(self) -> np.ndarray:
        return self.joint_probs.sum(axis=1)

    @property
    def s_marginal(self) -> np.ndarray:
        return self.joint_probs.sum(axis=0)


def mean_score_difference(data: GroupedOutcomes) -> float:
    """E{ŷ | S=1} - E{ŷ | S=0} on continuous scores."""
    m1, m0 = data._group_mask(1), data._group_mask(0)
    return float(data.score_hat[m1].mean() - data.score_hat[m0].mean())


def residual_difference(data: GroupedOutcomes) -> float:
    """E{ŷ - Y | S=1} - E{ŷ - Y | S=0}."""
    m1, m0 = data._group_mask(1), data._group_mask(0)
    res = data.score_hat - data.label
    return float(res[m1].mean() - res[m0].mean())


def _conditional_rate(data: GroupedOutcomes, s: int, y: int) -> float:
    cell = (data.group == s) & (data.label == y)
    if not cell.any():
        raise UndefinedMetricError(f"no records with S={s}, Y={y}")
    return float(data.label_hat[cell].mean())


def equal_opportunity_difference(data: GroupedOutcomes) -> float:
    """Difference of group true-positive rates: Pr{Ŷ=1|S=1,Y=1} - Pr{Ŷ=1|S=0,Y=1}."""
    return _conditional_rate(data, 1, 1) - _conditional_rate(data, 0, 1)


def equal_misopportunity_difference(data: GroupedOutcomes) -> float:
    """Difference of group false-positive rates: Pr{Ŷ=1|S=1,Y=0} - Pr{Ŷ=1|S=0,Y=0}."""
    return _conditional_rate(data, 1, 0) - _conditional_rate(data, 0, 0)


def disparate_impact(data: GroupedOutcomes) -> float | None:
    """Ratio of group positive-prediction rates; None when the denominator rate is 0."""
    m1, m0 = data._group_mask(1), data._group_mask(0)
    r1 = float(data.label_hat[m1].mean())
    r0 = float(data.label_hat[m0].mean())
    if r0 == 0.0:
        return None
    return r1 / r0


def entropy(dist) -> float:
    """Shannon entropy with natural log; 0 * log 0 := 0."""
    p = np.asarray(dist, dtype=float)
    if (p < 0).any():
        raise ValidationError("probabilities must be nonnegative")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValidationError(f"probabilities must sum to 1, got {p.sum()}")
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def nmi_from_counts(joint: JointCounts) -> float:
    """NMI of the 2x2 joint; 0 when either marginal entropy vanishes."""
    p = joint.joint_probs
    py, ps = joint.yhat_marginal, joint.s_marginal
    hy, hs = entropy(py), entropy(ps)
    if hy == 0.0 or hs == 0.0:
        return 0.0
    mi = 0.0
    for yhat in (0, 1):
        for s in (0, 1):
            if p[yhat][s] > 0:
                mi += p[yhat][s] * np.log(p[yhat][s] / (py[yhat] * ps[s]))
    return float(mi / np.sqrt(hy * hs))


def normalized_mutual_information(data: GroupedOutcomes) -> float:
    """NMI of (predicted label, group)."""
    data._group_mask(0)
    data._group_mask(1)
    return nmi_from_counts(JointCounts.from_outcomes(data))


def cell_counts(data: GroupedOutcomes) -> dict[tuple[int, int, int], int]:
    """Counts per (S, Y, Ŷ) cell."""
    out = {}
    for s in (0, 1):
        for y in (0, 1):
            for yhat in (0, 1):
                out[(s, y, yhat)] = int(np.sum((data.group == s) & (data.label == y)
                                               & (data.label_hat == yhat)))
    return out


@dataclass
class MetricValue:
    value: float | None
    status: str = "ok"  # "ok" | "undefined" | "error"
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {"value": self.value, "status": self.status, "detail": self.detail}


@dataclass
class MetricReport:
    mean_score_diff: MetricValue
    residual_diff: MetricValue
    equal_opportunity_diff: MetricValue
    equal_misopportunity_diff: MetricValue
    disparate_impact: MetricValue
    nmi: MetricValue
    cell_counts: dict = field(default_factory=dict)

    def metric(self, name: str) -> MetricValue:
        if name not in METRIC_NAMES:
            raise ValidationError(f"unknown metric {name!r}")
        return getattr(self, name)

    def to_json_dict(self) -> dict:
        return {
            "metrics": {name: self.metric(name).to_json_dict() for name in METRIC_NAMES},
            "cell_counts": {f"s{s}_y{y}_yhat{p}": c
                            for (s, y, p), c in sorted(self.cell_counts.items())},
        }


def _guarded(fn, data: GroupedOutcomes) -> MetricValue:
    try:
        return MetricValue(float(fn(data)))
    except UndefinedMetricError as e:
        return MetricValue(None, "undefined", str(e))
    except ValidationError as e:
        return MetricValue(None, "error", str(e))


def audit(data: GroupedOutcomes) -> MetricReport:
    """Compute all six metrics; undefined markers are carried, never coerced."""
    di: MetricValue
    try:
        value = disparate_impact(data)
        if value is None:
            di = MetricValue(None, "undefined",
                             "group-0 positive prediction rate is zero")
        else:
            di = MetricValue(value)
    except UndefinedMetricError as e:
        di = MetricValue(None, "undefined", str(e))

    nmi_value: MetricValue
    try:
        v = normalized_mutual_information(data)
        detail = ""
        if entropy(JointCounts.from_outcomes(data).yhat_marginal) == 0.0:
            detail = "degenerate prediction margin; mutual information is zero"
        nmi_value = MetricValue(v, "ok", detail)
    except UndefinedMetricError as e:
        nmi_value = MetricValue(None, "undefined", str(e))

    return MetricReport(
        mean_score_diff=_guarded(mean_score_difference, data),
        residual_diff=_guarded(residual_difference, data),
        equal_opportunity_diff=_guarded(equal_opportunity_difference, data),
        equal_misopportunity_diff=_guarded(equal_misopportunity_difference, data),
        disparate_impact=di,
        nmi=nmi_value,
        cell_counts=cell_counts(data),
    )
