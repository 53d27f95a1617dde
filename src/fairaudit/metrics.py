"""The six fairness metrics, computed from predictions, labels, and group membership.

Mean-score and residual differences use the continuous predicted score; the
rate-based metrics and NMI use the thresholded predicted label, through one
(S, Y, Ŷ) count table. Entropies use the natural logarithm; NMI is
base-invariant by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datagen import _binary, _column
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
        self.group = _binary("group", self.group)
        self.label = _binary("label", self.label)
        # contiguous: a field of a structured array (a CSV read) is a strided view
        self.score_hat = _column("score_hat", self.score_hat, float)
        self.label_hat = _binary("label_hat", self.label_hat)
        n = self.group.size
        if n == 0:
            raise ValidationError("outcomes must be non-empty")
        for name in ("label", "score_hat", "label_hat"):
            if getattr(self, name).size != n:
                raise ValidationError(f"{name} is not aligned with group")
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


def cell_counts(data: GroupedOutcomes) -> np.ndarray:
    """Counts per (S, Y, Ŷ) cell, indexed [s, y, yhat]; every count-based metric reads it."""
    cells = 4 * data.group + 2 * data.label + data.label_hat
    return np.bincount(cells, minlength=8).reshape(2, 2, 2)


def _require_groups(counts: np.ndarray, order: tuple[int, int]) -> None:
    """Raise for the first absent group; metrics differ in which one they name first."""
    for s in order:
        if not counts[s].any():
            raise UndefinedMetricError(f"group {s} is absent")


def mean_score_difference(data: GroupedOutcomes) -> float:
    """E{ŷ | S=1} - E{ŷ | S=0} on continuous scores."""
    m1, m0 = data._group_mask(1), data._group_mask(0)
    return float(data.score_hat[m1].mean() - data.score_hat[m0].mean())


def residual_difference(data: GroupedOutcomes) -> float:
    """E{ŷ - Y | S=1} - E{ŷ - Y | S=0}."""
    m1, m0 = data._group_mask(1), data._group_mask(0)
    res = data.score_hat - data.label
    return float(res[m1].mean() - res[m0].mean())


def _rate_difference(counts: np.ndarray, y: int) -> float:
    """Pr{Ŷ=1 | S=1, Y=y} - Pr{Ŷ=1 | S=0, Y=y}."""
    for s in (1, 0):
        if not counts[s, y].any():
            raise UndefinedMetricError(f"no records with S={s}, Y={y}")
    return float(counts[1, y, 1] / counts[1, y].sum() - counts[0, y, 1] / counts[0, y].sum())


def equal_opportunity_difference(data: GroupedOutcomes) -> float:
    """Difference of group true-positive rates: Pr{Ŷ=1|S=1,Y=1} - Pr{Ŷ=1|S=0,Y=1}."""
    return _rate_difference(cell_counts(data), 1)


def equal_misopportunity_difference(data: GroupedOutcomes) -> float:
    """Difference of group false-positive rates: Pr{Ŷ=1|S=1,Y=0} - Pr{Ŷ=1|S=0,Y=0}."""
    return _rate_difference(cell_counts(data), 0)


def _disparate_impact(counts: np.ndarray) -> float | None:
    _require_groups(counts, (1, 0))
    r1, r0 = (counts[s, :, 1].sum() / counts[s].sum() for s in (1, 0))
    if r0 == 0.0:
        return None
    return float(r1 / r0)


def disparate_impact(data: GroupedOutcomes) -> float | None:
    """Ratio of group positive-prediction rates; None when the denominator rate is 0."""
    return _disparate_impact(cell_counts(data))


def entropy(dist) -> float:
    """Shannon entropy with natural log; 0 * log 0 := 0."""
    p = np.asarray(dist, dtype=float)
    if (p < 0).any():
        raise ValidationError("probabilities must be nonnegative")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValidationError(f"probabilities must sum to 1, got {p.sum()}")
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def nmi_from_counts(counts) -> float:
    """NMI of a 2x2 count table indexed [yhat, s]; 0 when either marginal entropy vanishes."""
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (2, 2):
        raise ValidationError("counts must be a 2x2 table")
    if (counts < 0).any():
        raise ValidationError("counts must be nonnegative")
    if counts.sum() <= 0:
        raise ValidationError("counts must not all be zero")
    p = counts / counts.sum()
    py, ps = p.sum(axis=1), p.sum(axis=0)
    hy, hs = entropy(py), entropy(ps)
    if hy == 0.0 or hs == 0.0:
        return 0.0
    mi = 0.0
    for yhat in (0, 1):
        for s in (0, 1):
            if p[yhat][s] > 0:
                mi += p[yhat][s] * np.log(p[yhat][s] / (py[yhat] * ps[s]))
    return float(mi / np.sqrt(hy * hs))


def _nmi(counts: np.ndarray) -> float:
    _require_groups(counts, (0, 1))
    return nmi_from_counts(counts.sum(axis=1).T)  # the (Ŷ, S) margin


def normalized_mutual_information(data: GroupedOutcomes) -> float:
    """NMI of (predicted label, group)."""
    return _nmi(cell_counts(data))


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


def _guarded(fn, *args) -> MetricValue:
    try:
        value = fn(*args)
    except UndefinedMetricError as e:
        return MetricValue(None, "undefined", str(e))
    except ValidationError as e:
        return MetricValue(None, "error", str(e))
    return MetricValue(value)


def audit(data: GroupedOutcomes) -> MetricReport:
    """Compute all six metrics; undefined markers are carried, never coerced."""
    counts = cell_counts(data)
    di = _guarded(_disparate_impact, counts)
    if di.status == "ok" and di.value is None:
        di = MetricValue(None, "undefined", "group-0 positive prediction rate is zero")
    nmi = _guarded(_nmi, counts)
    if nmi.status == "ok" and not counts.sum(axis=(0, 1)).all():
        nmi.detail = "degenerate prediction margin; mutual information is zero"
    return MetricReport(
        mean_score_diff=_guarded(mean_score_difference, data),
        residual_diff=_guarded(residual_difference, data),
        equal_opportunity_diff=_guarded(_rate_difference, counts, 1),
        equal_misopportunity_diff=_guarded(_rate_difference, counts, 0),
        disparate_impact=di,
        nmi=nmi,
        cell_counts={cell: int(n) for cell, n in np.ndenumerate(counts)},
    )
