"""The six fairness metrics, computed from predictions, labels, and group membership.

`METRICS` declares each metric once; `audit` computes them all on one path.
Mean-score and residual differences use the continuous predicted score; the
rate-based metrics and NMI use the thresholded predicted label, through one
(S, Y, Ŷ) count table. Entropies use the natural logarithm; NMI is
base-invariant by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import _binary, _column
from .errors import ValidationError


@dataclass
class GroupedOutcomes:
    """Aligned per-record arrays: group S, observed label Y, score ŷ, predicted label Ŷ.

    Y is the label as recorded, biased wherever label bias was injected; the
    metrics that read it score the model against that label, not a clean one.
    """

    group: np.ndarray
    label: np.ndarray
    score_hat: np.ndarray
    label_hat: np.ndarray

    def __post_init__(self):
        self.group = _binary("group", self.group)
        self.label = _binary("label", self.label)
        # contiguous: a library caller's structured-array field is a strided view
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


@dataclass
class MetricValue:
    """A metric's value, None where it is undefined, and a detail that says why."""

    value: float | None
    detail: str = ""

    @property
    def status(self) -> str:
        return "ok" if self.value is not None else "undefined"

    @property
    def csv_text(self) -> str:
        """The value as both CSV writers print it: 12 significant digits, "" if undefined."""
        return "" if self.value is None else format(self.value, ".12g")

    def to_json_dict(self) -> dict:
        return {"value": self.value, "status": self.status, "detail": self.detail}


def cell_counts(data: GroupedOutcomes) -> np.ndarray:
    """Counts per (S, Y, Ŷ) cell, indexed [s, y, yhat]; every count-based metric reads it."""
    return np.bincount(4 * data.group + 2 * data.label + data.label_hat,
                       minlength=8).reshape(2, 2, 2)


def _absent_group(counts: np.ndarray) -> MetricValue | None:
    """The undefined value if a group has no records, else None. A MetricValue is
    always true, so `_absent_group(counts) or ...` never averages an empty group."""
    # outcomes are non-empty, so at most one group can be absent
    for s in (1, 0):
        if not counts[s].any():
            return MetricValue(None, f"group {s} is absent")
    return None


def _by_group(data: GroupedOutcomes):
    """(ŷ, Y) of group 0, then of group 1, shared by both mean differences."""
    # compress gathers a boolean mask about 4x faster than values[mask] does
    in_group1 = data.group == 1
    return [(data.score_hat.compress(mask), data.label.compress(mask))
            for mask in (~in_group1, in_group1)]


def _mean_score_difference(counts: np.ndarray, by_group) -> MetricValue:
    """E{ŷ | S=1} - E{ŷ | S=0}."""
    (s0, _), (s1, _) = by_group
    return _absent_group(counts) or MetricValue(float(s1.mean() - s0.mean()))


def _residual_difference(counts: np.ndarray, by_group) -> MetricValue:
    """E{ŷ - Y | S=1} - E{ŷ - Y | S=0}, without a full-length ŷ - Y."""
    (s0, y0), (s1, y1) = by_group
    return _absent_group(counts) or MetricValue(float((s1 - y1).mean() - (s0 - y0).mean()))


def _rate_difference(counts: np.ndarray, y: int) -> MetricValue:
    """Pr{Ŷ=1 | S=1, Y=y} - Pr{Ŷ=1 | S=0, Y=y}."""
    for s in (1, 0):
        if not counts[s, y].any():
            return MetricValue(None, f"no records with S={s}, Y={y}")
    return MetricValue(float(counts[1, y, 1] / counts[1, y].sum()
                             - counts[0, y, 1] / counts[0, y].sum()))


def _disparate_impact(counts: np.ndarray) -> MetricValue:
    """Pr{Ŷ=1 | S=1} / Pr{Ŷ=1 | S=0}."""
    if absent := _absent_group(counts):
        return absent
    r1, r0 = (counts[s, :, 1].sum() / counts[s].sum() for s in (1, 0))
    if r0 == 0.0:
        return MetricValue(None, "group-0 positive prediction rate is zero")
    return MetricValue(float(r1 / r0))


def nmi_from_counts(counts) -> float:
    """NMI of a 2x2 count table indexed [yhat, s]; 0 when Ŷ or S takes one value."""
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (2, 2):
        raise ValidationError("counts must be a 2x2 table")
    # the total too: four finite counts can sum past the float range
    if not (np.isfinite(counts).all() and counts.sum() < np.inf):
        raise ValidationError("counts must be finite")
    if (counts < 0).any():
        raise ValidationError("counts must be nonnegative")
    if counts.sum() <= 0:
        raise ValidationError("counts must not all be zero")
    p = counts / counts.sum()
    py, ps = p.sum(axis=1), p.sum(axis=0)
    hy, hs = (-(q[q > 0] * np.log(q[q > 0])).sum() for q in (py, ps))
    if hy == 0.0 or hs == 0.0:
        return 0.0
    mi = 0.0
    for yhat in (0, 1):
        for s in (0, 1):
            if p[yhat][s] > 0:
                mi += p[yhat][s] * np.log(p[yhat][s] / (py[yhat] * ps[s]))
    return float(mi / np.sqrt(hy * hs))


def _nmi(counts: np.ndarray) -> MetricValue:
    """NMI of (predicted label, group), zero with a detail when Ŷ takes one value."""
    margin = counts.sum(axis=1).T  # the (Ŷ, S) margin
    return _absent_group(counts) or MetricValue(
        nmi_from_counts(margin), "" if margin.sum(axis=1).all() else
        "degenerate prediction margin; mutual information is zero")


# name -> (value at the non-discrimination point, fn(counts, by_group) -> MetricValue),
# whose value is None, with a detail that says why, where the metric is undefined
METRICS = {
    "mean_score_diff": (0.0, _mean_score_difference),
    "residual_diff": (0.0, _residual_difference),
    "equal_opportunity_diff": (0.0, lambda counts, _: _rate_difference(counts, 1)),
    "equal_misopportunity_diff": (0.0, lambda counts, _: _rate_difference(counts, 0)),
    "disparate_impact": (1.0, lambda counts, _: _disparate_impact(counts)),
    "nmi": (0.0, lambda counts, _: _nmi(counts)),
}
METRIC_NAMES = tuple(METRICS)
FAIR_POINTS = {name: fair_point for name, (fair_point, _) in METRICS.items()}


@dataclass
class MetricReport:
    values: dict[str, MetricValue]
    cell_counts: np.ndarray  # the (2, 2, 2) table cell_counts returns, indexed [s, y, yhat]

    def metric(self, name: str) -> MetricValue:
        if name not in self.values:
            raise ValidationError(f"unknown metric {name!r}")
        return self.values[name]

    def to_json_dict(self) -> dict:
        return {
            "metrics": {name: mv.to_json_dict() for name, mv in self.values.items()},
            "cell_counts": {f"s{s}_y{y}_yhat{p}": c.item()
                            for (s, y, p), c in np.ndenumerate(self.cell_counts)},
        }


def audit(data: GroupedOutcomes) -> MetricReport:
    """Compute every metric in METRICS; undefined markers are carried, never coerced."""
    counts = cell_counts(data)
    by_group = _by_group(data)
    return MetricReport({name: fn(counts, by_group) for name, (_, fn) in METRICS.items()},
                        counts)
