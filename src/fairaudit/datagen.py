"""Synthetic scored populations and the two experiment base datasets.

Scores per group are drawn from a Beta family whose parameters are solved
numerically so that the mass above 0.5 matches the group's target positive
rate; the positive count is made exact (up to rounding) by inverse-CDF
sampling conditional on each side of the 0.5 cutoff.

scipy is imported inside the functions that use it, so commands that never
generate a population (`fairaudit audit`, `rank`) do not pay for its import.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptySelectionError, ValidationError

# scores are clamped into [SCORE_CLAMP, 1 - SCORE_CLAMP] before the logit
SCORE_CLAMP = 1e-6


@dataclass(eq=False)
class Population:
    """Individuals as aligned columns: id, group, ground-truth score, an
    (n, d) feature matrix, and, once a label policy has run, a binary label."""

    id: np.ndarray
    group: np.ndarray
    score: np.ndarray
    features: np.ndarray
    label: np.ndarray | None = None

    def __post_init__(self):
        self.id = np.asarray(self.id, dtype=np.int64)
        self.group = _binary("group", self.group)
        self.score = np.asarray(self.score, dtype=float)
        self.features = np.asarray(self.features, dtype=float)
        if self.label is not None:
            self.label = _binary("label", self.label)
        n = self.id.size
        if self.features.ndim != 2:
            raise ValidationError("features must be an (n, d) matrix")
        for name in ("group", "score", "features", "label"):
            column = getattr(self, name)
            if column is not None and len(column) != n:
                raise ValidationError(f"{name} is not aligned with id")
        if not ((self.score >= 0.0) & (self.score <= 1.0)).all():
            raise ValidationError("score must lie in [0, 1]")
        if not np.isfinite(self.features).all():
            raise ValidationError("features must all be finite")

    def __len__(self) -> int:
        return self.id.size

    def take(self, index) -> "Population":
        """The rows an index array or boolean mask selects, in its order."""
        index = np.asarray(index)
        if index.dtype == bool:
            if index.shape != (len(self),):
                raise IndexError(f"boolean mask of shape {index.shape} does not match "
                                 f"{len(self)} rows")
            index = np.flatnonzero(index)
        return Population(self.id.take(index), self.group.take(index),
                          self.score.take(index), self.features.take(index, axis=0),
                          None if self.label is None else self.label.take(index))


def _binary(name: str, values) -> np.ndarray:
    """values as contiguous int64, after checking each is 0 or 1 in its own dtype."""
    # contiguous first: the check reads a strided view (a CSV field) about 2x slower
    values = np.ascontiguousarray(values)
    # np.all, not .all(): numpy < 1.25 compares a string array with 0 as one scalar
    if not np.all((values == 0) | (values == 1)):
        raise ValidationError(f"{name} must be 0 or 1")
    return values.astype(np.int64, copy=False)


@dataclass(frozen=True)
class PopulationSpec:
    """Calibration targets and knobs for the synthetic population."""

    n_group0: int
    n_group1: int
    target_positive_rate_group0: float
    target_positive_rate_group1: float
    feature_dim: int = 5
    proxy_strength: float = 0.8
    noise_scale: float = 1.0
    score_concentration: float = 1.0  # a + b of the per-group Beta score family
    seed: int = 0

    def __post_init__(self):
        for name in ("n_group0", "n_group1"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("target_positive_rate_group0", "target_positive_rate_group1"):
            rate = getattr(self, name)
            if not 0.0 < rate < 1.0:
                raise ValidationError(f"{name} must lie strictly inside (0, 1), got {rate}")
        if self.feature_dim < 2:
            raise ValidationError(f"feature_dim must be >= 2, got {self.feature_dim}")
        if not 0.0 <= self.proxy_strength <= 1.0:
            raise ValidationError(f"proxy_strength must lie in [0, 1], got {self.proxy_strength}")
        for name in ("noise_scale", "score_concentration"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValidationError(f"{name} must be positive and finite, got {value}")


def _beta_shape(rate: float, concentration: float) -> tuple[float, float]:
    """Solve for Beta(a, b) with a + b = concentration and P(X >= 0.5) = rate."""
    from scipy import optimize, stats

    lo = 1e-9 * concentration
    hi = concentration - lo

    def gap(a):
        return stats.beta.sf(0.5, a, concentration - a) - rate

    a = optimize.brentq(gap, lo, hi, xtol=1e-13)
    return a, concentration - a


def _group_scores(rng, n: int, rate: float, concentration: float) -> np.ndarray:
    """Draw n Beta scores with an exact (rounded) count of scores >= 0.5."""
    from scipy import stats

    a, b = _beta_shape(rate, concentration)
    k = int(round(n * rate))
    split = stats.beta.cdf(0.5, a, b)
    u = rng.random(n)
    s = np.empty(n)
    s[:k] = stats.beta.ppf(split + u[:k] * (1.0 - split), a, b)
    s[k:] = stats.beta.ppf(u[k:] * split, a, b)
    np.clip(s, 0.0, 1.0, out=s)
    # guard the cutoff against ppf roundoff so the positive count is exact
    s[:k] = np.maximum(s[:k], 0.5)
    s[k:] = np.minimum(s[k:], np.nextafter(0.5, 0.0))
    return s


def generate_population(spec: PopulationSpec) -> Population:
    """Generate a seeded population calibrated to the spec's marginal rates.

    Informative features are noisy linear functions of logit(score); the last
    feature is a proxy correlated with group at spec.proxy_strength.
    """
    rng = np.random.default_rng(spec.seed)
    d = spec.feature_dim
    slopes = rng.uniform(0.5, 1.5, size=d - 1)

    s0 = _group_scores(rng, spec.n_group0, spec.target_positive_rate_group0,
                       spec.score_concentration)
    s1 = _group_scores(rng, spec.n_group1, spec.target_positive_rate_group1,
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
    # standardized group indicator mixed with unit noise gives sample
    # correlation ~= proxy_strength
    rho = spec.proxy_strength
    g_std = (groups - groups.mean()) / groups.std()
    feats[:, d - 1] = rho * g_std + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n)

    return Population(np.arange(n), groups, scores, feats)


def make_base_dataset_A(pop: Population, seed: int) -> Population:
    """Keep only group-0 records and reassign group by an independent fair coin.

    Scores and features are left untouched, so after reassignment neither
    carries any group signal: both the group split and the per-group positive
    rates are balanced in expectation.
    """
    whites = pop.take(pop.group == 0)
    if not whites:
        raise EmptySelectionError("population contains no group-0 records")
    rng = np.random.default_rng(seed)
    return replace(whites, group=rng.integers(0, 2, size=len(whites)))


def make_base_dataset_B(pop: Population) -> Population:
    """Identity: the unmodified population is the base dataset."""
    if not pop:
        raise ValidationError("population must be non-empty")
    return pop


def write_population_csv(pop: Population, path) -> None:
    """Write rows as CSV: id,group,score[,label],f0,...  Reals keep 12 significant digits.

    The label column is present iff the population is labeled.
    """
    if not pop:
        raise ValidationError("cannot export an empty population")
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

