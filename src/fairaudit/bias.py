"""Causal bias operators: per-group threshold labeling and probabilistic inclusion."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .datagen import Population, write_population_csv
from .errors import DegenerateDatasetError, ValidationError


@dataclass(frozen=True)
class LabelPolicy:
    """Per-group score thresholds; a record is labeled 1 iff score >= its group's threshold."""

    threshold_group0: float
    threshold_group1: float

    def __post_init__(self):
        for name in ("threshold_group0", "threshold_group1"):
            t = getattr(self, name)
            if not 0.0 <= t <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {t}")


@dataclass(frozen=True)
class SamplePolicy:
    """Inclusion probabilities per (group, score band) around a cutoff."""

    cutoff: float
    p_group0_high: float
    p_group0_low: float
    p_group1_high: float
    p_group1_low: float

    def __post_init__(self):
        for name in ("cutoff", "p_group0_high", "p_group0_low",
                      "p_group1_high", "p_group1_low"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {v}")


@dataclass(frozen=True)
class BiasSpec:
    """Which cell of the 2x2 bias grid to materialize."""

    sample_bias: bool
    label_bias: bool

    @property
    def dataset_index(self) -> int:
        # grid numbering: 1 = none, 2 = sample only, 3 = label only, 4 = both
        return {(False, False): 1, (True, False): 2,
                (False, True): 3, (True, True): 4}[(self.sample_bias, self.label_bias)]


# the constants used throughout the experiments
BIASED_LABEL_POLICY = LabelPolicy(threshold_group0=0.3, threshold_group1=0.7)
UNBIASED_LABEL_POLICY = LabelPolicy(threshold_group0=0.5, threshold_group1=0.5)
BIASED_SAMPLE_POLICY = SamplePolicy(cutoff=0.5, p_group0_high=0.8, p_group0_low=0.2,
                                    p_group1_high=1.0, p_group1_low=1.0)
UNBIASED_SAMPLE_POLICY = SamplePolicy(cutoff=0.5, p_group0_high=0.5, p_group0_low=0.5,
                                      p_group1_high=0.5, p_group1_low=0.5)

ALL_BIAS_SPECS = (BiasSpec(False, False), BiasSpec(True, False),
                  BiasSpec(False, True), BiasSpec(True, True))


def apply_label_policy(pop: Population, policy: LabelPolicy) -> Population:
    """Label each record 1 iff its score reaches its group's threshold; order preserved."""
    if not pop:
        raise ValidationError("population must be non-empty")
    thresholds = np.array([policy.threshold_group0, policy.threshold_group1])
    return replace(pop, label=pop.score >= thresholds[pop.group])


def apply_sample_policy(pop: Population, policy: SamplePolicy, seed: int) -> Population:
    """Keep each record independently with its policy probability; order preserved."""
    if not pop:
        raise ValidationError("population must be non-empty")
    rng = np.random.default_rng(seed)
    u = rng.random(len(pop))
    # p[group, score band], band 1 = at or above the cutoff
    p = np.array([[policy.p_group0_low, policy.p_group0_high],
                  [policy.p_group1_low, policy.p_group1_high]])
    high = (pop.score >= policy.cutoff).astype(np.int64)
    return pop.take(u < p[pop.group, high])


def build_dataset(pop: Population, spec: BiasSpec, seed: int, *,
                  biased_label_policy: LabelPolicy = BIASED_LABEL_POLICY,
                  unbiased_label_policy: LabelPolicy = UNBIASED_LABEL_POLICY,
                  biased_sample_policy: SamplePolicy = BIASED_SAMPLE_POLICY,
                  unbiased_sample_policy: SamplePolicy = UNBIASED_SAMPLE_POLICY,
                  min_cell_count: int = 10) -> Population:
    """Materialize one bias-grid cell: sample first, then label.

    Raises DegenerateDatasetError when any (group, label) cell ends up with
    fewer than min_cell_count records.
    """
    sample_policy = biased_sample_policy if spec.sample_bias else unbiased_sample_policy
    label_policy = biased_label_policy if spec.label_bias else unbiased_label_policy
    kept = apply_sample_policy(pop, sample_policy, seed)
    if not kept:
        raise DegenerateDatasetError("sampling kept no records")
    labeled = apply_label_policy(kept, label_policy)
    # cell 2 * group + label, in sorted (group, label) order
    counts = np.bincount(2 * labeled.group + labeled.label, minlength=4).tolist()
    for k, count in enumerate(counts):
        if count < min_cell_count:
            raise DegenerateDatasetError(
                f"cell (group={k // 2}, label={k % 2}) has {count} records, "
                f"fewer than the minimum {min_cell_count}")
    return labeled


def write_labeled_csv(data: Population, path) -> None:
    """Write labeled records as CSV: id,group,score,label,f0,..."""
    if data.label is None:
        raise ValidationError("cannot export an unlabeled dataset as labeled")
    write_population_csv(data, path)
