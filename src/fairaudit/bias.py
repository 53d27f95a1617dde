"""Causal bias operators: per-group threshold labeling and probabilistic inclusion."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .datagen import Population, write_population_csv
from .errors import DegenerateDatasetError, ValidationError, in_unit, require, require_types


@dataclass(frozen=True)
class LabelPolicy:
    """Per-group score thresholds; a record is labeled 1 iff score >= its group's threshold."""

    threshold_group0: float
    threshold_group1: float

    def __post_init__(self):
        require(self, "threshold_group0 threshold_group1", in_unit, "lie in [0, 1]")
        require_types(self)


@dataclass(frozen=True)
class SamplePolicy:
    """Inclusion probabilities per (group, score band) around a cutoff."""

    cutoff: float
    p_group0_high: float
    p_group0_low: float
    p_group1_high: float
    p_group1_low: float

    def __post_init__(self):
        names = "cutoff p_group0_high p_group0_low p_group1_high p_group1_low"
        require(self, names, in_unit, "lie in [0, 1]")
        require_types(self)


# ExperimentConfig's default policies
BIASED_LABEL_POLICY = LabelPolicy(threshold_group0=0.3, threshold_group1=0.7)
UNBIASED_LABEL_POLICY = LabelPolicy(threshold_group0=0.5, threshold_group1=0.5)
BIASED_SAMPLE_POLICY = SamplePolicy(cutoff=0.5, p_group0_high=0.8, p_group0_low=0.2,
                                    p_group1_high=1.0, p_group1_low=1.0)
UNBIASED_SAMPLE_POLICY = SamplePolicy(cutoff=0.5, p_group0_high=0.5, p_group0_low=0.5,
                                      p_group1_high=0.5, p_group1_low=0.5)


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
    # p[group, score band], band 1 = at or above the cutoff; the band is cast to 0/1
    # because a boolean array in a tuple index would act as a mask
    p = np.array([[policy.p_group0_low, policy.p_group0_high],
                  [policy.p_group1_low, policy.p_group1_high]])
    return pop.take(u < p[pop.group, (pop.score >= policy.cutoff).astype(np.intp)])


def build_dataset(pop: Population, sample_policy: SamplePolicy, label_policy: LabelPolicy,
                  seed: int, min_cell_count: int) -> Population:
    """Sample pop with sample_policy and seed, then label it with label_policy.

    Raises DegenerateDatasetError when any (group, label) cell ends up with
    fewer than min_cell_count records.
    """
    kept = apply_sample_policy(pop, sample_policy, seed)
    if not kept:
        raise DegenerateDatasetError("sampling kept no records")
    labeled = apply_label_policy(kept, label_policy)
    # cell 2 * group + label, in sorted (group, label) order
    counts = np.bincount(2 * labeled.group + labeled.label, minlength=4).tolist()
    for k, count in enumerate(counts):
        if not count >= min_cell_count:
            raise DegenerateDatasetError(
                f"cell (group={k // 2}, label={k % 2}) has {count} records, "
                f"fewer than the minimum {min_cell_count}")
    return labeled


def write_labeled_csv(data: Population, path) -> None:
    """Write labeled records as CSV: id,group,score,label,f0,..."""
    if data.label is None:
        raise ValidationError("cannot export an unlabeled dataset as labeled")
    write_population_csv(data, path)
