"""Fairness-audit toolkit: controlled bias injection, elastic-net logistic
models, and six fairness metrics over a 2x2 bias grid."""

from .bias import (ALL_BIAS_SPECS, BIASED_LABEL_POLICY, BIASED_SAMPLE_POLICY,
                   UNBIASED_LABEL_POLICY, UNBIASED_SAMPLE_POLICY, BiasSpec,
                   LabelPolicy, SamplePolicy, apply_label_policy,
                   apply_sample_policy, build_dataset)
from .datagen import (Population, PopulationSpec, generate_population,
                      make_base_dataset_A, make_base_dataset_B,
                      write_population_csv)
from .harness import (ExperimentConfig, ExperimentReport, bundled_config_path,
                      load_config, rank_datasets, rank_means, run_experiment,
                      run_trial, stable_hash)
from .metrics import (FAIR_POINTS, METRIC_NAMES, GroupedOutcomes,
                      MetricReport, MetricValue, audit, disparate_impact,
                      entropy, equal_misopportunity_difference,
                      equal_opportunity_difference, mean_score_difference,
                      normalized_mutual_information, residual_difference)
from .model import (Model, ModelParams, Predictions, fit, predict, split,
                    subgradient_violation)

__version__ = "0.1.0"
