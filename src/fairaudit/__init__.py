"""Fairness-audit toolkit: controlled bias injection, elastic-net logistic
models, and six fairness metrics over a 2x2 bias grid."""

from .bias import (BIASED_LABEL_POLICY, BIASED_SAMPLE_POLICY,
                   UNBIASED_LABEL_POLICY, UNBIASED_SAMPLE_POLICY, LabelPolicy,
                   SamplePolicy, apply_label_policy, apply_sample_policy,
                   build_dataset)
from .datagen import (Population, PopulationSpec, generate_population,
                      make_base_dataset_A, make_base_dataset_B,
                      write_population_csv)
from .harness import (ALL_BIAS_SPECS, BiasSpec, ExperimentConfig, ExperimentReport,
                      bundled_config_path, load_config, rank_datasets, rank_means,
                      run_experiment, run_trial, stable_hash)
from .metrics import (FAIR_POINTS, METRIC_NAMES, GroupedOutcomes, MetricReport,
                      MetricValue, audit)
from .model import Model, ModelParams, fit, predict, split, subgradient_violation

__version__ = "0.1.0"
