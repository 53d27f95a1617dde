"""Experiment orchestration: the 2x2 bias grid, seeded trials, and aggregation.

Seed scheme: every stream is derived from the config's base seed with
stable_hash, a SHA-256 based mix of (base_seed, *labels). Trial seeds use
stable_hash(base_seed, dataset_index, trial_index), so dataset cells and
trials are reproducible independently of execution order.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .bias import (ALL_BIAS_SPECS, BIASED_LABEL_POLICY, BIASED_SAMPLE_POLICY,
                   UNBIASED_LABEL_POLICY, UNBIASED_SAMPLE_POLICY, BiasSpec,
                   LabelPolicy, SamplePolicy, build_dataset)
from .datagen import (Population, PopulationSpec, generate_population,
                      make_base_dataset_A, make_base_dataset_B)
from .errors import (DegenerateDatasetError, ExperimentError,
                     NumericalFailureError, ValidationError)
from .metrics import FAIR_POINTS, METRIC_NAMES, GroupedOutcomes, MetricReport, audit
from .model import MODEL_KEYS, ModelParams, fit, predict, split


def stable_hash(*parts) -> int:
    """Deterministic 63-bit seed derived from the given parts."""
    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF


DEFAULT_POPULATION = PopulationSpec(
    n_group0=39780, n_group1=3551,
    target_positive_rate_group0=0.5408, target_positive_rate_group1=0.1217)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "A"
    population: PopulationSpec = DEFAULT_POPULATION
    biased_label_policy: LabelPolicy = BIASED_LABEL_POLICY
    unbiased_label_policy: LabelPolicy = UNBIASED_LABEL_POLICY
    biased_sample_policy: SamplePolicy = BIASED_SAMPLE_POLICY
    unbiased_sample_policy: SamplePolicy = UNBIASED_SAMPLE_POLICY
    model: ModelParams = ModelParams()
    trials: int = 20
    base_seed: int = 20260823
    min_cell_count: int = 10

    def __post_init__(self):
        if self.experiment not in ("A", "B"):
            raise ValidationError(f"experiment must be 'A' or 'B', got {self.experiment!r}")
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if self.min_cell_count < 1:
            raise ValidationError(f"min_cell_count must be >= 1, got {self.min_cell_count}")

    def to_dict(self) -> dict:
        """The config under its config-file keys: [experiment] at the top level by
        field name, every other section under its name with "." -> "_"."""
        out = {}
        for section, (target, keys) in _CONFIG_NAMES.items():
            if target:
                part = getattr(self, target)
                out[section.replace(".", "_")] = {key: getattr(part, name)
                                                  for key, name in keys.items()}
            else:
                out.update({name: getattr(self, name) for name in keys.values()})
        return out


_LABEL_POLICY_KEYS = {k: k for k in ("threshold_group0", "threshold_group1")}
_SAMPLE_POLICY_KEYS = {k: k for k in ("cutoff", "p_group0_high", "p_group0_low",
                                      "p_group1_high", "p_group1_low")}
# every config section: the ExperimentConfig field it sets ("" = ExperimentConfig
# itself) and {config key: field name}; load_config and to_dict both read it, and
# any other section or key is rejected
_CONFIG_NAMES = {
    "experiment": ("", {"name": "experiment", "trials": "trials", "base_seed": "base_seed",
                        "min_cell_count": "min_cell_count"}),
    "population": ("population", {
        "n_group0": "n_group0", "n_group1": "n_group1",
        "positive_rate_group0": "target_positive_rate_group0",
        "positive_rate_group1": "target_positive_rate_group1",
        "feature_dim": "feature_dim", "proxy_strength": "proxy_strength",
        "noise_scale": "noise_scale", "score_concentration": "score_concentration"}),
    "label_policy.biased": ("biased_label_policy", _LABEL_POLICY_KEYS),
    "label_policy.unbiased": ("unbiased_label_policy", _LABEL_POLICY_KEYS),
    "sample_policy.biased": ("biased_sample_policy", _SAMPLE_POLICY_KEYS),
    "sample_policy.unbiased": ("unbiased_sample_policy", _SAMPLE_POLICY_KEYS),
    "model": ("model", MODEL_KEYS),
}


def load_config(path) -> ExperimentConfig:
    """Read an ExperimentConfig from an INI-style config file.

    Each value is parsed as the type of its default; keys a section leaves
    out keep their defaults. Errors name the file, section and key.
    """
    # no section name can be empty, so [DEFAULT] is an ordinary, unknown section
    parser = configparser.ConfigParser(default_section="")
    try:
        if not parser.read(path):
            raise ValidationError(f"config file not found or unreadable: {path}")
        config = ExperimentConfig()
        for name in parser.sections():
            if name not in _CONFIG_NAMES:
                raise ValidationError(f"invalid config {path}: unknown section [{name}]")
            target, fields = _CONFIG_NAMES[name]
            section = parser[name]
            unknown = [key for key in section if key not in fields]
            if unknown:
                raise ValidationError(f"invalid config {path}: unknown key(s) "
                                      f"{', '.join(unknown)} in [{name}]")
            base = getattr(config, target) if target else config
            values = {}
            for key in section:
                default = getattr(base, fields[key])
                try:
                    values[fields[key]] = (section.getboolean(key) if type(default) is bool
                                           else type(default)(section[key]))
                except (ValueError, configparser.Error) as e:
                    raise ValidationError(f"invalid config {path}: [{name}] {key}: {e}") from e
            try:
                part = replace(base, **values)
            except ValidationError as e:
                # the dataclass check names its field; say which config key that is
                field, _, rest = str(e).partition(" ")
                named = next((f"{key} {rest}" for key, f in fields.items() if f == field), e)
                raise ValidationError(f"invalid config {path}: [{name}] {named}") from e
            config = replace(config, **{target: part}) if target else part
        return config
    except configparser.Error as e:
        raise ValidationError(f"invalid config {path}: {e}") from e


def bundled_config_path(name: str):
    """Path to a bundled config, e.g. 'experiment_A.cfg'."""
    from importlib.resources import files

    return files("fairaudit").joinpath("configs", name)


def population_spec(config: ExperimentConfig) -> PopulationSpec:
    """The config's population spec, seeded from its base seed."""
    return replace(config.population, seed=stable_hash(config.base_seed, "population"))


def build_base(config: ExperimentConfig) -> Population:
    """Generate the population and construct the experiment's base dataset."""
    pop = generate_population(population_spec(config))
    if config.experiment == "A":
        return make_base_dataset_A(pop, stable_hash(config.base_seed, "base-A"))
    return make_base_dataset_B(pop)


def trial_dataset(config: ExperimentConfig, bias_spec: BiasSpec, seed: int,
                  base: Population) -> Population:
    """The config's bias-grid dataset for bias_spec, sampled from base with seed."""
    return build_dataset(base, bias_spec, seed,
                         biased_label_policy=config.biased_label_policy,
                         unbiased_label_policy=config.unbiased_label_policy,
                         biased_sample_policy=config.biased_sample_policy,
                         unbiased_sample_policy=config.unbiased_sample_policy,
                         min_cell_count=config.min_cell_count)


def run_trial(config: ExperimentConfig, bias_spec: BiasSpec, trial_seed: int,
              base: Population) -> MetricReport:
    """One pipeline pass on build_base(config): build -> split -> fit -> predict -> audit."""
    data = trial_dataset(config, bias_spec, stable_hash(trial_seed, "sample"), base)
    train, test = split(data, config.model.train_fraction, stable_hash(trial_seed, "split"))
    model = fit(train, config.model)
    preds = predict(model, test)
    return audit(GroupedOutcomes.from_labeled(test, preds))


@dataclass
class TrialResult:
    trial: int
    seed: int
    report: MetricReport | None
    error: str = ""


@dataclass
class DatasetResult:
    bias_spec: BiasSpec
    trials: list[TrialResult]

    def metric_values(self, name: str) -> list[float]:
        values = []
        for t in self.trials:
            if t.report is None:
                continue
            mv = t.report.metric(name)
            if mv.status == "ok" and mv.value is not None:
                values.append(mv.value)
        return values

    def metric_mean(self, name: str) -> float | None:
        values = self.metric_values(name)
        return float(np.mean(values)) if values else None

    def metric_std(self, name: str) -> float | None:
        values = self.metric_values(name)
        return float(np.std(values)) if values else None

    def undefined_count(self, name: str) -> int:
        return sum(1 for t in self.trials
                   if t.report is not None and t.report.metric(name).status != "ok")

    @property
    def failures(self) -> list[TrialResult]:
        return [t for t in self.trials if t.report is None]


@dataclass
class ExperimentReport:
    config: dict
    datasets: dict[int, DatasetResult] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {"config": self.config, "datasets": {}}
        for index, result in sorted(self.datasets.items()):
            metrics = {}
            for name in METRIC_NAMES:
                metrics[name] = {
                    "mean": result.metric_mean(name),
                    "std": result.metric_std(name),
                    "undefined_count": result.undefined_count(name),
                    "trials": [
                        {"trial": t.trial, "seed": t.seed,
                         **t.report.metric(name).to_json_dict()}
                        for t in result.trials if t.report is not None
                    ],
                }
            out["datasets"][str(index)] = {
                "bias_spec": {"sample_bias": result.bias_spec.sample_bias,
                              "label_bias": result.bias_spec.label_bias},
                "metrics": metrics,
                "failures": [{"trial": t.trial, "seed": t.seed, "error": t.error}
                             for t in result.failures],
                "trial_seeds": [t.seed for t in result.trials],
            }
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def write_csv(self, path) -> None:
        """Flat per-trial table: dataset, metric, trial, value, status."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dataset", "metric", "trial", "value", "status"])
            for index, result in sorted(self.datasets.items()):
                for t in result.trials:
                    for name in METRIC_NAMES:
                        if t.report is None:
                            writer.writerow([index, name, t.trial, "", "failed"])
                            continue
                        mv = t.report.metric(name)
                        value = "" if mv.value is None else format(mv.value, ".12g")
                        writer.writerow([index, name, t.trial, value, mv.status])


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run trials x 4 bias-grid datasets and aggregate per metric."""
    base = build_base(config)
    report = ExperimentReport(config=config.to_dict())
    for bias_spec in ALL_BIAS_SPECS:
        index = bias_spec.dataset_index
        trials = []
        for t in range(config.trials):
            seed = stable_hash(config.base_seed, index, t)
            try:
                trial_report = run_trial(config, bias_spec, seed, base=base)
                trials.append(TrialResult(trial=t, seed=seed, report=trial_report))
            except (DegenerateDatasetError, NumericalFailureError) as e:
                trials.append(TrialResult(trial=t, seed=seed, report=None, error=str(e)))
        if all(t.report is None for t in trials):
            raise ExperimentError(f"all trials of dataset {index} failed")
        report.datasets[index] = DatasetResult(bias_spec=bias_spec, trials=trials)
    return report


def rank_datasets(report: ExperimentReport, metric: str) -> tuple[list[int], list[int]]:
    """Datasets in ascending |mean - fair point|; undefined means are excluded.

    Returns (ordering, excluded); ties broken by dataset index.
    """
    if metric not in METRIC_NAMES:
        raise ValidationError(f"unknown metric {metric!r}")
    means = {index: result.metric_mean(metric)
             for index, result in report.datasets.items()}
    return rank_means(means, FAIR_POINTS[metric])


def rank_means(means: dict[int, float | None],
               fair_point: float) -> tuple[list[int], list[int]]:
    defined = sorted((abs(v - fair_point), k) for k, v in means.items() if v is not None)
    excluded = sorted(k for k, v in means.items() if v is None)
    return [k for _, k in defined], excluded
