"""Experiment orchestration: the 2x2 bias grid, seeded trials, and aggregation.

Seed scheme: every stream is derived from the config's base seed with
stable_hash, a SHA-256 based mix of (base_seed, *labels). The population is
drawn with stable_hash(base_seed, "population"), and trial t of dataset k
(ALL_BIAS_SPECS[k - 1]) uses stable_hash(base_seed, k, t), so dataset cells and
trials are reproducible independently of execution order.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .bias import (BIASED_LABEL_POLICY, BIASED_SAMPLE_POLICY, UNBIASED_LABEL_POLICY,
                   UNBIASED_SAMPLE_POLICY, LabelPolicy, SamplePolicy, build_dataset)
from .datagen import (Population, PopulationSpec, generate_population,
                      make_base_dataset_A, make_base_dataset_B, open_output)
from .errors import (DegenerateDatasetError, NumericalFailureError, ValidationError,
                     parse_number, require, require_types)
from .metrics import FAIR_POINTS, METRIC_NAMES, GroupedOutcomes, MetricReport, audit
from .model import Model, ModelParams, fit, predict, split


def stable_hash(*parts) -> int:
    """Deterministic 63-bit seed derived from the given parts."""
    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF


@dataclass(frozen=True)
class BiasSpec:
    """Which cell of the 2x2 bias grid to materialize; dataset k is ALL_BIAS_SPECS[k - 1]."""

    sample_bias: bool
    label_bias: bool


ALL_BIAS_SPECS = (BiasSpec(False, False), BiasSpec(True, False),
                  BiasSpec(False, True), BiasSpec(True, True))

DEFAULT_POPULATION = PopulationSpec(
    n_group0=39780, n_group1=3551,
    positive_rate_group0=0.5408, positive_rate_group1=0.1217)


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
        require(self, "experiment", lambda v: v in ("A", "B"), "be 'A' or 'B'")
        require(self, "trials min_cell_count", lambda v: v >= 1, "be >= 1")
        # negative base seeds are valid: stable_hash mixes any integer into a seed
        require_types(self)

    def to_dict(self) -> dict:
        """The config under its config-file keys: [experiment] at the top level by
        field name, every other section under its name with "." -> "_". A numpy
        scalar field is given as its Python number, so the dict can be written as JSON."""
        out = {}
        for section, (target, keys) in _CONFIG_NAMES.items():
            if target:
                part = getattr(self, target)
                out[section.replace(".", "_")] = {key: _plain(getattr(part, name))
                                                  for key, name in keys.items()}
            else:
                out.update({name: _plain(getattr(self, name)) for name in keys.values()})
        return out


def _plain(value):
    """value, or its Python number if it is a numpy scalar."""
    return value.item() if isinstance(value, np.generic) else value


# every config section but [experiment], and the ExperimentConfig field it sets
_SECTIONS = {"population": "population",
             "label_policy.biased": "biased_label_policy",
             "label_policy.unbiased": "unbiased_label_policy",
             "sample_policy.biased": "biased_sample_policy",
             "sample_policy.unbiased": "unbiased_sample_policy",
             "model": "model"}
# the fields whose config key is not their own name: lambda is a Python keyword,
# and the report's JSON writes the experiment's name as "experiment"
_RENAMED = {"experiment": "name", "lam": "lambda"}
# every config section: the ExperimentConfig field it sets ("" = ExperimentConfig
# itself) and {config key: field name}; load_config and to_dict both read it, and
# any other section or key is rejected. A field that holds a section is no key.
_CONFIG_NAMES = {
    section: (target, {_RENAMED.get(f.name, f.name): f.name
                       for f in fields(getattr(ExperimentConfig, target) if target
                                       else ExperimentConfig)
                       if f.name not in _SECTIONS.values()})
    for section, target in {"experiment": "", **_SECTIONS}.items()}


def load_config(path) -> ExperimentConfig:
    """Read an ExperimentConfig from an INI-style config file.

    Each number is read by parse_number as its default's type; keys a section
    leaves out keep their defaults. Errors name the file, section and key.
    """
    # no section name can be empty, so [DEFAULT] is an ordinary, unknown section
    parser = configparser.ConfigParser(default_section="")
    try:
        if not parser.read(path, encoding="utf-8-sig"):
            raise ValidationError(f"config file not found or unreadable: {path}")
        if not parser.sections():
            # an empty or comment-only file is more likely a wrong path than a wish for defaults
            raise ValidationError(f"invalid config {path}: no sections")
        config = ExperimentConfig()
        for name in parser.sections():
            if name not in _CONFIG_NAMES:
                raise ValidationError(f"invalid config {path}: unknown section [{name}]")
            target, keys = _CONFIG_NAMES[name]
            section = parser[name]
            unknown = [key for key in section if key not in keys]
            if unknown:
                raise ValidationError(f"invalid config {path}: unknown key(s) "
                                      f"{', '.join(unknown)} in [{name}]")
            base = getattr(config, target) if target else config
            values = {}
            for key in section:
                kind = type(getattr(base, keys[key]))
                try:
                    values[keys[key]] = (section.getboolean(key) if kind is bool
                                         else section[key] if kind is str
                                         else parse_number(section[key], kind))
                except (ValueError, configparser.Error) as e:
                    raise ValidationError(f"invalid config {path}: [{name}] {key}: {e}") from e
            try:
                part = replace(base, **values)
            except ValidationError as e:
                # the dataclass check names its field; say which config key that is
                field, _, rest = str(e).partition(" ")
                named = next((f"{key} {rest}" for key, f in keys.items() if f == field), e)
                raise ValidationError(f"invalid config {path}: [{name}] {named}") from e
            config = replace(config, **{target: part}) if target else part
        return config
    except configparser.Error as e:
        raise ValidationError(f"invalid config {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ValidationError(f"invalid config {path}: not UTF-8 text: {e}") from e


def bundled_config_path(name: str):
    """Path to a bundled config, e.g. 'experiment_A.cfg'."""
    from importlib.resources import files

    return files("fairaudit").joinpath("configs", name)


def population_seed(config: ExperimentConfig) -> int:
    """The seed the config's population is drawn with."""
    return stable_hash(config.base_seed, "population")


def build_base(config: ExperimentConfig) -> Population:
    """Generate the population and construct the experiment's base dataset."""
    pop = generate_population(config.population, population_seed(config))
    if config.experiment == "A":
        return make_base_dataset_A(pop, stable_hash(config.base_seed, "base-A"))
    return make_base_dataset_B(pop)


def trial_dataset(config: ExperimentConfig, bias_spec: BiasSpec, seed: int,
                  base: Population) -> Population:
    """The config's bias-grid dataset for bias_spec, sampled from base with seed."""
    sample = (config.biased_sample_policy if bias_spec.sample_bias else
              config.unbiased_sample_policy)
    label = config.biased_label_policy if bias_spec.label_bias else config.unbiased_label_policy
    return build_dataset(base, sample, label, seed, config.min_cell_count)


def trial_outcomes(config: ExperimentConfig, bias_spec: BiasSpec, trial_seed: int,
                   base: Population) -> tuple[Model, Population, GroupedOutcomes]:
    """One trial on build_base(config) up to its audit, build -> split -> fit ->
    predict: returns the fitted model, the test set and the test set's outcomes."""
    # the sampled dataset is not named, so it is freed once split has copied it
    train, test = split(trial_dataset(config, bias_spec, stable_hash(trial_seed, "sample"), base),
                        config.model.train_fraction, stable_hash(trial_seed, "split"))
    model = fit(train, config.model)
    if not model.converged:
        raise NumericalFailureError(
            f"fit did not converge within max_iters = {config.model.max_iters}")
    return model, test, GroupedOutcomes(test.group, test.label, *predict(model, test))


def run_trial(config: ExperimentConfig, bias_spec: BiasSpec, trial_seed: int,
              base: Population) -> MetricReport:
    """The audit of one trial's outcomes (trial_outcomes)."""
    return audit(trial_outcomes(config, bias_spec, trial_seed, base)[2])


@dataclass
class TrialResult:
    trial: int
    seed: int
    report: MetricReport | None
    error: str = ""


@dataclass
class DatasetResult:
    trials: list[TrialResult]

    def metric_values(self, name: str) -> list[float]:
        values = (t.report.metric(name).value for t in self.trials if t.report is not None)
        return [value for value in values if value is not None]

    def metric_mean(self, name: str) -> float | None:
        values = self.metric_values(name)
        return float(np.mean(values)) if values else None

    def metric_std(self, name: str) -> float | None:
        values = self.metric_values(name)
        return float(np.std(values)) if values else None

    def undefined_count(self, name: str) -> int:
        return sum(1 for t in self.trials
                   if t.report is not None and t.report.metric(name).value is None)

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
                "bias_spec": asdict(ALL_BIAS_SPECS[index - 1]),
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
        with open_output(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dataset", "metric", "trial", "value", "status"])
            for index, result in sorted(self.datasets.items()):
                for t in result.trials:
                    for name in METRIC_NAMES:
                        if t.report is None:
                            writer.writerow([index, name, t.trial, "", "failed"])
                            continue
                        mv = t.report.metric(name)
                        writer.writerow([index, name, t.trial, mv.csv_text, mv.status])


def run_dataset(config: ExperimentConfig, index: int, base: Population) -> DatasetResult:
    """Run the trials of bias-grid dataset index (1-4) on base = build_base(config).

    A trial that fails records its error; if every trial fails, the first
    trial's error type is raised."""
    trials, first = [], None
    for t in range(config.trials):
        seed = stable_hash(config.base_seed, index, t)
        try:
            trial_report = run_trial(config, ALL_BIAS_SPECS[index - 1], seed, base=base)
            trials.append(TrialResult(trial=t, seed=seed, report=trial_report))
        except (DegenerateDatasetError, NumericalFailureError) as e:
            first = first or e
            trials.append(TrialResult(trial=t, seed=seed, report=None, error=str(e)))
    if all(t.report is None for t in trials):
        raise type(first)(f"all trials of dataset {index} failed; "
                          f"trial 0: {first}") from first
    return DatasetResult(trials)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run trials x 4 bias-grid datasets and aggregate per metric."""
    base = build_base(config)
    report = ExperimentReport(config=config.to_dict())
    for index in range(1, len(ALL_BIAS_SPECS) + 1):
        report.datasets[index] = run_dataset(config, index, base)
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
