import configparser
import csv
import json
import math
import weakref
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

import fairaudit
from fairaudit import (ALL_BIAS_SPECS, BIASED_LABEL_POLICY, BIASED_SAMPLE_POLICY,
                       UNBIASED_LABEL_POLICY, UNBIASED_SAMPLE_POLICY, BiasSpec,
                       ExperimentConfig, ExperimentReport, LabelPolicy, ModelParams,
                       PopulationSpec, SamplePolicy, audit, bundled_config_path, fit,
                       load_config, predict, rank_datasets, rank_means, run_experiment,
                       run_trial, split, stable_hash)
from fairaudit import harness
from fairaudit import model as model_module
from fairaudit.bias import build_dataset
from fairaudit.harness import (_CONFIG_NAMES, DEFAULT_POPULATION, build_base, run_dataset,
                               trial_dataset, trial_outcomes)
from fairaudit.metrics import FAIR_POINTS, METRIC_NAMES
from fairaudit.errors import DegenerateDatasetError, NumericalFailureError, ValidationError
from conftest import same_population

SMALL_POP = PopulationSpec(n_group0=1500, n_group1=1500,
                           positive_rate_group0=0.5408,
                           positive_rate_group1=0.1217,
                           noise_scale=3.0)


def small_config(**overrides):
    kwargs = dict(experiment="B", population=SMALL_POP,
                  model=ModelParams(lam=0.01), trials=3, base_seed=99)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


@pytest.fixture(scope="module")
def small_report():
    return run_experiment(small_config())


# round(fraction * n) == n below 1500 records: that leaves trial 0 of dataset 1
# (1471 records) and trials 0 and 1 of dataset 3 (1487, 1491) without test rows;
# every other trial has 1508 or more
EMPTY_TEST_SET_CONFIG = small_config(trials=4,
                                     model=ModelParams(lam=0.01, train_fraction=1 - 1 / 3000))


@pytest.fixture(scope="module")
def empty_test_set_report():
    return run_experiment(EMPTY_TEST_SET_CONFIG)


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash(1, "a", 2) == stable_hash(1, "a", 2)

    def test_distinct_inputs_distinct_seeds(self):
        seeds = {stable_hash(7, d, t) for d in range(1, 5) for t in range(50)}
        assert len(seeds) == 200

    def test_range(self):
        for parts in [(0,), (1, 2, 3), ("x", "y")]:
            h = stable_hash(*parts)
            assert 0 <= h < 2 ** 63


class TestConfig:
    def test_defaults_are_the_reference_constants(self):
        cfg = ExperimentConfig()
        assert cfg.biased_label_policy == BIASED_LABEL_POLICY
        assert cfg.unbiased_label_policy == UNBIASED_LABEL_POLICY
        assert cfg.biased_sample_policy == BIASED_SAMPLE_POLICY
        assert cfg.unbiased_sample_policy == UNBIASED_SAMPLE_POLICY
        assert cfg.population == DEFAULT_POPULATION
        assert cfg.population.positive_rate_group0 == pytest.approx(0.5408)
        assert cfg.population.positive_rate_group1 == pytest.approx(0.1217)

    def test_validation(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(experiment="C")
        with pytest.raises(ValidationError):
            ExperimentConfig(trials=0)
        for name in ("trials", "min_cell_count"):
            with pytest.raises(ValidationError, match=f"^{name} must be >= 1, got nan$"):
                ExperimentConfig(**{name: float("nan")})
        for name, value, rule in (("trials", True, "be an integer"),
                                  ("base_seed", math.nan, "be an integer"),
                                  ("base_seed", True, "be an integer"),
                                  ("population", math.nan, "be a PopulationSpec"),
                                  ("model", None, "be a ModelParams")):
            with pytest.raises(ValidationError, match=f"^{name} must {rule}, got {value}$"):
                ExperimentConfig(**{name: value})

    # one value each field of the five config dataclasses rejects, applied to a valid instance
    VALID = {LabelPolicy: BIASED_LABEL_POLICY, SamplePolicy: BIASED_SAMPLE_POLICY,
             ModelParams: ModelParams(), PopulationSpec: DEFAULT_POPULATION,
             ExperimentConfig: ExperimentConfig()}
    REJECTED = {
        (LabelPolicy, "threshold_group0"): -0.5,
        (LabelPolicy, "threshold_group1"): math.nan,
        (SamplePolicy, "cutoff"): 1.5,
        (SamplePolicy, "p_group0_high"): math.nan,
        (SamplePolicy, "p_group0_low"): -1,
        (SamplePolicy, "p_group1_high"): 2,
        (SamplePolicy, "p_group1_low"): math.inf,
        (ModelParams, "lam"): -1.0,
        (ModelParams, "alpha"): 2.0,
        (ModelParams, "max_iters"): 2.5,
        (ModelParams, "tolerance"): 0.0,
        (ModelParams, "train_fraction"): 1.0,
        (ModelParams, "include_group_feature"): -1,
        (ModelParams, "prediction_threshold"): math.nan,
        (PopulationSpec, "n_group0"): 0,
        (PopulationSpec, "n_group1"): 1.5,
        (PopulationSpec, "positive_rate_group0"): 1.0,
        (PopulationSpec, "positive_rate_group1"): 0.0,
        (PopulationSpec, "feature_dim"): 1,
        (PopulationSpec, "proxy_strength"): 1.1,
        (PopulationSpec, "noise_scale"): math.inf,
        (PopulationSpec, "score_concentration"): 0.0,
        (ExperimentConfig, "experiment"): "C",
        (ExperimentConfig, "population"): math.nan,
        (ExperimentConfig, "biased_label_policy"): BIASED_SAMPLE_POLICY,
        (ExperimentConfig, "unbiased_label_policy"): None,
        (ExperimentConfig, "biased_sample_policy"): BIASED_LABEL_POLICY,
        (ExperimentConfig, "unbiased_sample_policy"): {},
        (ExperimentConfig, "model"): None,
        (ExperimentConfig, "trials"): True,
        (ExperimentConfig, "base_seed"): math.nan,
        (ExperimentConfig, "min_cell_count"): 0,
    }

    def test_every_config_field_has_a_rejected_value(self):
        assert set(self.REJECTED) == {(cls, f.name) for cls in self.VALID for f in fields(cls)}

    @pytest.mark.parametrize("cls,name", REJECTED, ids=lambda v: getattr(v, "__name__", v))
    def test_every_config_field_is_checked(self, cls, name):
        with pytest.raises(ValidationError, match=f"^{name} must .*, got .*$"):
            replace(self.VALID[cls], **{name: self.REJECTED[cls, name]})

    # a value of a type its field's rule cannot compare fails that rule; a string is quoted
    WRONG_TYPE = {
        "lam must be finite, got 'x'": lambda: ModelParams(lam="x"),
        "trials must be >= 1, got '3'": lambda: ExperimentConfig(trials="3"),
        "threshold_group0 must lie in [0, 1], got None": lambda: LabelPolicy(None, 0.5),
        "alpha must lie in [0, 1], got (1+0j)": lambda: ModelParams(alpha=1 + 0j),
        "n_group0 must be positive, got '5'": lambda: PopulationSpec("5", 5, .5, .5),
        "cutoff must lie in [0, 1], got 'a'": lambda: SamplePolicy("a", .5, .5, .5, .5),
        "noise_scale must be positive and finite, got [1.0]":
            lambda: replace(DEFAULT_POPULATION, noise_scale=[1.0]),
    }

    @pytest.mark.parametrize("message", WRONG_TYPE)
    def test_wrong_type_fails_the_fields_rule(self, message):
        with pytest.raises(ValidationError) as raised:
            self.WRONG_TYPE[message]()
        assert str(raised.value) == message

    # a bool in each float field, the value it rejects as the integer fields do; the
    # three open-interval fields reject both bools by their range rule already
    REAL = "be a real number"
    OPEN = "lie strictly inside (0, 1)"
    BOOLS = {
        (LabelPolicy, "threshold_group0"): (True, REAL),
        (LabelPolicy, "threshold_group1"): (False, REAL),
        (SamplePolicy, "cutoff"): (True, REAL),
        (SamplePolicy, "p_group0_high"): (False, REAL),
        (SamplePolicy, "p_group0_low"): (True, REAL),
        (SamplePolicy, "p_group1_high"): (False, REAL),
        (SamplePolicy, "p_group1_low"): (True, REAL),
        (ModelParams, "lam"): (False, REAL),
        (ModelParams, "alpha"): (True, REAL),
        (ModelParams, "tolerance"): (True, REAL),
        (ModelParams, "train_fraction"): (True, OPEN),
        (ModelParams, "prediction_threshold"): (False, REAL),
        (PopulationSpec, "positive_rate_group0"): (True, OPEN),
        (PopulationSpec, "positive_rate_group1"): (False, OPEN),
        (PopulationSpec, "proxy_strength"): (True, REAL),
        (PopulationSpec, "noise_scale"): (True, REAL),
        (PopulationSpec, "score_concentration"): (True, REAL),
    }

    def test_every_float_field_has_a_bool_row(self):
        assert set(self.BOOLS) == {(cls, f.name) for cls in self.VALID for f in fields(cls)
                                   if f.type == "float"}

    @pytest.mark.parametrize("cls,name", BOOLS, ids=lambda v: getattr(v, "__name__", v))
    def test_float_fields_reject_bools(self, cls, name):
        value, rule = self.BOOLS[cls, name]
        with pytest.raises(ValidationError) as raised:
            replace(self.VALID[cls], **{name: value})
        assert str(raised.value) == f"{name} must {rule}, got {value}"

    INTS = [(cls, f.name) for cls in VALID for f in fields(cls) if f.type == "int"]

    @pytest.mark.parametrize("cls,name", INTS, ids=lambda v: getattr(v, "__name__", v))
    def test_int_fields_reject_bools(self, cls, name):
        with pytest.raises(ValidationError, match=f"^{name} must .*, got True$"):
            replace(self.VALID[cls], **{name: True})

    def test_a_field_a_subclass_adds_is_checked_by_its_annotation(self):
        @dataclass(frozen=True)
        class Extended(ModelParams):
            extra: int = 0

        with pytest.raises(ValidationError, match=r"^extra must be an integer, got 1\.5$"):
            Extended(extra=1.5)
        assert Extended(extra=np.int64(2)).extra == 2

    # of two bad fields, the range rules name theirs first, then the types in declaration order
    @pytest.mark.parametrize("message, make", [
        pytest.param("lam must be a real number, got True",
                     lambda: ModelParams(lam=True, max_iters=1.5), id="types in order"),
        pytest.param("trials must be >= 1, got 0",
                     lambda: ExperimentConfig(population=math.nan, trials=0), id="range first"),
        pytest.param("n_group0 must be an integer, got 1.5",
                     lambda: PopulationSpec(1.5, 2.5, .5, .5), id="population types in order"),
        pytest.param("score_concentration must be positive and finite, got 0",
                     lambda: PopulationSpec(12, 10, .5, .5, feature_dim=2.5,
                                            score_concentration=0),
                     id="population range first"),
    ])
    def test_which_of_two_bad_fields_is_named(self, message, make):
        with pytest.raises(ValidationError) as raised:
            make()
        assert str(raised.value) == message

    def test_float_fields_take_numpy_floats_and_ints(self):
        policy = LabelPolicy(np.float32(0.25), np.int64(1))
        params = ModelParams(lam=np.float64(0.1), alpha=0, tolerance=np.float16(1e-3))
        assert (policy.threshold_group1, params.alpha) == (1, 0)

    # a value whose truth test or float conversion raises fails its field's rule
    @pytest.mark.parametrize("message, make", [
        pytest.param("threshold_group0 must lie in [0, 1], got [0.5 0.6]",
                     lambda: LabelPolicy(np.array([0.5, 0.6]), 0.5), id="float array"),
        pytest.param("trials must be >= 1, got [3 4]",
                     lambda: ExperimentConfig(trials=np.array([3, 4])), id="int array"),
        pytest.param("n_group0 must be positive, got [5 6]",
                     lambda: PopulationSpec(np.array([5, 6]), 5, .5, .5), id="count array"),
        pytest.param(f"lam must be finite, got {10 ** 400}",
                     lambda: ModelParams(lam=10 ** 400), id="huge lam"),
        pytest.param(f"noise_scale must be positive and finite, got {10 ** 400}",
                     lambda: replace(DEFAULT_POPULATION, noise_scale=10 ** 400),
                     id="huge noise_scale"),
        pytest.param("lam must be finite, got an integer of 16610 bits",
                     lambda: ModelParams(lam=10 ** 5000), id="lam too long to print"),
        pytest.param("experiment must be 'A' or 'B', got 'C'",
                     lambda: ExperimentConfig(experiment="C"), id="experiment name"),
        pytest.param("experiment must be 'A' or 'B', got ['A' 'B']",
                     lambda: ExperimentConfig(experiment=np.array(["A", "B"])),
                     id="experiment array"),
    ])
    def test_arrays_and_huge_integers_fail_the_fields_rule(self, message, make):
        with pytest.raises(ValidationError) as raised:
            make()
        assert str(raised.value) == message

    def test_integer_fields_take_numpy_integers_and_negative_base_seeds(self):
        spec = replace(DEFAULT_POPULATION, n_group0=np.int64(40), feature_dim=np.int32(3))
        config = ExperimentConfig(population=spec, model=ModelParams(max_iters=np.int64(5)),
                                  trials=np.int16(2), base_seed=-1, min_cell_count=np.int8(1))
        assert config.base_seed == -1

    def test_load_bundled_configs(self):
        a = load_config(bundled_config_path("experiment_A.cfg"))
        b = load_config(bundled_config_path("experiment_B.cfg"))
        assert a.experiment == "A" and b.experiment == "B"
        assert a.model.include_group_feature is True
        assert b.model.include_group_feature is False
        assert a.biased_label_policy == BIASED_LABEL_POLICY
        assert a.biased_sample_policy == BIASED_SAMPLE_POLICY

    def test_bundled_configs_ship_in_the_package(self):
        # run against an installed package, this shows the configs are package data
        configs = Path(fairaudit.__file__).parent / "configs"
        for name in ("A", "B"):
            path = bundled_config_path(f"experiment_{name}.cfg")
            assert Path(path).parent == configs
            assert load_config(path).experiment == name

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_config(tmp_path / "nope.cfg")

    def test_load_config_bad_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[experiment]\nname = A\ntrials = many\n")
        with pytest.raises(ValidationError, match=r"invalid config .*: \[experiment\] trials: "):
            load_config(path)

    # a number is read as a predictions CSV field is: the spellings only Python's int
    # and float read, a `_` and non-ASCII digits, are errors
    @pytest.mark.parametrize("section,key,text,kind", [
        ("experiment", "trials", "1_0", "int"),
        ("experiment", "trials", "\u0661\u0662", "int"),
        ("experiment", "trials", "\uff12\uff10", "int"),
        ("model", "lambda", "0_01", "float"),
        ("population", "noise_scale", "\u0663.\u0665", "float"),
        ("model", "lambda", "\uff10.\uff10\uff11", "float"),
    ])
    def test_load_config_rejects_python_only_numbers(self, tmp_path, section, key, text, kind):
        path = tmp_path / "bad.cfg"
        path.write_text(f"[{section}]\n{key} = {text}\n", encoding="utf-8")
        with pytest.raises(ValidationError) as info:
            load_config(path)
        assert str(info.value) == (f"invalid config {path}: [{section}] {key}: "
                                   f"could not convert {text!r} to {kind}")

    @pytest.mark.parametrize("section,key,text,value", [
        ("model", "lambda", " 0.01 ", 0.01), ("model", "lambda", "1e-2", 0.01),
        ("model", "lambda", ".01", 0.01), ("population", "noise_scale", "5.", 5.0),
        ("experiment", "trials", "+20", 20),
    ])
    def test_load_config_reads_plain_numbers(self, tmp_path, section, key, text, value):
        path = tmp_path / "ok.cfg"
        path.write_text(f"[{section}]\n{key} ={text}\n")
        target, keys = _CONFIG_NAMES[section]
        config = load_config(path)
        read = getattr(getattr(config, target) if target else config, keys[key])
        assert read == value and type(read) is type(value)

    def test_load_config_bad_interpolation_names_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[experiment]\nname = 5%\n")
        with pytest.raises(ValidationError, match=r"invalid config .*: \[experiment\] name: "):
            load_config(path)

    # every key with a parseable value its field rejects; base_seed (any int) and
    # include_group_feature (any boolean) have none
    @pytest.mark.parametrize("section,key,value,message", [
        ("model", "lambda", "nan", "lambda must be finite, got nan"),
        ("label_policy.unbiased", "threshold_group0", "2",
         "threshold_group0 must lie in [0, 1], got 2.0"),
        ("experiment", "name", "a", "name must be 'A' or 'B', got 'a'"),
        ("population", "positive_rate_group0", "1.5",
         "positive_rate_group0 must lie strictly inside (0, 1), got 1.5"),
        ("experiment", "trials", "0", "trials must be >= 1, got 0"),
        ("experiment", "min_cell_count", "-3", "min_cell_count must be >= 1, got -3"),
        ("population", "n_group0", "0", "n_group0 must be positive, got 0"),
        ("population", "n_group1", "-5", "n_group1 must be positive, got -5"),
        ("population", "positive_rate_group1", "0",
         "positive_rate_group1 must lie strictly inside (0, 1), got 0.0"),
        ("population", "feature_dim", "1", "feature_dim must be >= 2, got 1"),
        ("population", "proxy_strength", "-0.1", "proxy_strength must lie in [0, 1], got -0.1"),
        ("population", "noise_scale", "inf", "noise_scale must be positive and finite, got inf"),
        ("population", "score_concentration", "0",
         "score_concentration must be positive and finite, got 0.0"),
        ("label_policy.biased", "threshold_group0", "-0.5",
         "threshold_group0 must lie in [0, 1], got -0.5"),
        ("label_policy.biased", "threshold_group1", "nan",
         "threshold_group1 must lie in [0, 1], got nan"),
        ("label_policy.unbiased", "threshold_group1", "1.01",
         "threshold_group1 must lie in [0, 1], got 1.01"),
        ("sample_policy.biased", "cutoff", "1.5", "cutoff must lie in [0, 1], got 1.5"),
        ("sample_policy.biased", "p_group0_high", "-1",
         "p_group0_high must lie in [0, 1], got -1.0"),
        ("sample_policy.biased", "p_group0_low", "nan",
         "p_group0_low must lie in [0, 1], got nan"),
        ("sample_policy.biased", "p_group1_high", "2",
         "p_group1_high must lie in [0, 1], got 2.0"),
        ("sample_policy.biased", "p_group1_low", "-0.25",
         "p_group1_low must lie in [0, 1], got -0.25"),
        ("sample_policy.unbiased", "cutoff", "-0.5", "cutoff must lie in [0, 1], got -0.5"),
        ("sample_policy.unbiased", "p_group0_high", "1.1",
         "p_group0_high must lie in [0, 1], got 1.1"),
        ("sample_policy.unbiased", "p_group0_low", "3",
         "p_group0_low must lie in [0, 1], got 3.0"),
        ("sample_policy.unbiased", "p_group1_high", "-inf",
         "p_group1_high must lie in [0, 1], got -inf"),
        ("sample_policy.unbiased", "p_group1_low", "-1e-9",
         "p_group1_low must lie in [0, 1], got -1e-09"),
        ("model", "alpha", "1.5", "alpha must lie in [0, 1], got 1.5"),
        ("model", "max_iters", "0", "max_iters must be positive, got 0"),
        ("model", "tolerance", "0", "tolerance must be positive, got 0.0"),
        ("model", "train_fraction", "1",
         "train_fraction must lie strictly inside (0, 1), got 1.0"),
        ("model", "prediction_threshold", "-0.5",
         "prediction_threshold must lie in [0, 1], got -0.5"),
    ])
    def test_load_config_error_names_section_and_key(self, tmp_path, section, key, value,
                                                      message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ValidationError) as info:
            load_config(path)
        assert str(info.value) == f"invalid config {path}: [{section}] {message}"

    def test_load_config_without_section_header(self, tmp_path):
        path = tmp_path / "flat.cfg"
        path.write_text("trials = 3\n")
        with pytest.raises(ValidationError, match="invalid config .*no section headers"):
            load_config(path)

    @pytest.mark.parametrize("text", ["", "\n\n", "# experiment A\n; trials = 3\n"])
    def test_load_config_without_sections(self, tmp_path, text):
        path = tmp_path / "empty.cfg"
        path.write_text(text)
        with pytest.raises(ValidationError) as info:
            load_config(path)
        assert str(info.value) == f"invalid config {path}: no sections"

    def test_load_config_empty_section_keeps_defaults(self, tmp_path):
        path = tmp_path / "minimal.cfg"
        path.write_text("[experiment]\n")
        assert load_config(path) == ExperimentConfig()

    @pytest.mark.parametrize("text,name", [
        ("[experiment]\nname = A\ntrails = 3\n", "trails"),
        ("[modle]\nlambda = 0.1\n", "modle"),
        ("[model]\nlamda = 9\n", "lamda"),
        ("[DEFAULT]\ntrials = 3\n", "DEFAULT"),
    ])
    def test_load_config_rejects_unknown_names(self, tmp_path, text, name):
        path = tmp_path / "typo.cfg"
        path.write_text(text)
        with pytest.raises(ValidationError, match=f"unknown .*{name}"):
            load_config(path)

    def test_load_config_partial_policy_section_keeps_defaults(self, tmp_path):
        path = tmp_path / "partial.cfg"
        path.write_text("[label_policy.biased]\nthreshold_group0 = 0.25\n")
        policy = load_config(path).biased_label_policy
        assert policy.threshold_group0 == 0.25
        assert policy.threshold_group1 == BIASED_LABEL_POLICY.threshold_group1

    def test_load_config_roundtrip_of_sections(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("\n".join([
            "[experiment]", "name = B", "trials = 4", "base_seed = 123",
            "[population]", "n_group0 = 800", "n_group1 = 700",
            "[label_policy.biased]", "threshold_group0 = 0.25",
            "threshold_group1 = 0.75",
            "[model]", "lambda = 0.05", "alpha = 0.9",
        ]) + "\n")
        cfg = load_config(path)
        assert cfg.experiment == "B"
        assert cfg.trials == 4 and cfg.base_seed == 123
        assert cfg.population.n_group0 == 800
        assert cfg.biased_label_policy.threshold_group0 == 0.25
        assert cfg.model.lam == 0.05 and cfg.model.alpha == 0.9
        # unspecified sections keep the defaults
        assert cfg.unbiased_label_policy == UNBIASED_LABEL_POLICY


BUNDLED_CONFIGS = ["experiment_A.cfg", "experiment_B.cfg"]


def read_ini(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    assert parser.read(path)
    return parser


def ini_value(section, key, like):
    """section[key] parsed as the type of `like`."""
    return section.getboolean(key) if type(like) is bool else type(like)(section[key])


class TestConfigSchema:
    @pytest.mark.parametrize("name", BUNDLED_CONFIGS)
    def test_bundled_config_names_every_key(self, name):
        parser = read_ini(bundled_config_path(name))
        assert {section: set(parser[section]) for section in parser.sections()} == {
            section: set(keys) for section, (_, keys) in _CONFIG_NAMES.items()}

    @pytest.mark.parametrize("name", BUNDLED_CONFIGS)
    def test_to_dict_uses_config_file_names(self, name):
        path = bundled_config_path(name)
        parser = read_ini(path)
        # (section, key) -> value, undoing the naming rule: [experiment] keys at the
        # top level with name -> experiment, other sections under "." -> "_"
        named = {}
        for block, values in load_config(path).to_dict().items():
            if isinstance(values, dict):
                named.update({(block, key): value for key, value in values.items()})
            else:
                named["experiment", "name" if block == "experiment" else block] = values
        ini = {(section.replace(".", "_"), key): parser[section]
               for section in parser.sections() for key in parser[section]}
        assert named.keys() == ini.keys()
        for (block, key), value in named.items():
            assert ini_value(ini[block, key], key, value) == value, (block, key)

    def test_to_dict_round_trips_through_ini(self, tmp_path):
        config = ExperimentConfig(
            experiment="B",
            population=PopulationSpec(
                n_group0=1001, n_group1=999, positive_rate_group0=0.45,
                positive_rate_group1=0.2, feature_dim=3, proxy_strength=0.6,
                noise_scale=2.5, score_concentration=1.5),
            biased_label_policy=LabelPolicy(0.35, 0.65),
            unbiased_label_policy=LabelPolicy(0.45, 0.55),
            biased_sample_policy=SamplePolicy(cutoff=0.4, p_group0_high=0.7,
                                              p_group0_low=0.3, p_group1_high=0.9,
                                              p_group1_low=0.6),
            unbiased_sample_policy=SamplePolicy(cutoff=0.6, p_group0_high=0.4,
                                                p_group0_low=0.45, p_group1_high=0.35,
                                                p_group1_low=0.25),
            model=ModelParams(lam=0.02, alpha=0.25, max_iters=50, tolerance=1e-5,
                              train_fraction=0.6, include_group_feature=True,
                              prediction_threshold=0.4),
            trials=3, base_seed=7, min_cell_count=4)
        out = config.to_dict()

        def leaves(d):
            return {(k, kk): vv for k, v in d.items()
                    for kk, vv in (v.items() if isinstance(v, dict) else [(None, v)])}

        values, defaults = leaves(out), leaves(ExperimentConfig().to_dict())
        assert values.keys() == defaults.keys()
        assert all(v != defaults[k] for k, v in values.items())
        sections = {s.replace(".", "_"): s
                    for s in read_ini(bundled_config_path(BUNDLED_CONFIGS[0])).sections()}
        # the leaves are every field that holds no section, so a file can set each
        field_name = {key: name for name, key in harness._RENAMED.items()}
        covered = {(ExperimentConfig, k) if kk is None else
                   (type(getattr(config, _CONFIG_NAMES[sections[k]][0])), field_name.get(kk, kk))
                   for k, kk in values}
        assert covered == {(type(part), f.name) for part in (
            config, config.population, config.biased_label_policy, config.biased_sample_policy,
            config.model) for f in fields(part) if not is_dataclass(getattr(part, f.name))}
        parser = configparser.ConfigParser()
        parser["experiment"] = {("name" if k == "experiment" else k): str(v)
                                for k, v in out.items() if not isinstance(v, dict)}
        for block, values in out.items():
            if isinstance(values, dict):
                parser[sections[block]] = {k: str(v) for k, v in values.items()}
        path = tmp_path / "all.cfg"
        with open(path, "w") as fh:
            parser.write(fh)
        assert load_config(path) == config

    def test_numpy_fields_write_the_json_of_python_numbers(self):
        # int and float fields accept numpy numbers; the report's config block must
        # still be plain JSON, byte-equal to the same config given Python numbers
        def config(i64, i32, f32, f64):
            return ExperimentConfig(
                population=replace(DEFAULT_POPULATION, n_group0=i32(1000), feature_dim=i64(3),
                                   noise_scale=f32(2.5), proxy_strength=f64(0.6)),
                biased_label_policy=LabelPolicy(f32(0.25), f64(0.75)),
                biased_sample_policy=replace(BIASED_SAMPLE_POLICY, p_group0_high=f32(0.75)),
                model=ModelParams(lam=f64(0.02), max_iters=i32(50), train_fraction=f32(0.625)),
                trials=i64(2), base_seed=i64(5), min_cell_count=i32(4))

        plain = ExperimentReport(config=config(int, int, float, float).to_dict()).to_json()
        numpy = ExperimentReport(config=config(np.int64, np.int32, np.float32,
                                               np.float64).to_dict()).to_json()
        assert numpy == plain
        assert '"noise_scale": 2.5' in plain and '"trials": 2' in plain

    def test_rename_table_names_fields_and_keeps_keys_distinct(self):
        # each field of a section's dataclass is a key under its own name or its
        # rename; only the six fields that hold a section are no key
        default = ExperimentConfig()
        parts = {target: getattr(default, target) if target else default
                 for target, _ in _CONFIG_NAMES.values()}
        names = {(target, f.name) for target, part in parts.items() for f in fields(part)}
        assert harness._RENAMED == {"experiment": "name", "lam": "lambda"}
        unkeyed = {("", f.name) for f in fields(default) if is_dataclass(getattr(default, f.name))}
        assert len(unkeyed) == 6
        keyed = {(target, name) for target, keys in _CONFIG_NAMES.values()
                 for name in keys.values()}
        assert names - keyed == unkeyed
        for target, part in parts.items():
            keys = [harness._RENAMED.get(f.name, f.name) for f in fields(part)
                    if (target, f.name) not in unkeyed]
            assert len(keys) == len(set(keys)), target


class TestBiasSpec:
    def test_grid_numbering(self):
        # dataset k is ALL_BIAS_SPECS[k - 1], in the order of the README's grid table
        assert ALL_BIAS_SPECS == (BiasSpec(sample_bias=False, label_bias=False),
                                  BiasSpec(sample_bias=True, label_bias=False),
                                  BiasSpec(sample_bias=False, label_bias=True),
                                  BiasSpec(sample_bias=True, label_bias=True))


# four distinct policies, so a grid cell built with another cell's policy differs
LABEL_B, LABEL_U = LabelPolicy(0.35, 0.65), LabelPolicy(0.45, 0.45)
SAMPLE_B = SamplePolicy(0.5, 0.9, 0.3, 1.0, 0.8)
SAMPLE_U = SamplePolicy(0.5, 0.6, 0.6, 0.6, 0.6)


class TestTrialDataset:
    @pytest.mark.parametrize("k,sample,label", [(1, SAMPLE_U, LABEL_U), (2, SAMPLE_B, LABEL_U),
                                                (3, SAMPLE_U, LABEL_B), (4, SAMPLE_B, LABEL_B)])
    def test_applies_its_cells_policies(self, k, sample, label):
        config = small_config(biased_label_policy=LABEL_B, unbiased_label_policy=LABEL_U,
                              biased_sample_policy=SAMPLE_B, unbiased_sample_policy=SAMPLE_U)
        base = build_base(config)
        assert same_population(trial_dataset(config, ALL_BIAS_SPECS[k - 1], 5, base),
                               build_dataset(base, sample, label, 5, config.min_cell_count))


class TestRunTrial:
    def test_deterministic(self):
        cfg = small_config()
        base = build_base(cfg)
        spec = BiasSpec(True, True)
        r1 = run_trial(cfg, spec, trial_seed=5, base=base)
        r2 = run_trial(cfg, spec, trial_seed=5, base=base)
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_seed_changes_result(self):
        cfg = small_config()
        base = build_base(cfg)
        spec = BiasSpec(False, False)
        r1 = run_trial(cfg, spec, trial_seed=5, base=base)
        r2 = run_trial(cfg, spec, trial_seed=6, base=base)
        assert r1.to_json_dict() != r2.to_json_dict()

    def test_trial_outcomes_are_its_test_sets_predictions(self):
        cfg = small_config()
        model, test, outcomes = trial_outcomes(cfg, BiasSpec(True, False), 5, build_base(cfg))
        assert np.array_equal(outcomes.group, test.group)
        assert np.array_equal(outcomes.label, test.label)
        score_hat, label_hat = predict(model, test)
        assert outcomes.score_hat.tobytes() == score_hat.tobytes()
        assert np.array_equal(outcomes.label_hat, label_hat)

    def test_non_converged_fit_fails_the_trial(self):
        cfg = small_config(model=ModelParams(lam=0.01, max_iters=1))
        base, spec = build_base(cfg), BiasSpec(False, False)
        with pytest.raises(NumericalFailureError,
                           match=r"^fit did not converge within max_iters = 1$"):
            trial_outcomes(cfg, spec, 5, base)
        # the library fit itself still returns the non-converged model
        train, _ = split(trial_dataset(cfg, spec, stable_hash(5, "sample"), base),
                         cfg.model.train_fraction, stable_hash(5, "split"))
        assert fit(train, cfg.model).converged is False

    def test_run_trial_audits_trial_outcomes(self):
        cfg = small_config()
        base = build_base(cfg)
        _, _, outcomes = trial_outcomes(cfg, BiasSpec(False, True), 5, base)
        assert audit(outcomes).to_json_dict() == \
            run_trial(cfg, BiasSpec(False, True), trial_seed=5, base=base).to_json_dict()

    def test_sampled_dataset_is_freed_before_fit(self, monkeypatch):
        cfg = small_config()
        base = build_base(cfg)
        sampled, alive_at_fit = [], []
        real_trial_dataset, real_fit = harness.trial_dataset, harness.fit

        def trial_dataset(*args):
            data = real_trial_dataset(*args)
            sampled.append(weakref.ref(data))
            return data

        def fit(train, params):
            alive_at_fit.append(sampled[-1]() is not None)
            return real_fit(train, params)

        monkeypatch.setattr(harness, "trial_dataset", trial_dataset)
        monkeypatch.setattr(harness, "fit", fit)
        run_trial(cfg, BiasSpec(True, True), trial_seed=5, base=base)
        # only the train and test copies split makes stay alive through the fit
        assert alive_at_fit == [False]

    def test_base_A_has_balanced_groups(self):
        cfg = small_config(experiment="A",
                           model=ModelParams(lam=0.01, include_group_feature=True))
        base = build_base(cfg)
        frac = np.mean(base.group)
        assert abs(frac - 0.5) < 0.05
        assert len(base) == SMALL_POP.n_group0


class TestRunExperiment:
    def test_grid_shape(self, small_report):
        assert sorted(small_report.datasets) == [1, 2, 3, 4]
        for result in small_report.datasets.values():
            assert len(result.trials) == 3
            assert not result.failures

    def test_trial_seeds_follow_scheme(self, small_report):
        for index, result in small_report.datasets.items():
            expected = [stable_hash(99, index, t) for t in range(3)]
            assert [t.seed for t in result.trials] == expected

    def test_aggregates_recomputable(self, small_report):
        for result in small_report.datasets.values():
            for name in METRIC_NAMES:
                values = result.metric_values(name)
                if not values:
                    continue
                assert result.metric_mean(name) == pytest.approx(
                    float(np.mean(values)), abs=1e-12)
                assert result.metric_std(name) == pytest.approx(
                    float(np.std(values)), abs=1e-12)

    def test_single_trial_zero_std(self):
        report = run_experiment(small_config(trials=1))
        for result in report.datasets.values():
            for name in METRIC_NAMES:
                if result.metric_values(name):
                    assert result.metric_std(name) == 0.0

    def test_reruns_byte_identical(self, small_report):
        again = run_experiment(small_config())
        assert again.to_json() == small_report.to_json()

    def test_trial_failures_tabulated(self, empty_test_set_report, tmp_path):
        report = empty_test_set_report
        blob = report.to_json_dict()["datasets"]
        for k, trials in {1: [0], 2: [], 3: [0, 1], 4: []}.items():
            failures = blob[str(k)]["failures"]
            assert [f["trial"] for f in failures] == trials
            assert [f["seed"] for f in failures] == [
                stable_hash(EMPTY_TEST_SET_CONFIG.base_seed, k, t) for t in trials]
            assert [f["error"] for f in failures] == [t.error for t in report.datasets[k].failures]
            for name in METRIC_NAMES:
                listed = [t["trial"] for t in blob[str(k)]["metrics"][name]["trials"]]
                assert listed == [t for t in range(4) if t not in trials]
        path = tmp_path / "report.csv"
        report.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        failed = [row for row in rows if row[4] == "failed"]
        assert len(rows) == 4 * 4 * len(METRIC_NAMES)
        assert failed == [[str(k), name, str(t), "", "failed"]
                          for k, t in ((1, 0), (3, 0), (3, 1)) for name in METRIC_NAMES]

    def test_empty_test_set_fails_only_its_trial(self, empty_test_set_report):
        report = empty_test_set_report
        failed = {k: [t.trial for t in r.failures] for k, r in report.datasets.items()}
        assert failed == {1: [0], 2: [], 3: [0, 1], 4: []}
        assert all("leaves the test set empty" in t.error
                   for r in report.datasets.values() for t in r.failures)

    def test_trial_results_do_not_depend_on_run_order(self, empty_test_set_report):
        # each trial rerun alone, last to first, gives what run_experiment reported,
        # failures included (this config fails three trials)
        cfg = EMPTY_TEST_SET_CONFIG
        base = build_base(cfg)
        for k in reversed(range(1, 5)):
            for t in reversed(range(cfg.trials)):
                reported = empty_test_set_report.datasets[k].trials[t]
                try:
                    rerun = run_trial(cfg, ALL_BIAS_SPECS[k - 1],
                                      stable_hash(cfg.base_seed, k, t), base=base).to_json_dict()
                except (DegenerateDatasetError, NumericalFailureError) as e:
                    rerun = str(e)
                assert rerun == (reported.report.to_json_dict() if reported.report
                                 else reported.error)

    def test_run_dataset_matches_run_experiment(self, empty_test_set_report):
        # each dataset run alone gives what run_experiment reported, trial for trial,
        # failures included (this config fails three trials)
        cfg = EMPTY_TEST_SET_CONFIG
        base = build_base(cfg)

        def outcomes(result):
            return [(t.trial, t.seed, t.report.to_json_dict() if t.report else t.error)
                    for t in result.trials]

        for k in reversed(range(1, 5)):
            assert outcomes(run_dataset(cfg, k, base)) == outcomes(
                empty_test_set_report.datasets[k])

    def test_numerical_failure_fails_only_its_trial(self, monkeypatch):
        cfg = small_config(trials=2)
        real_fit, real_objective = harness.fit, model_module._objective
        seed = stable_hash(99, 1, 0)
        target = split(trial_dataset(cfg, ALL_BIAS_SPECS[0], stable_hash(seed, "sample"),
                                     build_base(cfg)),
                       cfg.model.train_fraction, stable_hash(seed, "split"))[0]

        def fit_with_nan_objective_on_target(train, params):
            # only dataset 1's trial 0, picked by its training set and not by the
            # order trials run in, sees an objective that turns NaN after its first call
            if not np.array_equal(train.id, target.id):
                return real_fit(train, params)
            calls = []

            def objective(*args):
                calls.append(None)
                return real_objective(*args) if len(calls) == 1 else math.nan

            with monkeypatch.context() as patch:
                patch.setattr(model_module, "_objective", objective)
                return real_fit(train, params)

        monkeypatch.setattr(harness, "fit", fit_with_nan_objective_on_target)
        report = run_experiment(cfg)
        failures = report.to_json_dict()["datasets"]["1"]["failures"]
        assert failures == [{"trial": 0, "seed": stable_hash(99, 1, 0),
                             "error": "non-finite objective during optimization"}]
        assert [len(r.failures) for r in report.datasets.values()] == [1, 0, 0, 0]

    def test_all_trials_failing_raises(self):
        cfg = small_config(population=replace(SMALL_POP, n_group0=40, n_group1=40),
                           trials=2, min_cell_count=10)
        # the message carries the first trial's reason, since no report is written;
        # the dataset run alone raises the same
        for run in (lambda: run_experiment(cfg), lambda: run_dataset(cfg, 1, build_base(cfg))):
            with pytest.raises(DegenerateDatasetError,
                               match=r"^all trials of dataset 1 failed; trial 0: cell "
                               r"\(group=0, label=0\) has 6 records, fewer than the minimum 10$"):
                run()


class TestReportOutputs:
    def test_json_structure(self, small_report):
        blob = json.loads(small_report.to_json())
        assert set(blob) == {"config", "datasets"}
        assert set(blob["datasets"]) == {"1", "2", "3", "4"}
        d1 = blob["datasets"]["1"]
        assert d1["bias_spec"] == {"sample_bias": False, "label_bias": False}
        assert set(d1["metrics"]) == set(METRIC_NAMES)
        m = d1["metrics"]["mean_score_diff"]
        assert set(m) == {"mean", "std", "undefined_count", "trials"}
        assert len(m["trials"]) == 3
        assert set(m["trials"][0]) == {"trial", "seed", "value", "status", "detail"}

    def test_csv_structure(self, small_report, tmp_path):
        path = tmp_path / "report.csv"
        small_report.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4 * 3 * len(METRIC_NAMES)
        assert set(rows[0]) == {"dataset", "metric", "trial", "value", "status"}
        ok = [r for r in rows if r["status"] == "ok"]
        assert ok and all(r["value"] != "" for r in ok)


class TestRanking:
    def test_rank_means_orders_by_fair_point_distance(self):
        means = {1: 0.01, 2: -0.3, 3: 0.2, 4: -0.5}
        order, excluded = rank_means(means, 0.0)
        assert order == [1, 3, 2, 4]
        assert excluded == []

    def test_rank_means_tie_break_by_index(self):
        means = {1: 0.2, 2: -0.2, 3: 0.2, 4: 0.1}
        order, _ = rank_means(means, 0.0)
        assert order == [4, 1, 2, 3]

    def test_rank_means_excludes_undefined(self):
        means = {1: 0.9, 2: None, 3: 1.4, 4: None}
        order, excluded = rank_means(means, 1.0)
        assert order == [1, 3]
        assert excluded == [2, 4]

    def test_rank_datasets_uses_metric_fair_point(self, small_report):
        for name in METRIC_NAMES:
            order, excluded = rank_datasets(small_report, name)
            means = {i: r.metric_mean(name) for i, r in small_report.datasets.items()}
            expect, expect_ex = rank_means(means, FAIR_POINTS[name])
            assert order == expect and excluded == expect_ex

    def test_rank_datasets_unknown_metric(self, small_report):
        with pytest.raises(ValidationError):
            rank_datasets(small_report, "nope")
