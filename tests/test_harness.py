import configparser
import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from fairaudit import (BIASED_LABEL_POLICY, BIASED_SAMPLE_POLICY,
                       UNBIASED_LABEL_POLICY, UNBIASED_SAMPLE_POLICY, BiasSpec,
                       ExperimentConfig, ExperimentReport, LabelPolicy, ModelParams,
                       PopulationSpec, SamplePolicy, bundled_config_path, load_config,
                       rank_datasets, rank_means, run_experiment, run_trial,
                       stable_hash)
from fairaudit.harness import _CONFIG_NAMES, DEFAULT_POPULATION, build_base
from fairaudit.metrics import FAIR_POINTS, METRIC_NAMES
from fairaudit.errors import ExperimentError, ValidationError

SMALL_POP = PopulationSpec(n_group0=1500, n_group1=1500,
                           target_positive_rate_group0=0.5408,
                           target_positive_rate_group1=0.1217,
                           noise_scale=3.0)


def small_config(**overrides):
    kwargs = dict(experiment="B", population=SMALL_POP,
                  model=ModelParams(lam=0.01), trials=3, base_seed=99)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


@pytest.fixture(scope="module")
def small_report():
    return run_experiment(small_config())


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
        assert cfg.population.target_positive_rate_group0 == pytest.approx(0.5408)
        assert cfg.population.target_positive_rate_group1 == pytest.approx(0.1217)

    def test_validation(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(experiment="C")
        with pytest.raises(ValidationError):
            ExperimentConfig(trials=0)

    def test_load_bundled_configs(self):
        a = load_config(bundled_config_path("experiment_A.cfg"))
        b = load_config(bundled_config_path("experiment_B.cfg"))
        assert a.experiment == "A" and b.experiment == "B"
        assert a.model.include_group_feature is True
        assert b.model.include_group_feature is False
        assert a.biased_label_policy == BIASED_LABEL_POLICY
        assert a.biased_sample_policy == BIASED_SAMPLE_POLICY

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_config(tmp_path / "nope.cfg")

    def test_load_config_bad_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[experiment]\nname = A\ntrials = many\n")
        with pytest.raises(ValidationError, match=r"invalid config .*: \[experiment\] trials: "):
            load_config(path)

    def test_load_config_bad_interpolation_names_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[experiment]\nname = 5%\n")
        with pytest.raises(ValidationError, match=r"invalid config .*: \[experiment\] name: "):
            load_config(path)

    @pytest.mark.parametrize("section,key,value,message", [
        ("model", "lambda", "nan", "lambda must be finite, got nan"),
        ("label_policy.unbiased", "threshold_group0", "2",
         "threshold_group0 must lie in [0, 1], got 2.0"),
        ("experiment", "name", "a", "name must be 'A' or 'B', got 'a'"),
        ("population", "positive_rate_group0", "1.5",
         "positive_rate_group0 must lie strictly inside (0, 1), got 1.5"),
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
                n_group0=1001, n_group1=999, target_positive_rate_group0=0.45,
                target_positive_rate_group1=0.2, feature_dim=3, proxy_strength=0.6,
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

    def test_trial_failures_tabulated(self):
        # a tiny population makes some trials degenerate but not all
        cfg = small_config(population=replace(SMALL_POP, n_group0=120, n_group1=120),
                           trials=4, min_cell_count=10)
        try:
            report = run_experiment(cfg)
        except ExperimentError:
            return  # every trial of a cell failing is also acceptable here
        total = sum(len(r.failures) for r in report.datasets.values())
        json_failures = sum(len(d["failures"])
                            for d in report.to_json_dict()["datasets"].values())
        assert json_failures == total

    def test_all_trials_failing_raises(self):
        cfg = small_config(population=replace(SMALL_POP, n_group0=40, n_group1=40),
                           trials=2, min_cell_count=10)
        with pytest.raises(ExperimentError):
            run_experiment(cfg)


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
