import csv
import math

import numpy as np
import pytest

from fairaudit import (Population, PopulationSpec, generate_population,
                       make_base_dataset_A, make_base_dataset_B,
                       write_population_csv)
from fairaudit.errors import EmptySelectionError, ValidationError
from conftest import make_population, positive_rate, same_population


def small_spec(**overrides):
    kwargs = dict(n_group0=12000, n_group1=10000,
                  target_positive_rate_group0=0.541,
                  target_positive_rate_group1=0.122,
                  feature_dim=4, proxy_strength=0.8, noise_scale=1.0, seed=11)
    kwargs.update(overrides)
    return PopulationSpec(**kwargs)


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("n_group0", 0), ("n_group1", -5),
        ("target_positive_rate_group0", 0.0),
        ("target_positive_rate_group1", 1.0),
        ("feature_dim", 1), ("proxy_strength", 1.5),
        ("noise_scale", 0.0), ("score_concentration", -1.0),
        ("noise_scale", math.nan), ("noise_scale", math.inf),
        ("score_concentration", math.nan), ("score_concentration", math.inf),
    ])
    def test_invalid_spec_names_field(self, field, value):
        with pytest.raises(ValidationError, match=field):
            small_spec(**{field: value})

    def test_record_invariants(self):
        with pytest.raises(ValidationError, match="score"):
            make_population([0], [1.5])
        with pytest.raises(ValidationError, match="score"):
            make_population([0], [float("nan")])
        with pytest.raises(ValidationError, match="group"):
            make_population([2], [0.5])
        with pytest.raises(ValidationError, match="finite"):
            make_population([1], [0.5], [[0.0, float("inf")]])
        with pytest.raises(ValidationError, match="label"):
            make_population([1], [0.5], labels=[2])
        with pytest.raises(ValidationError, match="aligned"):
            make_population([0, 1], [0.5])
        with pytest.raises(ValidationError, match="aligned"):
            make_population([0, 1], [0.5, 0.5], labels=[1])
        with pytest.raises(ValidationError, match="matrix"):
            Population([0], [0], [0.5], [0.0])

    def test_take_selects_rows_in_order(self):
        pop = make_population([0, 1, 1, 0], [0.1, 0.2, 0.3, 0.4],
                              np.arange(8.0).reshape(4, 2), labels=[1, 0, 1, 0])
        picked = pop.take(np.array([3, 1]))
        assert picked.id.tolist() == [3, 1]
        assert picked.label.tolist() == [0, 0]
        assert picked.features.tolist() == [[6.0, 7.0], [2.0, 3.0]]
        masked = pop.take(pop.group == 1)
        assert len(masked) == 2 and masked.score.tolist() == [0.2, 0.3]
        for wrong_length in (np.ones(3, dtype=bool), np.ones(5, dtype=bool)):
            with pytest.raises(IndexError):
                pop.take(wrong_length)
        empty = pop.take(np.zeros(4, dtype=bool))
        assert len(empty) == 0 and empty.features.shape == (0, 2)
        assert empty.label.shape == (0,)
        mask = np.array([True, False, True, True])
        assert same_population(pop.take(mask), pop.take(np.flatnonzero(mask)))


class TestGeneratePopulation:
    def test_table_shaped_calibration(self):
        # full-size marginals: 1,296/10,653 and 64,536/119,340
        spec = PopulationSpec(n_group0=119340, n_group1=10653,
                              target_positive_rate_group0=64536 / 119340,
                              target_positive_rate_group1=1296 / 10653,
                              seed=3)
        pop = generate_population(spec)
        assert len(pop) == 129993
        assert abs(positive_rate(pop, 0) - spec.target_positive_rate_group0) < 0.01
        assert abs(positive_rate(pop, 1) - spec.target_positive_rate_group1) < 0.01

    def test_symmetric_rates(self):
        spec = small_spec(n_group0=10000, n_group1=10000,
                          target_positive_rate_group0=0.5,
                          target_positive_rate_group1=0.5)
        pop = generate_population(spec)
        assert abs(positive_rate(pop, 0) - positive_rate(pop, 1)) < 0.02

    def test_determinism(self):
        spec = small_spec(n_group0=500, n_group1=300)
        assert same_population(generate_population(spec), generate_population(spec))

    def test_seed_changes_output(self):
        a = generate_population(small_spec(n_group0=500, n_group1=300, seed=1))
        b = generate_population(small_spec(n_group0=500, n_group1=300, seed=2))
        assert not same_population(a, b)

    def test_record_shape(self):
        pop = generate_population(small_spec(n_group0=200, n_group1=100))
        assert len(pop) == 300
        assert sorted(pop.id.tolist()) == list(range(300))
        assert pop.features.shape == (300, 4)
        assert np.all((pop.score >= 0.0) & (pop.score <= 1.0))

    @pytest.mark.parametrize("rho", [0.0, 0.4, 0.8, 1.0])
    def test_proxy_correlation(self, rho):
        pop = generate_population(small_spec(proxy_strength=rho))
        g = pop.group.astype(float)
        proxy = pop.features[:, -1]
        assert abs(np.corrcoef(g, proxy)[0, 1] - rho) < 0.05

    def test_informative_features_track_score(self):
        pop = generate_population(small_spec(noise_scale=0.5))
        s = pop.score
        f0 = pop.features[:, 0]
        assert np.corrcoef(s, f0)[0, 1] > 0.5


class TestBaseDatasetA:
    def test_size_and_balance(self):
        pop = generate_population(small_spec())
        base = make_base_dataset_A(pop, seed=7)
        assert len(base) == 12000
        frac1 = np.mean(base.group)
        assert abs(frac1 - 0.5) < 3 * math.sqrt(0.25 / len(base))

    def test_rates_balanced_after_reassignment(self):
        pop = generate_population(small_spec())
        base = make_base_dataset_A(pop, seed=7)
        assert abs(positive_rate(base, 0) - positive_rate(base, 1)) < 0.02

    def test_scores_and_features_unchanged(self):
        pop = generate_population(small_spec(n_group0=400, n_group1=200))
        base = make_base_dataset_A(pop, seed=7)
        originals = pop.take(pop.group == 0)
        assert set(base.id.tolist()) == set(originals.id.tolist())
        position = {rid: i for i, rid in enumerate(originals.id.tolist())}
        for i, rid in enumerate(base.id.tolist()):
            assert base.score[i] == originals.score[position[rid]]
            assert np.array_equal(base.features[i], originals.features[position[rid]])

    def test_no_group0_errors(self):
        pop = make_population([1], [0.5])
        with pytest.raises(EmptySelectionError):
            make_base_dataset_A(pop, seed=1)

    def test_determinism(self):
        pop = generate_population(small_spec(n_group0=400, n_group1=200))
        assert same_population(make_base_dataset_A(pop, 9), make_base_dataset_A(pop, 9))


class TestBaseDatasetB:
    def test_identity(self):
        pop = generate_population(small_spec(n_group0=300, n_group1=200))
        assert same_population(make_base_dataset_B(pop), pop)

    def test_rates_preserved(self):
        spec = small_spec()
        pop = generate_population(spec)
        base = make_base_dataset_B(pop)
        assert positive_rate(base, 0) == pytest.approx(
            spec.target_positive_rate_group0, abs=0.01)
        assert positive_rate(base, 1) == pytest.approx(
            spec.target_positive_rate_group1, abs=0.01)

    def test_minimum_feature_dim_passes_through(self):
        pop = generate_population(small_spec(n_group0=50, n_group1=50, feature_dim=2))
        assert same_population(make_base_dataset_B(pop), pop)

    def test_empty_errors(self):
        with pytest.raises(ValidationError):
            make_base_dataset_B(make_population([], []))


class TestCsvExport:
    def test_roundtrip(self, tmp_path):
        pop = generate_population(small_spec(n_group0=60, n_group1=40))
        path = tmp_path / "pop.csv"
        write_population_csv(pop, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 100
        assert set(rows[0]) == {"id", "group", "score", "f0", "f1", "f2", "f3"}
        for i, row in enumerate(rows):
            assert int(row["id"]) == pop.id[i]
            assert int(row["group"]) == pop.group[i]
            assert float(row["score"]) == pytest.approx(pop.score[i], abs=1e-9)
            assert float(row["f0"]) == pytest.approx(pop.features[i, 0], abs=1e-9)
