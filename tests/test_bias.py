import math
from dataclasses import replace

import numpy as np
import pytest

from fairaudit import (BIASED_LABEL_POLICY, BIASED_SAMPLE_POLICY,
                       UNBIASED_LABEL_POLICY, UNBIASED_SAMPLE_POLICY, BiasSpec, LabelPolicy,
                       PopulationSpec, SamplePolicy, apply_label_policy,
                       apply_sample_policy, build_dataset, generate_population,
                       make_base_dataset_A, split)
from fairaudit.bias import ALL_BIAS_SPECS
from fairaudit.errors import DegenerateDatasetError, ValidationError
from conftest import (KEEP_ALL_SAMPLE_POLICY, make_population, positive_rate,
                      same_population)
from oracles import sample_label_split_oracle


def cells(*blocks):
    """Population from (group, score, count) blocks, ids in block order."""
    groups, scores = [], []
    for group, score, count in blocks:
        groups += [group] * count
        scores += [score] * count
    return make_population(groups, scores)


def labeled_rate(data, group):
    return data.label[data.group == group].mean()


@pytest.fixture(scope="module")
def population():
    spec = PopulationSpec(n_group0=20000, n_group1=20000,
                          target_positive_rate_group0=0.5408,
                          target_positive_rate_group1=0.1217,
                          feature_dim=3, seed=29)
    return generate_population(spec)


class TestLabelPolicy:
    @pytest.mark.parametrize("group,score,expected", [
        (0, 0.5, 1),   # biased group-0 threshold 0.3
        (1, 0.5, 0),   # biased group-1 threshold 0.7
        (1, 0.7, 1),   # threshold is inclusive
        (0, 0.3, 1),
        (0, 0.29, 0),
        (1, 1.0, 1),
        (0, 0.0, 0),
    ])
    def test_biased_policy_examples(self, group, score, expected):
        out = apply_label_policy(make_population([group], [score]), BIASED_LABEL_POLICY)
        assert out.label[0] == expected

    def test_unbiased_policy_is_group_blind(self):
        for score in (0.0, 0.49, 0.5, 0.51, 1.0):
            a = apply_label_policy(make_population([0], [score]), UNBIASED_LABEL_POLICY).label[0]
            b = apply_label_policy(make_population([1], [score]), UNBIASED_LABEL_POLICY).label[0]
            assert a == b == int(score >= 0.5)

    def test_monotone_in_score(self):
        records = make_population([1] * 101, np.linspace(0, 1, 101))
        labels = apply_label_policy(records, BIASED_LABEL_POLICY).label.tolist()
        assert labels == sorted(labels)

    def test_order_and_records_preserved(self):
        records = make_population([i % 2 for i in range(10)], [0.1 * i for i in range(10)])
        out = apply_label_policy(records, UNBIASED_LABEL_POLICY)
        assert same_population(replace(out, label=None), records)

    def test_idempotent(self):
        records = make_population([i % 2 for i in range(16)],
                                  [0.13 * (i % 8) for i in range(16)])
        once = apply_label_policy(records, BIASED_LABEL_POLICY)
        again = apply_label_policy(records, BIASED_LABEL_POLICY)
        assert same_population(once, again)

    def test_validation(self):
        with pytest.raises(ValidationError):
            LabelPolicy(threshold_group0=-0.1, threshold_group1=0.5)
        with pytest.raises(ValidationError):
            apply_label_policy(make_population([], []), UNBIASED_LABEL_POLICY)


class TestSamplePolicy:
    def test_result_is_ordered_subsequence(self, population):
        kept = apply_sample_policy(population, BIASED_SAMPLE_POLICY, seed=5)
        position = {rid: i for i, rid in enumerate(population.id.tolist())}
        ids = [position[rid] for rid in kept.id.tolist()]
        assert ids == sorted(ids)
        assert same_population(kept, population.take(np.array(ids, dtype=int)))

    def test_group1_always_kept_under_biased_policy(self, population):
        kept = apply_sample_policy(population, BIASED_SAMPLE_POLICY, seed=5)
        n1 = np.count_nonzero(population.group == 1)
        assert np.count_nonzero(kept.group == 1) == n1

    def test_keep_all_is_identity(self, population):
        assert same_population(apply_sample_policy(population, KEEP_ALL_SAMPLE_POLICY, 3),
                               population)

    def test_determinism(self, population):
        a = apply_sample_policy(population, UNBIASED_SAMPLE_POLICY, seed=8)
        b = apply_sample_policy(population, UNBIASED_SAMPLE_POLICY, seed=8)
        assert same_population(a, b)

    def test_inclusion_rates_match_policy(self, population):
        kept = apply_sample_policy(population, BIASED_SAMPLE_POLICY, seed=17)
        for group, high, p in [(0, True, 0.8), (0, False, 0.2),
                               (1, True, 1.0), (1, False, 1.0)]:
            band = (population.group == group) & ((population.score >= 0.5) == high)
            n = np.count_nonzero(band)
            got = np.count_nonzero(np.isin(population.id[band], kept.id)) / n
            assert abs(got - p) <= 3 * math.sqrt(p * (1 - p) / n) + 1e-12

    def test_validation(self):
        with pytest.raises(ValidationError):
            SamplePolicy(0.5, 1.2, 0.5, 0.5, 0.5)
        with pytest.raises(ValidationError):
            apply_sample_policy(make_population([], []), UNBIASED_SAMPLE_POLICY, 0)


class TestBiasSpec:
    def test_grid_numbering(self):
        assert [s.dataset_index for s in ALL_BIAS_SPECS] == [1, 2, 3, 4]
        assert BiasSpec(sample_bias=True, label_bias=True).dataset_index == 4


class TestBuildDataset:
    def test_dataset1_with_keep_all_labels_base_at_half(self, population):
        out = build_dataset(population, BiasSpec(False, False), seed=2,
                            unbiased_sample_policy=KEEP_ALL_SAMPLE_POLICY)
        assert same_population(replace(out, label=None), population)
        assert np.array_equal(out.label, population.score >= 0.5)

    def test_composition_sample_then_label(self, population):
        spec = BiasSpec(True, True)
        direct = build_dataset(population, spec, seed=6)
        kept = apply_sample_policy(population, BIASED_SAMPLE_POLICY, seed=6)
        assert same_population(direct, apply_label_policy(kept, BIASED_LABEL_POLICY))

    def test_label_bias_shifts_rates_as_expected(self, population):
        base = build_dataset(population, BiasSpec(False, False), seed=4,
                             unbiased_sample_policy=KEEP_ALL_SAMPLE_POLICY)
        biased = build_dataset(population, BiasSpec(False, True), seed=4,
                               unbiased_sample_policy=KEEP_ALL_SAMPLE_POLICY)
        # lowering group-0's threshold can only add positives; raising group-1's
        # can only remove them
        assert labeled_rate(biased, 0) >= labeled_rate(base, 0)
        assert labeled_rate(biased, 1) <= labeled_rate(base, 1)

    def test_sample_bias_enriches_group0_positives(self, population):
        r = positive_rate(population, 0)
        expected = 0.8 * r / (0.8 * r + 0.2 * (1 - r))
        out = build_dataset(population, BiasSpec(True, False), seed=9)
        assert labeled_rate(out, 0) == pytest.approx(expected, abs=0.02)
        # group 1 is fully retained, so its rate is unchanged
        assert labeled_rate(out, 1) == pytest.approx(positive_rate(population, 1),
                                                     abs=0.02)

    def test_determinism(self, population):
        spec = BiasSpec(True, True)
        assert same_population(build_dataset(population, spec, 12),
                               build_dataset(population, spec, 12))

    def test_degenerate_cell_raises(self):
        # every score below 0.5 in group 1: the (1, 1) cell is empty
        pop = cells((0, 0.2, 40), (0, 0.8, 40), (1, 0.2, 40))
        with pytest.raises(DegenerateDatasetError, match="group=1"):
            build_dataset(pop, BiasSpec(False, False), seed=1,
                          unbiased_sample_policy=KEEP_ALL_SAMPLE_POLICY)

    def test_min_cell_count_override(self):
        pop = cells((0, 0.2, 5), (0, 0.8, 5), (1, 0.2, 5), (1, 0.8, 5))
        out = build_dataset(pop, BiasSpec(False, False), seed=1,
                            unbiased_sample_policy=KEEP_ALL_SAMPLE_POLICY,
                            min_cell_count=5)
        assert len(out) == 20


class TestReferencePipeline:
    @pytest.mark.parametrize("base", ["A", "B"])
    @pytest.mark.parametrize("spec", ALL_BIAS_SPECS, ids=lambda s: f"dataset{s.dataset_index}")
    def test_build_and_split_match_row_loop(self, spec, base):
        pop = generate_population(PopulationSpec(
            n_group0=700, n_group1=300, target_positive_rate_group0=0.5408,
            target_positive_rate_group1=0.1217, feature_dim=3, seed=41))
        if base == "A":
            pop = make_base_dataset_A(pop, seed=43)
        train, test = split(build_dataset(pop, spec, seed=7), 0.7, seed=8)
        want = sample_label_split_oracle(
            pop,
            BIASED_SAMPLE_POLICY if spec.sample_bias else UNBIASED_SAMPLE_POLICY,
            BIASED_LABEL_POLICY if spec.label_bias else UNBIASED_LABEL_POLICY,
            sample_seed=7, train_fraction=0.7, split_seed=8)
        for got, rows in zip((train, test), want):
            assert rows, "the reference kept no rows"
            ids, groups, scores, features, labels = map(list, zip(*rows))
            assert got.id.tolist() == ids
            assert got.group.tolist() == groups
            assert got.score.tolist() == scores
            assert got.features.tolist() == features
            assert got.label.tolist() == labels
