import math

import numpy as np
import pytest

from fairaudit import (GroupedOutcomes, audit, disparate_impact,
                       entropy, equal_misopportunity_difference,
                       equal_opportunity_difference, mean_score_difference,
                       normalized_mutual_information, residual_difference)
from fairaudit.errors import UndefinedMetricError, ValidationError
from fairaudit.metrics import METRIC_NAMES, nmi_from_counts

from conftest import build_outcomes, random_outcomes
from oracles import ORACLES


def _safe(fn, data):
    try:
        return fn(data)
    except UndefinedMetricError:
        return None


class TestMeanScoreDifference:
    def test_identical_groups_zero(self):
        data = GroupedOutcomes(group=[0, 0, 1, 1], label=[0, 1, 0, 1],
                               score_hat=[0.2, 0.8, 0.2, 0.8], label_hat=[0, 1, 0, 1])
        assert mean_score_difference(data) == 0.0

    def test_direct_arithmetic(self):
        data = GroupedOutcomes(group=[1, 1, 0, 0], label=[0, 0, 0, 0],
                               score_hat=[0.2, 0.4, 0.6, 0.8], label_hat=[0, 0, 1, 1])
        assert mean_score_difference(data) == pytest.approx(-0.4, abs=1e-15)

    def test_constant_scores_zero(self):
        data = GroupedOutcomes(group=[0, 1], label=[1, 1],
                               score_hat=[1.0, 1.0], label_hat=[1, 1])
        assert mean_score_difference(data) == 0.0

    def test_missing_group_errors(self):
        data = GroupedOutcomes(group=[0, 0], label=[0, 1],
                               score_hat=[0.1, 0.9], label_hat=[0, 1])
        with pytest.raises(UndefinedMetricError, match="group 1"):
            mean_score_difference(data)


class TestResidualDifference:
    def test_perfect_predictions_zero(self):
        data = GroupedOutcomes(group=[0, 0, 1, 1], label=[0, 1, 0, 1],
                               score_hat=[0.0, 1.0, 0.0, 1.0], label_hat=[0, 1, 0, 1])
        assert residual_difference(data) == 0.0

    def test_confusion_fixture(self, confusion_fixture):
        assert residual_difference(confusion_fixture) == pytest.approx(-0.4, abs=1e-12)

    def test_constant_shift_cancels(self):
        rng = np.random.default_rng(4)
        data = GroupedOutcomes(group=rng.integers(0, 2, 40),
                               label=rng.integers(0, 2, 40),
                               score_hat=rng.random(40) * 0.5,
                               label_hat=rng.integers(0, 2, 40))
        shifted = GroupedOutcomes(group=data.group, label=data.label,
                                  score_hat=data.score_hat + 0.3,
                                  label_hat=data.label_hat)
        assert residual_difference(shifted) == pytest.approx(
            residual_difference(data), abs=1e-12)


class TestEqualOpportunity:
    def test_confusion_fixture(self, confusion_fixture):
        assert equal_opportunity_difference(confusion_fixture) == pytest.approx(
            20 / 50 - 45 / 50, abs=1e-15)

    def test_perfect_classifier_zero(self):
        data = build_outcomes([(0, 1, 1, 5), (0, 0, 0, 5), (1, 1, 1, 5), (1, 0, 0, 5)])
        assert equal_opportunity_difference(data) == 0.0

    def test_empty_cell_errors(self):
        data = build_outcomes([(0, 1, 1, 5), (0, 0, 0, 5), (1, 0, 0, 5)])
        with pytest.raises(UndefinedMetricError, match="S=1, Y=1"):
            equal_opportunity_difference(data)


class TestEqualMisopportunity:
    def test_confusion_fixture(self, confusion_fixture):
        assert equal_misopportunity_difference(confusion_fixture) == pytest.approx(
            10 / 50 - 25 / 50, abs=1e-15)

    def test_all_negative_classifier_zero(self):
        data = build_outcomes([(0, 1, 0, 5), (0, 0, 0, 5), (1, 1, 0, 5), (1, 0, 0, 5)])
        assert equal_misopportunity_difference(data) == 0.0

    def test_empty_cell_errors(self):
        data = build_outcomes([(0, 1, 1, 5), (1, 0, 0, 5), (1, 1, 1, 5)])
        with pytest.raises(UndefinedMetricError, match="S=0, Y=0"):
            equal_misopportunity_difference(data)


class TestDisparateImpact:
    def test_confusion_fixture(self, confusion_fixture):
        assert disparate_impact(confusion_fixture) == pytest.approx(3 / 7, abs=1e-15)

    def test_equal_rates_is_one(self):
        data = build_outcomes([(0, 1, 1, 3), (0, 0, 0, 3), (1, 1, 1, 3), (1, 0, 0, 3)])
        assert disparate_impact(data) == pytest.approx(1.0, abs=1e-15)

    def test_zero_denominator_undefined(self):
        data = build_outcomes([(0, 0, 0, 5), (1, 1, 1, 5)])
        assert disparate_impact(data) is None


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-15)

    def test_degenerate(self):
        assert entropy([1.0, 0.0]) == 0.0

    def test_skewed(self):
        expected = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
        assert entropy([0.9, 0.1]) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.3251, abs=1e-4)

    def test_invalid_distribution(self):
        with pytest.raises(ValidationError):
            entropy([0.5, 0.6])
        with pytest.raises(ValidationError):
            entropy([-0.1, 1.1])


class TestNMI:
    def test_perfect_dependence(self):
        data = build_outcomes([(0, 0, 0, 10), (1, 1, 1, 10)])
        assert normalized_mutual_information(data) == pytest.approx(1.0, abs=1e-12)

    def test_independence_zero(self):
        data = build_outcomes([(0, 0, 0, 6), (0, 0, 1, 4), (1, 0, 0, 6), (1, 0, 1, 4)])
        assert normalized_mutual_information(data) == pytest.approx(0.0, abs=1e-12)

    def test_joint_30_70(self):
        # joint counts n[yhat=1][s=1]=30, n[0][1]=70, n[1][0]=70, n[0][0]=30
        nmi = nmi_from_counts(np.array([[30.0, 70.0], [70.0, 30.0]]))
        assert nmi == pytest.approx(0.1187, abs=1e-3)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            counts = rng.integers(0, 50, size=(2, 2)).astype(float)
            if counts.sum() == 0:
                continue
            assert nmi_from_counts(counts) == pytest.approx(
                nmi_from_counts(counts.T), abs=1e-12)

    def test_log_base_invariance(self):
        def nmi_base2(counts):
            p = counts / counts.sum()
            py, ps = p.sum(axis=1), p.sum(axis=0)
            h = lambda q: -sum(x * math.log2(x) for x in q if x > 0)
            hy, hs = h(py), h(ps)
            if hy == 0 or hs == 0:
                return 0.0
            mi = sum(p[i][j] * math.log2(p[i][j] / (py[i] * ps[j]))
                     for i in (0, 1) for j in (0, 1) if p[i][j] > 0)
            return mi / math.sqrt(hy * hs)

        rng = np.random.default_rng(9)
        for _ in range(50):
            counts = rng.integers(1, 100, size=(2, 2)).astype(float)
            assert nmi_from_counts(counts) == pytest.approx(
                nmi_base2(counts), abs=1e-12)

    def test_degenerate_prediction_margin_zero(self):
        data = build_outcomes([(0, 0, 1, 5), (1, 0, 1, 5)])
        assert normalized_mutual_information(data) == 0.0


class TestAuditReport:
    def test_fixture_report(self, confusion_fixture):
        report = audit(confusion_fixture)
        assert report.mean_score_diff.value == pytest.approx(-0.4, abs=1e-12)
        assert report.residual_diff.value == pytest.approx(-0.4, abs=1e-12)
        assert report.equal_opportunity_diff.value == pytest.approx(-0.5, abs=1e-12)
        assert report.equal_misopportunity_diff.value == pytest.approx(-0.3, abs=1e-12)
        assert report.disparate_impact.value == pytest.approx(3 / 7, abs=1e-12)
        assert report.nmi.value == pytest.approx(0.1187, abs=1e-3)
        assert all(report.metric(n).status == "ok" for n in METRIC_NAMES)
        assert sum(report.cell_counts.values()) == 200

    def test_single_group_partial_report(self):
        data = build_outcomes([(1, 1, 1, 5), (1, 0, 0, 5)])
        report = audit(data)
        for name in METRIC_NAMES:
            assert report.metric(name).status in ("undefined", "error")
            assert report.metric(name).value is None

    def test_undefined_di_is_not_an_exception(self):
        data = build_outcomes([(0, 0, 0, 5), (1, 1, 1, 5)])
        report = audit(data)
        assert report.disparate_impact.status == "undefined"
        assert report.mean_score_diff.status == "ok"

    def test_json_shape(self, confusion_fixture):
        doc = audit(confusion_fixture).to_json_dict()
        assert set(doc["metrics"]) == set(METRIC_NAMES)
        for entry in doc["metrics"].values():
            assert set(entry) == {"value", "status", "detail"}
        assert len(doc["cell_counts"]) == 8

    def test_report_recomputable_from_cell_counts(self, confusion_fixture):
        report = audit(confusion_fixture)
        cc = report.cell_counts
        tpr1 = cc[(1, 1, 1)] / (cc[(1, 1, 1)] + cc[(1, 1, 0)])
        tpr0 = cc[(0, 1, 1)] / (cc[(0, 1, 1)] + cc[(0, 1, 0)])
        assert report.equal_opportunity_diff.value == pytest.approx(tpr1 - tpr0, abs=1e-15)


PUBLIC_METRICS = {
    "mean_score_diff": mean_score_difference,
    "residual_diff": residual_difference,
    "equal_opportunity_diff": equal_opportunity_difference,
    "equal_misopportunity_diff": equal_misopportunity_difference,
    "disparate_impact": disparate_impact,
    "nmi": normalized_mutual_information,
}


class TestAuditMatchesPublicFunctions:
    def test_values_equal_exactly(self):
        rng = np.random.default_rng(606)
        for max_n in (4, 12, 200):  # small draws leave groups and cells empty
            for _ in range(300):
                data = random_outcomes(rng, max_n=max_n)
                report = audit(data)
                for name, fn in PUBLIC_METRICS.items():
                    got = report.metric(name)
                    try:
                        want = fn(data)
                    except UndefinedMetricError as e:
                        assert (got.value, got.status, got.detail) == (None, "undefined",
                                                                       str(e)), name
                        continue
                    if want is None:
                        assert got.status == "undefined", name
                    assert got.value == want, name

    @pytest.mark.parametrize("cells, name, status, detail", [
        ([(0, 1, 1, 5), (0, 0, 0, 5)], "mean_score_diff", "undefined", "group 1 is absent"),
        ([(1, 1, 1, 5), (1, 0, 0, 5)], "mean_score_diff", "undefined", "group 0 is absent"),
        ([(0, 1, 1, 5), (0, 0, 0, 5)], "residual_diff", "undefined", "group 1 is absent"),
        ([(1, 1, 1, 5), (1, 0, 0, 5)], "residual_diff", "undefined", "group 0 is absent"),
        ([(0, 1, 1, 5), (0, 0, 0, 5)], "disparate_impact", "undefined", "group 1 is absent"),
        ([(1, 1, 1, 5), (1, 0, 0, 5)], "disparate_impact", "undefined", "group 0 is absent"),
        ([(0, 1, 1, 5), (0, 0, 0, 5)], "nmi", "undefined", "group 1 is absent"),
        ([(1, 1, 1, 5), (1, 0, 0, 5)], "nmi", "undefined", "group 0 is absent"),
        ([(0, 1, 1, 5), (0, 0, 0, 5), (1, 0, 0, 5)], "equal_opportunity_diff",
         "undefined", "no records with S=1, Y=1"),
        ([(0, 0, 0, 5), (1, 0, 1, 5)], "equal_opportunity_diff",
         "undefined", "no records with S=1, Y=1"),
        ([(0, 0, 0, 5), (1, 1, 1, 5), (1, 0, 0, 5)], "equal_opportunity_diff",
         "undefined", "no records with S=0, Y=1"),
        ([(0, 1, 1, 5), (1, 1, 1, 5), (1, 0, 0, 5)], "equal_misopportunity_diff",
         "undefined", "no records with S=0, Y=0"),
        ([(0, 0, 0, 5), (1, 1, 1, 5)], "disparate_impact",
         "undefined", "group-0 positive prediction rate is zero"),
        ([(0, 0, 1, 5), (1, 0, 1, 5)], "nmi",
         "ok", "degenerate prediction margin; mutual information is zero"),
        ([(0, 0, 0, 5), (1, 1, 0, 5)], "nmi",
         "ok", "degenerate prediction margin; mutual information is zero"),
        ([(0, 0, 0, 5), (1, 1, 1, 5)], "nmi", "ok", ""),
    ])
    def test_status_and_detail_strings(self, cells, name, status, detail):
        got = audit(build_outcomes(cells)).metric(name)
        assert (got.status, got.detail) == (status, detail)
        assert (got.value is None) == (status != "ok")


class TestProperties:
    def test_oracle_equivalence(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            data = random_outcomes(rng)
            for name, fn in PUBLIC_METRICS.items():
                got = _safe(fn, data)
                want = ORACLES[name](data)
                if want is None:
                    assert got is None, name
                else:
                    assert got == pytest.approx(want, abs=1e-12), name

    def test_group_swap_antisymmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            data = random_outcomes(rng)
            if not ((data.group == 0).any() and (data.group == 1).any()):
                continue
            swapped = GroupedOutcomes(group=1 - data.group, label=data.label,
                                      score_hat=data.score_hat, label_hat=data.label_hat)
            for fn in (mean_score_difference, residual_difference):
                assert fn(swapped) == pytest.approx(-fn(data), abs=1e-12)
            for fn in (equal_opportunity_difference, equal_misopportunity_difference):
                a, b = _safe(fn, data), _safe(fn, swapped)
                if a is not None and b is not None:
                    assert b == pytest.approx(-a, abs=1e-12)
            di, di_swapped = disparate_impact(data), disparate_impact(swapped)
            if di not in (None, 0.0) and di_swapped is not None:
                assert di_swapped == pytest.approx(1.0 / di, rel=1e-12)
            assert normalized_mutual_information(swapped) == pytest.approx(
                normalized_mutual_information(data), abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            data = random_outcomes(rng)
            perm = rng.permutation(data.group.size)
            shuffled = GroupedOutcomes(group=data.group[perm], label=data.label[perm],
                                       score_hat=data.score_hat[perm],
                                       label_hat=data.label_hat[perm])
            for name in METRIC_NAMES:
                a = audit(data).metric(name)
                b = audit(shuffled).metric(name)
                assert a.status == b.status, name
                if a.value is not None:
                    assert b.value == pytest.approx(a.value, abs=1e-12), name


class TestValidation:
    def test_empty_outcomes(self):
        with pytest.raises(ValidationError):
            GroupedOutcomes(group=[], label=[], score_hat=[], label_hat=[])

    def test_misaligned(self):
        with pytest.raises(ValidationError):
            GroupedOutcomes(group=[0, 1], label=[0], score_hat=[0.5, 0.5],
                            label_hat=[0, 1])

    def test_nonbinary(self):
        with pytest.raises(ValidationError):
            GroupedOutcomes(group=[0, 2], label=[0, 1], score_hat=[0.5, 0.5],
                            label_hat=[0, 1])

    @pytest.mark.parametrize("name,values", [("group", [0.0, 1.9, 0.5, 1.0]),
                                             ("label", [0.7, 1, 0, 1]),
                                             ("label_hat", [0, 1, 1, 0.99])])
    def test_non_integer_binary_rejected(self, name, values):
        columns = dict(group=[0, 1, 0, 1], label=[0, 1, 0, 1],
                       score_hat=[.2, .4, .6, .8], label_hat=[0, 1, 1, 0])
        columns[name] = values
        with pytest.raises(ValidationError, match=f"^{name} must be 0 or 1"):
            GroupedOutcomes(**columns)

    def test_score_out_of_range(self):
        with pytest.raises(ValidationError):
            GroupedOutcomes(group=[0, 1], label=[0, 1], score_hat=[0.5, 1.5],
                            label_hat=[0, 1])
