import math
from dataclasses import fields

import numpy as np
import pytest

from fairaudit import GroupedOutcomes, audit
from fairaudit.errors import ValidationError
from fairaudit.metrics import (METRIC_NAMES, METRICS, MetricValue, _by_group, cell_counts,
                               nmi_from_counts)

from conftest import build_outcomes, outcomes_from_fields, random_outcomes
from oracles import ORACLES, cell_counts_exact_oracle, group_mean_difference_exact_oracle


def value(data, name):
    """The audited value of one metric; None where it is undefined."""
    return audit(data).metric(name).value


def assert_undefined(data, name, detail):
    got = audit(data).metric(name)
    assert (got.value, got.status) == (None, "undefined")
    assert detail in got.detail


class TestMeanScoreDifference:
    def test_identical_groups_zero(self):
        data = GroupedOutcomes(group=[0, 0, 1, 1], label=[0, 1, 0, 1],
                               score_hat=[0.2, 0.8, 0.2, 0.8], label_hat=[0, 1, 0, 1])
        assert value(data, "mean_score_diff") == 0.0

    def test_direct_arithmetic(self):
        data = GroupedOutcomes(group=[1, 1, 0, 0], label=[0, 0, 0, 0],
                               score_hat=[0.2, 0.4, 0.6, 0.8], label_hat=[0, 0, 1, 1])
        assert value(data, "mean_score_diff") == pytest.approx(-0.4, abs=1e-15)

    def test_constant_scores_zero(self):
        data = GroupedOutcomes(group=[0, 1], label=[1, 1],
                               score_hat=[1.0, 1.0], label_hat=[1, 1])
        assert value(data, "mean_score_diff") == 0.0

    def test_missing_group_errors(self):
        data = GroupedOutcomes(group=[0, 0], label=[0, 1],
                               score_hat=[0.1, 0.9], label_hat=[0, 1])
        assert_undefined(data, "mean_score_diff", "group 1")


class TestResidualDifference:
    def test_perfect_predictions_zero(self):
        data = GroupedOutcomes(group=[0, 0, 1, 1], label=[0, 1, 0, 1],
                               score_hat=[0.0, 1.0, 0.0, 1.0], label_hat=[0, 1, 0, 1])
        assert value(data, "residual_diff") == 0.0

    def test_confusion_fixture(self, confusion_fixture):
        assert value(confusion_fixture, "residual_diff") == pytest.approx(-0.4, abs=1e-12)

    def test_constant_shift_cancels(self):
        rng = np.random.default_rng(4)
        data = GroupedOutcomes(group=rng.integers(0, 2, 40),
                               label=rng.integers(0, 2, 40),
                               score_hat=rng.random(40) * 0.5,
                               label_hat=rng.integers(0, 2, 40))
        shifted = GroupedOutcomes(group=data.group, label=data.label,
                                  score_hat=data.score_hat + 0.3,
                                  label_hat=data.label_hat)
        assert value(shifted, "residual_diff") == pytest.approx(
            value(data, "residual_diff"), abs=1e-12)


class TestEqualOpportunity:
    def test_confusion_fixture(self, confusion_fixture):
        assert value(confusion_fixture, "equal_opportunity_diff") == pytest.approx(
            20 / 50 - 45 / 50, abs=1e-15)

    def test_perfect_classifier_zero(self):
        data = build_outcomes([(0, 1, 1, 5), (0, 0, 0, 5), (1, 1, 1, 5), (1, 0, 0, 5)])
        assert value(data, "equal_opportunity_diff") == 0.0

    def test_empty_cell_errors(self):
        data = build_outcomes([(0, 1, 1, 5), (0, 0, 0, 5), (1, 0, 0, 5)])
        assert_undefined(data, "equal_opportunity_diff", "S=1, Y=1")


class TestEqualMisopportunity:
    def test_confusion_fixture(self, confusion_fixture):
        assert value(confusion_fixture, "equal_misopportunity_diff") == pytest.approx(
            10 / 50 - 25 / 50, abs=1e-15)

    def test_all_negative_classifier_zero(self):
        data = build_outcomes([(0, 1, 0, 5), (0, 0, 0, 5), (1, 1, 0, 5), (1, 0, 0, 5)])
        assert value(data, "equal_misopportunity_diff") == 0.0

    def test_empty_cell_errors(self):
        data = build_outcomes([(0, 1, 1, 5), (1, 0, 0, 5), (1, 1, 1, 5)])
        assert_undefined(data, "equal_misopportunity_diff", "S=0, Y=0")


class TestDisparateImpact:
    def test_confusion_fixture(self, confusion_fixture):
        assert value(confusion_fixture, "disparate_impact") == pytest.approx(3 / 7, abs=1e-15)

    def test_equal_rates_is_one(self):
        data = build_outcomes([(0, 1, 1, 3), (0, 0, 0, 3), (1, 1, 1, 3), (1, 0, 0, 3)])
        assert value(data, "disparate_impact") == pytest.approx(1.0, abs=1e-15)

    def test_zero_denominator_undefined(self):
        data = build_outcomes([(0, 0, 0, 5), (1, 1, 1, 5)])
        got = audit(data).metric("disparate_impact")
        assert (got.value, got.status, got.detail) == (
            None, "undefined", "group-0 positive prediction rate is zero")


class TestNMI:
    def test_perfect_dependence(self):
        data = build_outcomes([(0, 0, 0, 10), (1, 1, 1, 10)])
        assert value(data, "nmi") == pytest.approx(1.0, abs=1e-12)

    def test_independence_zero(self):
        data = build_outcomes([(0, 0, 0, 6), (0, 0, 1, 4), (1, 0, 0, 6), (1, 0, 1, 4)])
        assert value(data, "nmi") == pytest.approx(0.0, abs=1e-12)

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
        assert value(data, "nmi") == 0.0

    # a margin with a zero entry has zero entropy (0 * log 0 := 0), whichever margin it is
    @pytest.mark.parametrize("counts", [[[0, 0], [3, 7]], [[4, 0], [6, 0]]])
    def test_one_valued_margin_zero(self, counts):
        assert nmi_from_counts(counts) == 0.0

    # when Ŷ fixes S, MI equals each margin's entropy, so NMI is 1 at any skew
    @pytest.mark.parametrize("counts", [[[50, 0], [0, 50]], [[90, 0], [0, 10]],
                                        [[0, 10], [90, 0]]])
    def test_bijection_one_at_any_skew(self, counts):
        assert nmi_from_counts(counts) == pytest.approx(1.0, abs=1e-12)

    def test_skewed_margin_value(self):
        # Ŷ margin 0.9/0.1 (entropy 0.3251), S margin 0.45/0.55, one empty cell
        h = lambda q: -sum(x * math.log(x) for x in q)
        mi = (0.45 * math.log(0.45 / (0.9 * 0.45)) + 0.45 * math.log(0.45 / (0.9 * 0.55))
              + 0.1 * math.log(0.1 / (0.1 * 0.55)))
        expected = mi / math.sqrt(h([0.9, 0.1]) * h([0.45, 0.55]))
        assert h([0.9, 0.1]) == pytest.approx(0.3251, abs=1e-4)
        assert nmi_from_counts([[45, 45], [0, 10]]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.1360, abs=1e-4)

    # the last table's counts are finite, but their total overflows to inf
    @pytest.mark.parametrize("counts", [[[math.nan, 1], [1, 1]], [[math.inf, 1], [1, 1]],
                                        [[1, 1], [1, -math.inf]], [[1e308, 1e308], [1, 1]]])
    def test_non_finite_counts_rejected(self, counts):
        with np.errstate(over="ignore"), pytest.raises(ValidationError,
                                                       match="counts must be finite"):
            nmi_from_counts(counts)

    @pytest.mark.parametrize("counts, message", [
        ([1, 2, 3, 4], "counts must be a 2x2 table"),
        (np.ones((2, 2, 2)), "counts must be a 2x2 table"),
        ([[1, -1], [1, 1]], "counts must be nonnegative"),
        ([[0, 0], [0, 0]], "counts must not all be zero"),
    ])
    def test_malformed_counts_rejected(self, counts, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            nmi_from_counts(counts)


class TestAuditReport:
    def test_fixture_report(self, confusion_fixture):
        report = audit(confusion_fixture)
        assert report.metric("mean_score_diff").value == pytest.approx(-0.4, abs=1e-12)
        assert report.metric("residual_diff").value == pytest.approx(-0.4, abs=1e-12)
        assert report.metric("equal_opportunity_diff").value == pytest.approx(-0.5, abs=1e-12)
        assert report.metric("equal_misopportunity_diff").value == pytest.approx(-0.3, abs=1e-12)
        assert report.metric("disparate_impact").value == pytest.approx(3 / 7, abs=1e-12)
        assert report.metric("nmi").value == pytest.approx(0.1187, abs=1e-3)
        assert all(report.metric(n).status == "ok" for n in METRIC_NAMES)
        assert report.cell_counts.sum() == 200

    def test_single_group_partial_report(self):
        data = build_outcomes([(1, 1, 1, 5), (1, 0, 0, 5)])
        report = audit(data)
        for name in METRIC_NAMES:
            assert report.metric(name).status == "undefined"
            assert report.metric(name).value is None

    def test_undefined_di_is_not_an_exception(self):
        data = build_outcomes([(0, 0, 0, 5), (1, 1, 1, 5)])
        report = audit(data)
        assert report.metric("disparate_impact").status == "undefined"
        assert report.metric("mean_score_diff").status == "ok"

    def test_status_follows_value(self):
        assert [f.name for f in fields(MetricValue)] == ["value", "detail"]
        assert MetricValue(0.0).status == "ok" and MetricValue(None, "why").status == "undefined"
        assert (MetricValue(-1 / 3).csv_text, MetricValue(None).csv_text) == ("-0.333333333333", "")

    def test_unknown_metric_name_rejected(self, confusion_fixture):
        with pytest.raises(ValidationError, match="unknown metric 'accuracy'"):
            audit(confusion_fixture).metric("accuracy")

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
        assert report.metric("equal_opportunity_diff").value == pytest.approx(
            tpr1 - tpr0, abs=1e-15)


# every status and detail string audit reports, pinned per metric
STATUS_CASES = [
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
]
# each metric function is called on three mixed outcome sets, then on every other
# outcome set of STATUS_CASES that leaves a metric undefined
FUNCTION_CASES = list({tuple(cells): cells for cells in (
    [(0, 0, 1, 5), (1, 0, 1, 5)], [(0, 0, 0, 5), (1, 1, 1, 5)],
    [(0, 1, 0, 3), (0, 0, 1, 4), (1, 1, 1, 2), (1, 0, 0, 6)],
    *(cells for cells, _, status, _ in STATUS_CASES if status == "undefined"))}.values())


class TestAuditMatchesPublicFunctions:
    @pytest.mark.parametrize("cells, name, status, detail", STATUS_CASES)
    def test_status_and_detail_strings(self, cells, name, status, detail):
        got = audit(build_outcomes(cells)).metric(name)
        assert (got.status, got.detail) == (status, detail)
        assert (got.value is None) == (status != "ok")

    @pytest.mark.parametrize("cells", FUNCTION_CASES)
    def test_each_metric_returns_the_value_audit_reports(self, cells):
        # audit adds nothing to any metric's MetricValue, defined or not
        data = build_outcomes(cells)
        report = audit(data)
        for name, (_, fn) in METRICS.items():
            assert fn(cell_counts(data), _by_group(data)) == report.metric(name), name


class TestProperties:
    def test_oracle_equivalence(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            data = random_outcomes(rng)
            report = audit(data)
            for name in METRIC_NAMES:
                got = report.metric(name).value
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
            report, report_swapped = audit(data), audit(swapped)
            for name in ("mean_score_diff", "residual_diff"):
                assert report_swapped.metric(name).value == pytest.approx(
                    -report.metric(name).value, abs=1e-12)
            for name in ("equal_opportunity_diff", "equal_misopportunity_diff"):
                a, b = report.metric(name).value, report_swapped.metric(name).value
                if a is not None and b is not None:
                    assert b == pytest.approx(-a, abs=1e-12)
            di = report.metric("disparate_impact").value
            di_swapped = report_swapped.metric("disparate_impact").value
            if di not in (None, 0.0) and di_swapped is not None:
                assert di_swapped == pytest.approx(1.0 / di, rel=1e-12)
            assert report_swapped.metric("nmi").value == pytest.approx(
                report.metric("nmi").value, abs=1e-12)

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


class TestExactBits:
    """audit reproduces the boolean-mask group means and the one-bincount cell
    counts bit for bit, on the CLI's strided layout."""

    @pytest.mark.parametrize("share1", [0.0005, 0.03, 0.5, 0.97, 0.9995])
    @pytest.mark.parametrize("n", [1, 2, 7, 9, 16, 127, 129, 1000, 4099, 65537, 200_000])
    def test_mean_differences_and_cell_counts(self, n, share1):
        rng = np.random.default_rng([n, round(share1 * 10_000)])
        data = outcomes_from_fields(group=(rng.random(n) < share1).astype(np.int64),
                                    label=rng.integers(0, 2, n),
                                    score_hat=rng.random(n),
                                    label_hat=rng.integers(0, 2, n))
        report = audit(data)
        counts = cell_counts_exact_oracle(data.group, data.label, data.label_hat)
        assert np.array_equal(cell_counts(data), counts)
        assert np.array_equal(report.cell_counts, counts)
        both_groups = counts[0].any() and counts[1].any()
        for name, values in (("mean_score_diff", data.score_hat),
                             ("residual_diff", data.score_hat - data.label)):
            got = report.metric(name).value
            if both_groups:
                want = group_mean_difference_exact_oracle(values, data.group)
                assert got.hex() == want.hex(), name
            else:
                assert got is None, name


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

    @pytest.mark.parametrize("name", ["group", "label", "score_hat", "label_hat"])
    def test_2d_column_rejected(self, name):
        columns = dict(group=[0, 1, 0, 1], label=[0, 1, 0, 1],
                       score_hat=[.2, .4, .6, .8], label_hat=[0, 1, 1, 0])
        columns[name] = [[v] for v in columns[name]]
        with pytest.raises(ValidationError, match=f"^{name} must be a 1-D column"):
            GroupedOutcomes(**columns)

    @pytest.mark.parametrize("values", [["a", "b"], ["0.5", "0.1"], [0.5j, 0.5]])
    def test_non_numeric_score_hat_rejected(self, values):
        with pytest.raises(ValidationError, match="^score_hat must hold real numbers"):
            GroupedOutcomes(group=[0, 1], label=[0, 1], score_hat=values, label_hat=[0, 1])

    def test_score_out_of_range(self):
        with pytest.raises(ValidationError):
            GroupedOutcomes(group=[0, 1], label=[0, 1], score_hat=[0.5, 1.5],
                            label_hat=[0, 1])
