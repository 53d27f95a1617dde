import csv
import json

import pytest

from fairaudit.cli import main

SMALL_CFG = """\
[experiment]
name = B
trials = 2
base_seed = 31

[population]
n_group0 = 1500
n_group1 = 1500
positive_rate_group0 = 0.5408
positive_rate_group1 = 0.1217
noise_scale = 3.0

[model]
lambda = 0.01
"""

FIXTURE_CSV_HEADER = "group,label,score_hat,label_hat\n"


def fixture_rows():
    cells = [(1, 1, 1, 20), (1, 1, 0, 30), (1, 0, 1, 10), (1, 0, 0, 40),
             (0, 1, 1, 45), (0, 1, 0, 5), (0, 0, 1, 25), (0, 0, 0, 25)]
    lines = []
    for s, y, yhat, count in cells:
        lines.extend(f"{s},{y},{yhat}.0,{yhat}\n" for _ in range(count))
    return lines


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return str(path)


@pytest.fixture
def fixture_csv(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text(FIXTURE_CSV_HEADER + "".join(fixture_rows()))
    return str(path)


class TestGenerate:
    def test_writes_population(self, config_file, tmp_path, capsys):
        out = tmp_path / "pop.csv"
        assert main(["generate", "--config", config_file, "--out", str(out)]) == 0
        assert "wrote 3000 records" in capsys.readouterr().out
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3000

    def test_deterministic(self, config_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", "--config", config_file, "--out", str(a)])
        main(["generate", "--config", config_file, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_output(self, config_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", "--config", config_file, "--out", str(a)])
        main(["generate", "--config", config_file, "--out", str(b), "--seed", "77"])
        assert a.read_bytes() != b.read_bytes()

    def test_missing_config_exits_2_no_partial_output(self, tmp_path, capsys):
        out = tmp_path / "pop.csv"
        code = main(["generate", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err


class TestBuild:
    def test_writes_labeled_csv(self, config_file, tmp_path, capsys):
        out = tmp_path / "d2.csv"
        code = main(["build", "--config", config_file, "--dataset", "2",
                     "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {"id", "group", "score", "label"} <= set(rows[0])
        assert all(r["label"] in ("0", "1") for r in rows)
        # biased sampling keeps all of group 1 and thins group 0
        n0 = sum(1 for r in rows if r["group"] == "0")
        n1 = sum(1 for r in rows if r["group"] == "1")
        assert n1 == 1500 and n0 < 1500

    def test_invalid_dataset_index_exits_2(self, config_file, tmp_path):
        assert main(["build", "--config", config_file, "--dataset", "5",
                     "--out", str(tmp_path / "x.csv")]) == 2


class TestAudit:
    def test_fixture_values_json(self, fixture_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["audit", "--input", fixture_csv, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        m = doc["metrics"]
        assert m["equal_opportunity_diff"]["value"] == pytest.approx(-0.5)
        assert m["equal_misopportunity_diff"]["value"] == pytest.approx(-0.3)
        assert m["disparate_impact"]["value"] == pytest.approx(3 / 7)
        assert m["residual_diff"]["value"] == pytest.approx(-0.4)
        assert m["mean_score_diff"]["value"] == pytest.approx(-0.4)
        assert m["nmi"]["value"] == pytest.approx(0.1187, abs=1e-3)
        assert "equal_opportunity_diff" in capsys.readouterr().out

    def test_csv_format(self, fixture_csv, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["audit", "--input", fixture_csv, "--out", str(out),
                     "--format", "csv"]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        values = {r["metric"]: float(r["value"]) for r in rows}
        assert values["disparate_impact"] == pytest.approx(3 / 7)

    def test_empty_file_exits_3(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert main(["audit", "--input", str(path),
                     "--out", str(tmp_path / "r.json")]) == 3
        assert "empty" in capsys.readouterr().err

    def test_malformed_row_reports_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(FIXTURE_CSV_HEADER + "1,1,0.5,1\n0,oops,0.5,0\n1,0,0.5,0\n")
        assert main(["audit", "--input", str(path),
                     "--out", str(tmp_path / "r.json")]) == 3
        assert "line 3" in capsys.readouterr().err

    def test_nan_score_exits_3(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text(FIXTURE_CSV_HEADER + "1,1,0.5,1\n0,0,nan,0\n1,0,0.5,0\n")
        out = tmp_path / "r.json"
        assert main(["audit", "--input", str(path), "--out", str(out)]) == 3
        assert "score_hat" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_column_exits_3(self, tmp_path, capsys):
        path = tmp_path / "cols.csv"
        path.write_text("group,label,score_hat\n1,1,0.5\n")
        assert main(["audit", "--input", str(path),
                     "--out", str(tmp_path / "r.json")]) == 3
        assert "label_hat" in capsys.readouterr().err

    def test_single_group_undefined_metrics_exit_0(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text(FIXTURE_CSV_HEADER
                        + "".join(f"1,{i % 2},0.5,{(i + 1) % 2}\n" for i in range(20)))
        out = tmp_path / "r.json"
        assert main(["audit", "--input", str(path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["metrics"]["mean_score_diff"]["status"] == "undefined"
        assert doc["metrics"]["mean_score_diff"]["value"] is None
        assert "undefined" in capsys.readouterr().out


class TestExperiment:
    def test_writes_json_and_csv(self, config_file, tmp_path, capsys):
        out = tmp_path / "report"
        code = main(["experiment", "--config", config_file, "--out", str(out)])
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert set(doc["datasets"]) == {"1", "2", "3", "4"}
        with open(tmp_path / "report.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["dataset", "metric", "trial", "value", "status"]
        assert "dataset 4" in capsys.readouterr().out

    def test_trials_override_single_trial_zero_std(self, config_file, tmp_path):
        out = tmp_path / "one"
        assert main(["experiment", "--config", config_file, "--out", str(out),
                     "--trials", "1"]) == 0
        doc = json.loads((tmp_path / "one.json").read_text())
        for d in doc["datasets"].values():
            for m in d["metrics"].values():
                if m["mean"] is not None:
                    assert m["std"] == 0.0

    def test_reruns_byte_identical(self, config_file, tmp_path):
        main(["experiment", "--config", config_file, "--out",
              str(tmp_path / "r1"), "--trials", "1"])
        main(["experiment", "--config", config_file, "--out",
              str(tmp_path / "r2"), "--trials", "1"])
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


class TestRank:
    @pytest.fixture
    def report_json(self, config_file, tmp_path):
        out = tmp_path / "rep"
        main(["experiment", "--config", config_file, "--out", str(out),
              "--trials", "1"])
        return str(tmp_path / "rep.json")

    def test_rank_prints_ordering(self, report_json, capsys):
        assert main(["rank", "--report", report_json,
                     "--metric", "mean_score_diff"]) == 0
        out = capsys.readouterr().out
        assert "least to most biased" in out
        assert " < " in out

    def test_rank_missing_report_exits_2(self, tmp_path, capsys):
        assert main(["rank", "--report", str(tmp_path / "nope.json"),
                     "--metric", "nmi"]) == 2

    def test_rank_invalid_metric_exits_2(self, report_json):
        assert main(["rank", "--report", report_json, "--metric", "bogus"]) == 2

    def test_rank_malformed_report_exits_3(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{\"datasets\": {\"1\": {}}}")
        assert main(["rank", "--report", str(path), "--metric", "nmi"]) == 3
