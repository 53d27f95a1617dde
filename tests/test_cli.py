import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fairaudit
from fairaudit.bias import ALL_BIAS_SPECS, write_labeled_csv
from fairaudit.datagen import write_population_csv
from fairaudit.harness import build_base, load_config, stable_hash, trial_dataset
from fairaudit.cli import (COMPRESSED_EXTENSIONS, PREDICTION_COLUMNS, _loadtxt, _parses,
                           _read_predictions_csv, main)
from oracles import read_predictions_oracle

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

    def test_matches_base_dataset_B(self, config_file, tmp_path):
        # experiment B's base dataset is the population itself, seeded the same way
        out, base = tmp_path / "pop.csv", tmp_path / "base.csv"
        assert main(["generate", "--config", config_file, "--out", str(out)]) == 0
        write_population_csv(build_base(load_config(config_file)), base)
        assert out.read_bytes() == base.read_bytes()

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

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_samples_with_build_seed(self, config_file, tmp_path, k):
        # build's own seed scheme, stable_hash(base_seed, k, "build"), matches no trial
        out, expected = tmp_path / "cli.csv", tmp_path / "lib.csv"
        assert main(["build", "--config", config_file, "--dataset", str(k),
                     "--out", str(out)]) == 0
        config = load_config(config_file)
        spec = next(s for s in ALL_BIAS_SPECS if s.dataset_index == k)
        write_labeled_csv(trial_dataset(config, spec, stable_hash(config.base_seed, k, "build"),
                                        build_base(config)), expected)
        assert out.read_bytes() == expected.read_bytes()


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

    @pytest.mark.parametrize("body, line", [
        ("x,0,0.5,1\n", 2),                              # bad first row
        ("1,1,0.5,1\n0,0,0.5\n", 3),                     # short row
        ("1,1,0.5,1\n\n\n0,0,0.5,zz\n", 5),              # after blank lines
    ])
    def test_malformed_row_names_physical_line(self, tmp_path, capsys, body, line):
        path = tmp_path / "bad.csv"
        path.write_text(FIXTURE_CSV_HEADER + body)
        assert main(["audit", "--input", str(path),
                     "--out", str(tmp_path / "r.json")]) == 3
        assert f"line {line}:" in capsys.readouterr().err

    def test_header_only_exits_3(self, tmp_path, capsys):
        path = tmp_path / "header.csv"
        path.write_text(FIXTURE_CSV_HEADER)
        assert main(["audit", "--input", str(path),
                     "--out", str(tmp_path / "r.json")]) == 3
        assert "no data rows" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [1, 5000])
    def test_non_utf8_exits_3(self, tmp_path, capsys, rows):
        path = tmp_path / "latin.csv"
        path.write_bytes(FIXTURE_CSV_HEADER.encode() + b"1,1,0.5,1\n" * rows
                         + b"\xff,0,0.5,0\n")
        out = tmp_path / "r.json"
        assert main(["audit", "--input", str(path), "--out", str(out)]) == 3
        assert "UTF-8" in capsys.readouterr().err
        assert not out.exists()

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

    def test_non_finite_config_value_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nan.cfg"
        path.write_text(SMALL_CFG + "tolerance = nan\n")
        out = tmp_path / "report"
        assert main(["experiment", "--config", str(path), "--out", str(out)]) == 2
        assert "tolerance must be finite" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_config_error_names_file_section_and_key(self, tmp_path, capsys):
        path = tmp_path / "nan.cfg"
        path.write_text("[model]\nlambda = nan\n")
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        assert (f"error: invalid config {path}: [model] lambda must be finite, got nan"
                in capsys.readouterr().err)

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
        for doc in ({"datasets": {"1": {}}}, [], {"datasets": []}, {"datasets": {"1": 2}},
                    {"datasets": {"x": {"metrics": {"nmi": {"mean": 0.1}}}}},
                    {"datasets": {"1": {"metrics": {"nmi": {"mean": "0.1"}}}}},
                    {"datasets": {"1": {"metrics": {"nmi": {"mean": True}}}}},
                    {"datasets": {"1": {"metrics": {"nmi": {"mean": 0.1}}},
                                  "2": {"metrics": {"nmi": {"mean": math.nan}}}}},
                    {"datasets": {"1": {"metrics": {"nmi": {"mean": math.inf}}}}},
                    {"datasets": {"1": {"metrics": {"nmi": {"mean": -math.inf}}}}},
                    {"datasets": {"1": {"metrics": {"nmi": {"mean": 10 ** 400}}}}}):
            path.write_text(json.dumps(doc))
            assert main(["rank", "--report", str(path), "--metric", "nmi"]) == 3, doc


def test_import_leaves_scipy_unloaded():
    # audit and rank never use scipy; its import would be most of their start-up
    src = str(Path(fairaudit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, fairaudit, fairaudit.cli, fairaudit.harness; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


HEADER = FIXTURE_CSV_HEADER

# inputs csv.DictReader with int()/float() accepts
ACCEPTED = {
    "plain": HEADER + "1,1,0.5,1\n0,0,0.25,0",
    "reordered": "label_hat,score_hat,label,group\n1,0.25,0,1\n0,0.75,1,0\n",
    "extra and quoted": ('id,group,note,label,score_hat,label_hat\n'
                         '7,1,"a,b",0,0.5,1\n8,"0","say ""hi""",1,"0.25",0\n'),
    "multi-line quoted extra": 'note,group,label,score_hat,label_hat\n"a\nb",1,0,0.5,1\n',
    "crlf": HEADER.replace("\n", "\r\n") + "1,1,0.5,1\r\n0,0,0.125,0\r\n",
    "cr": HEADER.replace("\n", "\r") + "1,1,0.5,1\r0,0,0.125,0\r",
    "multi-line quoted header": 'x,"a\nb",group,label,score_hat,label_hat\n9,q,1,0,0.5,1\n',
    "blank lines": HEADER + "\n1,1,0.5,1\n\n\n0,0,0.25,0\n\n",
    "padded": HEADER + " 1 ,0\t, 0.5 ,1 \n\t0,+1,5e-1 , -0\n",
    "repeated name": ("group,label_hat,label,score_hat,label_hat,group\n"
                      "0,zz,1,0.5,1,1\n"),
    "long row": HEADER + "1,1,0.5,1,9,9\n",
    "score spellings": HEADER + "1,1,.5,1\n0,0,1.,1\n0,0,0E0,0\n",
}

# inputs it rejects, at the line it names (beside TestAudit's line-number cases)
REJECTED = {
    "float in int column": HEADER + "1,1,0.5,1\n1.0,0,0.5,1\n",
    "empty field": HEADER + "1,,0.5,1\n",
    "whitespace line": HEADER + "1,1,0.5,1\n   \n",
    "crlf blank lines": HEADER.replace("\n", "\r\n") + "\r\n1,0,0.5,1\r\n1,0,x,1\r\n",
    "after multi-line quote": ('note,group,label,score_hat,label_hat\n'
                               '"a\nb",1,0,0.5,1\n1,0,0,0.5,q\n'),
    "after multi-line quoted header": ('x,"a\nb",group,label,score_hat,label_hat\n'
                                       '9,q,1,0,0.5,1\n9,q,1,0,zz,1\n'),
    "repeated name, last bad": "group,label,score_hat,label_hat,group\n0,1,0.5,1,?\n",
}


def _write(tmp_path, text):
    path = tmp_path / "preds.csv"
    path.write_bytes(text.encode())
    return path


class TestPredictionsReader:
    @pytest.mark.parametrize("name", ACCEPTED)
    def test_accepted_inputs_match_oracle(self, tmp_path, name):
        path = _write(tmp_path, ACCEPTED[name])
        want, bad_line = read_predictions_oracle(path)
        assert bad_line is None
        data = _read_predictions_csv(str(path))
        for column, _ in PREDICTION_COLUMNS:
            got = getattr(data, column)
            assert got.dtype == want[column].dtype, column
            assert got.flags.c_contiguous, column
            assert np.array_equal(got, want[column]), column

    @pytest.mark.parametrize("name", REJECTED)
    def test_rejected_inputs_name_oracle_line(self, tmp_path, capsys, name):
        path = _write(tmp_path, REJECTED[name])
        _, bad_line = read_predictions_oracle(path)
        assert bad_line is not None
        assert main(["audit", "--input", str(path),
                     "--out", str(tmp_path / "r.json")]) == 3
        assert f": line {bad_line}: column " in capsys.readouterr().err

    @pytest.mark.parametrize("body", ["0_1,0,0.5,1\n", "\u0661,0,0.5,1\n",
                                      "1,0,0.5_0,1\n", "1,0,\u0660.5,1\n"])
    def test_python_only_number_spellings_rejected(self, tmp_path, capsys, body):
        path = _write(tmp_path, HEADER + "1,1,0.5,1\n" + body)
        assert read_predictions_oracle(path)[1] is None
        assert main(["audit", "--input", str(path),
                     "--out", str(tmp_path / "r.json")]) == 3
        assert ": line 3: column " in capsys.readouterr().err

    def test_error_scan_agrees_with_loadtxt(self):
        fields = ["1", " 1 ", "+1", "-0", "\t0\x0b", "1.0", "0_1", "\u0661", "", " ",
                  "1 1", "0x1", "9223372036854775807", "9223372036854775808",
                  "-9223372036854775809", "0.5", " .5 ", "5e-1", "1.", "nan", "-inf",
                  "Infinity", "0.5_0", "0x1p-1", "1e", "\u0660.5", "0.5\x85", "0.5\x01",
                  "\u00bd", "1e999", "--1", "+-1"]
        for dtype in (np.int64, np.float64):
            for field in fields:
                try:
                    _loadtxt([f"0,{field}"], dtype, [1])
                    accepted = True
                except ValueError:
                    accepted = False
                assert _parses(field, dtype) == accepted, (field, dtype)

    @pytest.mark.filterwarnings("default")  # the reader alone must turn the warning into an error
    @pytest.mark.parametrize("body", ["1,0.7,0.5,1\n", "1,1.0,0.5,1\n", "1.9,0,0.5,1\n"])
    def test_float_in_int_column_rejected_under_numpy_1x(self, tmp_path, capsys, monkeypatch,
                                                         body):
        real_loadtxt = np.loadtxt

        def loadtxt_1x(source, dtype, **kwargs):
            # numpy 1.23-1.26: a float in an int column is cast after one DeprecationWarning
            try:
                return real_loadtxt(source, dtype, **kwargs)
            except ValueError:
                pass
            try:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning)
            except DeprecationWarning as e:
                raise ValueError("could not convert string to int64") from e
            as_float = [(name, np.float64) for name, _ in dtype]
            return real_loadtxt(source, as_float, **kwargs).astype(dtype)

        monkeypatch.setattr(np, "loadtxt", loadtxt_1x)
        path = _write(tmp_path, HEADER + "1,1,0.5,1\n" + body)
        assert main(["audit", "--input", str(path),
                     "--out", str(tmp_path / "r.json")]) == 3
        assert ": line 3: column " in capsys.readouterr().err

    def test_compressed_extensions_match_numpy(self):
        assert sorted(COMPRESSED_EXTENSIONS) == sorted(
            ext for ext in np.lib._datasource._file_openers.keys() if ext is not None)

    @pytest.mark.parametrize("extension", COMPRESSED_EXTENSIONS)
    def test_compressed_extension_exits_3(self, tmp_path, capsys, extension):
        path = tmp_path / f"preds.csv{extension}"
        path.write_text(ACCEPTED["plain"])
        out = tmp_path / "r.json"
        assert main(["audit", "--input", str(path), "--out", str(out)]) == 3
        assert f"compressed input ({extension})" in capsys.readouterr().err
        assert not out.exists()
