import contextlib
import csv
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import fairaudit
from fairaudit import ALL_BIAS_SPECS, cli, errors
from fairaudit.harness import (build_base, bundled_config_path, load_config, rank_datasets,
                               run_experiment, stable_hash, trial_dataset)
from fairaudit.cli import (COMPRESSED_EXTENSIONS, PREDICTION_COLUMNS, _loadtxt, _parses,
                           _read_predictions_csv, main)
from fairaudit.metrics import METRIC_NAMES, nmi_from_counts
from oracles import (ORACLES, cell_counts_exact_oracle, disparate_impact_oracle,
                     equal_misopportunity_oracle, equal_opportunity_oracle,
                     group_mean_difference_exact_oracle, read_predictions_oracle,
                     write_population_csv_oracle)

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

# the trial count comes only from the config; one trial keeps the experiment tests fast
ONE_TRIAL_CFG = SMALL_CFG.replace("trials = 2", "trials = 1")

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
def one_trial_config(tmp_path):
    path = tmp_path / "one_trial.cfg"
    path.write_text(ONE_TRIAL_CFG)
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
        # experiment B's base dataset is the population itself, seeded the same way;
        # the oracle writer pins the exported bytes as well
        out, base = tmp_path / "pop.csv", tmp_path / "base.csv"
        assert main(["generate", "--config", config_file, "--out", str(out)]) == 0
        write_population_csv_oracle(build_base(load_config(config_file)), base)
        assert out.read_bytes() == base.read_bytes()

    def test_population_depends_only_on_its_section_and_seed(self, tmp_path):
        # the bundled configs differ only outside [population]; no digest is pinned,
        # since the scores' bits depend on the platform's libm
        outs = [tmp_path / f"{name}.csv" for name in ("A", "B")]
        for name, out in zip(("A", "B"), outs):
            config = str(bundled_config_path(f"experiment_{name}.cfg"))
            assert main(["generate", "--config", config, "--out", str(out), "--seed", "5"]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert outs[0].read_bytes().count(b"\r\n") == 1 + 43331

    @pytest.mark.parametrize("key", ["positive_rate_group0", "positive_rate_group1"])
    @pytest.mark.parametrize("rate", ["0.999999999999", "1e-12"])
    def test_unreachable_rate_exits_2(self, tmp_path, capsys, key, rate):
        # inside (0, 1), but no Beta(a, b) with a + b = score_concentration (default
        # 1.0) puts that much mass above 0.5
        path, out = tmp_path / "far.cfg", tmp_path / "pop.csv"
        path.write_text("".join(f"{key} = {rate}\n" if line.startswith(key) else line
                                for line in SMALL_CFG.splitlines(keepends=True)))
        assert main(["generate", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"score_concentration 1.0 to positive rate {float(rate)!r}" in err

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

    def test_dataset_out_of_range_exits_2(self, config_file, tmp_path):
        assert main(["build", "--config", config_file, "--dataset", "5",
                     "--out", str(tmp_path / "x.csv")]) == 2

    # an integer argument is read as a predictions CSV field is: the spellings only
    # Python's int reads, a `_` and non-ASCII digits, are usage errors
    @pytest.mark.parametrize("command, option, value", [
        ("build", "--dataset", "\u0663"), ("build", "--dataset", "0_3"),
        ("generate", "--seed", "1_0"), ("experiment", "--seed", "\u0661"),
    ])
    def test_python_only_integer_argument_exits_2(self, config_file, tmp_path, capsys,
                                                  command, option, value):
        out = tmp_path / "out"
        assert main([command, "--config", config_file, "--out", str(out), option, value]) == 2
        assert f"argument {option}: invalid integer value: {value!r}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["small.cfg"]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_samples_with_build_seed(self, config_file, tmp_path, k):
        # build's own seed scheme, stable_hash(base_seed, k, "build"), matches no trial
        out, expected = tmp_path / "cli.csv", tmp_path / "lib.csv"
        assert main(["build", "--config", config_file, "--dataset", str(k),
                     "--out", str(out)]) == 0
        config = load_config(config_file)
        spec = ALL_BIAS_SPECS[k - 1]
        write_population_csv_oracle(
            trial_dataset(config, spec, stable_hash(config.base_seed, k, "build"),
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

    @pytest.mark.parametrize("name", ["report.csv", "report.CSV"])
    def test_csv_out_writes_metric_table(self, fixture_csv, tmp_path, name):
        out = tmp_path / name
        assert main(["audit", "--input", fixture_csv, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "metric,value,status,detail"
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        values = {r["metric"]: float(r["value"]) for r in rows}
        assert values["disparate_impact"] == pytest.approx(3 / 7)

    @pytest.mark.parametrize("name", ["report.JSON", "report", "report.txt"])
    def test_other_out_writes_json_report(self, fixture_csv, tmp_path, name):
        want = tmp_path / "want.json"
        assert main(["audit", "--input", fixture_csv, "--out", str(want)]) == 0
        out = tmp_path / name
        assert main(["audit", "--input", fixture_csv, "--out", str(out)]) == 0
        assert out.read_bytes() == want.read_bytes()

    def test_format_option_is_gone(self, fixture_csv, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main(["audit", "--input", fixture_csv, "--out", str(out),
                     "--format", "csv"]) == 2
        assert "--format" in capsys.readouterr().err
        assert not out.exists()

    def test_large_csv_report_bytes_match_oracles(self, tmp_path):
        n = 100_003
        rng = np.random.default_rng(2026)
        group = (rng.random(n) < 0.07).astype(np.int64)  # unbalanced groups
        label = rng.integers(0, 2, n)
        score = rng.random(n)
        label_hat = (score + 0.2 * group >= 0.5).astype(np.int64)
        path = tmp_path / "preds.csv"
        # repr round-trips, so the CLI parses back exactly these scores
        path.write_text(FIXTURE_CSV_HEADER + "".join(
            f"{g},{y},{s!r},{p}\n" for g, y, s, p in
            zip(group.tolist(), label.tolist(), score.tolist(), label_hat.tolist())))
        outcomes = types.SimpleNamespace(group=group, label=label, score_hat=score,
                                         label_hat=label_hat)
        counts = cell_counts_exact_oracle(group, label, label_hat)
        values = {
            "mean_score_diff": group_mean_difference_exact_oracle(score, group),
            "residual_diff": group_mean_difference_exact_oracle(score - label, group),
            "equal_opportunity_diff": equal_opportunity_oracle(outcomes),
            "equal_misopportunity_diff": equal_misopportunity_oracle(outcomes),
            "disparate_impact": disparate_impact_oracle(outcomes),
            # NMI reads only the (Ŷ, S) margin of the oracle's counts
            "nmi": nmi_from_counts(counts.sum(axis=1).T),
        }
        assert list(values) == list(ORACLES)
        want_json = json.dumps({
            "metrics": {name: {"value": v, "status": "ok", "detail": ""}
                        for name, v in values.items()},
            "cell_counts": {f"s{s}_y{y}_yhat{p}": int(c)
                            for (s, y, p), c in np.ndenumerate(counts)},
        }, sort_keys=True, indent=2) + "\n"
        want_csv = "metric,value,status,detail\r\n" + "".join(
            f"{name},{v:.12g},ok,\r\n" for name, v in values.items())
        for fmt, want in (("json", want_json), ("csv", want_csv)):
            out = tmp_path / f"report.{fmt}"
            assert main(["audit", "--input", str(path), "--out", str(out)]) == 0
            assert out.read_bytes() == want.encode(), fmt

    @pytest.mark.parametrize("header", [FIXTURE_CSV_HEADER.replace(",", ", "),
                                        "\ufeff" + FIXTURE_CSV_HEADER],
                             ids=["spaced names", "byte-order mark"])
    def test_header_variant_audits_like_plain(self, fixture_csv, tmp_path, header):
        variant = tmp_path / "variant.csv"
        variant.write_bytes((header + "".join(fixture_rows())).encode())
        for path, out in ((fixture_csv, "plain.json"), (variant, "variant.json")):
            assert main(["audit", "--input", str(path), "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "variant.json").read_text() == (tmp_path / "plain.json").read_text()

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

    def test_single_trial_zero_std(self, one_trial_config, tmp_path):
        out = tmp_path / "one"
        assert main(["experiment", "--config", one_trial_config, "--out", str(out)]) == 0
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

    @pytest.mark.parametrize("text", ["", "# no sections\n"])
    def test_config_without_sections_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "empty.cfg"
        path.write_text(text)
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        assert f"error: invalid config {path}: no sections" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists() and not (tmp_path / "r.csv").exists()

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(("# café\n" + SMALL_CFG).encode("latin-1"))
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        assert (f"error: invalid config {path}: not UTF-8 text"
                in capsys.readouterr().err)
        assert not (tmp_path / "r.json").exists()

    def test_byte_order_mark_config_runs_like_plain_file(self, one_trial_config, tmp_path):
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(ONE_TRIAL_CFG.encode("utf-8-sig"))
        for name, path in (("plain", one_trial_config), ("bom", str(bom))):
            assert main(["experiment", "--config", path, "--out", str(tmp_path / name)]) == 0
        for ext in (".json", ".csv"):
            assert ((tmp_path / f"bom{ext}").read_bytes()
                    == (tmp_path / f"plain{ext}").read_bytes())

    def test_feature_variance_overflow_fails_every_trial(self, tmp_path, capsys):
        # noise_scale 1e300 is finite, but the features' squares overflow in the fit
        path = tmp_path / "overflow.cfg"
        path.write_text(ONE_TRIAL_CFG.replace("noise_scale = 3.0", "noise_scale = 1e300"))
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "r")]) == 4
        assert ("error: all trials of dataset 1 failed; trial 0: a feature's mean or "
                "variance overflows float64") in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_non_converged_fits_fail_every_trial(self, tmp_path, capsys):
        path = tmp_path / "one_iter.cfg"
        path.write_text(ONE_TRIAL_CFG + "max_iters = 1\n")
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "r")]) == 4
        assert ("error: all trials of dataset 1 failed; trial 0: fit did not converge "
                "within max_iters = 1") in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists() and not (tmp_path / "r.csv").exists()

    def test_reruns_byte_identical(self, one_trial_config, tmp_path):
        main(["experiment", "--config", one_trial_config, "--out", str(tmp_path / "r1")])
        main(["experiment", "--config", one_trial_config, "--out", str(tmp_path / "r2")])
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()

    def test_missing_out_directory_exits_2_before_any_trial(self, config_file, tmp_path,
                                                            monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(fairaudit.harness, "run_experiment",
                            lambda config: calls.append(config))
        out = tmp_path / "missing" / "report"
        assert main(["experiment", "--config", config_file, "--out", str(out)]) == 2
        assert "--out" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("suffix", [os.sep, os.sep + "."])
    def test_out_naming_a_directory_exits_2(self, one_trial_config, tmp_path, capsys,
                                            suffix):
        # unchecked, these would write the hidden files results/.json and results/..json
        (tmp_path / "results").mkdir()
        out = str(tmp_path / "results") + suffix
        assert main(["experiment", "--config", one_trial_config, "--out", out]) == 2
        assert "--out" in capsys.readouterr().err
        assert not (tmp_path / "results" / ".json").exists()
        assert os.listdir(tmp_path / "results") == []

    def test_out_beside_a_same_named_directory_writes_files(self, one_trial_config,
                                                            tmp_path):
        (tmp_path / "results").mkdir()
        assert main(["experiment", "--config", one_trial_config, "--out",
                     str(tmp_path / "results")]) == 0
        assert (tmp_path / "results.json").exists() and (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("ext", [".json", ".csv"])
    def test_out_file_that_is_a_directory_exits_2_before_any_trial(
            self, config_file, tmp_path, monkeypatch, capsys, ext):
        # unchecked, the grid would run and write res.json before the res.csv write failed
        calls = []
        monkeypatch.setattr(fairaudit.harness, "run_experiment",
                            lambda config: calls.append(config))
        (tmp_path / f"res{ext}").mkdir()
        out = str(tmp_path / "res")
        assert main(["experiment", "--config", config_file, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: --out {out!r}: {out + ext!r} is a directory\n"
        assert calls == []
        assert sorted(os.listdir(tmp_path)) == sorted(["small.cfg", f"res{ext}"])
        assert os.listdir(tmp_path / f"res{ext}") == []

    def test_trials_option_is_gone(self, config_file, tmp_path, capsys):
        assert main(["experiment", "--config", config_file, "--out", str(tmp_path / "r"),
                     "--trials", "1"]) == 2
        assert "--trials" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


def write_output(kind, out, config, predictions):
    """Run the command that writes `kind` with --out out, and require exit 0."""
    argv = {"generate": ["generate", "--config", config],
            "build": ["build", "--config", config, "--dataset", "2"],
            "experiment": ["experiment", "--config", config],
            "audit": ["audit", "--input", predictions]}[kind]
    assert main(argv + ["--out", str(out)]) == 0


class TestOutputs:
    """Every command overwrites its outputs in place (datagen.open_output)."""

    # each of the five writers; experiment writes report.json and report.csv
    @pytest.mark.parametrize("kind, name", [
        ("generate", "pop.csv"), ("build", "d2.csv"), ("experiment", "report"),
        ("audit", "report.json"), ("audit", "report.csv"),
    ])
    def test_rewrite_over_a_longer_file_equals_a_fresh_write(self, one_trial_config,
                                                            fixture_csv, tmp_path, kind, name):
        fresh, old = tmp_path / "fresh", tmp_path / "old"
        fresh.mkdir()
        old.mkdir()
        write_output(kind, fresh / name, one_trial_config, fixture_csv)
        written = sorted(p.name for p in fresh.iterdir())
        for file in written:
            (old / file).write_bytes(b"#" * ((fresh / file).stat().st_size + 4096))
        write_output(kind, old / name, one_trial_config, fixture_csv)
        assert sorted(p.name for p in old.iterdir()) == written
        for file in written:
            assert (old / file).read_bytes() == (fresh / file).read_bytes()

    @pytest.mark.parametrize("kind", ["generate", "audit"])
    def test_out_to_the_null_device_exits_0(self, one_trial_config, fixture_csv, kind):
        # the null device is not a regular file, and cannot be truncated
        write_output(kind, os.devnull, one_trial_config, fixture_csv)

    def test_symlinked_output_keeps_its_target_inode_mode_and_links(
            self, one_trial_config, fixture_csv, tmp_path):
        fresh = tmp_path / "fresh.csv"
        write_output("generate", fresh, one_trial_config, fixture_csv)
        target, hard, link = tmp_path / "target.csv", tmp_path / "hard.csv", tmp_path / "link.csv"
        target.write_bytes(b"#" * (fresh.stat().st_size + 4096))
        target.chmod(0o600)
        os.link(target, hard)
        link.symlink_to(target)
        inode = target.stat().st_ino
        write_output("generate", link, one_trial_config, fixture_csv)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.stat().st_ino == inode
        assert target.stat().st_mode & 0o777 == 0o600
        assert target.read_bytes() == hard.read_bytes() == fresh.read_bytes()


def write_rank_report(path, means):
    """An experiment report as rank reads it: dataset key -> its nmi mean."""
    path.write_text(json.dumps({"datasets": {k: {"metrics": {"nmi": {"mean": v}}}
                                             for k, v in means.items()}}))


class TestRank:
    @pytest.fixture
    def report_json(self, one_trial_config, tmp_path):
        out = tmp_path / "rep"
        main(["experiment", "--config", one_trial_config, "--out", str(out)])
        return str(tmp_path / "rep.json")

    def test_rank_prints_what_rank_datasets_returns(self, one_trial_config, report_json,
                                                    capsys):
        report = run_experiment(load_config(one_trial_config))
        capsys.readouterr()
        for metric in METRIC_NAMES:
            order, excluded = rank_datasets(report, metric)
            assert sorted(order + excluded) == [1, 2, 3, 4], metric
            want = f"{metric}: least to most biased: " + " < ".join(map(str, order)) + "\n"
            if excluded:
                want += "excluded (undefined mean): " + ", ".join(map(str, excluded)) + "\n"
            assert main(["rank", "--report", report_json, "--metric", metric]) == 0
            assert capsys.readouterr().out == want, metric

    def test_rank_names_datasets_with_undefined_means(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        write_rank_report(path, {"1": 0.25, "2": None, "3": -0.125, "4": None})
        assert main(["rank", "--report", str(path), "--metric", "nmi"]) == 0
        assert capsys.readouterr().out == ("nmi: least to most biased: 3 < 1\n"
                                           "excluded (undefined mean): 2, 4\n")

    def test_rank_missing_report_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        assert main(["rank", "--report", str(path), "--metric", "nmi"]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{path}'\n")

    def test_rank_invalid_metric_exits_2(self, report_json):
        assert main(["rank", "--report", report_json, "--metric", "bogus"]) == 2

    # experiment writes exactly the keys "1" to "4"; parsed with int(), the first six
    # would be ranked, "1_0" as dataset 10 and "\u0663" as dataset 3
    @pytest.mark.parametrize("keys", [
        ("-7", "99"), ("1", "2", "3", "1_0"), ("1", "2", "\u0663", "4"),
        ("0", "1", "2", "3"), ("1", "2", "3", "4", "5"), ("1", "3"), (),
        *[(key, "2", "3", "4") for key in ("01", " 1", "+1")],
        *[("1", "2", "3", "4", key) for key in ("01", " 1", "+1")]])
    def test_rank_keys_other_than_the_grids_exit_3(self, tmp_path, capsys, keys):
        path = tmp_path / "r.json"
        write_rank_report(path, {key: i / 10 for i, key in enumerate(keys)})
        assert main(["rank", "--report", str(path), "--metric", "nmi"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {path}: expected dataset keys ['1', '2', '3', '4'], "
                                f"found {sorted(keys)}\n")

    @pytest.mark.parametrize("doc, error", [
        ([], "list indices must be integers or slices, not str"),
        ({"datasets": 5}, "'int' object is not iterable"),
        ({"datasets": list("1234")}, "list indices must be integers or slices, not str"),
        ({"datasets": dict.fromkeys("1234", {})}, "'metrics'"),
        ({"datasets": dict.fromkeys("1234", 2)}, "'int' object is not subscriptable"),
        ({"datasets": dict.fromkeys("1234", {"metrics": {}})}, "'nmi'")])
    def test_rank_malformed_report_exits_3(self, tmp_path, capsys, doc, error):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps(doc))
        assert main(["rank", "--report", str(path), "--metric", "nmi"]) == 3
        assert capsys.readouterr().err == (
            f"error: {path}: not a valid experiment report: {error}\n")

    # json.load alone keeps a repeated key's last value, so the first report would rank
    # 1 < 2 < 3 < 4 with dataset 1's mean 0.9 dropped; the second repeats "mean"
    @pytest.mark.parametrize("entries, key", [
        ([("1", "0.9"), ("1", "0.1"), ("2", "0.2"), ("3", "0.3"), ("4", "0.4")], "1"),
        ([("1", "0.1"), ("2", "0.2"), ("3", '0.9, "mean": 0.3'), ("4", "0.4")], "mean")])
    def test_rank_repeated_key_exits_3(self, tmp_path, capsys, entries, key):
        path = tmp_path / "r.json"
        path.write_text('{"datasets": {' + ", ".join(
            f'"{k}": {{"metrics": {{"nmi": {{"mean": {mean}}}}}}}' for k, mean in entries) + "}}")
        assert main(["rank", "--report", str(path), "--metric", "nmi"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {path}: not a valid experiment report: "
                                f"repeated key {key!r}\n")

    def test_rank_ignores_a_byte_order_mark(self, report_json, tmp_path, capsys):
        bom = tmp_path / "bom.json"
        bom.write_bytes(Path(report_json).read_text(encoding="utf-8").encode("utf-8-sig"))
        for metric in METRIC_NAMES:
            assert main(["rank", "--report", report_json, "--metric", metric]) == 0
            plain = capsys.readouterr()
            assert main(["rank", "--report", str(bom), "--metric", metric]) == 0
            assert capsys.readouterr() == plain, metric

    @pytest.mark.parametrize("mean", ["0.1", True, math.nan, math.inf, -math.inf, 10 ** 400])
    def test_rank_mean_neither_finite_nor_null_exits_3(self, tmp_path, capsys, mean):
        path = tmp_path / "junk.json"
        write_rank_report(path, {"1": 0.1, "2": 0.2, "3": mean, "4": 0.4})
        assert main(["rank", "--report", str(path), "--metric", "nmi"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {path}: dataset 3: mean {mean!r} "
                                "is neither a finite number nor null\n")


def test_every_error_class_exits_with_its_documented_code(monkeypatch, capsys):
    # README: 2 config or usage error, 3 data error, 4 numerical failure
    codes = {errors.ValidationError: 2, errors.NumericalFailureError: 4,
             errors.DegenerateDatasetError: 3, errors.DataFormatError: 3,
             errors.FairauditError: 3, OSError: 2}
    assert set(errors.FairauditError.__subclasses__()) < set(codes)
    for error, code in codes.items():
        def fail(args, error=error):
            raise error(f"{error.__name__} raised")
        monkeypatch.setattr(cli, "cmd_rank", fail)
        assert main(["rank", "--report", "r.json", "--metric", "nmi"]) == code, error
        assert capsys.readouterr().err == f"error: {error.__name__} raised\n"


@pytest.fixture
def passing_and_failing_argv(fixture_csv, tmp_path):
    return (["audit", "--input", fixture_csv, "--out", str(tmp_path / "r.json")],
            ["rank", "--report", str(tmp_path / "missing.json"), "--metric", "nmi"])


def test_entry_exits_with_mains_code(monkeypatch, passing_and_failing_argv):
    codes = []
    for args in passing_and_failing_argv:
        codes.append(main(args))
        monkeypatch.setattr(sys, "argv", ["fairaudit", *args])
        with pytest.raises(SystemExit) as exited:
            cli.entry()
        assert exited.value.code == codes[-1], args
    assert codes == [0, 2]


def fresh_python(*args):
    """A new interpreter, run with args, that imports this fairaudit."""
    src = str(Path(fairaudit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def run_fresh_python(code):
    """Standard output of code run by a new interpreter that imports this fairaudit."""
    ran = fresh_python("-c", code)
    ran.check_returncode()
    return ran.stdout


def test_module_run_exits_and_prints_like_main(passing_and_failing_argv, capsys):
    for args in passing_and_failing_argv:
        ran = fresh_python("-m", "fairaudit.cli", *args)
        code = main(args)
        captured = capsys.readouterr()
        assert (ran.returncode, ran.stdout, ran.stderr) == (code, captured.out,
                                                           captured.err), args


def test_import_leaves_scipy_unloaded():
    # audit and rank never use scipy; its import would be most of their start-up. Nor
    # do they invert Beta quantiles on concurrent.futures' thread pool (about 7 ms with
    # the logging it imports)
    out = run_fresh_python("import sys, fairaudit, fairaudit.cli, fairaudit.harness; "
                           "print(sorted(m for m in sys.modules "
                           "if m.split('.')[0] in ('scipy', 'concurrent')))")
    assert out.strip() == "[]"


def test_build_base_leaves_scipy_stats_and_optimize_unloaded():
    # generating a population needs scipy.special only; scipy.stats and
    # scipy.optimize would add 0.5 s and 0.15 s to every generate/build/experiment
    out = run_fresh_python(
        "import sys\n"
        "from fairaudit.harness import build_base, bundled_config_path, load_config\n"
        "for name in ('experiment_A.cfg', 'experiment_B.cfg'):\n"
        "    build_base(load_config(bundled_config_path(name)))\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith(('scipy.stats', 'scipy.optimize'))))\n"
        "print('scipy.special' in sys.modules)")
    assert out.split("\n")[:2] == ["[]", "True"]


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
    "fraction in label column": HEADER + "1,1,0.5,1\n1,0.7,0.5,1\n",
    "fraction in group column": HEADER + "1,1,0.5,1\n1.9,0,0.5,1\n",
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

    # a numpy that warns before it casts a float in an int column to an int shows the
    # warning here, so the reader alone must turn it into an error
    @pytest.mark.filterwarnings("default:.*Parsing an integer via a float:DeprecationWarning")
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

    # a later row that does not parse does not hide the first bad field
    @pytest.mark.parametrize("later", ["0,0,0.25,0\n", "x,0,0.5,1\n"])
    @pytest.mark.parametrize("row, column", [
        ("2,0,0.5,1", "group"), ("1,-1,0.5,1", "label"), ("1,0,0.5,3", "label_hat"),
        ("1,0,1.5,1", "score_hat"), ("1,0,nan,1", "score_hat"),
    ])
    def test_out_of_range_value_names_line_and_column(self, tmp_path, capsys, row, column,
                                                      later):
        # line 4 counts the header and the blank line
        path = _write(tmp_path, HEADER + "1,1,0.5,1\n\n" + row + "\n" + later)
        out = tmp_path / "r.json"
        assert main(["audit", "--input", str(path), "--out", str(out)]) == 3
        assert f": line 4: column {column}: " in capsys.readouterr().err
        assert not out.exists()

    def test_error_scan_agrees_with_loadtxt(self):
        fields = ["1", " 1 ", "+1", "-0", "\t0\x0b", "1.0", "0_1", "\u0661", "", " ",
                  "1 1", "0x1", "9223372036854775807", "9223372036854775808",
                  "-9223372036854775809", "0.5", " .5 ", "5e-1", "1.", "nan", "-inf",
                  "Infinity", "0.5_0", "0x1p-1", "1e", "\u0660.5", "0.5\x85", "0.5\x01",
                  "\u00bd", "1e999", "--1", "+-1"]
        for dtype, kind in ((np.int64, int), (np.float64, float)):
            for field in fields:
                try:
                    _loadtxt([f"0,{field}"], dtype, [1])
                    accepted = True
                except ValueError:
                    accepted = False
                assert _parses(field, dtype) == accepted, (field, dtype)
                # parse_number, which reads configs and arguments, accepts the same
                # fields, less the int64 column's range
                try:
                    value = errors.parse_number(field, kind)
                except ValueError:
                    value = None
                if value is None or kind is float or -2**63 <= value < 2**63:
                    assert (value is not None) == accepted, (field, kind)

    def test_error_scan_agrees_with_reader(self, tmp_path):
        # the scan names a field exactly where the reader, loadtxt then
        # GroupedOutcomes, rejects the file
        fields = ["0", "1", " 1 ", "+1", "-0", "01", '"1"', "\t0\x0b", "2", "-1", "0.5", "1.5",
                  "-0.0", "1e0", "1e-400", "1e999", "nan", "-inf", "x", ""]
        positions = {name: i for i, (name, _) in enumerate(PREDICTION_COLUMNS)}
        for name, _ in PREDICTION_COLUMNS:
            for field in fields:
                row = {"group": "1", "label": "0", "score_hat": "0.5", "label_hat": "1",
                       name: field}
                path = _write(tmp_path, HEADER + ",".join(row[column] for column in positions)
                              + "\n")
                try:
                    _read_predictions_csv(str(path))
                    rejected = False
                except errors.DataFormatError:
                    rejected = True
                assert (cli._first_bad_field(path, positions) is not None) == rejected, row

    # csv's default field limit is 131,072 characters; np.loadtxt reads longer fields
    def test_long_field_does_not_hide_the_bad_line(self, tmp_path, capsys):
        limit = csv.field_size_limit()
        path = _write(tmp_path, "note," + HEADER + "x" * 200_000 + ",1,1,0.5,1\nn,2,0,0.5,1\n")
        assert main(["audit", "--input", str(path), "--out", str(tmp_path / "r.json")]) == 3
        assert capsys.readouterr().err == (
            f"error: {path}: line 3: column group: must be 0 or 1, got '2'\n")
        assert csv.field_size_limit() == limit

    def test_long_header_name_is_read(self, tmp_path):
        limit = csv.field_size_limit()
        path = _write(tmp_path, "x" * 200_000 + "," + HEADER + "n,1,0,0.5,1\n")
        data = _read_predictions_csv(str(path))
        assert [getattr(data, name).tolist() for name, _ in PREDICTION_COLUMNS] == [
            [1], [0], [0.5], [1]]
        assert csv.field_size_limit() == limit

    # csv keeps a NUL byte in its field, which then names no column or parses as no number
    @pytest.mark.parametrize("text, message", [
        (HEADER.replace(",", "\0,", 1) + "1,1,0.5,1\n", "line 1: missing columns group"),
        (HEADER + "1,1,0.5,1\n1,1,0.5\0,1\n",
         r"line 3: column score_hat: could not convert '0.5\x00' to float64"),
    ])
    def test_nul_byte_names_its_line(self, tmp_path, capsys, text, message):
        path = _write(tmp_path, text)
        assert main(["audit", "--input", str(path), "--out", str(tmp_path / "r.json")]) == 3
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    # a field past csv's limit raises csv.Error; the limit lowered to 12 characters
    # stands for one past the 2**31 - 1 that _any_field_length lifts it to
    @pytest.mark.parametrize("text, line", [
        ("x" * 13 + "," + HEADER + "n,1,0,0.5,1\n", 1),
        # line 4's group = 2 sends the reader to the rescan, which stops at line 3's field
        (HEADER.replace("\n", ",note\n") + "1,1,0.5,1,n\n1,1,0.5,1," + "x" * 13
         + "\n2,1,0.5,1,n\n", 3),
    ])
    def test_field_past_the_limit_names_its_line(self, tmp_path, capsys, monkeypatch, text,
                                                 line):
        @contextlib.contextmanager
        def limit_12():
            limit = csv.field_size_limit(12)
            try:
                yield
            finally:
                csv.field_size_limit(limit)

        monkeypatch.setattr(cli, "_any_field_length", limit_12)
        path = _write(tmp_path, text)
        assert main(["audit", "--input", str(path), "--out", str(tmp_path / "r.json")]) == 3
        assert capsys.readouterr().err == (
            f"error: {path}: line {line}: field larger than field limit (12)\n")

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
