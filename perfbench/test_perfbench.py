"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import csv
import json
import signal
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import run
import workloads
from tracer import Span, Tracer, instrument, percentile, self_times
from worker import host_speed_samples

sys.path.insert(0, str(run.ROOT / "src"))


def test_self_time_subtracts_only_direct_children():
    spans = [Span("root", 0.0, 10.0, None, "c1"),
             Span("a", 1.0, 4.0, 0, "c1"),
             Span("grandchild", 2.0, 3.0, 1, "c1.t1"),
             Span("b", 5.0, 8.0, 0, "c1")]
    assert self_times(spans) == [4.0, 2.0, 1.0, 3.0]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0.0, 10.0, None, "c1"),
             Span("a", 1.0, 6.0, 0, "c1"),
             Span("b", 4.0, 12.0, 0, "c1")]
    assert self_times(spans)[0] == 1.0


def test_host_speed_samples_run_during_the_block_and_restore_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with host_speed_samples() as samples:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
    assert len(samples) >= 3 and all(s > 0 for s in samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 161))
    assert percentile(values, 50) == 80
    assert percentile(values, 90) == 144   # 16 samples beyond
    assert percentile(values, 95) is None  # 8 samples beyond
    assert percentile(list(range(20)), 50) == 9
    assert percentile(list(range(19)), 50) is None
    assert percentile([], 50) is None


@pytest.mark.parametrize("workload", ["paper_grid", "export_csv"])
def test_golden_check_rejects_one_changed_byte(tmp_path, workload):
    command = workloads.cycle(workload, workloads.DEFAULT_SEED, run.ROOT, tmp_path)[0]
    name = next(n for n in command.outputs if n.endswith(".csv"))
    command = replace(command, outputs=(name,))
    path = tmp_path / name
    path.write_bytes(b"dataset,metric,trial,value,status\n1,nmi,0,0.25,ok\n")
    golden = {name: workloads.file_stats(path)[0]}
    assert checks.check_golden(workload, command, tmp_path, golden) == []
    data = bytearray(path.read_bytes())
    data[-5] ^= 1
    path.write_bytes(bytes(data))
    assert checks.check_golden(workload, command, tmp_path, golden) != []


def test_golden_covers_every_output():
    golden = json.loads((run.BENCH / "golden.json").read_text())
    for workload in ("paper_grid", "export_csv"):
        names = {n for c in workloads.cycle(workload, 0, run.ROOT, Path("w"))
                 for n in c.outputs}
        assert set(golden[workload]) == names
    assert sorted(golden["audit_csv"]["audit"]["metrics"]) == sorted(checks.METRIC_NAMES)


def test_predictions_csv_parses_back_to_the_generated_columns(tmp_path):
    columns = checks.audit_columns(7, rows=500)
    checks.write_predictions_csv(columns, tmp_path / "p.csv")
    with open(tmp_path / "p.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for name, parse in (("group", int), ("label", int), ("score_hat", float), ("label_hat", int)):
        assert [parse(r[name]) for r in rows] == columns[name].tolist()


def test_audit_oracle_matches_the_program_within_tolerance():
    from fairaudit import GroupedOutcomes, audit

    columns = checks.audit_columns(3, rows=500)
    expected = checks.audit_oracle(columns)
    report = audit(GroupedOutcomes(**{k: columns[k] for k in checks.CSV_COLUMNS})).to_json_dict()
    assert checks.compare_audit(report, expected) == []
    report["metrics"]["nmi"]["value"] += 3 * checks.AUDIT_TOLERANCE
    assert checks.compare_audit(report, expected) != []


def test_instrument_records_spans_and_restores_the_program(tmp_path):
    from fairaudit import cli, harness

    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("[experiment]\nname = B\ntrials = 2\nbase_seed = 51\n"
                   "[population]\nn_group0 = 1500\nn_group1 = 1500\n"
                   "positive_rate_group0 = 0.5408\npositive_rate_group1 = 0.1217\n"
                   "noise_scale = 3.0\n[model]\nlambda = 0.01\n")
    before = {name: getattr(harness, name) for name in ("fit", "run_trial", "GroupedOutcomes")}
    with instrument(Tracer(), cli, harness) as tracer:
        tracer.op = "c1"
        with tracer.span("cli.main"):
            assert cli.main(["experiment", "--config", str(cfg),
                             "--out", str(tmp_path / "r")]) == 0
    assert {name: getattr(harness, name) for name in before} == before
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "harness.run_experiment", "harness.run_trial", "model.fit",
            "metrics.outcomes", "metrics.audit", "harness.report_write"} <= names
    assert tracer.counts["harness.trials"] == 8
    assert tracer.counts["model.fit.calls"] == 8
    assert {s.op for s in tracer.spans if s.name == "model.fit"} == {
        f"c1.t{i}" for i in range(1, 9)}
    values, samples = run.layer_metrics(tracer.to_json(), 1.0, 1.0)
    assert set(values) == set(run.PER_LAYER)
    assert values["model.fit.iters"] > 0 and values["cli.rows_read"] == 0


def test_benchmark_json_matches_the_metrics_the_runs_print():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
