"""fairaudit benchmark.

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The program is byte-compiled from `src/` and
driven through `fairaudit.cli.main` in one fresh child process per run, one
command at a time (a closed loop with a single client). The seed reaches the
program only as the CLI's --seed or through the generated predictions CSV.

A run repeats the workload's cycle of commands until --seconds have passed
(at least once). With --trace 0 the last line of standard output carries the
end-to-end metrics:

- items_per_s: median over cycles of the cycle's work over its wall time,
  where work is trials (paper_grid), rows read (audit_csv) or CSV data rows
  written (export_csv);
- setup_s: median over three fresh processes of importing fairaudit plus
  load_config and build_base for each config the workload uses;
- peak_rss_mb: the child's peak RSS through set-up and its first cycle.

Times behind items_per_s and setup_s are scaled to a host of nominal speed by
a reference task sampled while they run (see worker.py); the unscaled figures
are in the metadata as raw_items_per_s and raw_setup_samples_s.

With --trace 1 the run then makes one traced cycle and reports the per-layer
metrics instead. The line before the result holds the run's metadata:
versions, sample counts, output digests and any problems the checks found.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import checks
import workloads
from tracer import Span, percentile, self_times
from worker import REF_NOMINAL_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
# set-up samples per run: this many probe processes plus the workload's child
SETUP_PROBES = 2
# every child must end early enough for the run to finish within 180 s
RUN_LIMIT_S = 170.0
# the load is single-threaded, BLAS included
BLAS_THREADS = 1
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SPAN_NAMES = (
    "datagen.generate_population", "datagen.base_dataset", "datagen.write_population_csv",
    "bias.build_dataset", "bias.write_labeled_csv",
    "model.split", "model.fit", "model.predict",
    "metrics.outcomes", "metrics.audit",
    "harness.build_base", "harness.run_experiment", "harness.report_write",
    "cli.main",
)
PER_LAYER = {
    "fairaudit.import_s": "s",
    **{f"{name}.self_s": "s" for name in SPAN_NAMES},
    "datagen.records_generated": "count",
    "bias.rows_kept": "count",
    "model.fit.iters": "count",
    "model.fit.converged_ratio": "ratio",
    "model.train_rows": "count",
    "metrics.undefined_ratio": "ratio",
    "harness.trial_p50_ms": "ms",
    "harness.trial_p90_ms": "ms",
    "harness.trials_failed": "count",
    "cli.rows_read": "count",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, import_s: float, overhead: float) -> tuple[dict, dict]:
    """Per-layer metric values and the sample count behind each percentile."""
    spans = [Span(**s) for s in trace["spans"]]
    counts = defaultdict(int, trace["counts"])
    self_s = defaultdict(float)
    for span, t in zip(spans, self_times(spans)):
        self_s[span.name] += t
    trial_ms = [(s.end - s.start) * 1e3 for s in spans if s.name == "harness.run_trial"]
    values = {
        "fairaudit.import_s": import_s,
        **{f"{name}.self_s": self_s[name] for name in SPAN_NAMES},
        "datagen.records_generated": counts["datagen.records_generated"],
        "bias.rows_kept": counts["bias.rows_kept"],
        "model.fit.iters": counts["model.fit.iters"],
        "model.fit.converged_ratio": _ratio(counts["model.fit.converged"],
                                            counts["model.fit.calls"]),
        "model.train_rows": counts["model.train_rows"],
        "metrics.undefined_ratio": _ratio(counts["metrics.undefined"], counts["metrics.values"]),
        # 0 where the workload runs no trials or too few for the percentile
        "harness.trial_p50_ms": percentile(trial_ms, 50) or 0.0,
        "harness.trial_p90_ms": percentile(trial_ms, 90) or 0.0,
        "harness.trials_failed": counts["harness.trials_failed"],
        "cli.rows_read": counts["cli.rows_read"],
        "trace.overhead_ratio": overhead,
    }
    return values, {"harness.trial_p50_ms": len(trial_ms), "harness.trial_p90_ms": len(trial_ms)}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({name: str(BLAS_THREADS) for name in THREAD_ENV})
    return env


def _run_child(args, work: Path, result: Path, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", str(result), *extra]
    log = work / (result.stem + ".log")
    with open(log, "w") as err:
        try:
            proc = subprocess.run(cmd, env=_child_env(), cwd=work, stdout=subprocess.DEVNULL,
                                  stderr=err, timeout=max(deadline - perf_counter(), 1.0))
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"{result.stem} did not finish in time") from e
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"{result.stem} exited with {proc.returncode}: {log.read_text()[-2000:]}")
    return json.loads(result.read_text())


def _check(args, work: Path, child: dict, expected_audit: dict | None,
           golden: dict) -> tuple[int, int, list[str], dict]:
    """(attempted, failed, problems, digests) over every cycle the child ran.

    An operation is a trial in paper_grid and a command otherwise; every
    operation of a command with a problem counts as failed.
    """
    commands = workloads.cycle(args.workload, args.seed, ROOT, work)
    cycles = child["cycles"] + ([child["traced_cycle"]] if "traced_cycle" in child else [])
    first = {c["name"]: c["outputs"] for c in cycles[0]}
    bad: dict[str, list[str]] = defaultdict(list)
    for results in cycles:
        for r in results:
            if r["rc"] != 0:
                bad[r["name"]].append(f"exit code {r['rc']} {r['error']}".strip())
            elif any(v is None for v in r["outputs"].values()):
                bad[r["name"]].append("output missing")
            elif r["outputs"] != first[r["name"]]:
                bad[r["name"]].append("outputs differ between cycles")
    # paper_grid: trials each experiment's JSON reports as failed
    json_failures: dict[str, int] = {}
    # the files on disk are the last cycle's; every cycle matched the first
    for command in commands:
        if bad[command.name]:
            continue
        try:
            if args.seed == workloads.DEFAULT_SEED:
                bad[command.name] += checks.check_golden(args.workload, command, work,
                                                            golden[args.workload])
            if args.workload == "audit_csv":
                report = json.loads((work / "audit.json").read_text())
                bad[command.name] += checks.compare_audit(report, expected_audit)
            elif args.workload == "paper_grid":
                json_failures[command.name], problems = checks.check_experiment(
                    ROOT, command.name[-1], work / command.outputs[0], work / command.outputs[1])
                bad[command.name] += problems
            else:
                bad[command.name] += checks.check_export(ROOT, command,
                                                            work / command.outputs[0])
        except (OSError, ValueError, KeyError, TypeError) as e:
            bad[command.name].append(f"unreadable output: {e!r}")
    weight = {c.name: _items_per_op(args.workload, c.name) for c in commands}
    ops = [r["name"] for results in cycles for r in results]
    attempted = sum(weight[name] for name in ops)
    failed = sum(weight[name] if bad[name] else json_failures.get(name, 0) for name in ops)
    problems = [f"{name}: {p}" for name, ps in bad.items() for p in ps]
    digests = {name: {f: v[0] for f, v in outputs.items() if v}
               for name, outputs in first.items()}
    return attempted, failed, problems, digests


def _items_per_op(workload: str, command: str) -> int:
    """Operations one command counts for: its trials in paper_grid, else itself."""
    return workloads.trials_per_command(ROOT)[command[-1]] if workload == "paper_grid" else 1


def _items(workload: str, results: list[dict]) -> int:
    """Work done by one cycle: trials, rows read, or data rows written."""
    if workload == "paper_grid":
        return sum(_items_per_op(workload, r["name"]) for r in results)
    if workload == "audit_csv":
        return checks.AUDIT_ROWS * len(results)
    return sum(v[1] for r in results for v in r["outputs"].values() if v)


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def run(args) -> tuple[dict, dict]:
    deadline = perf_counter() + RUN_LIMIT_S
    if not (ROOT / "src" / "fairaudit" / "__init__.py").is_file():
        raise BenchError(f"no fairaudit sources under {ROOT / 'src'}")
    golden = json.loads((BENCH / "golden.json").read_text())
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if not compileall.compile_dir(ROOT / "src", quiet=1):
            raise BenchError("byte-compiling src/ failed")
        expected_audit = checks.prepare(args.workload, args.seed, work)
        setups = [_run_child(args, work, work / f"setup{i}.json", deadline, "--setup-only")
                  for i in range(SETUP_PROBES)]
        child = _run_child(args, work, work / "child.json", deadline)
        attempted, failed, problems, digests = _check(args, work, child, expected_audit, golden)
    finally:
        keep = {p.name: p.read_text() for p in work.glob("*.log") if p.stat().st_size}
        shutil.rmtree(work, ignore_errors=True)
    raw_setup = [s["setup_s"] for s in setups + [child]]
    setup_samples = [s["setup_s"] * REF_NOMINAL_S / s["setup_ref_s"] for s in setups + [child]]
    walls = [sum(r["wall_s"] for r in results) for results in child["cycles"]]
    raw_rates = [_items(args.workload, results) / wall
                 for results, wall in zip(child["cycles"], walls)]
    rates = [rate * ref / REF_NOMINAL_S for rate, ref in zip(raw_rates, child["cycle_ref_s"])]
    samples = {"items_per_s": len(rates), "setup_s": len(setup_samples), "peak_rss_mb": 1}
    if args.trace:
        traced_wall = sum(r["wall_s"] for r in child["traced_cycle"])
        metrics, trace_samples = layer_metrics(child["trace"], child["import_s"],
                                               traced_wall / statistics.median(walls))
        samples.update(trace_samples)
        units = PER_LAYER
    else:
        metrics = {"items_per_s": statistics.median(rates),
                   "setup_s": statistics.median(setup_samples),
                   "peak_rss_mb": child["peak_rss_mb"]}
        units = END_TO_END
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(), "src_sha256": _source_digest(),
        **child["versions"], "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "samples": samples, "cycle_walls_s": walls,
        "setup_samples_s": setup_samples, "raw_setup_samples_s": raw_setup,
        "raw_items_per_s": raw_rates,
        "cycle_ref_s": child["cycle_ref_s"], "outputs_sha256": digests,
        "problems": problems, "child_stderr": keep,
    }
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                          for name, unit in units.items()}}
    return meta, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        meta, result = run(args)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps({"meta": meta, "result": result},
                                                          indent=2) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
