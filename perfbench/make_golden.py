"""Rewrite golden.json from one cycle of each workload at DEFAULT_SEED.

    python3 perfbench/make_golden.py

Run it from the root of a checkout of the commit whose outputs are the
reference. Every benchmark run at DEFAULT_SEED is then checked against them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from time import perf_counter

import checks
import run
import workloads


def main() -> int:
    golden = {}
    for workload in workloads.WORKLOADS:
        args = argparse.Namespace(workload=workload, seed=workloads.DEFAULT_SEED,
                                  seconds=0.0, trace=0)
        work = run.WORK / "golden" / workload
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            checks.prepare(workload, args.seed, work)
            child = run._run_child(args, work, work / "child.json",
                                   perf_counter() + run.RUN_LIMIT_S)
            failed = [r["name"] for r in child["cycles"][0] if r["rc"] != 0]
            if failed:
                print(f"{workload}: commands failed: {failed}", file=sys.stderr)
                return 1
            golden[workload] = checks.golden_outputs(workload, run.ROOT, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    (run.BENCH / "golden.json").write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
