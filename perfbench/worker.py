"""One benchmark child process: imports fairaudit, sets up, and runs the
workload's command cycles through `fairaudit.cli.main`, in-process.

Started by run.py with `src/` on PYTHONPATH; writes its measurements as JSON
to the path given by --result. With --setup-only it stops after set-up.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import workloads

# The shared host's speed swings up to 2x over seconds to minutes, on each CPU
# apart. During set-up and each cycle, a SIGALRM handler times a fixed stdlib
# task every SAMPLE_PERIOD_S (about 0.5% of the time); run.py scales the
# interval by REF_NOMINAL_S over the mean sample, so runs made in fast and slow
# moments compare. The unscaled figures stay in the run's metadata.
SAMPLE_PERIOD_S = 0.2
REF_NOMINAL_S = 0.001
_REF_LINES = [f"{i % 2},{(i * 7919) % 1000003 / 1000003!r}" for i in range(1000)]


def reference_s() -> float:
    """Time to parse the fixed reference lines into (int, float) tuples.

    The garbage collector is paused meanwhile: a collection triggered here
    would time the program's heap, not the host.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        [(int(a), float(b)) for a, b in (line.split(",") for line in _REF_LINES)]
        return perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


@contextmanager
def host_speed_samples():
    """Reference times taken every SAMPLE_PERIOD_S inside the block, and once at its end."""
    samples: list[float] = []
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(reference_s()))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
        samples.append(reference_s())


def run_cycle(cli, commands, work: Path, tracer=None) -> list[dict]:
    """Run each command once; digests and row counts are taken outside the timed region."""
    results = []
    for command in commands:
        error = ""
        start = perf_counter()
        try:
            if tracer is None:
                rc = cli.main(list(command.argv))
            else:
                tracer.op = command.name
                with tracer.span("cli.main"):
                    rc = cli.main(list(command.argv))
        except Exception:  # a crash is a failed command, reported with its traceback
            rc, error = -1, traceback.format_exc()
        wall = perf_counter() - start
        outputs = {}
        for name in command.outputs:
            path = work / name
            outputs[name] = list(workloads.file_stats(path)) if path.exists() else None
        results.append({"name": command.name, "rc": rc, "wall_s": wall,
                        "outputs": outputs, "error": error})
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    root, work = args.root.resolve(), args.result.parent

    reference_s()  # warm the reference task before its first timed use
    with host_speed_samples() as samples:
        start = perf_counter()
        import fairaudit
        from fairaudit import cli, harness
        import_s = perf_counter() - start
        for key in workloads.setup_configs(args.workload):
            harness.build_base(harness.load_config(workloads.config_path(root, key)))
        setup_s = perf_counter() - start
    if not Path(fairaudit.__file__).resolve().is_relative_to(root / "src"):
        print(f"fairaudit imported from {fairaudit.__file__}, not from {root / 'src'}",
              file=sys.stderr)
        return 3
    out = {"import_s": import_s, "setup_s": setup_s, "setup_ref_s": sum(samples) / len(samples)}

    if not args.setup_only:
        import numpy
        import scipy

        out["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                           "scipy": scipy.__version__}
        commands = workloads.cycle(args.workload, args.seed, root, work)
        cycles, refs = [], []
        loop_start = perf_counter()
        while not cycles or perf_counter() - loop_start < args.seconds:
            with host_speed_samples() as samples:
                cycles.append(run_cycle(cli, commands, work))
            refs.append(sum(samples) / len(samples))
            if len(cycles) == 1:
                # later cycles grow the peak by heap fragmentation, by a varying amount
                out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["cycles"], out["cycle_ref_s"] = cycles, refs
        if args.trace:
            from tracer import Tracer, instrument

            with instrument(Tracer(), cli, harness) as tracer:
                out["traced_cycle"] = run_cycle(cli, commands, work, tracer)
            out["trace"] = tracer.to_json()

    args.result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
