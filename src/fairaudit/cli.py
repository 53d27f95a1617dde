"""Command-line entry point: generate, build, audit, experiment, rank.

Exit codes: 0 success (undefined metrics included), 2 config/usage error,
3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import harness
# cli calls build_dataset through harness; the name stays because perfbench/tracer.py patches it
from .bias import ALL_BIAS_SPECS, build_dataset, write_labeled_csv
from .datagen import generate_population, write_population_csv
from .errors import (DataFormatError, DegenerateDatasetError, EmptySelectionError,
                     ExperimentError, NumericalFailureError, ValidationError)
from .metrics import FAIR_POINTS, METRIC_NAMES, GroupedOutcomes, audit

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairaudit",
                                     description="Bias-injection fairness audit toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic population CSV")
    gen.add_argument("--config", required=True, help="experiment config file")
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.add_argument("--seed", type=int, default=None, help="override the base seed")

    build = sub.add_parser("build", help="build one bias-grid dataset as labeled CSV")
    build.add_argument("--config", required=True)
    build.add_argument("--dataset", type=int, choices=(1, 2, 3, 4), required=True)
    build.add_argument("--out", required=True)
    build.add_argument("--seed", type=int, default=None)

    aud = sub.add_parser("audit", help="audit a predictions CSV")
    aud.add_argument("--input", required=True,
                     help="CSV with columns group,label,score_hat,label_hat")
    aud.add_argument("--out", required=True)
    aud.add_argument("--format", choices=("json", "csv"), default="json")

    exp = sub.add_parser("experiment", help="run the full 2x2 experiment grid")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", required=True,
                     help="output basename; writes <out>.json and <out>.csv")
    exp.add_argument("--seed", type=int, default=None)
    exp.add_argument("--trials", type=int, default=None)

    rank = sub.add_parser("rank", help="rank datasets by deviation from the fair point")
    rank.add_argument("--report", required=True, help="experiment report JSON")
    rank.add_argument("--metric", choices=METRIC_NAMES, required=True)
    return parser


def _load_config(path, seed_override=None, trials_override=None) -> harness.ExperimentConfig:
    config = harness.load_config(path)
    if seed_override is not None:
        config = replace(config, base_seed=seed_override)
    if trials_override is not None:
        config = replace(config, trials=trials_override)
    return config


def cmd_generate(args) -> int:
    config = _load_config(args.config, args.seed)
    pop = generate_population(harness.population_spec(config))
    write_population_csv(pop, args.out)
    print(f"wrote {len(pop)} records to {args.out}")
    print(f"{'':12s} {'score>=0.5':>12s} {'score<0.5':>12s} {'total':>10s} {'rate':>8s}")
    high = pop.score >= 0.5
    for g, label in ((1, "group 1"), (0, "group 0")):
        members = pop.group == g
        pos, total = int((high & members).sum()), int(members.sum())
        print(f"{label:12s} {pos:12d} {total - pos:12d} {total:10d} {pos / total:8.3f}")
    total_pos = int(high.sum())
    print(f"{'total':12s} {total_pos:12d} {len(pop) - total_pos:12d} {len(pop):10d}")
    return EXIT_OK


def cmd_build(args) -> int:
    config = _load_config(args.config, args.seed)
    base = harness.build_base(config)
    data = harness.trial_dataset(config, ALL_BIAS_SPECS[args.dataset - 1],
                                 harness.stable_hash(config.base_seed, args.dataset, "build"),
                                 base)
    write_labeled_csv(data, args.out)
    print(f"wrote dataset {args.dataset} ({len(data)} records) to {args.out}")
    return EXIT_OK


# columns of a predictions CSV, in the order a malformed row is checked
PREDICTION_COLUMNS = (("group", np.int64), ("label", np.int64),
                      ("score_hat", np.float64), ("label_hat", np.int64))
# np.loadtxt decompresses a path with one of these extensions; the csv.reader passes do not
COMPRESSED_EXTENSIONS = (".bz2", ".gz", ".xz", ".lzma")


def _loadtxt(source, dtype, usecols, skiprows=0):
    """np.loadtxt on a predictions CSV path (or a list of lines), as the audit reads it."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        # numpy 1.23-1.26 only warns before it casts 0.7 in an int column to 0
        warnings.filterwarnings("error", r"loadtxt\(\): Parsing an integer via a float",
                                DeprecationWarning)
        return np.loadtxt(source, dtype=dtype, delimiter=",", comments=None, quotechar='"',
                          skiprows=skiprows, usecols=usecols, ndmin=1, encoding="utf-8")


def _parses(field: str, dtype) -> bool:
    """Whether _loadtxt's converter for dtype accepts the field."""
    text = field.strip()
    if not text.isascii() or "_" in text:
        return False
    try:
        value = int(text) if dtype is np.int64 else float(text)
    except ValueError:
        return False
    return dtype is not np.int64 or -2**63 <= value < 2**63


def _first_bad_field(path, positions) -> str | None:
    """The physical line and column of the first field _loadtxt rejects."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            next(reader)
            for row in reader:
                if not row:  # blank line
                    continue
                for name, dtype in PREDICTION_COLUMNS:
                    i = positions[name]
                    if i >= len(row):
                        return f"line {reader.line_num}: column {name}: missing field"
                    if not _parses(row[i], dtype):
                        return (f"line {reader.line_num}: column {name}: "
                                f"could not convert {row[i]!r} to {np.dtype(dtype)}")
        except csv.Error as e:
            return f"line {reader.line_num}: {e}"
    return None


def _read_predictions_csv(path) -> GroupedOutcomes:
    extension = os.path.splitext(path)[1]
    if extension in COMPRESSED_EXTENSIONS:
        raise DataFormatError(f"{path}: compressed input ({extension}) is not supported; "
                              "decompress or rename it")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            header_lines = reader.line_num
        if header is None:
            raise DataFormatError(f"{path}: empty file")
        # any column order; extra columns are ignored; a repeated name means its last one
        positions = {name: i for i, name in enumerate(header)}
        missing = [name for name, _ in PREDICTION_COLUMNS if name not in positions]
        if missing:
            raise DataFormatError(f"{path}: line 1: missing columns {', '.join(missing)}")
        table = _loadtxt(path, list(PREDICTION_COLUMNS),
                         [positions[name] for name, _ in PREDICTION_COLUMNS],
                         skiprows=header_lines)
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: not UTF-8 text: {e}") from e
    except csv.Error as e:
        raise DataFormatError(f"{path}: line 1: {e}") from e
    except ValueError as e:
        # numpy's message names neither the physical line nor the column
        raise DataFormatError(f"{path}: {_first_bad_field(path, positions) or e}") from e
    if table.size == 0:
        raise DataFormatError(f"{path}: no data rows")
    try:
        return GroupedOutcomes(**{name: table[name] for name, _ in PREDICTION_COLUMNS})
    except ValidationError as e:
        raise DataFormatError(f"{path}: {e}") from e


def cmd_audit(args) -> int:
    data = _read_predictions_csv(args.input)
    report = audit(data)
    if args.format == "json":
        with open(args.out, "w") as fh:
            json.dump(report.to_json_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
    else:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "value", "status", "detail"])
            for name in METRIC_NAMES:
                mv = report.metric(name)
                value = "" if mv.value is None else format(mv.value, ".12g")
                writer.writerow([name, value, mv.status, mv.detail])
    for name in METRIC_NAMES:
        mv = report.metric(name)
        shown = "undefined" if mv.value is None else format(mv.value, ".6g")
        print(f"{name:28s} {shown:>12s} [{mv.status}]")
    return EXIT_OK


def cmd_experiment(args) -> int:
    config = _load_config(args.config, args.seed, args.trials)
    report = harness.run_experiment(config)
    base, ext = os.path.splitext(args.out)
    if ext.lower() not in (".json", ".csv"):
        base = args.out
    json_path, csv_path = base + ".json", base + ".csv"
    with open(json_path, "w") as fh:
        fh.write(report.to_json())
    report.write_csv(csv_path)
    print(f"wrote {json_path} and {csv_path}")
    for index in sorted(report.datasets):
        result = report.datasets[index]
        parts = []
        for name in METRIC_NAMES:
            mean = result.metric_mean(name)
            parts.append(f"{name}={'undef' if mean is None else format(mean, '.4f')}")
        print(f"dataset {index}: " + " ".join(parts))
    return EXIT_OK


def cmd_rank(args) -> int:
    try:
        with open(args.report) as fh:
            doc = json.load(fh)
        means = {int(k): v["metrics"][args.metric]["mean"]
                 for k, v in doc["datasets"].items()}
    except FileNotFoundError as e:
        raise ValidationError(str(e)) from e
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise DataFormatError(f"{args.report}: not a valid experiment report: {e}") from e
    for index, mean in means.items():
        if mean is None:
            continue
        if isinstance(mean, bool) or not isinstance(mean, (int, float)):
            raise DataFormatError(f"{args.report}: dataset {index}: mean {mean!r} "
                                  "is neither a number nor null")
        try:
            finite = math.isfinite(mean)  # json reads NaN and Infinity
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise DataFormatError(f"{args.report}: dataset {index}: mean {mean!r} "
                                  "is not finite")

    order, excluded = harness.rank_means(means, FAIR_POINTS[args.metric])
    print(f"{args.metric}: least to most biased: "
          + " < ".join(str(i) for i in order))
    if excluded:
        print("excluded (undefined mean): " + ", ".join(str(i) for i in excluded))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code else EXIT_OK
    handlers = {"generate": cmd_generate, "build": cmd_build, "audit": cmd_audit,
                "experiment": cmd_experiment, "rank": cmd_rank}
    try:
        return handlers[args.command](args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFormatError, DegenerateDatasetError, EmptySelectionError,
            ExperimentError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericalFailureError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
