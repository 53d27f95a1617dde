"""Command-line entry point: generate, build, audit, experiment, rank.

Exit codes: 0 success (undefined metrics included), 2 config/usage error,
3 data error, 4 numerical failure. Each error class in `errors` carries its
own exit code; an OSError (an unreadable or unwritable path) is a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import harness
# cli calls build_dataset through harness; the name stays because perfbench/tracer.py patches it
from .bias import build_dataset, write_labeled_csv
from .datagen import generate_population, open_output, write_population_csv
from .errors import DataFormatError, FairauditError, ValidationError, in_unit, parse_number
from .metrics import FAIR_POINTS, METRIC_NAMES, GroupedOutcomes, audit

EXIT_OK = 0
EXIT_CONFIG = 2
DATASET_INDICES = range(1, len(harness.ALL_BIAS_SPECS) + 1)  # the 2x2 grid's datasets


def integer(text: str) -> int:
    """An integer argument by parse_number's rule; argparse says invalid integer value: '1_0'."""
    return parse_number(text, int)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairaudit",
                                     description="Bias-injection fairness audit toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic population CSV")
    gen.add_argument("--config", required=True, help="experiment config file")
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.add_argument("--seed", type=integer, default=None, help="override the base seed")

    build = sub.add_parser("build", help="build one bias-grid dataset as labeled CSV")
    build.add_argument("--config", required=True)
    build.add_argument("--dataset", type=integer, choices=DATASET_INDICES, required=True)
    build.add_argument("--out", required=True)
    build.add_argument("--seed", type=integer, default=None)

    aud = sub.add_parser("audit", help="audit a predictions CSV")
    aud.add_argument("--input", required=True,
                     help="CSV with columns group,label,score_hat,label_hat")
    aud.add_argument("--out", required=True,
                     help="report path; a .csv name gets the metric table, any other JSON")

    exp = sub.add_parser("experiment", help="run the full 2x2 experiment grid")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", required=True,
                     help="output basename; writes <out>.json and <out>.csv")
    exp.add_argument("--seed", type=integer, default=None)

    rank = sub.add_parser("rank", help="rank datasets by deviation from the fair point")
    rank.add_argument("--report", required=True, help="experiment report JSON")
    rank.add_argument("--metric", choices=METRIC_NAMES, required=True)
    return parser


def _load_config(path, seed_override=None) -> harness.ExperimentConfig:
    config = harness.load_config(path)
    if seed_override is not None:
        config = replace(config, base_seed=seed_override)
    return config


def cmd_generate(args) -> int:
    config = _load_config(args.config, args.seed)
    pop = generate_population(config.population, harness.population_seed(config))
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
    data = harness.trial_dataset(config, harness.ALL_BIAS_SPECS[args.dataset - 1],
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
        # from numpy 1.23 until the deprecation expired, numpy warns, then casts 0.7 in
        # an int column to 0; numpy 2.4 raises ValueError itself
        warnings.filterwarnings("error", r"loadtxt\(\): Parsing an integer via a float",
                                DeprecationWarning)
        return np.loadtxt(source, dtype=dtype, delimiter=",", comments=None, quotechar='"',
                          skiprows=skiprows, usecols=usecols, ndmin=1, encoding="utf-8")


@contextlib.contextmanager
def _any_field_length():
    """Lift csv's 131,072-character field limit, so the csv.reader passes read any
    field np.loadtxt reads; the limit is module state, restored on exit."""
    limit = csv.field_size_limit(2**31 - 1)  # the most a C long holds on every platform
    try:
        yield
    finally:
        csv.field_size_limit(limit)


def _parses(field: str, dtype) -> bool:
    """Whether _loadtxt's converter for dtype accepts the field: parse_number's rule,
    and an int64 column's range."""
    try:
        value = parse_number(field, int if dtype is np.int64 else float)
    except ValueError:
        return False
    return dtype is not np.int64 or -2**63 <= value < 2**63


def _first_bad_field(path, positions) -> str | None:
    """The physical line and column of the first field that does not parse or is out of range."""
    with open(path, newline="", encoding="utf-8") as fh, _any_field_length():
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
                    if row[i] in ("0", "1"):  # valid in every column; skips most parses
                        continue
                    where = f"line {reader.line_num}: column {name}"
                    if not _parses(row[i], dtype):
                        return f"{where}: could not convert {row[i]!r} to {np.dtype(dtype)}"
                    # an integer that parses lies in [0, 1] exactly when it is 0 or 1
                    if not in_unit(parse_number(row[i], float)):
                        rule = "be 0 or 1" if dtype is np.int64 else "lie in [0, 1]"
                        return f"{where}: must {rule}, got {row[i]!r}"
        except csv.Error as e:
            return f"line {reader.line_num}: {e}"
    return None


def _read_predictions_csv(path) -> GroupedOutcomes:
    extension = os.path.splitext(path)[1]
    if extension in COMPRESSED_EXTENSIONS:
        raise DataFormatError(f"{path}: compressed input ({extension}) is not supported; "
                              "decompress or rename it")
    try:
        # utf-8-sig: a spreadsheet's "CSV UTF-8" starts with a byte-order mark
        with open(path, newline="", encoding="utf-8-sig") as fh, _any_field_length():
            reader = csv.reader(fh)
            header = next(reader, None)
            header_lines = reader.line_num
        if header is None:
            raise DataFormatError(f"{path}: empty file")
        # any column order, names stripped; extra columns ignored; a repeated name means its last
        positions = {name.strip(): i for i, name in enumerate(header)}
        missing = [name for name, _ in PREDICTION_COLUMNS if name not in positions]
        if missing:
            raise DataFormatError(f"{path}: line 1: missing columns {', '.join(missing)}")
        table = _loadtxt(path, list(PREDICTION_COLUMNS),
                         [positions[name] for name, _ in PREDICTION_COLUMNS],
                         skiprows=header_lines)
        if table.size == 0:
            raise DataFormatError(f"{path}: no data rows")
        # every field is 8 bytes, so one pass unzips the 32-byte records into a (4, n)
        # block whose rows GroupedOutcomes keeps without copying
        columns = np.empty((len(PREDICTION_COLUMNS), table.size), dtype=np.int64)
        columns.T[...] = table.view(np.int64).reshape(table.size, len(PREDICTION_COLUMNS))
        del table
        return GroupedOutcomes(**{name: columns[i].view(dtype)
                                  for i, (name, dtype) in enumerate(PREDICTION_COLUMNS)})
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: not UTF-8 text: {e}") from e
    except csv.Error as e:
        raise DataFormatError(f"{path}: line 1: {e}") from e
    except (ValueError, ValidationError) as e:
        # neither numpy's message nor GroupedOutcomes' names the physical line and column
        raise DataFormatError(f"{path}: {_first_bad_field(path, positions) or e}") from e


def cmd_audit(args) -> int:
    data = _read_predictions_csv(args.input)
    report = audit(data)
    if os.path.splitext(args.out)[1].lower() == ".csv":
        with open_output(args.out, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "value", "status", "detail"])
            for name in METRIC_NAMES:
                mv = report.metric(name)
                writer.writerow([name, mv.csv_text, mv.status, mv.detail])
    else:
        with open_output(args.out) as fh:
            json.dump(report.to_json_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
    for name in METRIC_NAMES:
        mv = report.metric(name)
        shown = "undefined" if mv.value is None else format(mv.value, ".6g")
        print(f"{name:28s} {shown:>12s} [{mv.status}]")
    return EXIT_OK


def cmd_experiment(args) -> int:
    config = _load_config(args.config, args.seed)
    base, ext = os.path.splitext(args.out)
    if ext.lower() not in (".json", ".csv"):
        base = args.out
    # checked before the grid runs, not when the first write fails after it
    directory, name = os.path.split(base)
    if name in ("", ".", ".."):
        raise ValidationError(f"--out {args.out!r} names a directory, not a file basename")
    if not os.path.isdir(directory or "."):
        raise ValidationError(f"--out {args.out!r}: {directory!r} is not a directory")
    json_path, csv_path = base + ".json", base + ".csv"
    for path in (json_path, csv_path):
        if os.path.isdir(path):
            raise ValidationError(f"--out {args.out!r}: {path!r} is a directory")
    report = harness.run_experiment(config)
    with open_output(json_path) as fh:
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


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; a repeated key raises ValueError where json.load
    would keep its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def cmd_rank(args) -> int:
    # exactly the keys run_experiment writes: str(index) for every dataset of the grid
    expected = [str(index) for index in DATASET_INDICES]
    try:
        with open(args.report, encoding="utf-8-sig") as fh:
            datasets = json.load(fh, object_pairs_hook=_unique_keys)["datasets"]
        if sorted(datasets) != expected:
            raise DataFormatError(f"{args.report}: expected dataset keys {expected}, "
                                  f"found {sorted(datasets)}")
        means = {index: datasets[str(index)]["metrics"][args.metric]["mean"]
                 for index in DATASET_INDICES}
    except (KeyError, TypeError, ValueError) as e:
        raise DataFormatError(f"{args.report}: not a valid experiment report: {e}") from e
    for index, mean in means.items():
        # json reads NaN, Infinity and integers beyond the float range; bool is not a number
        if mean is not None and not (type(mean) in (int, float)
                                     and abs(mean) <= sys.float_info.max):
            raise DataFormatError(f"{args.report}: dataset {index}: mean {mean!r} "
                                  "is neither a finite number nor null")

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
    except (FairauditError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return getattr(e, "exit_code", EXIT_CONFIG)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
