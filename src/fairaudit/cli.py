"""Command-line entry point: generate, build, audit, experiment, rank.

Exit codes: 0 success (undefined metrics included), 2 config/usage error,
3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

from . import harness
from .bias import ALL_BIAS_SPECS, build_dataset, write_labeled_csv
from .datagen import generate_population, write_population_csv
from .errors import (DataFormatError, DegenerateDatasetError, EmptySelectionError,
                     ExperimentError, NumericalFailureError, ValidationError)
from .metrics import METRIC_NAMES, GroupedOutcomes, audit

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
    spec = replace(config.population,
                   seed=harness.stable_hash(config.base_seed, "population"))
    pop = generate_population(spec)
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
    bias_spec = next(s for s in ALL_BIAS_SPECS if s.dataset_index == args.dataset)
    data = build_dataset(base, bias_spec,
                         harness.stable_hash(config.base_seed, args.dataset, "build"),
                         biased_label_policy=config.biased_label_policy,
                         unbiased_label_policy=config.unbiased_label_policy,
                         biased_sample_policy=config.biased_sample_policy,
                         unbiased_sample_policy=config.unbiased_sample_policy,
                         min_cell_count=config.min_cell_count)
    write_labeled_csv(data, args.out)
    print(f"wrote dataset {args.dataset} ({len(data)} records) to {args.out}")
    return EXIT_OK


def _read_predictions_csv(path) -> GroupedOutcomes:
    required = ("group", "label", "score_hat", "label_hat")
    groups, labels, scores, preds = [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataFormatError(f"{path}: empty file")
        missing = [c for c in required if c not in reader.fieldnames]
        if missing:
            raise DataFormatError(f"{path}: line 1: missing columns {', '.join(missing)}")
        for line, row in enumerate(reader, start=2):
            try:
                groups.append(int(row["group"]))
                labels.append(int(row["label"]))
                scores.append(float(row["score_hat"]))
                preds.append(int(row["label_hat"]))
            except (TypeError, ValueError) as e:
                raise DataFormatError(f"{path}: line {line}: {e}") from e
    if not groups:
        raise DataFormatError(f"{path}: no data rows")
    try:
        return GroupedOutcomes(group=groups, label=labels,
                               score_hat=scores, label_hat=preds)
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
    except (json.JSONDecodeError, KeyError, ValueError) as e:
        raise DataFormatError(f"{args.report}: not a valid experiment report: {e}") from e
    from .metrics import FAIR_POINTS

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
