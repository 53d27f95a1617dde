"""Inputs the benchmark generates from the seed, and the checks on the
program's outputs.

worker.py does not import this module, so the child process leaves numpy
unimported until fairaudit's own import, which set-up time includes.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
from pathlib import Path

import numpy as np

from workloads import DEFAULT_SEED, Command, config_path, cycle, file_stats, trials_per_command

AUDIT_ROWS = 2_000_000
# the metric oracles in tests/oracles.py hold the program to this tolerance
AUDIT_TOLERANCE = 1e-12
CSV_COLUMNS = ("group", "label", "score_hat", "label_hat")
METRIC_NAMES = ("mean_score_diff", "residual_diff", "equal_opportunity_diff",
                "equal_misopportunity_diff", "disparate_impact", "nmi")


# scores carry SCORE_DIGITS decimals, so each one is exactly the double the CLI parses back
SCORE_DIGITS = 12


def audit_columns(seed: int, rows: int = AUDIT_ROWS) -> dict[str, np.ndarray]:
    """Seeded predictions: group, label, score_hat, label_hat, with every cell populated."""
    rng = np.random.default_rng(seed)
    group = (rng.random(rows) < 0.3).astype(np.int64)
    latent = rng.standard_normal(rows) + 0.4 * group
    label = (latent + rng.standard_normal(rows) > 0.0).astype(np.int64)
    scale = 10 ** SCORE_DIGITS
    ticks = np.minimum(np.rint(scale / (1.0 + np.exp(-1.5 * latent))), scale - 1).astype(np.int64)
    score = ticks / float(scale)
    return {"group": group, "label": label, "score_hat": score,
            "label_hat": (score >= 0.5).astype(np.int64), "ticks": ticks}


def write_predictions_csv(columns: dict[str, np.ndarray], path: Path) -> None:
    """Rows `g,y,0.dddddddddddd,p`, formatted as fixed-width bytes in numpy."""
    n = columns["group"].size
    row = np.empty((n, len("g,y,0.") + SCORE_DIGITS + len(",p\n")), dtype=np.uint8)
    row[:, 0] = ord("0") + columns["group"]
    row[:, 2] = ord("0") + columns["label"]
    row[:, 1] = row[:, 3] = row[:, -3] = ord(",")
    row[:, 4:6] = np.frombuffer(b"0.", dtype=np.uint8)
    ticks = columns["ticks"]
    for j in range(SCORE_DIGITS):
        row[:, 6 + j] = ord("0") + (ticks // 10 ** (SCORE_DIGITS - 1 - j)) % 10
    row[:, -2] = ord("0") + columns["label_hat"]
    row[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(",".join(CSV_COLUMNS).encode() + b"\n")
        fh.write(row.tobytes())


def audit_oracle(columns: dict[str, np.ndarray]) -> dict:
    """The six metrics and the (S, Y, Yhat) cell counts, computed independently."""
    s, y = columns["group"], columns["label"]
    score, yhat = columns["score_hat"], columns["label_hat"]
    g1, g0 = s == 1, s == 0
    cells = np.bincount(4 * s + 2 * y + yhat, minlength=8)
    joint = np.array([[np.sum((yhat == a) & (s == b)) for b in (0, 1)]
                      for a in (0, 1)], dtype=float) / s.size
    py, ps = joint.sum(axis=1), joint.sum(axis=0)
    mi = sum(joint[a, b] * math.log(joint[a, b] / (py[a] * ps[b]))
             for a in (0, 1) for b in (0, 1) if joint[a, b] > 0)
    h = [-sum(p * math.log(p) for p in m if p > 0) for m in (py, ps)]
    values = {
        "mean_score_diff": score[g1].mean() - score[g0].mean(),
        "residual_diff": (score - y)[g1].mean() - (score - y)[g0].mean(),
        "equal_opportunity_diff": yhat[g1 & (y == 1)].mean() - yhat[g0 & (y == 1)].mean(),
        "equal_misopportunity_diff": yhat[g1 & (y == 0)].mean() - yhat[g0 & (y == 0)].mean(),
        "disparate_impact": yhat[g1].mean() / yhat[g0].mean(),
        "nmi": mi / math.sqrt(h[0] * h[1]),
    }
    return {"metrics": {k: {"value": float(v), "status": "ok"} for k, v in values.items()},
            "cell_counts": {f"s{i >> 2}_y{(i >> 1) & 1}_yhat{i & 1}": int(c)
                            for i, c in enumerate(cells)}}


def prepare(workload: str, seed: int, work: Path) -> dict | None:
    """Write the workload's generated inputs; returns the expected audit report, if any."""
    if workload != "audit_csv":
        return None
    columns = audit_columns(seed)
    write_predictions_csv(columns, work / "predictions.csv")
    return audit_oracle(columns)


# --- output checks --------------------------------------------------------

def compare_audit(report: dict, expected: dict) -> list[str]:
    """Differences between an audit report's metrics and cell counts and the expected ones."""
    problems = []
    for name in METRIC_NAMES:
        got, want = report["metrics"][name], expected["metrics"][name]
        if got["status"] != want["status"]:
            problems.append(f"{name}: status {got['status']} != {want['status']}")
        elif want["value"] is not None and not abs(got["value"] - want["value"]) <= AUDIT_TOLERANCE:
            problems.append(f"{name}: {got['value']!r} differs from {want['value']!r}")
    if report["cell_counts"] != expected["cell_counts"]:
        problems.append("cell_counts differ")
    return problems


def _experiment_means(doc: dict) -> dict:
    return {d: {m: v["metrics"][m]["mean"] for m in METRIC_NAMES}
            for d, v in sorted(doc["datasets"].items())}


def check_experiment(root: Path, key: str, json_path: Path, csv_path: Path) -> tuple[int, list[str]]:
    """(failed trials, problems) from one experiment's JSON and CSV at any seed."""
    trials = trials_per_command(root)[key]
    doc = json.loads(json_path.read_text())
    problems = []
    if sorted(doc["datasets"]) != ["1", "2", "3", "4"]:
        return trials, [f"{json_path.name}: datasets {sorted(doc['datasets'])}"]
    failed = sum(len(v["failures"]) for v in doc["datasets"].values())
    values: dict[tuple[str, str], list[float]] = {}
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != trials * len(METRIC_NAMES):
        problems.append(f"{csv_path.name}: {len(rows)} rows")
    for row in rows:
        if row["status"] == "ok":
            values.setdefault((row["dataset"], row["metric"]), []).append(float(row["value"]))
    for d, means in _experiment_means(doc).items():
        for metric, mean in means.items():
            vs = values.get((d, metric), [])
            if mean is None or not vs or not math.isclose(mean, sum(vs) / len(vs),
                                                          rel_tol=1e-9, abs_tol=1e-10):
                problems.append(f"{json_path.name}: dataset {d} {metric} mean {mean} "
                                f"disagrees with the CSV")
    return failed, problems


def check_export(root: Path, command: Command, path: Path) -> list[str]:
    """Row counts, id order and label thresholds of one exported CSV at any seed."""
    key = command.name.split("_")[1][0]
    parser = configparser.ConfigParser()
    parser.read(config_path(root, key))
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    col = {name: table[:, i] for i, name in enumerate(header)}
    ids, group, score = col["id"], col["group"], col["score"]
    problems = []
    if not np.all(np.diff(ids) > 0):
        problems.append(f"{path.name}: ids are not increasing")
    if not np.isfinite(table).all():
        problems.append(f"{path.name}: non-finite values")
    if command.name.startswith("generate"):
        pop = parser["population"]
        if ids.size != pop.getint("n_group0") + pop.getint("n_group1"):
            problems.append(f"{path.name}: {ids.size} records")
        if int(group.sum()) != pop.getint("n_group1"):
            problems.append(f"{path.name}: {int(group.sum())} group-1 records")
        return problems
    index = int(command.name[-1])
    policy = parser["label_policy.biased" if index >= 3 else "label_policy.unbiased"]
    threshold = np.where(group == 1, policy.getfloat("threshold_group1"),
                         policy.getfloat("threshold_group0"))
    # scores are written with 12 significant digits, so skip ties at the threshold
    clear = np.abs(score - threshold) > 1e-9
    if np.any(col["label"][clear] != (score[clear] >= threshold[clear])):
        problems.append(f"{path.name}: labels disagree with the label policy")
    min_cell = parser.getint("experiment", "min_cell_count", fallback=10)
    for g in (0, 1):
        for y in (0, 1):
            if np.sum((group == g) & (col["label"] == y)) < min_cell:
                problems.append(f"{path.name}: cell (group={g}, label={y}) below {min_cell}")
    return problems


def golden_outputs(workload: str, root: Path, work: Path) -> dict:
    """What golden.json pins for a workload, read from one cycle's outputs."""
    if workload == "audit_csv":
        return {"audit": json.loads((work / "audit.json").read_text())}
    out = {}
    for command in cycle(workload, DEFAULT_SEED, root, work):
        for name in command.outputs:
            if name.endswith(".csv"):
                out[name] = file_stats(work / name)[0]
            else:
                out[name] = {"means": _experiment_means(json.loads((work / name).read_text()))}
    return out


def check_golden(workload: str, command: Command, work: Path, golden: dict) -> list[str]:
    """Differences between a command's outputs and the golden outputs at DEFAULT_SEED."""
    if workload == "audit_csv":
        return compare_audit(json.loads((work / "audit.json").read_text()), golden["audit"])
    problems = []
    for name in command.outputs:
        want = golden[name]
        if name.endswith(".csv"):
            if file_stats(work / name)[0] != want:
                problems.append(f"{name}: differs from the golden output")
        elif _experiment_means(json.loads((work / name).read_text())) != want["means"]:
            problems.append(f"{name}: per-dataset means differ from the golden output")
    return problems
