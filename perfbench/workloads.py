"""The benchmark's workloads: the fairaudit commands of one cycle.

paper_grid runs `experiment` on both bundled configs, audit_csv runs `audit`
on a generated predictions CSV, export_csv runs `generate` and `build` for
both configs. Each workload exercises layers the others skip, so an
optimisation of one layer has a workload that should move and one that
should not.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("paper_grid", "audit_csv", "export_csv")
# base_seed of the bundled configs; golden.json holds the outputs at this seed
DEFAULT_SEED = 20260823
CONFIGS = {"A": "experiment_A.cfg", "B": "experiment_B.cfg"}


@dataclass(frozen=True)
class Command:
    name: str                  # stable id of the command within its cycle
    argv: tuple[str, ...]      # arguments to fairaudit.cli.main
    outputs: tuple[str, ...]   # files it writes in the work directory


def config_path(root: Path, key: str) -> Path:
    return root / "src" / "fairaudit" / "configs" / CONFIGS[key]


def trials_per_command(root: Path) -> dict[str, int]:
    """Trials one `experiment` command runs per config: 4 datasets x the config's trials."""
    out = {}
    for key in CONFIGS:
        parser = configparser.ConfigParser()
        parser.read(config_path(root, key))
        out[key] = 4 * parser.getint("experiment", "trials")
    return out


def setup_configs(workload: str) -> tuple[str, ...]:
    """Configs whose load_config and build_base count as the workload's set-up."""
    return () if workload == "audit_csv" else tuple(CONFIGS)


def cycle(workload: str, seed: int, root: Path, work: Path) -> list[Command]:
    """The commands one cycle of the workload runs, in order."""
    if workload == "audit_csv":
        return [Command("audit", ("audit", "--input", str(work / "predictions.csv"),
                                  "--out", str(work / "audit.json")), ("audit.json",))]
    commands = []
    for key in CONFIGS:
        cfg = str(config_path(root, key))
        if workload == "paper_grid":
            name = f"experiment_{key}"
            commands.append(Command(name, ("experiment", "--config", cfg, "--out",
                                           str(work / name), "--seed", str(seed)),
                                    (name + ".json", name + ".csv")))
            continue
        name = f"population_{key}.csv"
        commands.append(Command(f"generate_{key}", ("generate", "--config", cfg, "--out",
                                                    str(work / name), "--seed", str(seed)),
                                (name,)))
        for k in (1, 2, 3, 4):
            name = f"dataset_{key}{k}.csv"
            commands.append(Command(f"build_{key}{k}",
                                    ("build", "--config", cfg, "--dataset", str(k),
                                     "--out", str(work / name), "--seed", str(seed)),
                                    (name,)))
    return commands


def file_stats(path: Path) -> tuple[str, int]:
    """SHA-256 of the file and its number of data rows (lines after the header)."""
    data = path.read_bytes()
    return hashlib.sha256(data).hexdigest(), max(data.count(b"\n") - 1, 0)
