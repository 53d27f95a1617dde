"""The README's Library section: every name it lists imports, and its snippets run;
its Metrics list matches the metric table."""

import ast
import importlib
import re
from pathlib import Path

import numpy as np

from fairaudit import (ALL_BIAS_SPECS, UNBIASED_LABEL_POLICY, UNBIASED_SAMPLE_POLICY,
                       audit, build_dataset, run_trial)
from fairaudit.harness import build_base, stable_hash
from fairaudit.metrics import METRICS
from conftest import same_population

README = Path(__file__).resolve().parents[1] / "README.md"


def section(title):
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


LIBRARY = section("Library")
BLOCKS = re.findall(r"```python\n(.*?)```", LIBRARY, re.S)


def run_snippet(*markers):
    """Execute, in order and in one namespace, the one Library block containing
    each marker; returns the namespace."""
    namespace = {}
    for marker in markers:
        (block,) = [b for b in BLOCKS if marker in b]
        exec(block, namespace)
    return namespace


def test_listed_names_import():
    pieces = re.search(r"Lower-level pieces \((.*?)\)", LIBRARY, re.S).group(1)
    names = {("fairaudit", name) for name in re.findall(r"`(\w+)`", pieces)}
    assert names, "no lower-level pieces listed"
    for block in BLOCKS:
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom):
                names |= {(node.module, alias.name) for alias in node.names}
    missing = [f"{module}.{name}" for module, name in sorted(names)
               if not hasattr(importlib.import_module(module), name)]
    assert not missing


def test_population_snippet_runs():
    namespace = run_snippet("Population(")
    assert np.array_equal(namespace["group1"].id, [2, 3])
    assert len(namespace["model"].coefficients) == 2


def test_trial_recipe_rebuilds_the_trial():
    namespace = run_snippet("trial_outcomes(")
    config, k, t = namespace["config"], namespace["k"], namespace["t"]
    spec = ALL_BIAS_SPECS[k - 1]
    expected = run_trial(config, spec, stable_hash(config.base_seed, k, t),
                         base=build_base(config))
    assert audit(namespace["outcomes"]).to_json_dict() == expected.to_json_dict()


def test_bias_strength_snippet_sweeps_the_label_gap():
    namespace = run_snippet("trial_outcomes(", "LabelPolicy(0.5 - gap")
    base, by_gap = namespace["base"], namespace["by_gap"]
    assert list(by_gap) == [0.0, 0.1, 0.2]
    unbiased = build_dataset(base, UNBIASED_SAMPLE_POLICY, UNBIASED_LABEL_POLICY, 1, 10)
    assert same_population(by_gap[0.0], unbiased)
    # a wider gap labels more of group 0 and less of group 1 positive
    rates = [[d.label[d.group == g].mean() for d in by_gap.values()] for g in (0, 1)]
    assert rates[0] == sorted(rates[0]) and rates[1] == sorted(rates[1], reverse=True)


def test_metrics_list_matches_the_metric_table():
    metrics = section("Metrics")
    # "- `name`: description (fair point X)", wrapping onto indented lines
    entries = re.findall(r"^- `(\w+)`:(?:.|\n  )*?\(fair point ([^)]*)\)$", metrics, re.M)
    assert len(entries) == len(re.findall(r"^- ", metrics, re.M))
    assert [(name, float(fair)) for name, fair in entries] == [
        (name, fair) for name, (fair, _) in METRICS.items()]
