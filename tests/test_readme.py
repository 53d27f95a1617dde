"""The README's Library section: every name it lists imports, and its snippets run."""

import ast
import importlib
import re
from pathlib import Path

import numpy as np

from fairaudit import ALL_BIAS_SPECS, GroupedOutcomes, audit, fit, predict, run_trial
from fairaudit.harness import build_base, stable_hash

README = Path(__file__).resolve().parents[1] / "README.md"
LIBRARY = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
BLOCKS = re.findall(r"```python\n(.*?)```", LIBRARY, re.S)


def run_snippet(marker):
    """Execute the one Library block containing marker; returns its namespace."""
    (block,) = [b for b in BLOCKS if marker in b]
    namespace = {}
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
    namespace = run_snippet("trial_dataset(")
    config, k, t = namespace["config"], namespace["k"], namespace["t"]
    train, test = namespace["train"], namespace["test"]
    rebuilt = audit(GroupedOutcomes.from_labeled(test, predict(fit(train, config.model), test)))
    spec = next(s for s in ALL_BIAS_SPECS if s.dataset_index == k)
    expected = run_trial(config, spec, stable_hash(config.base_seed, k, t),
                         base=build_base(config))
    assert rebuilt.to_json_dict() == expected.to_json_dict()
