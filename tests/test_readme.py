"""The README's Library section: every name it lists imports, and its snippets run;
its Metrics list matches the metric table, and its Results tables match the
bundled experiments and their variants with the other model awareness."""

import ast
import importlib
import re
from pathlib import Path

import numpy as np

from fairaudit import (ALL_BIAS_SPECS, UNBIASED_LABEL_POLICY, UNBIASED_SAMPLE_POLICY,
                       audit, build_dataset, run_trial)
from fairaudit.harness import build_base, stable_hash
from fairaudit.metrics import FAIR_POINTS, METRIC_NAMES, METRICS
from conftest import deviations, same_population

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


def listed_pieces(text):
    """The backticked names of text's "Lower-level pieces (...)" list, read up to the
    parenthesis that closes it, so a name may be written with its arguments."""
    pieces = re.search(r"Lower-level pieces \(((?:[^()]|\([^()]*\))*)\)", text).group(1)
    return re.findall(r"`(\w+)[`(]", pieces)


def test_listed_pieces_read_past_argument_lists():
    text = "Lower-level pieces (`generate_population(spec, seed)`, `fit`) are importable"
    assert listed_pieces(text) == ["generate_population", "fit"]


def test_listed_names_import():
    names = {("fairaudit", name) for name in listed_pieces(LIBRARY)}
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


BIAS_NAMES = ("none", "sample", "label", "both")
HEADER = "| Dataset | " + " | ".join(f"`{name}`" for name in METRIC_NAMES) + " |"
RULE = "|---" * (1 + len(METRIC_NAMES)) + "|"


def standard_error(values):
    return np.std(values, ddof=1) / np.sqrt(len(values))


def results_table(report):
    """Each dataset's 20-trial mean ± standard error (sample sd / sqrt(n)) per metric."""
    rows = [f"| {index} ({BIAS_NAMES[index - 1]}) | " + " | ".join(
                f"{np.mean(values):.4f} ± {standard_error(values):.4f}"
                for values in map(result.metric_values, METRIC_NAMES)) + " |"
            for index, result in sorted(report.datasets.items())]
    return [HEADER, RULE, *rows]


def margins_table(gates):
    """One row per acceptance gate: its margin per metric, positive where it holds."""
    rows = [f"| {gate} | " + " | ".join(f"{margins[name]:+.4f}" if name in margins else "—"
                                        for name in METRIC_NAMES) + " |"
            for gate, margins in gates.items()]
    return [HEADER.replace("Dataset", "Gate"), RULE, *rows]


def gate_margins_A(report):
    dev = {name: deviations(report, name) for name in METRIC_NAMES}
    return {"D1 least biased": {name: min(dev[name][k] for k in (2, 3, 4)) - dev[name][1]
                                for name in METRIC_NAMES},
            "D4 most biased": {name: dev[name][4] - max(dev[name][k] for k in (1, 2, 3))
                               for name in METRIC_NAMES if name != "residual_diff"}}


def gate_margins_B(report):
    mean = {k: {name: r.metric_mean(name) for name in METRIC_NAMES}
            for k, r in report.datasets.items()}
    return {"D1 shows disparity": {"disparate_impact": abs(mean[1]["disparate_impact"] - 1) - 0.2,
                                   "mean_score_diff": abs(mean[1]["mean_score_diff"]) - 0.05},
            "label bias < sample bias": {
                name: abs(mean[2][name] - mean[1][name]) - abs(mean[3][name] - mean[1][name])
                for name in ("mean_score_diff", "equal_opportunity_diff",
                             "disparate_impact", "nmi")}}


def tables(text):
    """The markdown tables in text, each as its list of lines."""
    return [block.splitlines() for block in re.findall(r"^(\|.*\|\n(?:\|.*\|\n)*)", text, re.M)]


def test_results_tables_match_the_bundled_experiments(report_A, report_B):
    results = section("Results")
    for name, report, gates in (("A", report_A, gate_margins_A), ("B", report_B, gate_margins_B)):
        text = results.split(f"\n### Experiment {name}\n", 1)[1].split("\n### ", 1)[0]
        assert tables(text) == [results_table(report), margins_table(gates(report))]


def awareness_table(variants):
    """One row per (name, report) variant: each metric's label-bias response, the change
    in its deviation from the fair point from D1 to D3, and that change of the trial
    means in standard errors."""
    def cell(report, name):
        v1, v3 = report.datasets[1].metric_values(name), report.datasets[3].metric_values(name)
        m1, m3, fair = np.mean(v1), np.mean(v3), FAIR_POINTS[name]
        z = (m3 - m1) / np.hypot(standard_error(v1), standard_error(v3))
        return f"{abs(m3 - fair) - abs(m1 - fair):+.4f} ({z:+.1f})"

    rows = [f"| {variant} | " + " | ".join(cell(report, name) for name in METRIC_NAMES) + " |"
            for variant, report in variants]
    return [HEADER.replace("Dataset", "Variant"), RULE, *rows]


def test_awareness_table_matches_the_four_variants(report_A, report_A_unaware,
                                                   report_B_aware, report_B):
    text = section("Results").split("\n### Model awareness\n", 1)[1].split("\n### ", 1)[0]
    assert tables(text) == [awareness_table([("A aware (bundled)", report_A),
                                             ("A unaware", report_A_unaware),
                                             ("B aware", report_B_aware),
                                             ("B unaware (bundled)", report_B)])]
