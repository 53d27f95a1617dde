"""Counts of a finding over a family of base seeds the finding was not found at.

Each test runs the datasets its finding reads at 32 base seeds, about 45 s, so
these tests carry the `slow` marker, which pyproject.toml deselects by default;
run them with `python -m pytest -m slow`.
"""

from dataclasses import replace

import pytest

from fairaudit.harness import build_base, run_dataset
from fairaudit.metrics import FAIR_POINTS
from conftest import with_awareness


@pytest.mark.slow
def test_aware_B_label_bias_moves_eo_away_from_0_at_all_but_one_of_seeds_32_to_63():
    # with an aware model, label bias moves equal_opportunity_diff away from 0 in B; it
    # was found at the bundled seed and 1-31 (32 of 32), and is a rule, not a tendency,
    # if it masks (|EO(D3)| <= |EO(D1)|) at no more than 2 of these fresh seeds.
    # Seed 61 masks, -0.2119 -> -0.2061; the next-closest, 32, moves away by 0.0078
    metric, aware = "equal_opportunity_diff", with_awareness("experiment_B.cfg", True)
    masked = []
    for seed in range(32, 64):
        config = replace(aware, base_seed=seed)
        base = build_base(config)
        dev = {k: abs(run_dataset(config, k, base).metric_mean(metric) - FAIR_POINTS[metric])
               for k in (1, 3)}
        if dev[3] <= dev[1]:
            masked.append(seed)
    assert masked == [61]
