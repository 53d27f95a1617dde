"""Counts of a finding over a family of base seeds the finding was not found at.

Each test runs a bundled experiment at 32 base seeds, a minute or more, so these
tests carry the `slow` marker, which pyproject.toml deselects by default; run them
with `python -m pytest -m slow`.
"""

from dataclasses import replace

import pytest

from fairaudit import run_experiment
from conftest import deviations, with_awareness


@pytest.mark.slow
def test_aware_B_label_bias_moves_eo_away_from_0_at_all_but_one_of_seeds_32_to_63():
    # with an aware model, label bias moves equal_opportunity_diff away from 0 in B; it
    # was found at the bundled seed and 1-31 (32 of 32), and is a rule, not a tendency,
    # if it masks (|EO(D3)| <= |EO(D1)|) at no more than 2 of these fresh seeds.
    # Seed 61 masks, -0.2119 -> -0.2061; the next-closest, 32, moves away by 0.0078
    config = with_awareness("experiment_B.cfg", True)
    masked = []
    for seed in range(32, 64):
        dev = deviations(run_experiment(replace(config, base_seed=seed)),
                         "equal_opportunity_diff")
        if dev[3] <= dev[1]:
            masked.append(seed)
    assert masked == [61]
