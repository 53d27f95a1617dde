"""The condition behind Experiment B's label-bias acceptance criterion.

test_acceptance.py asks that equal_opportunity_diff (EO) move less under label
bias than under sample bias in Experiment B: the margin
|EO(D2) - EO(D1)| - |EO(D3) - EO(D1)| must be positive. Whether it is depends
on how informative the features are. With strong features (a small
`noise_scale`) label bias moves EO further than sample bias does, and the
criterion fails; with weak ones it holds. At the bundled seed the margin
crosses zero between noise_scale 2.5 and 3.0, the bundled value; at base seed 1
it crosses between 1.5 and 2.0.
"""

from dataclasses import replace

import pytest

from fairaudit import bundled_config_path, load_config, run_experiment


def eo_margin(noise_scale: float, base_seed: int | None = None) -> float:
    """The bundled Experiment B at its own trials, with noise_scale replaced, at
    base_seed (by default the config's own)."""
    config = load_config(bundled_config_path("experiment_B.cfg"))
    config = replace(config, population=replace(config.population, noise_scale=noise_scale))
    if base_seed is not None:
        config = replace(config, base_seed=base_seed)
    eo = {k: result.metric_mean("equal_opportunity_diff")
          for k, result in run_experiment(config).datasets.items()}
    return abs(eo[2] - eo[1]) - abs(eo[3] - eo[1])


# measured, in standard errors from zero by the trial spread of D1, D2 and D3:
# at the bundled seed -0.0721 at 1.5 and +0.1512 at 4.5, 2.9 and 4.9 (the bundled
# 3.0 gives +0.0340, 1.1); at base seed 1 -0.0599 at 1.0 and +0.1559 at 4.5, 3.0 and 5.2
@pytest.mark.parametrize("noise_scale, base_seed, sign",
                         [(1.5, None, -1), (4.5, None, 1), (1.0, 1, -1), (4.5, 1, 1)],
                         ids=["strong_features_fail", "weak_features_hold",
                              "seed1_strong_features_fail", "seed1_weak_features_hold"])
def test_feature_strength_decides_the_B_label_bias_criterion(noise_scale, base_seed, sign):
    assert sign * eo_margin(noise_scale, base_seed) > 0
