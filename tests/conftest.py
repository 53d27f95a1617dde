import numpy as np
import pytest

from fairaudit import GroupedOutcomes, Population, SamplePolicy
from fairaudit.errors import EmptySelectionError

# keeps every record: sampling becomes the identity, for exact unit tests
KEEP_ALL_SAMPLE_POLICY = SamplePolicy(cutoff=0.5, p_group0_high=1.0, p_group0_low=1.0,
                                      p_group1_high=1.0, p_group1_low=1.0)


def make_population(groups, scores, features=None, labels=None):
    """Population with ids 0..n-1; features default to two zero columns."""
    n = len(groups)
    if features is None:
        features = np.zeros((n, 2))
    return Population(np.arange(n), groups, scores, features, labels)


def positive_rate(pop, group, threshold=0.5):
    """Fraction of a group's records with score >= threshold."""
    scores = pop.score[pop.group == group]
    if not scores.size:
        raise EmptySelectionError(f"no records in group {group}")
    return int(np.count_nonzero(scores >= threshold)) / scores.size


def same_population(a, b):
    """True iff every column of a and b holds the same values (labels included)."""
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("id", "group", "score", "features", "label"))


def build_outcomes(cells, scores_equal_labels=True):
    """Expand (s, y, yhat, count) cells into a GroupedOutcomes.

    With scores_equal_labels the continuous score equals the predicted label,
    matching the shared confusion fixture.
    """
    group, label, score_hat, label_hat = [], [], [], []
    for s, y, yhat, count in cells:
        group.extend([s] * count)
        label.extend([y] * count)
        label_hat.extend([yhat] * count)
        score_hat.extend([float(yhat) if scores_equal_labels else 0.5] * count)
    return GroupedOutcomes(group=group, label=label,
                           score_hat=score_hat, label_hat=label_hat)


@pytest.fixture
def confusion_fixture():
    """Shared fixture: S=1 TP=20 FN=30 FP=10 TN=40; S=0 TP=45 FN=5 FP=25 TN=25."""
    return build_outcomes([
        (1, 1, 1, 20), (1, 1, 0, 30), (1, 0, 1, 10), (1, 0, 0, 40),
        (0, 1, 1, 45), (0, 1, 0, 5), (0, 0, 1, 25), (0, 0, 0, 25),
    ])


def random_outcomes(rng, max_n=200):
    """Random dataset for oracle-equivalence checks; cells may be empty."""
    n = int(rng.integers(1, max_n + 1))
    return GroupedOutcomes(group=rng.integers(0, 2, n),
                           label=rng.integers(0, 2, n),
                           score_hat=rng.random(n),
                           label_hat=rng.integers(0, 2, n))
