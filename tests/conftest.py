import math
from collections import Counter

import numpy as np
import pytest


def _chi_square_ok(counts, law) -> bool:
    # Pearson's test at a false-alarm rate of about 1e-6 (Wilson-Hilferty
    # quantile); bins expecting fewer than 5 draws are pooled into one.
    # Draws in a bin of zero probability fail the test outright.
    counts = np.asarray(counts, dtype=float)
    law = np.asarray(law, dtype=float)
    if counts[law <= 0].sum() > 0:
        return False
    expected = law * counts.sum()
    big = expected >= 5
    obs = np.append(counts[big], counts[~big].sum())
    exp = np.append(expected[big], expected[~big].sum())
    keep = exp > 0
    obs, exp = obs[keep], exp[keep]
    dof = len(exp) - 1
    if dof == 0:
        return obs[0] == counts.sum()
    stat = float(((obs - exp) ** 2 / exp).sum())
    return stat <= _chi_square_limit(dof)


def _chi_square_limit(dof: int) -> float:
    # upper 1e-6 quantile of chi-square with dof degrees of freedom, by the
    # Wilson-Hilferty approximation (z = 4.75)
    z = 4.75
    return dof * (1 - 2 / (9 * dof) + z * math.sqrt(2 / (9 * dof))) ** 3


def _two_sample_ok(a, b, bins=None) -> bool:
    # Pearson's homogeneity test of two samples at a false-alarm rate of
    # about 1e-6. Outcomes are any hashable values; with `bins`, numbers are
    # first binned at the pooled sample's quantiles (bin edges depend on
    # the pooled sample only, so the test stays valid). Outcomes seen fewer
    # than 10 times in both samples together are pooled into one bin.
    if bins is not None:
        pooled = np.concatenate([a, b]).astype(float)
        edges = np.unique(np.quantile(pooled, np.linspace(0, 1, bins + 1)[1:-1]))
        a = np.searchsorted(edges, a, side="right").tolist()
        b = np.searchsorted(edges, b, side="right").tolist()
    counts = Counter(a), Counter(b)
    keys = [key for key, count in (counts[0] + counts[1]).items() if count >= 10]
    table = np.array([[c[key] for key in keys] for c in counts], dtype=float)
    table = np.column_stack([table, [len(a), len(b)] - table.sum(axis=1)])
    table = table[:, table.sum(axis=0) > 0]
    dof = table.shape[1] - 1
    if dof == 0:
        return True
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    stat = float(((table - expected) ** 2 / expected).sum())
    return stat <= _chi_square_limit(dof)


@pytest.fixture
def chi_square_ok():
    """Pearson goodness-of-fit check of observed counts against a law."""
    return _chi_square_ok


@pytest.fixture
def two_sample_ok():
    """Pearson homogeneity check of two samples of outcomes."""
    return _two_sample_ok
