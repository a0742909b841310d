import math

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
    z = 4.75
    return stat <= dof * (1 - 2 / (9 * dof) + z * math.sqrt(2 / (9 * dof))) ** 3


@pytest.fixture
def chi_square_ok():
    """Pearson goodness-of-fit check of observed counts against a law."""
    return _chi_square_ok
