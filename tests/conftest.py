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


def _draw_law(p, cap=None, probs=None, at=0):
    # Exact joint law {(end, oracle, aa, rounds): mass} of the one draw of
    # amplify_chain(None, [p], 0, [cap], gen, us, 1), or, with `probs`, of
    # the one draw with readout from atom `at` of a law with atom
    # probabilities `probs`, whose tail there is p. Round ell takes n
    # uniformly from README's grid {ceil(1.1^(ell-1)), ..., ceil(1.1^ell) - 1},
    # or its lower end when that is empty, costs 4n + 3 oracle experiments
    # and 3n + 1 steps, and succeeds with probability sin^2((2n + 1) theta).
    # A round the cap cuts after `spent` credits f + f // 2 steps,
    # f = min((cap - spent) // 2, 2n + 1), and counts only if cap > spent.
    # A success moves the end above atom `at`; with `probs`, one that leaves
    # room for the readout measurement moves it to atom j + 1 with
    # probability probs[j] / p. An uncapped law stops once at most 1e-15 of
    # it survives.
    theta = math.asin(math.sqrt(p))
    limit = math.inf if cap is None else cap
    law, alive, ell = Counter(), {0: 1.0}, 1  # alive[S], S the failed rounds' sum of n
    while alive and (cap is not None or sum(alive.values()) > 1e-15):
        lo = math.ceil(1.1 ** (ell - 1))
        grid = range(lo, max(lo, math.ceil(1.1**ell) - 1) + 1)
        rates = [(n, math.sin((2 * n + 1) * theta) ** 2, math.cos((2 * n + 1) * theta) ** 2)
                 for n in grid]
        nxt = Counter()
        for s, mass in alive.items():
            spent, aa, w = 4 * s + 3 * (ell - 1), 3 * s + ell - 1, mass / len(grid)
            for n, hit, miss in rates:
                if spent + 4 * n + 3 > limit:
                    f = min((cap - spent) // 2, 2 * n + 1)
                    law[at, cap, aa + f + f // 2, ell - 1 + (cap > spent)] += w
                    continue
                oracle, steps = spent + 4 * n + 3, aa + 3 * n + 1
                if probs is None:
                    law[at + 1, oracle, steps, ell] += w * hit
                elif oracle < limit:
                    for j in range(at, len(probs)):
                        if probs[j] > 0.0:
                            law[j + 1, oracle + 1, steps, ell] += w * hit * probs[j] / p
                else:
                    law[at, oracle, steps, ell] += w * hit
                nxt[s + n] += w * miss
        alive, ell = nxt, ell + 1
    return law


@pytest.fixture
def chi_square_ok():
    """Pearson goodness-of-fit check of observed counts against a law."""
    return _chi_square_ok


@pytest.fixture
def draw_law():
    """Exact law of one sequential-amplification draw of amplify_chain."""
    return _draw_law
