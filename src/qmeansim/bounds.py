"""Information-theoretic lower-bound calculators for distribution pairs.

These quantify how hard two finite distributions are to tell apart when each
is presented as a pure state with amplitudes sqrt(p(x)): the KL divergence
bounds the number of copies needed for reliable discrimination, and the
Helstrom bound gives the optimal single-shot (or T-copy) success probability
from the state fidelity.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from ._record import Record
from .dist import FiniteDist

__all__ = [
    "BoundReport",
    "kl_divergence",
    "fidelity",
    "helstrom_success",
    "distinguish_T_lower",
    "bound_report",
]


def _union_probs(p0: FiniteDist, p1: FiniteDist) -> tuple[np.ndarray, np.ndarray]:
    support = np.union1d(p0.values, p1.values)
    a = np.zeros(support.size)
    b = np.zeros(support.size)
    a[np.searchsorted(support, p0.values)] = p0.probs
    b[np.searchsorted(support, p1.values)] = p1.probs
    return a, b


def kl_divergence(p0: FiniteDist, p1: FiniteDist) -> float:
    """Sum of p0(x) * ln(p0(x)/p1(x)); inf when p1 misses mass of p0."""
    a, b = _union_probs(p0, p1)
    mask = a > 0
    if np.any(b[mask] == 0):
        return math.inf
    return float(np.sum(a[mask] * np.log(a[mask] / b[mask])))


def fidelity(p0: FiniteDist, p1: FiniteDist) -> float:
    """Overlap sum of sqrt(p0(x) * p1(x)); 1 iff equal, 0 iff disjoint."""
    a, b = _union_probs(p0, p1)
    return float(np.sum(np.sqrt(a * b)))


def helstrom_success(p0: FiniteDist, p1: FiniteDist, t: int = 1) -> float:
    """Optimal success probability to tell T copies of the two states apart.

    Equals (1 + sqrt(1 - F^(2T))) / 2 with F the fidelity. The copy count
    T must be an integer >= 1: a bool or a float, NaN or whole, is refused
    before any work.
    """
    if isinstance(t, bool) or not isinstance(t, numbers.Integral) or t < 1:
        raise ValueError(f"need a whole number of copies >= 1, got T={t!r}")
    f = fidelity(p0, p1)
    return 0.5 * (1.0 + math.sqrt(max(1.0 - f ** (2 * t), 0.0)))


def distinguish_T_lower(p0: FiniteDist, p1: FiniteDist, delta: float) -> float:
    """Copies needed to distinguish the states with failure at most delta.

    Returns ceil(ln(1/(4*delta)) / KL), floored at 1; inf when the KL
    divergence vanishes. Positive bounds need delta < 1/4.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"failure probability must be in (0, 1), got {delta}")
    kl = kl_divergence(p0, p1)
    if kl == 0.0:
        return math.inf
    if math.isinf(kl):
        return 1
    return max(math.ceil(math.log(1.0 / (4.0 * delta)) / kl), 1)


class BoundReport(Record):
    __slots__ = ("kl", "fidelity", "helstrom_success", "t_lower")

    def __init__(self, kl: float, fidelity: float, helstrom_success: float,
                 t_lower: float) -> None:
        self.kl = kl
        self.fidelity = fidelity
        self.helstrom_success = helstrom_success
        self.t_lower = t_lower


def bound_report(p0: FiniteDist, p1: FiniteDist, delta: float, t: int = 1) -> BoundReport:
    success = helstrom_success(p0, p1, t)  # refuses a bad copy count first
    return BoundReport(
        kl=kl_divergence(p0, p1),
        fidelity=fidelity(p0, p1),
        helstrom_success=success,
        t_lower=distinguish_T_lower(p0, p1, delta),
    )
