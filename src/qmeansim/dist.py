"""Finite real-valued probability distributions.

All operations are exact weighted sums over the support; nothing here is
sampled or approximated. Distributions are immutable values and safe to
share across concurrent tasks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rng import RandomSource

__all__ = [
    "FiniteDist",
    "Moments",
    "make_dist",
    "moments",
    "quantile",
    "truncated_mean",
    "shift_split",
    "pair_square_diff",
    "conditional_above",
    "sample",
    "sample_n",
    "sample_idx",
    "hard_instance_subgaussian",
    "hard_instance_statebased",
]

# Probability bookkeeping tolerances: inputs may deviate from a unit total by
# _SUM_TOL before rejection; internal tail comparisons allow _TAIL_SLACK of
# accumulated round-off.
_SUM_TOL = 1e-9
_TAIL_SLACK = 1e-12

# pair_square_diff enumerates the full product measure.
_MAX_PAIR_ATOMS = 20_000


@dataclass(frozen=True, eq=False)
class Moments:
    mean: float
    variance: float
    second_moment: float


@dataclass(frozen=True, eq=False)
class FiniteDist:
    """A distribution on a strictly increasing, finite real support.

    ``values`` and ``probs`` are aligned; probabilities are finite,
    non-negative and sum to one within 1e-12, as the constructor checks.
    """

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probs", p)
        _check_law(v, p, 1e-12)
        if np.any(np.diff(v) <= 0):
            raise ValueError("support values must be strictly increasing")

    def __len__(self) -> int:
        return int(self.values.size)

    @classmethod
    def _trusted(cls, values: np.ndarray, probs: np.ndarray) -> "FiniteDist":
        # Internal constructor for slices whose invariants hold by
        # construction; skips validation.
        obj = object.__new__(cls)
        object.__setattr__(obj, "values", values)
        object.__setattr__(obj, "probs", probs)
        return obj

    @cached_property
    def _cum(self) -> np.ndarray:
        return np.cumsum(self.probs)

    @cached_property
    def _tail(self) -> np.ndarray:
        # _tail[i] = P[X >= values[i]]
        return np.cumsum(self.probs[::-1])[::-1]

    @cached_property
    def _chain(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        # The laws a quantile chain walks, as tuples since the cache is
        # shared: the cumulative law, and P[X >= values[k]] for k = 0..len,
        # 1 at k = 0, clipped at 1 against round-off and 0 past the top atom.
        return tuple(self._cum.tolist()), (1.0, *np.minimum(self._tail[1:], 1.0).tolist(), 0.0)

    @cached_property
    def _sums(self) -> tuple[np.ndarray, np.ndarray]:
        # prefix sums of values*probs and of probs from 0
        vp = np.concatenate(([0.0], np.cumsum(self.values * self.probs)))
        return vp, np.concatenate(([0.0], self._cum))

    @cached_property
    def _mirror(self) -> "FiniteDist":
        # the law of -X
        return FiniteDist._trusted(-self.values[::-1], self.probs[::-1])


def make_dist(values, probs) -> FiniteDist:
    """Build a distribution, merging duplicate support values.

    Raises ``ValueError`` on empty input, non-finite or negative
    probabilities, or a total probability off from one by more than 1e-9.
    The result is normalized and zero-probability atoms are dropped.
    """
    v = np.asarray(values, dtype=float)
    p = np.asarray(probs, dtype=float)
    _check_law(v, p, _SUM_TOL)
    uniq, inverse = np.unique(v, return_inverse=True)
    merged = np.zeros(uniq.size)
    np.add.at(merged, inverse, p)
    merged /= merged.sum()
    keep = merged > 0.0
    return FiniteDist._trusted(uniq[keep], merged[keep])


def _check_law(v: np.ndarray, p: np.ndarray, tol: float) -> None:
    # the checks a law passes before make_dist merges it and as a FiniteDist
    if v.ndim != 1 or v.size == 0 or p.shape != v.shape:
        raise ValueError("need equally long, non-empty value and probability lists")
    if not np.all(np.isfinite(v)):
        raise ValueError("support values must be finite")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"non-finite probability: {p[~np.isfinite(p)][0]}")
    if np.any(p < 0):
        raise ValueError(f"negative probability: {p.min()}")
    total = float(p.sum())
    if abs(total - 1.0) > tol:
        raise ValueError(f"probabilities sum to {total!r}, not 1")


def _finite_number(value) -> bool:
    # a number as config and distribution files give it: no bool or huge int
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def moments(d: FiniteDist) -> Moments:
    mean = float(np.dot(d.values, d.probs))
    m2 = float(np.dot(d.values * d.values, d.probs))
    var = max(m2 - mean * mean, 0.0)
    return Moments(mean=mean, variance=var, second_moment=m2)


def quantile(d: FiniteDist, p: float) -> float:
    """Largest support value x with P[X >= x] >= p (tail-oriented order-p quantile)."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"quantile order must be in (0, 1], got {p}")
    ok = d._tail >= p - _TAIL_SLACK
    idx = int(np.nonzero(ok)[0][-1])
    return float(d.values[idx])


def truncated_mean(d: FiniteDist, a: float, b: float) -> float:
    """E[X 1{a < X <= b}], the mean restricted to the half-open window (a, b]."""
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    m = (d.values > a) & (d.values <= b)
    return float(np.dot(d.values[m], d.probs[m]))


def shift_split(d: FiniteDist, eta: float) -> tuple[FiniteDist, FiniteDist]:
    """Split X about eta into the non-negative parts above and below.

    Returns the laws of max(X - eta, 0) and max(eta - X, 0), built by
    :func:`make_dist`; eta must be finite. mean(X) = eta + mean(up) -
    mean(down), and the parts' second moments add up to E[(X - eta)^2]. The
    estimators read the parts off X's laws at a shift instead (see
    :func:`~qmeansim.estimators.quantile_est`); these are their reference.
    """
    if not math.isfinite(eta):
        raise ValueError(f"shift must be finite, got {eta}")
    return (make_dist(np.maximum(d.values - eta, 0.0), d.probs),
            make_dist(np.maximum(eta - d.values, 0.0), d.probs))


def pair_square_diff(d: FiniteDist) -> FiniteDist:
    """Distribution of (X - X')^2 / 2 for an independent pair X, X'.

    Enumerates the full product measure, so the support must stay desk-sized.
    The mean of the result equals the variance of ``d``.
    """
    if len(d) > _MAX_PAIR_ATOMS:
        raise ValueError(f"support too large for pairwise enumeration ({len(d)} atoms)")
    diffs = np.subtract.outer(d.values, d.values)
    vals = (diffs * diffs / 2.0).ravel()
    ps = np.multiply.outer(d.probs, d.probs).ravel()
    return make_dist(vals, ps)


def conditional_above(d: FiniteDist, x: float) -> tuple[FiniteDist | None, float]:
    """Distribution of X given X > x, plus the tail mass P[X > x].

    ``x`` may be +-inf. An empty conditional is signalled as (None, 0.0),
    not an error.
    """
    idx = int(np.searchsorted(d.values, x, side="right"))
    if idx >= len(d):
        return None, 0.0
    tail = float(np.sum(d.probs[idx:]))
    if tail <= 0.0:
        return None, 0.0
    return FiniteDist._trusted(d.values[idx:], d.probs[idx:] / tail), tail


def sample(d: FiniteDist, rng: RandomSource) -> float:
    """One draw from ``d``: the one-draw case of :func:`sample_n`."""
    return float(sample_n(d, rng, 1)[0])


def sample_n(d: FiniteDist, rng: RandomSource, n: int) -> np.ndarray:
    """``n`` i.i.d. draws from ``d`` as an array."""
    return d.values[sample_idx(d, rng, n)]


def sample_idx(d: FiniteDist, rng: RandomSource, n: int) -> np.ndarray:
    """The support indices of ``n`` i.i.d. draws from ``d``, as
    :func:`sample_n` draws them."""
    return np.minimum(np.searchsorted(d._cum, rng.gen.random(n), side="right"), len(d) - 1)


def hard_instance_subgaussian(m: float, sigma: float) -> tuple[FiniteDist, FiniteDist]:
    """Two-point instances that pin down the cost of sub-Gaussian estimation.

    Both distributions place mass 1/m^2 on a spike of magnitude
    b = m*sigma/sqrt(1 - 1/m^2) (positive for the first, negative for the
    second) and the rest at zero. Each has variance exactly sigma^2 while
    their means differ by 2b/m^2 > 2*sigma/m.
    """
    if not m > 1:
        raise ValueError(f"need m > 1, got {m}")
    if not sigma > 0:
        raise ValueError(f"need sigma > 0, got {sigma}")
    b = m * sigma / math.sqrt(1.0 - 1.0 / (m * m))
    q = 1.0 / (m * m)
    p0 = make_dist([0.0, b], [1.0 - q, q])
    p1 = make_dist([-b, 0.0], [q, 1.0 - q])
    return p0, p1


def hard_instance_statebased(m: float, sigma: float) -> tuple[FiniteDist, FiniteDist, float]:
    """Two-point instances on a shared support for state-discrimination bounds.

    With b = m*sigma/sqrt(m-1) and tilt alpha = 2*ln(1 + sqrt(1 - 1/m)), the
    first distribution takes b with probability e^alpha/m and the second with
    probability 1/m. The second has variance exactly sigma^2; the first's
    standard deviation lies in [sigma, 2*sigma]. Returns (p0, p1, alpha).
    """
    if not m > 1:
        raise ValueError(f"need m > 1, got {m}")
    if not sigma > 0:
        raise ValueError(f"need sigma > 0, got {sigma}")
    alpha = 2.0 * math.log1p(math.sqrt(1.0 - 1.0 / m))
    q0 = math.exp(alpha) / m
    if q0 >= 1.0:
        raise ValueError(f"tilted spike probability e^alpha/m = {q0:.6f} >= 1; increase m")
    b = m * sigma / math.sqrt(m - 1.0)
    p0 = make_dist([0.0, b], [1.0 - q0, q0])
    p1 = make_dist([0.0, b], [1.0 - 1.0 / m, 1.0 / m])
    return p0, p1, alpha
