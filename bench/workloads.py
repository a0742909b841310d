"""The benchmark's workloads and the checks on their output.

A workload is a list of sweep configs per round. Every round runs the same
grid with fresh seeds, so a run of any length is made of whole rounds of the
same operations. The checks compare the rows against quantities computed
here from the workload's own definition, or against properties the method
must have; none of them compares against stored output of the program.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

DELTA = 0.1

# The checks must not fire on a correct program in any run the benchmark
# makes, so each binomial allowance is the count exceeded with at most this
# probability.
_FALSE_ALARM = 1e-6


class Row(NamedTuple):
    """The fields of a sweep row that the checks read."""

    distribution: str
    n: float | None
    epsilon: float | None
    p: float | None
    estimate: float
    true_mean: float
    oracle_experiments: int
    aa_applications: int
    interrupted: bool


def keep(row) -> Row:
    return Row(row.distribution, row.n, row.epsilon, row.p, row.estimate,
               row.true_mean, row.oracle_experiments, row.aa_applications,
               row.interrupted)


def binomial_allowance(trials: int, q: float) -> int:
    """Smallest k with P[Binomial(trials, q) > k] <= _FALSE_ALARM."""
    cdf = 0.0
    for k in range(trials + 1):
        log_pmf = (math.lgamma(trials + 1) - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
                   + k * math.log(q) + (trials - k) * math.log1p(-q))
        cdf += math.exp(log_pmf)
        if 1.0 - cdf <= _FALSE_ALARM:
            return k
    return trials


def _config_seed(seed: int, round_index: int, config_index: int) -> int:
    # Distinct for every (seed, round, config) with fewer than 10^5 rounds
    # and 10 configs per round.
    return (seed * 100_000 + round_index) * 10 + config_index


@dataclass(frozen=True)
class Workload:
    name: str
    # (estimator, distribution, grid, trials per grid point) per config
    sweeps: tuple[tuple[str, str, dict, int], ...]
    # rounds every run completes, whatever --seconds says: enough trials for
    # a 90th percentile with at least ten samples beyond it
    min_rounds: int
    check: Callable[[list[Row]], list[str]]

    def configs(self, seed: int, round_index: int) -> list[dict]:
        return [
            {"estimator": est, "distribution": dist, "grid": grid, "trials": trials,
             "seed": _config_seed(seed, round_index, i)}
            for i, (est, dist, grid, trials) in enumerate(self.sweeps)
        ]

    def trials_per_round(self) -> int:
        return sum(math.prod(len(v) for v in grid.values()) * trials
                   for _, _, grid, trials in self.sweeps)


# -- subgauss-pareto ---------------------------------------------------------

PARETO = (2.5, 1.0, 512)  # alpha, xmin, atoms of pareto:2.5:1:512
SUBGAUSS_N = (64, 256, 1024, 4096)


def pareto_moments() -> tuple[float, float]:
    """Mean and standard deviation of the quantile-midpoint Pareto atoms."""
    alpha, xmin, atoms = PARETO
    u = (np.arange(atoms) + 0.5) / atoms
    values = xmin * (1.0 - u) ** (-1.0 / alpha)
    return float(values.mean()), float(values.std())


def check_subgauss(rows: list[Row]) -> list[str]:
    mu, sigma = pareto_moments()
    problems = []
    if any(r.interrupted for r in rows):
        problems.append("a subgauss row was interrupted")
    if any(abs(r.true_mean - mu) > 1e-12 * mu for r in rows):
        problems.append("true_mean differs from the Pareto atoms' mean")
    points = []
    for n in SUBGAUSS_N:
        errors = np.array([abs(r.estimate - mu) for r in rows if r.n == n])
        if not errors.size:  # the grid point failed; the run counts it
            continue
        bound = sigma * math.log(1 / DELTA) / n
        misses = int(np.sum(errors > bound))
        allowed = binomial_allowance(errors.size, DELTA)
        if misses > allowed:
            problems.append(f"n={n}: {misses} of {errors.size} errors exceed "
                            f"sigma*ln(1/delta)/n, allowed {allowed}")
        cost = np.mean([r.oracle_experiments for r in rows if r.n == n])
        points.append((cost, np.percentile(errors, 90)))
    if len(points) < 3:
        return problems
    x, y = np.log(np.array(points)).T
    slope = float(np.polyfit(x, y, 1)[0])
    if not -1.15 <= slope <= -0.85:
        problems.append(f"p90 error against mean oracle cost has log-log slope "
                        f"{slope:.3f}, outside [-1.15, -0.85]")
    return problems


# -- seqrel-bernoulli ---------------------------------------------------------

BERNOULLI_MU = (0.5, 0.1, 0.01)
EPSILON = 0.1


def check_seqrel(rows: list[Row]) -> list[str]:
    problems = []
    for mu in BERNOULLI_MU:
        ests = np.array([r.estimate for r in rows if r.distribution == f"bernoulli:{mu}"])
        if any(abs(r.true_mean - mu) > 1e-12 * mu for r in rows if r.distribution == f"bernoulli:{mu}"):
            problems.append(f"mu={mu}: true_mean differs from mu")
        if np.any((ests < 0.0) | (ests > 1.0)):
            problems.append(f"mu={mu}: an estimate lies outside [0, 1]")
        misses = int(np.sum(np.abs(ests - mu) > EPSILON * mu))
        allowed = binomial_allowance(ests.size, DELTA)
        if misses > allowed:
            problems.append(f"mu={mu}: {misses} of {ests.size} estimates miss by more "
                            f"than eps*mu, allowed {allowed}")
    return problems


# -- quantile-uniform ---------------------------------------------------------

UNIFORM_ATOMS = 100  # uniform:1..100:100 puts mass 1/100 on each of 1, ..., 100
QUANTILE_P = (1e-2, 1e-3)
_PROFILE = Path(__file__).resolve().parent.parent / "src" / "qmeansim" / "data" / "calibrated.json"


def uniform_quantile(p: Fraction) -> int:
    """Largest atom x of uniform:1..100:100 with P[X >= x] >= p."""
    # P[X >= k] = (101 - k) / 100, so the largest k is floor(101 - 100 p).
    return max(1, min(UNIFORM_ATOMS, math.floor(UNIFORM_ATOMS + 1 - UNIFORM_ATOMS * p)))


def check_quantile(rows: list[Row]) -> list[str]:
    profile = json.loads(_PROFILE.read_text())
    order_factor = Fraction(profile["quantile_order_factor"])
    reps = math.ceil(6 * math.log(1 / DELTA))
    problems = []
    if any(abs(r.true_mean - 50.5) > 1e-12 * 50.5 for r in rows):
        problems.append("true_mean differs from 50.5")
    for p in QUANTILE_P:
        lo = uniform_quantile(Fraction(str(p)))
        hi = uniform_quantile(order_factor * Fraction(str(p)))
        mine = [r for r in rows if r.p == p]
        if not mine:
            continue
        misses = sum(not lo <= r.estimate <= hi for r in mine)
        allowed = binomial_allowance(len(mine), DELTA)
        if misses > allowed:
            problems.append(f"p={p}: {misses} of {len(mine)} estimates outside "
                            f"[{lo}, {hi}], allowed {allowed}")
        cap = reps * math.ceil(profile["quantile_budget_coeff"] / math.sqrt(p))
        worst = max(r.oracle_experiments for r in mine)
        if worst > cap:
            problems.append(f"p={p}: oracle tally {worst} exceeds {reps} repetitions "
                            f"of their budget, {cap}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "subgauss-pareto",
            # Two trials at each small n for one at each large n: the median
            # then falls among the chain-bound small-n trials and the 90th
            # percentile among the n = 4096 trials, not in the gaps between
            # the groups' times, where those percentiles jump from run to run.
            (("subgauss", "pareto:2.5:1:512",
              {"n": list(SUBGAUSS_N[:2]), "delta": [DELTA]}, 2),
             ("subgauss", "pareto:2.5:1:512",
              {"n": list(SUBGAUSS_N[2:]), "delta": [DELTA]}, 1)),
            # at least 50 trials per n keeps the slope check's spread small
            min_rounds=50,
            check=check_subgauss,
        ),
        Workload(
            "seqrel-bernoulli",
            tuple(("seq-relative", f"bernoulli:{mu}",
                   {"epsilon": [EPSILON], "delta": [DELTA]}, 1) for mu in BERNOULLI_MU),
            min_rounds=34,
            check=check_seqrel,
        ),
        Workload(
            "quantile-uniform",
            (("quantile", f"uniform:1..100:{UNIFORM_ATOMS}",
              {"p": list(QUANTILE_P), "delta": [DELTA]}, 25),),
            min_rounds=2,
            check=check_quantile,
        ),
    )
}
