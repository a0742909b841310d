"""Exact classical simulation of amplitude amplification and estimation.

The marked amplitude p of a state-preparation routine is known here, so the
quantum primitives reduce to closed-form probability laws:

* amplitude amplification with n rounds succeeds with probability
  sin^2((2n+1) * asin(sqrt(p)));
* the sequential (restartable) variant draws its round count from a
  geometrically growing grid and stops at the first success;
  :func:`amplify_chain` runs it along chains of conditional draws, all the
  repetitions of a quantile estimate in one call, one threshold uniform
  a draw and a uniform for n only on grids of more than one point. Rounds
  1..26 have one-point grids, so a draw multiplies their failure
  probabilities alone, and reads their costs and its cap check off the
  burn schedule's prefixes;
* M-point amplitude estimation measures an index y whose exact law is a
  half/half mixture of Fejer kernels centred on the two eigenphases
  +-asin(sqrt(p))/pi. Draws never build the M-point law: an offset from the
  +omega kernel's peak is drawn exactly by rejection from an envelope
  decaying as 1/k^2, on one path for every amplitude, so a draw costs O(1)
  time and memory whatever M is. The -omega kernel is its mirror image
  y -> M - y, so only :func:`aest_sample`, which returns the indices y
  themselves, flips the fair coins that pick the eigenphase: it draws
  ``count`` indices in one vectorised rejection call, then one vector of
  ``count`` coins, and charges them as ``count`` copies. A windowed-mean
  ladder is charged when the estimator's schedule reaches it, by
  :func:`aest_charge`, and drawn once at the end: :func:`aest_median` draws
  every copy of every ladder of a top-level estimate in one vectorised
  pass, from a stream derived once per estimate, each amplitude with its
  own register and copy count, and reads each median off the phase
  distances min(y, M - y), which the coin leaves as they are.
  :func:`ae_outcome_dist` materialises the law as the reference the
  sampler is tested against.

Every routine but :func:`amplify_chain` and :func:`aest_median` charges an
:class:`ExperimentCounter` under two parallel accountings: low-level oracle
experiments (state preparations, comparison or rotation oracles, their
inverses, and measurements) and amplification applications (state
preparation, its inverse, and the ancilla reflection). Ancilla-only
reflections cost nothing at the oracle level but one unit at the
amplification level. An optional budget caps the oracle tally; the cap is
checked at single-charge granularity, is never exceeded, and trips the
counter's ``interrupted`` flag.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .dist import FiniteDist
from .rng import RandomSource

__all__ = [
    "ExperimentCounter",
    "QVar",
    "grover_angle",
    "amplify_chain",
    "seq_aamp",
    "ae_outcome_dist",
    "ae_register",
    "aest_charge",
    "aest_sample",
    "aest_median",
    "seq_aest",
    "sin2_frac",
]

# Growth rate of the sequential amplification schedule.
GROWTH = 1.1

# Oracle experiments per unit of work: a walk application (the state
# preparation and one comparison or rotation oracle), a measurement, and a
# classical sample (a state preparation and a measurement).
WALK_COST = 2
MEASURE_COST = 1
SAMPLE_COST = 2

# Phase registers are simulated below this size, so that the int64
# arithmetic of a draw and of its readout (4 * y == M) cannot overflow.
MAX_REGISTER = 1 << 62


@dataclass
class ExperimentCounter:
    """Dual running tally of simulated quantum work.

    ``oracle_experiments`` counts unitary/oracle applications and
    measurements; ``aa_applications`` counts amplification steps. When
    ``budget`` is set, the oracle tally is clamped at the budget and
    ``interrupted`` records that the cap was hit.
    """

    oracle_experiments: int = 0
    aa_applications: int = 0
    budget: int | None = None
    interrupted: bool = False

    def remaining(self) -> int | None:
        if self.budget is None:
            return None
        return max(self.budget - self.oracle_experiments, 0)

    def charge(self, oracle: int = 0, aa: int = 0) -> bool:
        """Apply a charge; returns False if it did not fit under the budget.

        A charge that lands exactly on the budget is applied in full but
        still trips ``interrupted``. A charge that would overshoot clamps the
        oracle tally to the budget and is reported as not applied.
        """
        if self.interrupted:
            return False
        if self.budget is not None and self.oracle_experiments + oracle > self.budget:
            self.oracle_experiments = self.budget
            self.interrupted = True
            return False
        self.oracle_experiments += int(oracle)
        self.aa_applications += int(aa)
        if self.budget is not None and self.oracle_experiments >= self.budget:
            self.interrupted = True
        return True

    def snapshot(self) -> "ExperimentCounter":
        return ExperimentCounter(
            self.oracle_experiments, self.aa_applications, self.budget, self.interrupted
        )


@dataclass
class QVar:
    """A finite distribution exposed through simulated quantum oracles.

    Every use of it is charged to ``counter`` at the fixed unit costs:
    ``WALK_COST`` per walk application, ``MEASURE_COST`` per measurement
    and ``SAMPLE_COST`` per classical sample.
    """

    dist: FiniteDist
    counter: ExperimentCounter


def grover_angle(p: float) -> float:
    """Rotation angle theta in [0, pi/2] with sin(theta) = sqrt(p)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"amplitude must be in [0, 1], got {p}")
    return math.asin(math.sqrt(p))


@lru_cache(maxsize=1)
def _round_table() -> tuple[list[int], list[int], list[int], list[int],
                            tuple[tuple[int, int], ...]]:
    # Lower ends and sizes of the integer grids {ceil(G^(ell-1)), ...,
    # ceil(G^ell) - 1} of rounds ell = 1..436, each collapsed to its lower end
    # when empty. Round 436's grid starts past 1e18, beyond any budget. Then
    # the burn schedule of zero-amplitude runs (every round fails, so draws
    # are skipped and each round costs its grid's lower end): cumulative
    # oracle and amplification costs, up to a cumulative oracle cost of 1e18.
    # Last, the fixed rounds, the leading one-point grids (rounds 1..26):
    # their indices and multipliers 2n+1, whose n take no uniform, so their
    # costs are the burn's.
    ells = np.arange(1, 437, dtype=float)
    lo = np.ceil(GROWTH ** (ells - 1)).astype(np.int64)
    hi = np.ceil(GROWTH**ells).astype(np.int64) - 1
    los = lo.tolist()
    sizes = (np.maximum(lo, hi) - lo + 1).tolist()
    burn_oracle = list(accumulate((2 * n + 1) * WALK_COST + MEASURE_COST for n in los))
    del burn_oracle[bisect_left(burn_oracle, 1e18) + 1:]
    burn_aa = list(accumulate(3 * n + 1 for n in los[:len(burn_oracle)]))
    fixed = next(r for r, s in enumerate(sizes) if s > 1)
    return los, sizes, burn_oracle, burn_aa, tuple((r, 2 * los[r] + 1) for r in range(fixed))


def amplify_chain(cum: list[float] | None, tails: list[float], k: int,
                  caps: list[int | None], gen: np.random.Generator,
                  us: list[float], draws: float) -> tuple[list[int], int, int, int]:
    """Sequential amplitude amplification along chains of conditional draws.

    Runs one chain per entry of ``caps``, each from atom ``k``. A draw
    amplifies the tail mass ``tails[k]`` (at most 1) in rounds: round ell
    takes n uniformly from its grid, costs 2n+1 walk applications and a
    measurement, (2n+1)*WALK_COST + MEASURE_COST oracle experiments, and
    3n+1 amplification steps, and succeeds with probability
    sin^2((2n+1)*asin(sqrt(tail))): a draw succeeds once the product of its
    rounds' failure probabilities falls below 1 - u, u one uniform per draw,
    and n takes a uniform only on multi-point grids (round 27 on). Rounds
    1..26 have one-point grids, so a draw runs the product through them
    alone, in the round loop's order, then takes their costs off the burn
    schedule's prefixes and checks its cap with one comparison (a cut among
    them is located as a burn's is); past round 26 it loops on round by
    round. A readout measurement then picks the next atom off the cumulative
    law ``cum`` and moves k above it; with ``cum`` None a success just adds
    one to k. A chain stops after ``draws`` draws or
    once its oracle cap (None: no cap) is spent: inside a round, with
    partial-round credit; at a success that leaves no budget for its
    readout; or at an empty tail, which burns the rest on the static
    schedule of :func:`_round_table` without drawing. A chain that would
    run past the table's last round raises ``ValueError``. Uniforms are
    popped off ``us``, refilled from ``gen`` in blocks of 64 whenever it is
    empty, so chains and calls can share the spares. Returns the end atoms
    and the summed ``(oracle, aa, rounds)``, and charges nothing.
    """
    los, sizes, burn_oracle, burn_aa, fixed = _round_table()
    walk, measure, inf = WALK_COST, MEASURE_COST, math.inf
    asin, sqrt, cos, pop = math.asin, math.sqrt, math.cos, us.pop
    top = len(cum) - 1 if cum is not None else 0
    ends: list[int] = []
    oracle_sum = aa = rounds = 0
    try:
        for cap in caps:
            limit = inf if cap is None else cap
            at, spent, left = k, 0, draws
            while left:
                tail = tails[at]
                if tail > 0.0:
                    theta = asin(sqrt(tail))
                    if not us:
                        us.extend(gen.random(64).tolist())
                    threshold, surv = 1.0 - pop(), 1.0
                    # the product through the fixed rounds, in the round
                    # loop's order: i is the success round, or the last
                    for i, m in fixed:
                        c = cos(m * theta)
                        surv *= c * c
                        if surv < threshold:
                            break
                    cut = spent + burn_oracle[i] > limit
                elif cap is None:
                    raise ValueError("zero amplitude never succeeds; a budget is required")
                else:
                    cut = True  # only the burn-down is observable: every round fails
                if cut:
                    # every round up to the cap fails and costs its grid's
                    # lower end, at an empty tail or inside the fixed rounds:
                    # `full` rounds fit, and the next one is cut, crediting
                    # its paid walk applications as below
                    full = bisect_right(burn_oracle, cap - spent)
                    done = burn_oracle[full - 1] if full else 0
                    rem = cap - spent - done
                    f = burn_oracle[full] - done - measure
                    f = (rem if rem < f else f) // walk
                    aa += (burn_aa[full - 1] if full else 0) + f + f // 2
                    rounds += full + (rem > 0)
                    spent = cap
                    break
                spent += burn_oracle[i]
                aa += burn_aa[i]
                r = i + 1
                if surv >= threshold:
                    while True:
                        n = los[r]
                        if sizes[r] > 1:
                            if not us:
                                us.extend(gen.random(64).tolist())
                            n += int(pop() * sizes[r])
                        m = 2 * n + 1
                        oracle = m * walk + measure
                        r += 1
                        if spent + oracle > limit:
                            # credit the steps paid before the stop: U, then n times
                            # (reflection, U^-1, U), reflections free at the oracle level
                            f = min((cap - spent) // walk, m)
                            aa += f + f // 2
                            r -= cap == spent
                            spent, left = cap, 0
                            break
                        spent += oracle
                        aa += 3 * n + 1
                        c = cos(m * theta)
                        surv *= c * c
                        if surv < threshold:
                            break
                rounds += r
                if not left:
                    break
                left -= 1
                if cum is None:
                    at += 1
                elif spent + measure > limit or spent == limit:
                    break
                else:
                    spent += measure
                    below = cum[at - 1] if at else 0.0
                    if not us:
                        us.extend(gen.random(64).tolist())
                    at = bisect_right(cum, below + pop() * tail, at, top) + 1
                    if spent == limit:
                        break
            ends.append(at)
            oracle_sum += spent
    except IndexError:  # a round or a burn past the end of _round_table
        raise ValueError("sequential amplification past 1e18 oracle experiments "
                         "is not simulated") from None
    return ends, oracle_sum, aa, rounds


def seq_aamp(p: float, rng: RandomSource, counter: ExperimentCounter) -> tuple[bool, int, int]:
    """Sequential amplitude amplification on a known amplitude.

    Round ell takes an iteration count n uniformly from a geometrically
    growing integer grid, charges 3n+1 amplification steps and
    (2n+1)*WALK_COST + MEASURE_COST = 4n+3 oracle experiments, and stops at
    the first successful ancilla measurement: one draw of
    :func:`amplify_chain` without readout, whose one threshold uniform picks
    the success round, with a uniform for n only on multi-point grids.

    Returns ``(succeeded, rounds, aa_charged)`` where ``aa_charged`` is the
    amplification work this call added to the counter. With p > 0 and no
    budget the call terminates with probability one; with a budget it may
    instead exhaust it and report failure. p = 0 without a budget is refused.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"amplitude must be in [0, 1], got {p}")
    if counter.interrupted and p > 0.0:
        return False, 0, 0
    (k,), oracle, aa, rounds = amplify_chain(None, [p], 0, [counter.remaining()], rng.gen, [], 1)
    counter.charge(oracle, aa)
    return k == 1, rounds, aa


def _fejer(x: np.ndarray, m: int) -> np.ndarray:
    # sin^2(M pi x) / (M sin(pi x))^2, continued by 1 at integer x.
    s = np.sin(np.pi * x)
    num = np.sin(np.pi * m * x)
    tiny = np.abs(s) < 1e-14
    safe = np.where(tiny, 1.0, s)
    out = (num / (m * safe)) ** 2
    return np.where(tiny, 1.0, out)


def ae_outcome_dist(p: float, m: int) -> np.ndarray:
    """Exact outcome law of M-point amplitude estimation at amplitude p.

    The measured index y in [0, M) follows a half/half mixture of Fejer
    kernels centred on the two eigenphases +-omega of the amplification
    operator, omega = asin(sqrt(p))/pi. Degenerate amplitudes (p = 0 or 1)
    have a single eigenphase and use one kernel. The returned vector sums to
    one within 1e-12.
    """
    if m < 1:
        raise ValueError(f"need at least one phase point, got M={m}")
    omega = grover_angle(p) / math.pi
    y = np.arange(m, dtype=float)
    if p == 0.0 or p == 1.0:
        return _fejer(y / m - omega, m)
    return 0.5 * _fejer(y / m - omega, m) + 0.5 * _fejer(y / m + omega, m)


def _whole(values, lo: int, what: str) -> np.ndarray:
    # values as an int64 vector, refused unless each is an integer in
    # [lo, MAX_REGISTER)
    arr = np.asarray(values).reshape(-1)
    if arr.dtype.kind not in "iu" or not np.all((lo <= arr) & (arr < MAX_REGISTER)):
        raise ValueError(f"{what} must be integers in [{lo}, 2^62), got {values}")
    return arr.astype(np.int64)


def _phase_draws(ps, ms, copies, gen: np.random.Generator) -> np.ndarray:
    # copies[i] exact draws of the index y in [0, M_i) from the Fejer kernel
    # on the eigenphase +omega of amplitude ps[i] on an M_i = ms[i] point
    # register, one lane per amplitude, as a (lanes, max(copies)) array
    # whose entries past a lane's count are padding; O(1) time and memory
    # per draw whatever M is. Their phase distances min(y, M - y) follow the
    # two-kernel law, as the -omega kernel is the mirror image y -> M - y.
    # Through aest_median, one call draws every live window of every ladder
    # of a top-level estimate, so lanes differ in M and count; aest_sample
    # draws one lane. Registers and counts are checked here, before any draw
    # or charge: each an integer below MAX_REGISTER, M >= 1, counts >= 0
    # (aest_median has checked its copy counts >= 1 before).
    # With c = M*omega and f = c - floor(c), the kernel puts mass
    #   K(j) = sin^2(pi f) / (M^2 sin^2(pi (j - f) / M)) <= min(1, 1/(4 (j - f)^2))
    # on y = floor(c) + j, for the M offsets with -M/2 < j - f <= M/2
    # (|sin(pi x)| >= 2|x| for |x| <= 1/2). Offsets are proposed as 0 or 1
    # with probability 1/3 each, else as 1 + k or -k with probability
    # 1/(6 k (k + 1)) each, k = floor(1/U) >= 1, and accepted with
    # probability K(j) / (3 * proposal) <= 1: a third of the proposals are
    # accepted. On the grid (f = 0: p = 0, and p = 1 with even M among
    # them) only j = 0 passes.
    ps = np.asarray(ps, dtype=float).reshape(-1)
    ms = _whole(ms, 1, "register sizes")
    want = _whole(copies, 0, "copy counts")
    if not np.all((ps >= 0.0) & (ps <= 1.0)):
        raise ValueError(f"amplitudes must be in [0, 1], got {ps}")
    mf = ms.astype(float)
    c = mf * np.arcsin(np.sqrt(ps)) / np.pi
    base = np.floor(c)
    f = c - base
    s2 = np.sin(np.pi * np.minimum(f, 1.0 - f)) ** 2
    ys = np.zeros((ps.size, want.max(initial=0)), dtype=np.int64)
    filled = np.zeros(ps.size, dtype=np.int64)
    while (need := want - filled).any():
        # four proposals per missing draw and eight spare, so refills are
        # rare, but about 2^16 at most a pass, so memory stays bounded
        share = max((1 << 16) // np.count_nonzero(need), 1)
        lane = np.repeat(np.arange(ps.size), np.minimum(4 * need + 8 * (need > 0), share))
        choice, u, accept = gen.random((3, lane.size))
        k = np.floor(1.0 / (1.0 - u))
        far = choice >= 2.0 / 3.0
        j = np.where(far, np.where(choice < 5.0 / 6.0, 1.0 + k, -k), choice >= 1.0 / 3.0)
        weight = np.where(far, 2.0 * k * (k + 1.0), 1.0)
        x = j - f[lane]
        ml = mf[lane]
        hit = ((-0.5 * ml < x) & (x <= 0.5 * ml)
               & ((1.0 - accept) * (ml * np.sin(np.pi * x / ml)) ** 2 <= s2[lane] * weight))
        lane, j = lane[hit], j[hit]
        # each lane keeps its first `need` accepted offsets, in proposal order
        slot = filled[lane] + np.arange(lane.size) - np.searchsorted(lane, lane)
        keep = slot < want[lane]
        lane = lane[keep]
        ys[lane, slot[keep]] = np.mod(base[lane] + j[keep], mf[lane]).astype(np.int64)
        filled += np.bincount(lane, minlength=ps.size)
    return ys


def sin2_frac(y, m) -> np.ndarray:
    """sin^2(pi * y/M) per index (a scalar or an array, with M an int or an
    array of one register size per index), read off the phase distance
    min(y, M - y) mod M; exact 0, 1 and 1/2 at distances 0, M/2, M/4."""
    y = np.asarray(y) % m
    y = np.minimum(y, m - y)
    return np.where(4 * y == m, 0.5, np.sin(np.pi * y / m) ** 2)


def aest_sample(p: float, m: int, count: int, rng: RandomSource,
                counter: ExperimentCounter) -> np.ndarray:
    """``count`` amplitude-estimation measurements with an M-point register.

    Returns their phase indices y in [0, M) as an int64 array, which
    :func:`sin2_frac` reads out as amplitudes sin^2(pi*y/M). Charged by
    :func:`aest_charge` as ``count`` copies of 4M+1 oracle experiments and
    3M amplification steps; an estimation run is not interruptible
    mid-flight, so a budget shortfall clamps the tally and flags the counter
    but every outcome is still produced. The indices are drawn exactly from
    the law of :func:`ae_outcome_dist`: ``count`` draws from the kernel on
    +omega in one vectorised rejection call, then, for 0 < p < 1, where the
    eigenphases +-omega differ, one vector of ``count`` fair coins reflects
    each onto the kernel on -omega.
    """
    ys = _phase_draws([p], [m], [count], rng.gen)[0]
    if 0.0 < p < 1.0:
        ys = np.where(rng.gen.random(count) < 0.5, (m - ys) % m, ys)
    aest_charge(m, count, counter)
    return ys


def lower_median(values) -> float:
    """Deterministic median: the lower of the two central order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of empty sequence")
    return ordered[(len(ordered) - 1) // 2]


def ae_register(n: float, delta: float) -> tuple[int, int]:
    """Register size M and copy count of a median of amplitude estimations.

    Time parameter n and failure probability delta give ceil(6*log(1/delta))
    copies of an M = ceil(2*pi*n / log(1/delta)) point register, whose
    median meets the estimation bound with probability at least 1 - delta.
    Requires n >= log(1/delta) and M below ``MAX_REGISTER`` = 2^62, so that
    the draws fit their int64 arrays.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"failure probability must be in (0, 1), got {delta}")
    log_term = math.log(1.0 / delta)
    if n < log_term:
        raise ValueError(f"time parameter {n} below log(1/delta) = {log_term:.3f}")
    points = 2 * math.pi * n / log_term
    if not points < MAX_REGISTER:
        raise ValueError(f"time parameter {n} needs a register of {points:.3g} points, "
                         "past the 2^62 simulated")
    return math.ceil(points), math.ceil(6 * log_term)


def aest_charge(m: int, count: int, counter: ExperimentCounter) -> None:
    """Charge ``count`` M-point amplitude estimations copy by copy, each
    4M+1 oracle experiments and 3M amplification steps: the copies that fit
    under the budget in full, then, if any remain, one that clamps the tally
    and trips the counter. The charge never depends on what the copies
    draw."""
    cost = 2 * m * WALK_COST + MEASURE_COST
    rem = counter.remaining()
    fit = count if rem is None else min(count, rem // cost)
    if fit:
        counter.charge(fit * cost, fit * 3 * m)
    if fit < count:
        counter.charge(cost, 3 * m)


def aest_median(ps, ms, copies, rng: RandomSource) -> np.ndarray:
    """Lower medians of amplitude estimations, one per lane, in one pass.

    Lane i draws copies[i] phase distances min(y, M - y) of estimations of
    amplitude ps[i] on an ms[i] point register, each exactly from the fold
    of the law of :func:`ae_outcome_dist`, and reads its median
    sin^2(pi*y/M) off the lower median of its own distances, as sin^2 is
    nondecreasing in the distance. The fair coin that picks the eigenphase
    leaves the distance as it is, so no coin is drawn. Charges nothing: an
    estimator charges each windowed-mean ladder with :func:`aest_charge`
    when its schedule reaches it, since no later stage reads the draws, and
    draws the nonzero amplitudes of every ladder of a top-level estimate in
    one call at its end, from a stream derived once per estimate. Needs at
    least one lane, and at least one copy a lane: a median of no copies is
    refused with ``ValueError`` before any draw.
    """
    copies = _whole(copies, 1, "copy counts")
    ys = _phase_draws(ps, ms, copies, rng.gen)
    ms = np.asarray(ms, dtype=np.int64)
    dist = np.minimum(ys, ms[:, None] - ys)
    dist[np.arange(ys.shape[1]) >= copies[:, None]] = ms.max()  # padding sorts last
    mid = (copies - 1) // 2
    dist = np.partition(dist, np.unique(mid), axis=1)
    return sin2_frac(dist[np.arange(mid.size), mid], ms)


def seq_aest(p: float, rng: RandomSource, counter: ExperimentCounter) -> tuple[float, int]:
    """Sequential amplitude estimation: p_tilde = 1/T^2 off the work tally.

    Runs sequential amplification and reads the estimate from the number T of
    amplification steps it took. On budget exhaustion returns (0.0, T) --
    the consumed budget yielded no success.
    """
    ok, _, t_aa = seq_aamp(p, rng, counter)
    if not ok or t_aa == 0:
        return 0.0, t_aa
    return 1.0 / (t_aa * t_aa), t_aa
