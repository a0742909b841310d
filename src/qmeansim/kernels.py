"""Exact classical simulation of amplitude amplification and estimation.

The marked amplitude p of a state-preparation routine is known here, so the
quantum primitives reduce to closed-form probability laws:

* amplitude amplification with n rounds succeeds with probability
  sin^2((2n+1) * asin(sqrt(p)));
* the sequential (restartable) variant draws its round count from a
  geometrically growing grid and stops at the first success;
  :func:`amplify_chain` runs it along chains of conditional draws, all the
  repetitions of a quantile estimate in one call. Only an event whose
  outcome is open takes a uniform: a draw's threshold below a full tail, n
  on grids of more than one point, and a readout of more than one atom; so
  a chain that draws nothing runs once per distinct cap of a call. Taking
  no uniform for a certain event leaves every law as it is, and changes
  only which uniforms a run consumes.
  Rounds 1..26 have one-point grids, so a draw multiplies their failure
  probabilities alone, and reads their costs and its cap check off the
  burn schedule's prefixes;
* M-point amplitude estimation measures an index y whose exact law is a
  half/half mixture of Fejer kernels centred on the two eigenphases
  +-asin(sqrt(p))/pi. Draws never build the M-point law: an offset from the
  +omega kernel's peak is drawn exactly, on one path for every amplitude,
  so a draw costs O(1) time and memory whatever M is. One uniform lands it
  on offset 0 or 1 from the peak, whose exact masses hold about 90% of the
  law, or in the tail; a tail draw is proposed off an envelope decaying as
  1/(x^2 - 1/4), inverted exactly on each side, and kept with the ratio of
  the kernel to it, about 40% of proposals. The -omega kernel is its
  mirror image y -> M - y, so only :func:`aest_sample`, which returns the
  indices y themselves, flips the fair coins that pick the eigenphase: it
  draws ``count`` indices in one vectorised call, then one vector of
  ``count`` coins, and charges them as ``count`` copies. A windowed-mean
  ladder is charged when the estimator's schedule reaches it, by
  :func:`aest_charge`, and drawn once at the end: :func:`aest_median` draws
  every copy of every ladder of a top-level estimate in one vectorised
  pass, from a stream derived once per estimate, each amplitude with its
  own register and copy count, and reads each median off the phase
  distances min(y, M - y), which the coin leaves as they are.
  :func:`ae_outcome_dist` materialises the law as the reference the
  sampler is tested against.

Only :func:`seq_aamp`, :func:`seq_aest`, :func:`aest_sample` and
:func:`aest_charge` charge an :class:`ExperimentCounter`, under two parallel
accountings: oracle experiments (state preparations, comparison or rotation
oracles, their inverses, and measurements) and amplification applications
(state preparation, its inverse, and the ancilla reflection), where an
ancilla-only reflection costs one unit and no oracle experiment. An optional
budget caps the oracle tally; the cap is checked at single-charge
granularity, is never exceeded, and trips the counter's ``interrupted`` flag.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import accumulate

import numpy as np

from ._record import Record
from .dist import FiniteDist
from .rng import RandomSource

__all__ = [
    "ExperimentCounter",
    "QVar",
    "grover_angle",
    "amplify_chain",
    "seq_aamp",
    "seq_aamp_law",
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

# Phase draws are made in blocks of at most _BLOCK, so that memory stays
# bounded, and each draw that lands in the kernel's tail makes _TAIL_TRIES
# proposals a pass: about 40% are accepted, so a pass nearly always places
# every tail draw.
_BLOCK = 1 << 16
_TAIL_TRIES = 16


class ExperimentCounter(Record):
    """Dual running tally of simulated quantum work.

    ``oracle_experiments`` counts unitary/oracle applications and
    measurements; ``aa_applications`` counts amplification steps. When
    ``budget`` is set, the oracle tally is clamped at the budget and
    ``interrupted`` records that the cap was hit.
    """

    __slots__ = ("oracle_experiments", "aa_applications", "budget", "interrupted")

    def __init__(self, oracle_experiments: int = 0, aa_applications: int = 0,
                 budget: int | None = None, interrupted: bool = False) -> None:
        self.oracle_experiments = oracle_experiments
        self.aa_applications = aa_applications
        self.budget = budget
        self.interrupted = interrupted

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


class QVar(Record):
    """A finite distribution exposed through simulated quantum oracles.

    Every use of it is charged to ``counter`` at the fixed unit costs:
    ``WALK_COST`` per walk application, ``MEASURE_COST`` per measurement
    and ``SAMPLE_COST`` per classical sample.
    """

    __slots__ = ("dist", "counter")

    def __init__(self, dist: FiniteDist, counter: ExperimentCounter) -> None:
        self.dist = dist
        self.counter = counter


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
    # when empty, with ceil(G^ell) as math.ceil(GROWTH**ell) in double
    # arithmetic. Round 436's grid starts past 1e18, beyond any budget. Then
    # the burn schedule of zero-amplitude runs (every round fails, so draws
    # are skipped and each round costs its grid's lower end): cumulative
    # oracle and amplification costs, up to a cumulative oracle cost of 1e18.
    # Last, the fixed rounds, the leading one-point grids (rounds 1..26):
    # their indices and multipliers 2n+1, whose n take no uniform, so their
    # costs are the burn's.
    ceils = [math.ceil(GROWTH**ell) for ell in range(437)]
    los = ceils[:-1]
    sizes = [max(nxt - lo, 1) for lo, nxt in zip(los, ceils[1:])]
    burn_oracle = list(accumulate((2 * n + 1) * WALK_COST + MEASURE_COST for n in los))
    del burn_oracle[bisect_left(burn_oracle, 1e18) + 1:]
    burn_aa = list(accumulate(3 * n + 1 for n in los[:len(burn_oracle)]))
    fixed = next(r for r, s in enumerate(sizes) if s > 1)
    return los, sizes, burn_oracle, burn_aa, tuple((r, 2 * los[r] + 1) for r in range(fixed))


def amplify_chain(cum: list[float] | None, tails: list[float], k: int,
                  caps: list[int | None], gen: np.random.Generator,
                  us: list[float], draws: float,
                  floor: int = 0) -> tuple[list[int], int, int, int]:
    """Sequential amplitude amplification along chains of conditional draws.

    Runs one chain per entry of ``caps``, each from atom ``k``. A draw
    amplifies the tail mass ``tails[k]`` (at most 1) in rounds: round ell
    takes n uniformly from its grid, costs 2n+1 walk applications and a
    measurement, (2n+1)*WALK_COST + MEASURE_COST oracle experiments, and
    3n+1 amplification steps, and succeeds with probability
    sin^2((2n+1)*asin(sqrt(tail))): a draw succeeds once the product of its
    rounds' failure probabilities falls below 1 - u, u one uniform per draw,
    and n takes a uniform only on multi-point grids (round 27 on). At a tail
    of exactly 1 round 1 fails with probability 3.4e-32, below every
    threshold 1 - u >= 2^-53, so the draw succeeds there and takes no
    uniform; one ulp below 1 that probability is 2.0e-15, and the draw keeps
    its uniform. Rounds 1..26 have one-point grids, so a draw runs the
    product through them alone, in the round loop's order, then takes their
    costs off the burn schedule's prefixes and checks its cap with one
    comparison (a cut among them is located as a burn's is); past round 26
    it loops on round by round. A readout measurement then picks the next
    atom off the cumulative law ``cum`` (at or above atom ``floor`` when
    read from atom 0) and moves k above it, with a uniform unless that range
    holds one atom; with ``cum`` None a success just adds one to k. A part
    max(X - shift, 0) runs on X's laws from atom 0, of tail 1, with floor
    the last atom up to the shift, its atom 0. A chain stops after ``draws``
    draws or once its oracle cap (None: no cap) is spent: inside a round,
    with partial-round credit; at a success that leaves no budget for its
    readout; or at an empty tail, which burns the rest on the static
    schedule of :func:`_round_table` without drawing. A chain that starts at
    an empty tail, or at a full tail whose readout holds one atom, draws
    nothing, so when every chain of a call is such, each distinct cap runs
    once: its end is returned once per chain of that cap, and its integer
    tallies count that many times. A chain that would run past the table's
    last round raises ``ValueError``. Uniforms are popped off ``us``,
    refilled from ``gen`` in blocks of 64 whenever it is empty, so chains
    and calls can share the spares. Returns the end atoms and the summed
    ``(oracle, aa, rounds)``, and charges nothing.
    """
    top = len(cum) - 1 if cum is not None else 0
    if len(caps) > 1 and (not tails[k] or tails[k] == 1.0 and cum is not None
                          and (k or floor) == top):
        # every chain is certain, so its end and tallies depend on its cap
        # alone: run each distinct cap once, and count its tallies once per
        # chain of that cap
        ends, tallies = {}, (0, 0, 0)
        for cap in dict.fromkeys(caps):
            (ends[cap],), *run = amplify_chain(cum, tails, k, [cap], gen, us, draws, floor)
            times = caps.count(cap)
            tallies = tuple(t + r * times for t, r in zip(tallies, run))
        return list(map(ends.__getitem__, caps)), *tallies
    los, sizes, burn_oracle, burn_aa, fixed = _round_table()
    walk, measure, inf = WALK_COST, MEASURE_COST, math.inf
    asin, sqrt, cos, pop = math.asin, math.sqrt, math.cos, us.pop
    ends: list[int] = []
    oracle_sum = aa = rounds = 0
    try:
        for cap in caps:
            limit = inf if cap is None else cap
            at, spent, left = k, 0, draws
            while left:
                tail = tails[at]
                if tail == 1.0:
                    # cos^2(3*asin(1)) = 3.4e-32 lies below every threshold
                    # 1 - u >= 2^-53: round 1 succeeds, and takes no uniform
                    i, surv, threshold = 0, 0.0, 1.0
                    cut = spent + burn_oracle[0] > limit
                elif tail > 0.0:
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
                    if (at or floor) == top:
                        at = top + 1  # a one-atom readout lands there whatever u is
                    else:
                        below = cum[at - 1] if at else 0.0
                        if not us:
                            us.extend(gen.random(64).tolist())
                        at = bisect_right(cum, below + pop() * tail, at or floor, top) + 1
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
    the success round, with a uniform for n only on multi-point grids. At
    p = 1 round 1 succeeds for certain and the draw takes no uniform.

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


def seq_aamp_law(p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact law of one uncapped :func:`seq_aamp` draw: the int64 atoms
    ``(oracle, aa)`` and their masses, which sum to 1 within 1e-12.

    Round ell takes n uniformly from {ceil(G^(ell-1)), ..., ceil(G^ell) - 1},
    or its lower end when that is empty (the grids of :func:`_round_table`),
    and succeeds with probability sin^2((2n+1)*theta). The survivors' law of
    S, the sum of their n, is convolved round by round with the failure and
    success weights until at most 1e-15 of it survives; a success in round R
    costs 4S + 3R oracle experiments and 3S + R amplification steps. The
    support grows as 1/sqrt(p) atoms and the cost as 1/p, so p must lie in
    [1e-9, 1].
    """
    if not 1e-9 <= p <= 1.0:
        raise ValueError(f"amplitude must be in [1e-9, 1], got {p}")
    theta = grover_angle(p)
    los, sizes = _round_table()[:2]
    surv, s0, ell = np.ones(1), 0, 1  # the survivors' law of S, from s0 on
    oracle, aa, mass = [], [], []
    while surv.sum() > 1e-15:
        lo = los[ell - 1]
        m = 2 * np.arange(lo, lo + sizes[ell - 1]) + 1
        s = s0 + lo + np.arange(surv.size + m.size - 1)
        oracle.append(2 * WALK_COST * s + (WALK_COST + MEASURE_COST) * ell)
        aa.append(3 * s + ell)
        mass.append(np.convolve(surv, np.sin(m * theta) ** 2 / m.size))
        surv = np.convolve(surv, np.cos(m * theta) ** 2 / m.size)
        s0, ell = s0 + lo, ell + 1
    return np.concatenate(oracle), np.concatenate(aa), np.concatenate(mass)


def ae_outcome_dist(p: float, m: int) -> np.ndarray:
    """Exact outcome law of M-point amplitude estimation at amplitude p.

    The measured index y in [0, M) follows a half/half mixture of Fejer
    kernels centred on the two eigenphases +-omega of the amplification
    operator, omega = asin(sqrt(p))/pi. With c = M*omega and
    f = c - floor(c), the +omega kernel puts mass
    sin^2(pi f) / (M sin(pi x / M))^2 on y = floor(c) + j mod M, at the
    offset x = j - f in the window -M/2 < x <= M/2, and mass 1 on the peak
    when f = 0; the -omega kernel is its mirror y -> M - y. Each sine is
    taken at an argument of at most pi/2, so no digits are lost near the
    grid, and the returned vector sums to one within 1e-12. ``m`` must be
    an integer in [1, 2^62).
    """
    m = int(_whole(m, 1, "register sizes")[0])
    c = m * grover_angle(p) / math.pi
    base = math.floor(c)
    f = c - base
    j = (np.arange(m) - base) % m  # the offset of y from the peak, wrapped
    x = np.where(j - f > m / 2, j - m, j) - f
    peak = x == 0.0
    kernel = (math.sin(math.pi * min(f, 1.0 - f))
              / np.where(peak, 1.0, m * np.sin(np.pi / m * x))) ** 2
    kernel[peak] = 1.0
    return 0.5 * (kernel + kernel[-np.arange(m) % m])


def _whole(values, lo: int, what: str) -> np.ndarray:
    # values as an int64 vector, refused unless each is an integer in
    # [lo, MAX_REGISTER)
    arr = np.asarray(values).reshape(-1)
    if (arr.dtype.kind not in "iu"
            or not lo <= arr.min(initial=lo) <= arr.max(initial=lo) < MAX_REGISTER):
        raise ValueError(f"{what} must be integers in [{lo}, 2^62), got {values}")
    return arr.astype(np.int64, copy=False)


def _kernel_core(ps: np.ndarray, mf: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Per lane of amplitudes ps on M = mf point registers (floats), the peak
    # floor(c) of the Fejer kernel on the eigenphase +omega, c = M*omega, the
    # fraction f = c - floor(c), and, as a (2, lanes) array, the exact masses
    # K(0) and K(1) of the offsets 0 and 1 from the peak, at x = -f and
    # 1 - f (see _phase_draws). For M >= 2 both lie in the window; at M = 1
    # every offset reads y = 0. At f = 0 offset 0 holds all the mass.
    # sin(pi f) / (M sin(pi x / M)) is squared last, so that no factor
    # underflows.
    c = mf * np.arcsin(np.sqrt(ps)) / np.pi
    base = np.floor(c)
    f = c - base
    edge = f == 0.0
    g = 1.0 - f
    core = (np.sin(np.pi * np.minimum(f, g))
            / (mf * np.sin(np.pi / mf * np.where(edge, 1.0, np.stack((f, g)))))) ** 2
    core[0, edge] = 1.0
    return base, f, core


def _phase_draws(ps, ms, copies, gen: np.random.Generator) -> np.ndarray:
    # copies[i] exact draws of the index y in [0, M_i) from the Fejer kernel
    # on the eigenphase +omega of amplitude ps[i] on an M_i = ms[i] point
    # register, one lane per amplitude, as a (lanes, max(copies)) array
    # whose entries past a lane's count hold M_i // 2; O(1) time and memory
    # per draw whatever M is. Their phase distances min(y, M - y) follow the
    # two-kernel law, as the -omega kernel is the mirror image y -> M - y.
    # Through aest_median, one call draws every live window of every ladder
    # of a top-level estimate, so lanes differ in M and count; aest_sample
    # draws one lane. Registers and counts are checked here, before any draw
    # or charge: each an integer below MAX_REGISTER, M >= 1, counts >= 0
    # (aest_median has checked its copy counts >= 1 before).
    # With c = M*omega and f = c - floor(c), the kernel puts mass
    #   K(j) = sin^2(pi f) / (M sin(pi x / M))^2,  x = j - f,
    # on y = floor(c) + j, for the M offsets j in the window -M/2 < x <= M/2.
    # The core, offsets 0 and 1, holds most of it (81% at f = 1/2, more
    # elsewhere): a draw takes one uniform u and lands on offset 0 if
    # u < K(0), on offset 1 if u < K(0) + K(1), and in the tail otherwise.
    # Tail draws are proposed from the envelope
    #   K(j) <= sin^2(pi f) / (4 (x^2 - 1/4)),
    # as M |sin(pi x / M)| >= 2 |x| on the window. Its sums over the two
    # sides telescope, so a side is picked, j >= 2 with probability
    # (1/2 + f)/2, else j <= -1, and inverted exactly from V in (0, 1],
    # j = floor(f + 1/2 + (3/2 - f)/V) or j = -floor(1/2 - f + (1/2 + f)/V);
    # one uniform w gives both the side and V. The left side is the right
    # side's mirror at phase 1 - f: its offset j stands for j' = 1 - j >= 2,
    # at |x| = j' - (1 - f). A proposal in the window is accepted with
    # probability 4 (x^2 - 1/4) / (M sin(pi x / M))^2 <= 1, about 40% of
    # them. A lane whose window holds no tail offset (M <= 2, or f = 0) gets
    # no tail, so that a core summing to one ulp below 1 cannot leave a draw
    # there.
    ps = np.asarray(ps, dtype=float).reshape(-1)
    ms = _whole(ms, 1, "register sizes")
    want = _whole(copies, 0, "copy counts")
    if not 0.0 <= ps.min(initial=0.0) <= ps.max(initial=0.0) <= 1.0:
        raise ValueError(f"amplitudes must be in [0, 1], got {ps}")
    mf = ms.astype(float)
    base, f, (k0, k1) = _kernel_core(ps, mf)
    # a draw's uniform picks offset 1 from K(0) on and the tail from
    # K(0) + K(1) on, which lanes without a tail offset never reach
    tail_from = np.where((f == 0.0) | (ms <= 2), 2.0, k0 + k1)
    # per lane, for the tail: the right side's probability pr, the numerator
    # q that (3/2 - f)/V and (1/2 + f)/V share once V is read off w, the
    # phases f and 1 - f of the two sides, pi/M and M, and the window's ends
    # on the right and on the left
    pr = 0.5 * (0.5 + f)
    half = 0.5 * mf
    tail_law = np.stack((pr, pr * (1.5 - f), f, 1.0 - f, np.pi / mf, mf,
                         half, np.nextafter(half, 0.0)))
    base = base.astype(np.int64)
    ys = np.repeat(ms[:, None] // 2, want.max(initial=0), axis=1)
    ends = np.concatenate(([0], np.cumsum(want)))
    for lo in range(0, int(ends[-1]), _BLOCK):
        # a block of at most _BLOCK draws, in lane order
        hi = min(lo + _BLOCK, int(ends[-1]))
        cut = np.minimum(np.maximum(ends, lo), hi)
        lane = np.repeat(np.arange(ps.size), cut[1:] - cut[:-1])
        u = gen.random(hi - lo)
        j = (u >= k0[lane]).astype(np.int64)
        tail = np.flatnonzero(u >= tail_from[lane])
        while tail.size:
            side_p, q, phase_r, phase_l, pim, m, end_r, end_l = tail_law[:, lane[tail], None]
            w, a = gen.random((2, tail.size, _TAIL_TRIES))
            right = w < side_p
            phase = np.where(right, phase_r, phase_l)
            k = np.floor(q / (np.where(right, side_p, 1.0) - w) + (phase + 0.5))  # j or j'
            ax = k - phase  # |x|
            s = m * np.sin(ax * pim)
            hit = (a * (s * s) < 4.0 * ax * ax - 1.0) & (ax <= np.where(right, end_r, end_l))
            # each slot keeps its first accepted proposal; a slot with none
            # is written over on the next pass
            rows, first = np.arange(tail.size), hit.argmax(axis=1)
            kept = k[rows, first]
            j[tail] = np.where(right[rows, first], kept, 1.0 - kept)
            tail = tail[~hit[rows, first]]
        ys[lane, np.arange(lo, hi) - ends[lane]] = (base[lane] + j) % ms[lane]
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
    +omega in one vectorised call, one uniform each, and more only for the
    draws that land in the kernel's tail, then, for 0 < p < 1, where the
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
    if math.isnan(n):
        raise ValueError(f"time parameter must be a number, got {n}")
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
    of the law of :func:`ae_outcome_dist`, by the sampler of
    :func:`aest_sample`, and reads its median sin^2(pi*y/M) off the lower
    median of its own distances, as sin^2 is nondecreasing in the distance.
    One sort orders every lane's distances; the entries past a lane's copies
    hold M // 2, the farthest distance, so they sort last. The fair coin
    that picks the eigenphase leaves the distance as it is, so no coin is
    drawn. Charges nothing: an estimator charges each windowed-mean ladder
    with :func:`aest_charge` when its schedule reaches it, since no later
    stage reads the draws, and draws the nonzero amplitudes of every ladder
    of a top-level estimate in one call at its end, from a stream derived
    once per estimate. Needs at least one lane, and at least one copy a
    lane: a median of no copies is refused with ``ValueError`` before any
    draw.
    """
    copies = _whole(copies, 1, "copy counts")
    ys = _phase_draws(ps, ms, copies, rng.gen)
    ms = np.asarray(ms, dtype=np.int64)
    # padding holds the farthest distance, so each lane's first copies[i]
    # sorted distances are its own
    dist = np.sort(np.minimum(ys, ms[:, None] - ys), axis=1)
    return sin2_frac(dist[np.arange(copies.size), (copies - 1) // 2], ms)


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
