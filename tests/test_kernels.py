import math
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeansim import (
    ExperimentCounter,
    RandomSource,
    ae_outcome_dist,
    aest_median,
    aest_sample,
    grover_angle,
    seq_aamp,
    seq_aest,
)
from qmeansim.dist import FiniteDist
from qmeansim.kernels import (
    GROWTH,
    MEASURE_COST,
    WALK_COST,
    _fejer,
    _kernel_core,
    _phase_draws,
    _whole,
    ae_register,
    aest_charge,
    amplify_chain,
    _round_table,
    sin2_frac,
)
from qmeansim.qpe_ref import qpe_statevector_dist, total_variation


# -- angles and rotation law --------------------------------------------------

def test_grover_angle_endpoints():
    assert grover_angle(0.0) == 0.0
    assert grover_angle(1.0) == pytest.approx(math.pi / 2)
    assert grover_angle(0.25) == pytest.approx(math.pi / 6)
    with pytest.raises(ValueError):
        grover_angle(-0.1)
    with pytest.raises(ValueError):
        grover_angle(1.1)


# -- sequential amplification -------------------------------------------------

def test_seq_aamp_certain_amplitude_one_round():
    counter = ExperimentCounter()
    ok, rounds, t = seq_aamp(1.0, RandomSource(0), counter)
    assert ok and rounds == 1
    assert t == 4  # round 1 always draws n = 1: 3n+1 amplification steps
    assert counter.oracle_experiments == (2 * 1 + 1) * 2 + 1
    assert counter.aa_applications == 4


def test_seq_aamp_quarter_amplitude_one_round():
    # p = 1/4: round 1 always draws n = 1, and 3 * theta = pi/2 succeeds with
    # certainty, so every draw stops there after 7 oracle experiments and 4
    # amplification steps
    for seed in range(2000):
        counter = ExperimentCounter()
        assert seq_aamp(0.25, RandomSource(seed), counter) == (True, 1, 4)
        assert counter == ExperimentCounter(7, 4)


def test_seq_aamp_zero_amplitude_burns_budget():
    counter = ExperimentCounter(budget=500)
    ok, rounds, _ = seq_aamp(0.0, RandomSource(0), counter)
    assert not ok
    assert counter.interrupted
    assert counter.oracle_experiments == 500
    assert rounds > 0


def test_seq_aamp_zero_amplitude_requires_budget():
    with pytest.raises(ValueError, match="budget"):
        seq_aamp(0.0, RandomSource(0), ExperimentCounter())


def test_seq_aamp_deterministic():
    runs = []
    for _ in range(2):
        counter = ExperimentCounter()
        runs.append(seq_aamp(0.07, RandomSource(313), counter) + (counter.oracle_experiments,))
    assert runs[0] == runs[1]


def test_seq_aamp_small_amplitude_terminates():
    for seed in range(1000):
        ok, _, _ = seq_aamp(1e-4, RandomSource(seed), ExperimentCounter())
        assert ok


def test_seq_aamp_budget_never_exceeded():
    for budget in (1, 7, 8, 50, 333):
        counter = ExperimentCounter(budget=budget)
        seq_aamp(1e-3, RandomSource(budget), counter)
        assert counter.oracle_experiments <= budget



def test_burn_schedule_matches_cumsums():
    # a burn's rounds run on the live rounds' grid: a prefix of _round_table's
    # lower ends, which a Python ceil(GROWTH ** ell) misses from round 358 on;
    # a round costs 2n+1 walk applications of 2 oracle experiments and a
    # measurement
    los, _, cum_oracle, cum_aa, _ = _round_table()
    narr = np.array(los[:len(cum_oracle)], dtype=np.int64)
    assert len(narr) > 358
    assert cum_oracle == np.cumsum((2 * narr + 1) * 2 + 1).tolist()
    assert cum_aa == np.cumsum(3 * narr + 1).tolist()
    assert cum_oracle[-2] < 1e18 <= cum_oracle[-1]


def test_zero_amplitude_burn_matches_round_loop():
    # an empty tail burns its budget round by round at each grid's lower end;
    # a round cut by the budget is counted, with its walk steps (2 oracle
    # experiments each) credited up to it
    for budget in (0, 1, 2, 3, 7, 50, 333, 10_000, 123_457, 10**9 + 7):
        rounds = aa = spent = 0
        while True:
            n = math.ceil(GROWTH**rounds)
            cost = (2 * n + 1) * 2 + 1
            if spent + cost > budget:
                f = min((budget - spent) // 2, 2 * n + 1)
                aa += f + f // 2
                rounds += spent < budget
                break
            spent += cost
            aa += 3 * n + 1
            rounds += 1
        counter = ExperimentCounter(budget=budget)
        assert seq_aamp(0.0, RandomSource(0), counter) == (False, rounds, aa)
        assert counter.oracle_experiments == budget and counter.aa_applications == aa


def test_chain_past_round_table_refused():
    # the schedule is tabulated up to 1e18 oracle experiments; a burn past
    # that, or a live run whose rounds outgrow it, is refused
    with pytest.raises(ValueError, match="past 1e18"):
        seq_aamp(0.0, RandomSource(0), ExperimentCounter(budget=10**19))
    with pytest.raises(ValueError, match="past 1e18"):
        seq_aamp(1e-40, RandomSource(0), ExperimentCounter())


def _grid(ell):
    # integer grid of round ell, as the sequential schedule defines it
    lo = math.ceil(GROWTH ** (ell - 1))
    return range(lo, max(lo, math.ceil(GROWTH**ell) - 1) + 1)


def _mean_success(p, ell):
    theta = grover_angle(p)
    return float(np.mean([math.sin((2 * n + 1) * theta) ** 2 for n in _grid(ell)]))


@pytest.mark.parametrize("p", [1e-3, 0.07, 0.5])
def test_seq_aamp_round_law(p, chi_square_ok):
    # P(R = r) = prod_{l<r} (1 - s_l) * s_r, s_l the mean success probability
    # over round l's grid; the last bin holds the remaining mass
    law, alive = [], 1.0
    while alive > 1e-13:
        s = _mean_success(p, len(law) + 1)
        law.append(alive * s)
        alive *= 1.0 - s
    law.append(alive)
    draws = 20_000
    rng = RandomSource(77)
    counts = np.zeros(len(law))
    for _ in range(draws):
        ok, rounds, _ = seq_aamp(p, rng, ExperimentCounter())
        assert ok
        counts[min(rounds, len(law)) - 1] += 1
    assert chi_square_ok(counts, np.array(law))


def test_seq_aamp_round_law_under_budget(chi_square_ok):
    # The first rounds have one-point grids, so their costs are fixed: a
    # budget three units into round 13 lets rounds 1..12 succeed with their
    # closed-form probabilities and otherwise fails inside round 13.
    p, stop = 3e-3, 13
    ns = [_grid(ell)[0] for ell in range(1, stop + 1)]
    assert all(len(_grid(ell)) == 1 for ell in range(1, stop + 1))
    cum_oracle = np.cumsum([(2 * n + 1) * 2 + 1 for n in ns]).tolist()
    cum_aa = np.cumsum([3 * n + 1 for n in ns]).tolist()
    budget = cum_oracle[stop - 2] + 3
    law, alive = [], 1.0
    for n in ns[:-1]:
        s = math.sin((2 * n + 1) * grover_angle(p)) ** 2
        law.append(alive * s)
        alive *= 1.0 - s
    law.append(alive)
    rng = RandomSource(78)
    counts = np.zeros(stop)
    for _ in range(20_000):
        counter = ExperimentCounter(budget=budget)
        ok, rounds, aa = seq_aamp(p, rng, counter)
        if ok:
            assert counter.oracle_experiments == cum_oracle[rounds - 1]
            assert aa == counter.aa_applications == cum_aa[rounds - 1]
        else:
            # one oracle application fits in the last round: one aa step
            assert (rounds, aa) == (stop, cum_aa[stop - 2] + 1)
            assert counter.oracle_experiments == budget and counter.interrupted
        counts[rounds - 1 if ok else stop - 1] += 1
    assert chi_square_ok(counts, np.array(law))


def test_seq_aamp_first_wide_grid_is_uniform(chi_square_ok):
    # Rounds before the first grid of two or more points, {n, n + 1}, have
    # fixed costs; a round costs 2n+1 walk applications of 2 oracle
    # experiments and a measurement. A budget that runs out after the 2n+3
    # walk applications of n + 1 cuts that draw there, crediting 3n+4 steps,
    # but lets a draw of n finish its round and cuts the next after one
    # walk step: the rounds reveal the n drawn. p is too small for any round
    # to succeed.
    p = 1e-12
    ell = next(ell for ell in range(1, 100) if len(_grid(ell)) > 1)
    spent = sum((2 * _grid(l)[0] + 1) * 2 + 1 for l in range(1, ell))
    spent_aa = sum(3 * _grid(l)[0] + 1 for l in range(1, ell))
    grid = _grid(ell)
    assert len(grid) == 2
    budget = spent + (2 * grid[-1] + 1) * 2
    rng = RandomSource(79)
    counts = np.zeros(len(grid))
    for _ in range(4000):
        ok, rounds, aa = seq_aamp(p, rng, ExperimentCounter(budget=budget))
        assert not ok
        n = grid[-1] if rounds == ell else grid[0]
        assert (rounds, aa) in ((ell, spent_aa + 3 * n + 1), (ell + 1, spent_aa + 3 * n + 2))
        counts[n - grid[0]] += 1
    assert chi_square_ok(counts, np.full(len(grid), 1.0 / len(grid)))


@settings(max_examples=150, deadline=None)
@given(
    p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-4, 1.0)),
    budget=st.one_of(st.none(), st.integers(0, 5000)),
    pre=st.integers(0, 6000),
    seed=st.integers(0, 2**32 - 1),
)
def test_seq_aamp_budget_properties(p, budget, pre, seed):
    counter = ExperimentCounter(budget=budget)
    if pre:  # budget 0 without a charge leaves a counter not yet tripped
        counter.charge(pre)
    before = counter.snapshot()
    if p == 0.0 and budget is None:
        with pytest.raises(ValueError):
            seq_aamp(p, RandomSource(seed), counter)
        return
    ok, rounds, aa = seq_aamp(p, RandomSource(seed), counter)
    assert aa == counter.aa_applications - before.aa_applications
    assert counter.oracle_experiments >= before.oracle_experiments
    if budget is None:
        assert ok and not counter.interrupted
    else:
        assert counter.oracle_experiments <= budget
        assert counter.interrupted == (counter.oracle_experiments == budget)
        assert ok or counter.interrupted
    if before.interrupted:
        assert counter == before


def _two_uniform_chain(cum, tails, k, caps, gen, us, draws):
    # The loop amplify_chain ran before it drew one threshold uniform per
    # draw, kept as the reference its law is checked against: each round
    # pops one uniform for n off its grid (also on one-point grids, where it
    # is spent on int(u * 1) = 0) and one for its success coin, and the
    # spares are refilled in blocks of 64 whenever fewer than 3 are left.

    los, sizes, burn_oracle, burn_aa, _ = _round_table()
    walk, measure = WALK_COST, MEASURE_COST
    sin, pop = math.sin, us.pop
    ends: list[int] = []
    oracle_sum = aa = rounds = 0
    try:
        for cap in caps:
            limit = math.inf if cap is None else cap
            at, spent, left = k, 0, draws
            while left:
                tail = tails[at]
                if not tail > 0.0:
                    if cap is None:
                        raise ValueError("zero amplitude never succeeds; a budget is required")
                    # only the burn-down is observable, so every round fails
                    # and costs its grid's lower end: `full` rounds fit, and
                    # the next one is cut
                    full = bisect_right(burn_oracle, cap - spent)
                    done = burn_oracle[full - 1] if full else 0
                    rem = cap - spent - done
                    # the cut round's paid walk applications, credited as below
                    f = min(rem, burn_oracle[full] - done - measure) // walk
                    aa += (burn_aa[full - 1] if full else 0) + f + f // 2
                    rounds += full + (rem > 0)
                    spent = cap
                    break
                theta = math.asin(math.sqrt(tail))
                r = 0
                while True:
                    if len(us) < 3:  # room for this round and a readout
                        us.extend(gen.random(64).tolist())
                    n = los[r] + int(pop() * sizes[r])
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
                    s = sin(m * theta)
                    if pop() < s * s:
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
                    at = bisect_right(cum, below + pop() * tail, at, len(cum) - 1) + 1
                    if spent == limit:
                        break
            ends.append(at)
            oracle_sum += spent
    except IndexError:  # a round or a burn past the end of _round_table
        raise ValueError("sequential amplification past 1e18 oracle experiments "
                         "is not simulated") from None
    return ends, oracle_sum, aa, rounds


def _chain_law_cases():
    # (cum, tails, caps, draws) of one chain from atom 0 per call
    d = FiniteDist(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), np.array([0.1, 0.0, 0.4, 0.3, 0.2]))
    fine = FiniteDist(np.arange(1.0, 101.0), np.full(100, 0.01))
    multi = [0.3, 0.05, 0.7, 0.0]
    return {
        # tail-1 first draw, readouts, a massless atom, and the zero-tail
        # burn once a chain reaches the top atom
        "tail1-readout-burn": (*d._chain, [300], math.inf),
        "readout-fine": (*fine._chain, [2000], math.inf),
        "tail0.1": (None, [0.1], [None], 1),
        "tail0.01": (None, [0.01], [None], 1),
        # tails whose draws run past round 26 onto grids of several points
        "tail1e-3": (None, [1e-3], [None], 1),
        "tail1e-4": (None, [1e-4], [None], 1),
        # a cap inside the one-point rounds 1..26 (566 oracle experiments),
        # and caps that cut rounds of one and of several points beyond them
        "cap-one-point-rounds": (None, [1e-3], [300], 1),
        "cap-past-round-26": (None, [1e-4], [1500], 1),
        "cap-deep": (None, [1e-5], [6000], 1),
        # multi-draw chains without readout, the last tail empty
        "multi-draw-uncapped": (None, multi, [None], 3),
        "multi-draw-capped": (None, multi, [500], math.inf),
    }


def _chain_outcomes(kernel, case, draws, seed):
    # (end, oracle, aa, rounds) of `draws` one-chain calls sharing one list
    # of spares
    cum, tails, caps, depth = case
    gen, us = RandomSource(seed).gen, []
    out = []
    for _ in range(draws):
        (end,), oracle, aa, rounds = kernel(cum, tails, 0, caps, gen, us, depth)
        out.append((end, oracle, aa, rounds))
    return out


@pytest.mark.parametrize("name", list(_chain_law_cases()))
def test_chain_law_matches_two_uniform_loop(name, two_sample_ok):
    # amplify_chain draws the success round by inversion off one threshold
    # uniform, the reference loop flips one coin per round: the joint law of
    # (end atom, oracle, aa, rounds) must be the same. Each case runs
    # 20,000 chains per side, and five Pearson homogeneity tests: the joint
    # outcome and each coordinate, coordinates of many values binned at the
    # pooled sample's quantiles. Each test false-alarms with probability
    # about 1e-6, so the 55 tests together below 1e-4.
    case = _chain_law_cases()[name]
    new = _chain_outcomes(amplify_chain, case, 20_000, 161)
    ref = _chain_outcomes(_two_uniform_chain, case, 20_000, 162)
    assert two_sample_ok(new, ref)
    for i in range(4):
        assert two_sample_ok([o[i] for o in new], [o[i] for o in ref], bins=20)


def test_chain_law_cases_reach_past_round_26():
    # the cases draw n on grids of several points and cut rounds there
    sizes = _round_table()[1]
    assert sizes[:26] == [1] * 26 and sizes[26] == 2
    cases = _chain_law_cases()
    for name in ("tail1e-3", "tail1e-4", "cap-past-round-26", "cap-deep"):
        rounds = [o[3] for o in _chain_outcomes(amplify_chain, cases[name], 200, 3)]
        assert max(rounds) > 27, name
    capped = _chain_outcomes(amplify_chain, cases["cap-deep"], 200, 3)
    assert any(o[1] == 6000 and o[3] > 27 for o in capped)


def _one_threshold_chain(cum, tails, k, caps, gen, us, draws):
    # amplify_chain as it ran before the fixed rounds were hoisted out of
    # the round loop, kept verbatim as the reference it must match bit for
    # bit: one threshold uniform a draw, and the running product of the
    # rounds' failure probabilities computed round by round, with each
    # round's cost and cap check, the fixed rounds 1..26 too.
    los, sizes, burn_oracle, burn_aa, _ = _round_table()
    walk, measure = WALK_COST, MEASURE_COST
    cos, pop = math.cos, us.pop
    ends: list[int] = []
    oracle_sum = aa = rounds = 0
    try:
        for cap in caps:
            limit = math.inf if cap is None else cap
            at, spent, left = k, 0, draws
            while left:
                tail = tails[at]
                if not tail > 0.0:
                    if cap is None:
                        raise ValueError("zero amplitude never succeeds; a budget is required")
                    # only the burn-down is observable, so every round fails
                    # and costs its grid's lower end: `full` rounds fit, and
                    # the next one is cut
                    full = bisect_right(burn_oracle, cap - spent)
                    done = burn_oracle[full - 1] if full else 0
                    rem = cap - spent - done
                    # the cut round's paid walk applications, credited as below
                    f = min(rem, burn_oracle[full] - done - measure) // walk
                    aa += (burn_aa[full - 1] if full else 0) + f + f // 2
                    rounds += full + (rem > 0)
                    spent = cap
                    break
                theta = math.asin(math.sqrt(tail))
                if not us:
                    us.extend(gen.random(64).tolist())
                threshold, surv, r = 1.0 - pop(), 1.0, 0
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
                    at = bisect_right(cum, below + pop() * tail, at, len(cum) - 1) + 1
                    if spent == limit:
                        break
            ends.append(at)
            oracle_sum += spent
    except IndexError:  # a round or a burn past the end of _round_table
        raise ValueError("sequential amplification past 1e18 oracle experiments "
                         "is not simulated") from None
    return ends, oracle_sum, aa, rounds


_CAPS = st.one_of(
    st.none(), st.just(0),
    # a cut inside the fixed rounds 1..26, of 566 oracle experiments, or at
    # one of their ends, then a cut past them
    st.integers(1, 566), st.sampled_from(_round_table()[2][:26]).flatmap(
        lambda c: st.sampled_from([c, c + 1])),
    st.integers(567, 10**6))


@st.composite
def _chain_call(draw):
    # (cum, tails, caps, draws) of chains on a random law of 1..100 atoms,
    # some massless, or of a multi-draw chain without readout on tails from
    # 1e-12 to 1, which succeed in a fixed round or past them
    if draw(st.booleans()):
        w = np.array(draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=100).filter(any)),
                     dtype=float)
        cum, tails = FiniteDist(np.arange(w.size, dtype=float), w / w.sum())._chain
        depth = draw(st.sampled_from([1, 2, 5, math.inf]))
    else:
        depth = draw(st.integers(1, 4))
        tail = st.one_of(st.just(0.0), st.just(1.0), st.floats(-12.0, 0.0).map(lambda e: 10**e))
        cum, tails = None, draw(st.lists(tail, min_size=depth, max_size=depth))
    return cum, tails, draw(st.lists(_CAPS, min_size=1, max_size=4)), depth


def _run_chain(kernel, args, gen, us, depth):
    try:
        return kernel(*args, gen, us, depth), list(us)
    except ValueError as exc:
        return str(exc), list(us)


@settings(max_examples=300, deadline=None)
@given(calls=st.lists(_chain_call(), min_size=1, max_size=2), seed=st.integers(0, 2**32 - 1))
def test_chain_matches_one_threshold_loop(calls, seed):
    # the same ends, (oracle, aa, rounds), spares and next uniform as the
    # round-by-round loop, over multi-chain calls, capped and uncapped, each
    # call list run twice on one stream
    new_gen, new_us = RandomSource(seed).gen, []
    ref_gen, ref_us = RandomSource(seed).gen, []
    for cum, tails, caps, depth in calls * 2:
        new = _run_chain(amplify_chain, (cum, tails, 0, caps), new_gen, new_us, depth)
        ref = _run_chain(_one_threshold_chain, (cum, tails, 0, caps), ref_gen, ref_us, depth)
        assert new == ref
    assert new_gen.random() == ref_gen.random()


def test_chain_cap_on_a_fixed_round_end_matches_one_threshold_loop():
    # a draw whose success round ends exactly on the cap succeeds and spends
    # it, and a cap one short cuts that round: 60 one-draw chains per cap at
    # the end of each fixed round, and 60 uncapped, on tails that succeed
    # early, late and past the fixed rounds
    ends = _round_table()[2][:26]
    for tail in (0.3, 0.03, 3e-3, 1e-3, 3e-4):
        for cap in [None, *ends, *(end - 1 for end in ends)]:
            args = (None, [tail, 0.5], 0, [cap] * 60)
            new = amplify_chain(*args, RandomSource(9).gen, [], 1)
            assert new == _one_threshold_chain(*args, RandomSource(9).gen, [], 1)


def test_chain_threshold_ties_match_one_threshold_loop():
    # a draw whose product S_r equals its threshold 1 - u exactly fails in
    # round r and goes on: u is set as the first spare. While S_r >= 1/2,
    # u = 1 - S_r and 1 - u are exact, so every such round gets its tie.
    los, ties = _round_table()[0], 0
    for tail in (0.002, 0.02, 0.2):
        theta, surv = math.asin(math.sqrt(tail)), 1.0
        for n in los[:26]:
            c = math.cos((2 * n + 1) * theta)
            surv *= c * c
            if surv < 0.5:
                break
            u, ties = 1.0 - surv, ties + 1
            assert 1.0 - u == surv
            new = amplify_chain(None, [tail], 0, [None], RandomSource(4).gen, [u], 1)
            assert new == _one_threshold_chain(None, [tail], 0, [None], RandomSource(4).gen,
                                               [u], 1)
    assert ties >= 10
    # at tail 1e-20 every fixed round's cos^2 rounds to 1, so u = 0 ties all 26
    new = amplify_chain(None, [1e-20], 0, [None], RandomSource(4).gen, [0.0], 1)
    assert new == _one_threshold_chain(None, [1e-20], 0, [None], RandomSource(4).gen, [0.0], 1)


# -- counters -----------------------------------------------------------------

def test_counter_charge_and_interrupt():
    c = ExperimentCounter(budget=10)
    assert c.charge(6, 2)
    assert not c.interrupted
    assert c.charge(4, 1)  # exact landing applies in full but trips the flag
    assert c.interrupted and c.oracle_experiments == 10
    assert not c.charge(1)  # nothing fits afterwards
    assert c.oracle_experiments == 10


def test_counter_overshoot_clamps():
    c = ExperimentCounter(budget=10)
    assert not c.charge(25, 9)
    assert c.oracle_experiments == 10
    assert c.aa_applications == 0
    assert c.interrupted


# -- estimation outcome law ----------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 4, 8, 16, 32, 64])
def test_outcome_dist_normalized(m):
    for p in np.linspace(0.0, 1.0, 101):
        probs = ae_outcome_dist(float(p), m)
        assert abs(probs.sum() - 1.0) < 1e-12
        assert np.all(probs >= -1e-15)


@pytest.mark.parametrize("m", [4, 8, 16, 32])
def test_outcome_dist_symmetry(m):
    for p in (0.1, 0.3, 0.5, 0.77):
        probs = ae_outcome_dist(p, m)
        for y in range(1, m):
            assert probs[y] == pytest.approx(probs[m - y], abs=1e-12)


def test_outcome_dist_degenerate():
    d0 = ae_outcome_dist(0.0, 8)
    assert d0[0] == pytest.approx(1.0, abs=1e-12)
    d1 = ae_outcome_dist(1.0, 8)
    assert d1[4] == pytest.approx(1.0, abs=1e-12)


def test_outcome_dist_half_on_grid():
    probs = ae_outcome_dist(0.5, 4)
    assert probs[1] == pytest.approx(0.5, abs=1e-12)
    assert probs[3] == pytest.approx(0.5, abs=1e-12)
    assert probs[0] == pytest.approx(0.0, abs=1e-12)


def test_outcome_dist_on_grid_concentrates():
    # angle theta = pi*k/M puts all mass on {k, M-k}
    m, k = 16, 3
    p = math.sin(math.pi * k / m) ** 2
    probs = ae_outcome_dist(p, m)
    assert probs[k] + probs[m - k] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 16, 31, 32])
def test_outcome_dist_matches_statevector(m):
    for p in (0.0, 1.0, 0.5, 0.3, 0.25, 1e-3, 0.999, math.sin(math.pi / 8) ** 2):
        tv = total_variation(ae_outcome_dist(p, m), qpe_statevector_dist(p, m))
        assert tv < 1e-11


def _distance_law(p, m):
    # the law of the phase distance min(y, M - y), 0..M//2, folded off the
    # law of y
    ys = np.arange(m)
    return np.bincount(np.minimum(ys, m - ys), weights=ae_outcome_dist(p, m),
                       minlength=m // 2 + 1)


@pytest.mark.parametrize("m", [1, 2, 3, 16, 37, 4096])
@pytest.mark.parametrize("p", [1e-4, 0.3, 0.5, math.sin(math.pi / 8) ** 2, 0.9999, 1.0])
def test_sampler_matches_law(p, m, chi_square_ok):
    # _phase_draws leaves the eigenphase coin to aest_sample, so the phase
    # distances min(y, M - y) of its draws, all aest_median reads, are
    # checked against the folded law. Each call mixes p with amplitudes 0
    # and 1, one on the measurement grid and a generic one, and every lane
    # is checked.
    n = 200_000
    rng = RandomSource(5)
    lanes = [p, 0.0, 1.0, math.sin(math.pi * (m // 3) / m) ** 2, 0.3]
    # ten calls keep the proposal arrays small
    k, size = len(lanes), n // 10
    batch = np.concatenate([_phase_draws(lanes, [m] * k, [size] * k, rng.gen)
                            for _ in range(10)], axis=1)
    assert batch.shape == (len(lanes), n)
    for lane, draws in zip(lanes, batch):
        assert np.all((0 <= draws) & (draws < m))
        counts = np.bincount(np.minimum(draws, m - draws), minlength=m // 2 + 1).astype(float)
        assert len(counts) == m // 2 + 1
        law = _distance_law(lane, m)
        assert total_variation(counts / n, law) < 0.01
        assert chi_square_ok(counts, law)


@pytest.mark.parametrize("m", [3, 16])
@pytest.mark.parametrize("p", [0.0, 0.3, math.sin(math.pi / 8) ** 2, 1.0])
def test_aest_sample_matches_law(p, m, chi_square_ok):
    # aest_sample's y itself, eigenphase coin included, against the
    # two-kernel law, all drawn in one call; each draw is charged as one
    # aest_charge copy
    n = 20_000
    rng = RandomSource(5)
    counter = ExperimentCounter()
    ys = aest_sample(p, m, n, rng, counter)
    assert ys.shape == (n,) and ys.dtype == np.int64
    assert counter.oracle_experiments == n * (m * 4 + 1)
    assert counter.aa_applications == n * 3 * m
    counts = np.bincount(ys, minlength=m).astype(float)
    assert len(counts) == m
    law = ae_outcome_dist(p, m)
    assert total_variation(counts / n, law) < 0.01
    assert chi_square_ok(counts, law)


def test_sampler_huge_register_constant_memory():
    # a 2^40-point law could never be materialised; a draw needs O(1) memory
    p, m, draws = 0.3, 1 << 40, 200
    rng = RandomSource(6)
    counter = ExperimentCounter()
    tracemalloc.start()
    try:
        ys = aest_sample(p, m, draws, rng, counter)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert counter.aa_applications == draws * 3 * m
    assert np.all((0 <= ys) & (ys < m))
    # each readout meets the estimation bound with probability >= 8/pi^2
    bound = 2 * math.pi * math.sqrt(p * (1 - p)) / m + math.pi**2 / m**2
    assert np.sum(np.abs(sin2_frac(ys, m) - p) <= bound) >= draws // 2


def test_phase_draws_memory_bounded_per_pass():
    # proposals are made in passes of bounded size, so one big call holds
    # little more than its result (5 lanes x 199,000 int64 draws, 7.6 MB)
    m = 4096
    lanes = [0.3, 0.0, 1.0, math.sin(math.pi * (m // 3) / m) ** 2, 0.3]
    gen = RandomSource(12).gen
    tracemalloc.start()
    try:
        ys = _phase_draws(lanes, [m] * 5, [199_000] * 5, gen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ys.shape == (5, 199_000)
    assert peak < 32 << 20


def test_phase_draws_mixed_registers_match_law(chi_square_ok):
    # one call whose lanes each have their own register size and copy count;
    # every lane's phase distances follow its own folded law, and its row is
    # padded past its count
    m = 64
    lanes = [(0.0, 16, 20_000), (1.0, 37, 30_000), (1.0, 16, 10_000),
             (math.sin(math.pi * 3 / m) ** 2, m, 40_000), (0.3, 37, 60_000),
             (0.3, 4096, 50_000), (1e-4, 3, 25_000), (0.5, 1, 5_000)]
    ps, ms, copies = zip(*lanes)
    ys = _phase_draws(ps, ms, copies, RandomSource(21).gen)
    assert ys.shape == (len(lanes), max(copies))
    for (p, m, k), row in zip(lanes, ys):
        assert np.all((0 <= row[:k]) & (row[:k] < m))
        dist = np.minimum(row[:k], m - row[:k])
        counts = np.bincount(dist, minlength=m // 2 + 1).astype(float)
        assert len(counts) == m // 2 + 1
        assert chi_square_ok(counts, _distance_law(p, m)), (p, m)


# The rejection sampler that _phase_draws replaced, kept verbatim as a
# reference: every offset proposed off a 1/k^2 envelope, a third of the
# proposals accepted.
def _rejection_phase_draws(ps, ms, copies, gen):
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


def test_phase_draws_match_rejection_sampler(two_sample_ok):
    # the core and tail sampler against the rejection sampler it replaced,
    # on the phase distances of lanes with no tail (M <= 2, f = 0), a tail of
    # one offset (M = 3), small windows and wide ones
    lanes = [(0.3, 1), (0.9, 1), (0.3, 2), (0.9999, 2), (1.0, 2), (0.3, 3), (0.5, 3),
             (1.0, 3), (0.7, 5), (0.0, 37), (0.3, 37), (0.9999, 37), (0.5, 4096), (1e-4, 1001)]
    ps, ms = zip(*lanes)
    counts = [100_000] * len(lanes)
    new = _phase_draws(ps, ms, counts, RandomSource(31).gen)
    old = _rejection_phase_draws(ps, ms, counts, RandomSource(32).gen)
    for (p, m), a, b in zip(lanes, new, old):
        assert two_sample_ok(np.minimum(a, m - a).tolist(), np.minimum(b, m - b).tolist()), (p, m)


def _window_tail(m, f):
    # offsets j of the tail (j >= 2 or j <= -1) whose x = j - f lies in the
    # window -M/2 < x <= M/2: all of them for small M, else those near the
    # peak, log-spaced ones and those at the window's ends
    if m <= 64:
        js = np.arange(-m, m + 2)
    else:
        far = np.unique(np.round(np.geomspace(2, m / 2, 300)))
        ends = m // 2 + np.arange(-3, 4)
        js = np.concatenate([np.arange(-64, 66), far, 1 - far, ends, -ends])
    js = np.unique(js)
    x = js - f
    return x[((js >= 2) | (js <= -1)) & (-m / 2 < x) & (x <= m / 2)]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 37, 2**40])
def test_tail_envelope_bounds_kernel(m):
    # on every tail offset of the window, the kernel mass
    # K = sin^2(pi f) / (M sin(pi x / M))^2 lies below the envelope
    # sin^2(pi f) / (4 (x^2 - 1/4)), and the acceptance ratio, their quotient,
    # is at most 1; M <= 2 leaves no tail offset in the window
    for f in (0.0, 1e-12, 0.5, 1 - 1e-12):
        x = _window_tail(m, f)
        assert (x.size == 0) == (m <= 2)
        s2 = math.sin(math.pi * min(f, 1 - f)) ** 2
        fold = (m * np.sin(np.pi * x / m)) ** 2
        envelope = s2 / (4 * (x * x - 0.25))
        assert np.all(s2 / fold <= envelope * (1 + 1e-12)), (m, f)
        ratio = 4 * (x * x - 0.25) / fold
        assert np.all((0 < ratio) & (ratio <= 1 + 1e-12)), (m, f)
        if f == 0.5 and m <= 37:  # the kernel itself, where its sines are exact enough
            assert np.allclose(_fejer(x / m, m), s2 / fold, rtol=1e-9, atol=0.0)
        # the envelope sums of the two sides telescope to the masses the
        # tail's side coin and inversions are built on
        if m == 37:
            k = np.arange(2, 10**6)
            right = np.sum(1 / (4 * ((k - f) ** 2 - 0.25)))
            left = np.sum(1 / (4 * ((k - 1 + f) ** 2 - 0.25)))
            assert right == pytest.approx(1 / (4 * (1.5 - f)), abs=1e-6)
            assert left == pytest.approx(1 / (4 * (0.5 + f)), abs=1e-6)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 16, 37, 4096])
def test_core_and_tail_masses_match_folded_law(m):
    # the core masses K(0) and K(1) are the +omega kernel's masses at the
    # peak and one past it, and with the rest of the window, the tail, they
    # sum to 1; the kernel folds onto the two-kernel law of ae_outcome_dist
    # and onto the statevector law. The last amplitude puts the peak 1e-9
    # past offset 1, where ae_outcome_dist's -omega kernel loses digits (its
    # sine is taken near pi), so only the statevector law is its reference.
    near = math.sin(math.pi * (1 + 1e-9) / m) ** 2
    ps = [0.0, 1e-12, 1e-4, 0.3, 0.5, math.sin(math.pi / 8) ** 2, 0.9999, 1.0,
          math.sin(math.pi * (m // 3) / m) ** 2, near]
    base, f, core = _kernel_core(np.array(ps), np.full(len(ps), float(m)))
    ys = np.arange(m)
    dist = np.minimum(ys, m - ys)
    for i, p in enumerate(ps):
        law = _fejer(ys / m - math.asin(math.sqrt(p)) / math.pi, m)
        folded = np.bincount(dist, weights=law, minlength=m // 2 + 1)
        statevector = np.bincount(dist, weights=qpe_statevector_dist(p, m), minlength=m // 2 + 1)
        assert np.allclose(folded, statevector, rtol=0, atol=1e-11), p
        if p != near:
            assert np.allclose(folded, _distance_law(p, m), rtol=0, atol=1e-12), p
        y0, y1 = int(base[i]) % m, (int(base[i]) + 1) % m
        assert core[:, i] == pytest.approx([law[y0], law[y1]], abs=1e-12), p
        tail = law.sum() - law[y0] - law[y1]
        assert core[:, i].sum() + tail == pytest.approx(1.0, abs=1e-12), p
        if m == 2 or f[i] == 0.0:
            assert tail == pytest.approx(0.0, abs=1e-12), p


def test_lanes_without_tail_take_one_uniform_a_draw():
    # 10^6 draws at M = 2 and at f = 0 each take one uniform and never reach
    # the tail, whose proposals would take more: offsets 0 and 1 hold all
    # the mass there, and a core summing to one ulp below 1 must not leave
    # the tail a draw it could never place
    n = 10**6
    for p, m in ((0.3, 2), (0.9999, 2), (1e-12, 2), (0.0, 37), (1.0, 4096), (0.0, 2**40),
                 (1.0, 2)):
        gen, ref = RandomSource(41).gen, RandomSource(41).gen
        ys = _phase_draws([p], [m], [n], gen)[0]
        ref.random(n)
        assert gen.random() == ref.random(), (p, m)
        if m == 2:
            counts = np.bincount(ys, minlength=2)
            law = ae_outcome_dist(p, 2)  # both kernels fold onto one law at M = 2
            assert counts.sum() == n and np.all(np.abs(counts / n - law) < 5e-3), (p, m)
        else:
            assert np.all(ys == round(m * math.asin(math.sqrt(p)) / math.pi)), (p, m)


class _TopUniforms:
    # a generator whose core uniforms are all the largest double below 1, and
    # which refuses to make tail proposals
    def random(self, size):
        assert np.ndim(size) == 0, "a tail proposal was drawn"
        return np.full(size, np.nextafter(1.0, 0.0))


def test_lanes_without_tail_never_draw_a_tail():
    # at M = 2 and p = 0.04097352393619469, K(0) + K(1) rounds to two ulps
    # below 1, so the top uniform lies past the core; such a lane has no tail
    # offset in its window, and its draw lands on offset 1 instead of a tail
    # whose proposals could never be accepted
    p = 0.04097352393619469
    base, f, core = _kernel_core(np.array([p]), np.array([2.0]))
    assert core.sum() < np.nextafter(1.0, 0.0)
    ys = _phase_draws([p, 0.0, 1.0, 0.3], [2, 37, 4096, 1], [3, 2, 2, 2], _TopUniforms())
    assert ys.tolist() == [[1, 1, 1], [0, 0, 18], [2048, 2048, 2048], [0, 0, 0]]


def test_phase_draws_padding_is_farthest_distance():
    # entries past a lane's count hold M // 2, which sorts last among the
    # lane's phase distances
    ys = _phase_draws([0.3, 0.7, 0.2], [16, 37, 1], [5, 2, 0], RandomSource(9).gen)
    assert ys.shape == (3, 5)
    assert ys[1, 2:].tolist() == [18] * 3 and ys[2].tolist() == [0] * 5


def _median_distance_law(p, m, k):
    # P(lower median of k distances min(y, M - y) <= d) is the chance that at
    # least (k - 1)//2 + 1 of the k copies land at distance <= d
    cdf = np.cumsum(_distance_law(p, m))
    need = (k - 1) // 2 + 1
    below = [sum(math.comb(k, i) * f**i * (1 - f) ** (k - i) for i in range(need, k + 1))
             for f in np.minimum(cdf, 1.0)]
    return np.diff(below, prepend=0.0)


def test_aest_median_matches_exact_median_law(chi_square_ok):
    # one call over 3000 lanes each of six (p, M, copies) cases; each lane's
    # reading is mapped back to its median distance and checked against the
    # exact law of a lower median of its own copies
    cases = [(0.3, 64, 14), (0.3, 37, 9), (math.sin(math.pi * 5 / 64) ** 2, 64, 17),
             (0.05, 273, 8), (0.0, 16, 14), (0.7, 16, 47)]
    reps = 3000
    ps, ms, copies = (np.repeat(col, reps) for col in zip(*cases))
    readings = aest_median(ps, ms, copies, RandomSource(22)).reshape(len(cases), reps)
    for (p, m, k), row in zip(cases, readings):
        table = sin2_frac(np.arange(m // 2 + 1), m)
        d = np.searchsorted(table, row)
        assert np.all(table[np.minimum(d, m // 2)] == row), (p, m, k)
        law = _median_distance_law(p, m, k)
        assert law.sum() == pytest.approx(1.0, abs=1e-9)
        assert chi_square_ok(np.bincount(d, minlength=m // 2 + 1).astype(float), law), (p, m, k)


def test_sin2_frac_exact_grid_points():
    assert sin2_frac(0, 8) == 0.0
    assert sin2_frac(4, 8) == 1.0
    assert sin2_frac(2, 8) == 0.5
    assert sin2_frac(6, 8) == 0.5
    assert sin2_frac(80, 320) == 0.5
    assert sin2_frac(3, 8) == pytest.approx(math.sin(3 * math.pi / 8) ** 2)
    # arrays, with indices outside [0, M) folded mod M, and every scalar
    # reading equal to its array element
    for m in (1, 2, 4, 7, 8, 320, 1 << 20, (1 << 20) + 2):
        ys = np.concatenate([np.arange(-9, 10), m // 4 + np.arange(-2, 3),
                             m // 2 + np.arange(-2, 3), 3 * m // 4 + np.arange(-2, 3),
                             [m - 1, m, m + 1, 5 * m // 4, 2 * m]])
        out = sin2_frac(ys, m)
        assert out.shape == ys.shape
        dist = np.minimum(ys % m, m - ys % m)
        assert np.all(out[dist == 0] == 0.0)
        assert np.all(out[2 * dist == m] == 1.0)
        assert np.all(out[4 * dist == m] == 0.5)
        assert np.allclose(out, np.sin(np.pi * ys / m) ** 2, rtol=0, atol=1e-12)
        assert [sin2_frac(int(y), m) for y in ys] == out.tolist()


def _median_amplitudes(gen, m):
    # 1 to 6 amplitudes from a pool of degenerate, on-grid, quarter-turn and
    # generic ones
    j = int(gen.integers(0, m // 2 + 1))
    pool = [0.0, 1.0, 0.5, math.sin(math.pi / 4) ** 2, math.sin(math.pi * j / m) ** 2,
            math.sin(math.pi * (m // 4) / m) ** 2, float(gen.random()), float(gen.random()) ** 4]
    return [pool[i] for i in gen.integers(0, len(pool), int(gen.integers(1, 7)))]


@pytest.mark.parametrize("delta", [0.1, 0.25, 1 / 16, 0.3], ids=["14", "9", "17", "8"])
def test_aest_median_fold_matches_sorted_readout(delta):
    # medians taken on the phase distances min(y, M - y), then read out, equal
    # the lower medians of the sorted readings of the same draws
    log_term = math.log(1 / delta)
    copies = math.ceil(6 * log_term)
    assert copies == {0.1: 14, 0.25: 9, 1 / 16: 17, 0.3: 8}[delta]
    gen = np.random.default_rng(copies)
    for case in range(300):
        m = int(gen.choice([7, 8, 9, 12, 16, 31, 64, 273, 1024, 4097]))
        n = (m - 0.5) * log_term / (2 * math.pi)  # a register of exactly M points
        assert ae_register(n, delta) == (m, copies)
        ps = _median_amplitudes(gen, m)
        ms, counts = [m] * len(ps), [copies] * len(ps)
        got = aest_median(ps, ms, counts, RandomSource(case))
        ys = _phase_draws(ps, ms, counts, RandomSource(case).gen)
        want = np.sort(sin2_frac(ys, m), axis=1)[:, (copies - 1) // 2]
        assert got.tolist() == want.tolist(), (m, ps)


def test_aest_sample_degenerate_amplitudes():
    rng = RandomSource(0)
    counter = ExperimentCounter()
    assert sin2_frac(aest_sample(0.0, 64, 1, rng, counter), 64).tolist() == [0.0]
    assert sin2_frac(aest_sample(1.0, 64, 1, rng, counter), 64).tolist() == [1.0]


def test_aest_sample_on_grid_angle_is_exact():
    # p = sin^2(pi/8) with M = 8 lies on the measurement grid
    p = math.sin(math.pi / 8) ** 2
    rng = RandomSource(11)
    counter = ExperimentCounter()
    readings = sin2_frac(aest_sample(p, 8, 200, rng, counter), 8)
    assert np.all(np.abs(readings - p) <= 1e-15)


def test_aest_median_exact_half():
    # amplitude 0.5 with a register size divisible by 4 reads out exactly
    m, copies = ae_register(117.2, 0.1)
    assert m % 4 == 0
    est = aest_median([0.5], [m], [copies], RandomSource(3))
    assert est.tolist() == [0.5]


def test_aest_charge_budget_stops_after_k_copies():
    # n = 100, delta = 0.1: 14 copies of an M = 273 register, each charged
    # 4M + 1 oracle experiments and 3M amplification steps
    m, k = 273, 5
    assert ae_register(100.0, 0.1) == (m, 14)
    per_copy = 4 * m + 1
    budget = k * per_copy + per_copy // 2
    counter = ExperimentCounter(budget=budget)
    aest_charge(m, 14, counter)
    assert counter.oracle_experiments == budget
    assert counter.aa_applications == k * 3 * m
    assert counter.interrupted
    # charge for charge what 14 single copies leave on a counter
    reference = ExperimentCounter(budget=budget)
    for _ in range(14):
        reference.charge(per_copy, 3 * m)
    assert counter == reference
    # a three-amplitude ladder stopped inside its second amplitude's copies
    # leaves what 3 * 14 single copies leave
    budget = (14 + k) * per_copy + per_copy // 2
    counter = ExperimentCounter(budget=budget)
    aest_charge(m, 3 * 14, counter)
    assert counter.aa_applications == (14 + k) * 3 * m
    reference = ExperimentCounter(budget=budget)
    for _ in range(3 * 14):
        reference.charge(per_copy, 3 * m)
    assert counter == reference
    # the draw charges nothing and reads p = 0 exactly
    ests = aest_median([0.0, 0.3, 1.0], [m] * 3, [14] * 3, RandomSource(4))
    assert ests[0] == 0.0 and all(0.0 <= est <= 1.0 for est in ests)
    # random budgets, pre-charges and 1 to 4 amplitudes, against the per-copy
    # loop
    gen = np.random.default_rng(9)
    for case in range(5000):
        lanes = [0.0, 0.3, 1.0, 0.7][:1 + case % 4]
        n = float(gen.uniform(3.0, 60.0))
        copies = math.ceil(6 * math.log(10))
        m = math.ceil(2 * math.pi * n / math.log(10))
        assert ae_register(n, 0.1) == (m, copies)
        cost = 4 * m + 1
        total = len(lanes) * copies
        budget = {0: None, 1: 0}.get(case % 10, int(gen.integers(0, (total + 2) * cost + 2)))
        pre = int(gen.integers(0, 2 * cost + 2))
        counter = ExperimentCounter(budget=budget)
        if pre:  # budget 0 without a charge leaves a counter not yet tripped
            counter.charge(pre)
        reference = counter.snapshot()
        aest_charge(m, total, counter)
        for _ in range(total):
            reference.charge(cost, 3 * m)
        assert counter == reference, (lanes, n, budget, pre)


def test_ae_register_rejects_small_n_and_huge_registers():
    with pytest.raises(ValueError, match="below log"):
        ae_register(1.0, 0.1)
    with pytest.raises(ValueError, match="failure probability"):
        ae_register(10.0, 1.0)
    # a register just below 2^62 points is simulated, one of 2^62 is refused,
    # and so is one too large for a float
    edge = 2.0**62 * math.log(10) / (2 * math.pi)
    assert ae_register(edge * (1 - 1e-15), 0.1)[0] < 2**62
    for n in (edge, 1e300, math.inf, math.nan):
        with pytest.raises(ValueError, match="past the 2\\^62"):
            ae_register(n, 0.1)


@pytest.mark.parametrize("m, count", [
    (2**62 + 5, 1), (2**62, 1), (2**63, 1), (2**64, 1), (0, 1), (2.5, 1),
    (16, -1), (16, 2.5), (16, 1e3),
], ids=["past-2^62", "2^62", "2^63", "2^64", "zero-points", "fractional-m",
        "negative-count", "fractional-count", "float-count"])
def test_draws_refuse_bad_registers_and_counts(m, count):
    # both callers of _phase_draws refuse a register outside [1, 2^62) or a
    # count that is not a whole number >= 0, before any draw or charge
    rng, counter = RandomSource(3), ExperimentCounter()
    with pytest.raises(ValueError, match="must be integers"):
        aest_sample(0.3, m, count, rng, counter)
    with pytest.raises(ValueError, match="must be integers"):
        aest_median([0.3], [m], [count], rng)
    assert counter == ExperimentCounter()
    assert rng.gen.random() == RandomSource(3).gen.random()


def test_aest_median_refuses_lanes_without_copies():
    # a median of no copies is refused before any draw, alone or beside
    # other lanes; aest_sample still draws a count of 0
    rng = RandomSource(1)
    for ps, ms, copies in (([0.3, 0.2], [16, 16], [0, 3]), ([0.3], [16], [0])):
        with pytest.raises(ValueError, match="copy counts must be integers in \\[1, "):
            aest_median(ps, ms, copies, rng)
    assert rng.gen.random() == RandomSource(1).gen.random()
    counter = ExperimentCounter()
    assert aest_sample(0.3, 16, 0, rng, counter).tolist() == []
    assert counter == ExperimentCounter()


def test_draws_on_largest_register():
    # M = 2^62 - 1 draws in range and reads out without int64 overflow
    m = 2**62 - 1
    counter = ExperimentCounter()
    ys = aest_sample(0.3, m, 1000, RandomSource(8), counter)
    assert np.all((0 <= ys) & (ys < m))
    assert np.all(np.abs(sin2_frac(ys, m) - 0.3) < 1e-9)
    assert counter == ExperimentCounter(1000 * (4 * m + 1), 1000 * 3 * m)
    medians = aest_median([0.3, 0.0, 1.0], [m] * 3, [14] * 3, RandomSource(8))
    assert np.allclose(medians, [0.3, 0.0, 1.0], rtol=0, atol=1e-9)


# -- sequential estimation -----------------------------------------------------

def test_seq_aest_certain_amplitude():
    p_est, t = seq_aest(1.0, RandomSource(0), ExperimentCounter())
    assert t == 4
    assert p_est == 1.0 / 16.0


def test_seq_aest_zero_amplitude_with_budget():
    counter = ExperimentCounter(budget=200)
    p_est, _ = seq_aest(0.0, RandomSource(0), counter)
    assert p_est == 0.0
    assert counter.interrupted and counter.oracle_experiments == 200


def test_seq_aest_moment_envelopes():
    # across a small grid, the measured envelopes stay near calibration
    for p in (0.04, 0.3):
        rng = RandomSource(17)
        inv = []
        sqrt_est = []
        for _ in range(4000):
            est, t = seq_aest(p, rng, ExperimentCounter())
            inv.append(1.0 / est)
            sqrt_est.append(math.sqrt(est))
        assert np.mean(inv) <= 130 / p  # seq_cost_sq envelope (calibrated: ~111)
        assert np.mean(sqrt_est) <= 0.75 * math.sqrt(p)  # calibrated: ~0.64
