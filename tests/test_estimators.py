import copy
import hashlib
import json
import math
import tracemalloc
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmeansim import (
    ConstantProfile,
    EstimateReport,
    ExperimentCounter,
    FiniteDist,
    QVar,
    RandomSource,
    bern_est,
    calibrate_constants,
    cond_sample_above,
    conditional_above,
    default_profile,
    make_dist,
    named_dist,
    pair_square_diff,
    quantile_est,
    relative_est,
    seq_bern_est,
    seq_relative_est,
    shift_split,
    subgauss_est,
    theoretical_profile,
)
from qmeansim import estimators
from qmeansim.estimators import (
    _MAX_REFINE_TIME,
    _Ladders,
    _part_windows,
    _StageTracker,
    _subgauss,
)
from qmeansim.kernels import ae_register, aest_median, amplify_chain, lower_median


@pytest.fixture(scope="module")
def profile():
    return default_profile("calibrated")


def qvar(d, budget=None):
    return QVar(d, ExperimentCounter(budget=budget))


def uniform(*values):
    k = len(values)
    return make_dist(list(values), [1.0 / k] * k)


# -- profiles -----------------------------------------------------------------

def test_theoretical_profile_couplings_hold():
    prof = theoretical_profile()
    c0, c1 = prof.sampler_low_coeff, prof.sampler_mean_coeff
    assert prof.quantile_order_factor == pytest.approx(c0**2 / (c1**2 * math.sqrt(191)))
    assert prof.quantile_budget_coeff == pytest.approx(190 * c1)
    assert prof.layer_time_factor == pytest.approx(600 / math.sqrt(prof.quantile_order_factor))
    assert prof.probe_budget_coeff == pytest.approx(
        16 * prof.seq_cost_sq_coeff * math.sqrt(1 + prof.seq_rel_err)
    )
    assert prof.refine_time_coeff == pytest.approx(
        4 * (1 + prof.seq_rel_err) / math.sqrt(1 - prof.seq_rel_err)
    )


def test_default_profile_resolves_names_and_files(tmp_path):
    path = tmp_path / "prof.json"
    path.write_text(theoretical_profile().to_json())
    assert default_profile(str(path)) == default_profile("theoretical")
    assert default_profile() == default_profile("calibrated")
    with pytest.raises(FileNotFoundError):
        default_profile(str(tmp_path / "none.json"))


def test_theoretical_profile_rejects_broken_coupling():
    theoretical = json.loads(theoretical_profile().to_json())
    theoretical["quantile_budget_coeff"] += 1
    with pytest.raises(ValueError, match="quantile_budget_coeff"):
        ConstantProfile.from_json(json.dumps(theoretical))
    calibrated = json.loads(default_profile().to_json())
    with pytest.raises(ValueError, match="layer_time_factor"):
        ConstantProfile.from_json(json.dumps({**calibrated, "layer_time_factor": 4.0}))


def test_profile_rejects_non_finite_constants():
    # a base constant of inf (as 1e999 parses) or NaN is refused by name, and
    # so is a derived one that overflows, or a coupling c that underflows to
    # 0 with or without its denominator, before 600/sqrt(c) divides by it
    base = {name: getattr(theoretical_profile(), name) for name in ConstantProfile.BASE}
    for name, value in (("seq_cost_sq_coeff", "1e999"), ("sampler_mean_coeff", "NaN")):
        text = json.dumps({**base, name: 0}).replace(f'"{name}": 0', f'"{name}": {value}')
        with pytest.raises(ValueError, match=f"{name} must be a finite positive number"):
            ConstantProfile.from_json(text)
    for changes, name in (({"sampler_low_coeff": 1e-200}, "quantile_order_factor = 0.0"),
                          ({"sampler_low_coeff": 1e-200, "sampler_mean_coeff": 2e-200},
                           "quantile_order_factor = 0.0"),
                          ({"seq_cost_sq_coeff": 1e308}, "probe_budget_coeff = inf")):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            ConstantProfile(**{**base, **changes})


def test_profile_refuses_ints_past_the_float_range():
    # json reads 10^400 as an int that no float holds: refused by name as a
    # base constant and as a stated derived one, before any product overflows
    base = json.loads(theoretical_profile().to_json())
    with pytest.raises(ValueError, match="sampler_mean_coeff must be a finite positive number"):
        ConstantProfile.from_json(json.dumps({**base, "sampler_mean_coeff": 10**400}))
    with pytest.raises(ValueError, match="layer_time_factor = 1000.* does not match"):
        ConstantProfile.from_json(json.dumps({**base, "layer_time_factor": 10**400}))


def test_profile_roundtrip(profile):
    clone = ConstantProfile.from_json(profile.to_json())
    assert clone == profile


def test_packaged_profiles_give_pinned_json():
    # to_json writes every base and derived constant, sorted by name: the
    # calibrated profile reproduces its packaged file byte for byte
    packaged = resources.files("qmeansim.data").joinpath("calibrated.json").read_text()
    assert default_profile("calibrated").to_json() + "\n" == packaged
    for name, digest in (
            ("calibrated", "9b4ba3df0605a23d2fd25a473f77a7ed0d3380e217c4bf161576cc054be50997"),
            ("theoretical", "f4f9b49f5289863664a8cbfdedaceb4712f27daed27fdbff089e1a811da4dcc9")):
        text = default_profile(name).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name
        assert list(json.loads(text)) == sorted(ConstantProfile.BASE + ConstantProfile.DERIVED)


def test_reports_compare_by_value():
    counter = ExperimentCounter(7, 4, 10, True)
    report = EstimateReport(1.5, counter, {"stage": 7}, ["stage"])
    assert report == EstimateReport(1.5, counter.snapshot(), {"stage": 7}, ["stage"])
    assert report != EstimateReport(1.5, ExperimentCounter(7, 4, 10, False), {"stage": 7},
                                    ["stage"])
    assert report != EstimateReport(1.5, counter, {"stage": 8}, ["stage"])
    assert report != (1.5, counter, {"stage": 7}, ["stage"])
    assert EstimateReport(1.0, ExperimentCounter()) == EstimateReport(
        1.0, ExperimentCounter(), {}, [])
    assert repr(counter) == ("ExperimentCounter(oracle_experiments=7, aa_applications=4, "
                             "budget=10, interrupted=True)")


# -- conditional sampling -------------------------------------------------------

def test_cond_sample_full_tail_draws_uniform(profile):
    d = uniform(1, 2, 3, 4)
    rng = RandomSource(123)
    counts = {v: 0 for v in (1.0, 2.0, 3.0, 4.0)}
    n = 100_000
    qv = qvar(d)
    for _ in range(n):
        y, _ = cond_sample_above(qv, -math.inf, rng)
        counts[y] += 1
    for v, c in counts.items():
        assert abs(c / n - 0.25) < 0.01


def test_cond_sample_empty_tail_consumes_budget(profile):
    qv = qvar(uniform(1, 2, 3, 4), budget=100)
    y, cost = cond_sample_above(qv, 4.0, RandomSource(0))
    assert y is None
    assert cost == 100
    assert qv.counter.interrupted


_PARETO = named_dist("pareto:2.5:1:512")


@pytest.mark.parametrize("d,x", [
    (uniform(1, 2, 3, 4), 2.0),
    (_PARETO, -math.inf),
    (_PARETO, float(_PARETO.values[255])),
    (_PARETO, float(_PARETO.values[510])),
    (FiniteDist(np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.25, 0.0, 0.5, 0.25])), 1.0),
], ids=["uniform4-above-2", "pareto-all", "pareto-middle", "pareto-last", "zero-atom"])
def test_cond_sample_conditional_frequencies(d, x, chi_square_ok):
    cond, _ = conditional_above(d, x)
    rng = RandomSource(321)
    qv = qvar(d)
    n = 100_000
    index = {float(v): i for i, v in enumerate(cond.values)}
    counts = np.zeros(len(cond))
    for _ in range(n):
        y, _ = cond_sample_above(qv, x, rng)
        counts[index[y]] += 1
    assert np.all(np.abs(counts / n - cond.probs) < 0.01)
    assert chi_square_ok(counts, cond.probs)


# -- quantile estimation ----------------------------------------------------------

def test_quantile_point_mass(profile):
    for seed in range(5):
        rep = quantile_est(qvar(make_dist([7], [1.0])), 0.3, 0.1, profile, RandomSource(seed))
        assert rep.estimate == 7.0


def test_quantile_budget_honest(profile):
    p = 0.01
    budget = math.ceil(profile.quantile_budget_coeff / math.sqrt(p))
    qv = qvar(uniform(*range(1, 101)))
    rep = quantile_est(qv, p, 0.1, profile, RandomSource(9))
    assert sum(rep.stage_costs.values()) == rep.counter_snapshot.oracle_experiments
    assert all(cost <= budget for cost in rep.stage_costs.values())


def test_quantile_coverage_uniform100(profile):
    hits = 0
    trials = 120
    for seed in range(trials):
        rep = quantile_est(qvar(uniform(*range(1, 101))), 0.01, 0.1, profile,
                           RandomSource(1000 + seed))
        if rep.estimate == 100.0:
            hits += 1
    assert hits / trials >= 0.85


def test_quantile_coverage_middle_order(profile):
    # uniform {1..100} at order 1/2: the calibrated order factor is far below
    # 1/100, so the admissible interval is [Q(0.5), Q(c*0.5)] = [51, 100]
    dist = uniform(*range(1, 101))
    hits = 0
    trials = 150
    for seed in range(trials):
        rep = quantile_est(qvar(dist), 0.5, 0.1, profile, RandomSource(4200 + seed))
        if 51.0 <= rep.estimate <= 100.0:
            hits += 1
    assert hits / trials >= 0.85


def _chain_end_law(d, cap, draw_law):
    # Exact law of the atom count k a chain capped at `cap` ends above (its
    # estimate is atom k - 1, -inf for k = 0), by dynamic programming over
    # (k, oracle spent) of its draws with readout, each with the exact law
    # of a draw from atom k with the rest of the cap; a draw that spends the
    # rest ends the chain, and an empty tail burns it.
    probs, tails = d.probs.tolist(), d._tail.tolist() + [0.0]
    law = np.zeros(len(probs) + 1)
    states = [{} for _ in range(cap)]  # states[spent][k] = mass; spent only grows
    states[0][0] = 1.0
    for spent, at in enumerate(states):
        for k, mass in at.items():
            tail = min(tails[k], 1.0)
            if tail == 0.0:
                law[k] += mass
                continue
            for (end, oracle, _, _), w in draw_law(tail, cap - spent, probs, k).items():
                if spent + oracle == cap:
                    law[end] += mass * w
                else:
                    states[spent + oracle][end] = states[spent + oracle].get(end, 0.0) + mass * w
    return law


def _on_integers(probs):
    d = FiniteDist(np.arange(len(probs), dtype=float), np.array(probs))
    return d, None, d


# The lower part of a split at a middle atom: read off the laws of -X at the
# shift, and built by shift_split
_PARENT = make_dist(np.arange(7.0), [0.05, 0.1, 0.15, 0.3, 0.2, 0.12, 0.08])
_SPLIT_BELOW = (_PARENT._mirror, -3.0, shift_split(_PARENT, 3.0)[1])


@pytest.mark.parametrize("d,shift,ref,cap", [
    (*_on_integers([0.5, 0.5]), 9),
    (*_on_integers([0.8, 0.15, 0.04, 0.01]), 30),
    (*_on_integers([0.6, 0.3, 0.0, 0.08, 0.015, 0.005]), 100),
    (*_on_integers([0.95, 0.04, 0.0, 0.009, 0.001]), 500),
    (*_SPLIT_BELOW, 60),
], ids=["2atoms-cap9", "4atoms-cap30", "6atoms-cap100", "5atoms-cap500", "split-below-cap60"])
def test_quantile_chain_end_law(profile, d, shift, ref, cap, chi_square_ok, draw_law):
    # delta = 0.9 runs one repetition, and order p = 1/4 makes the profile's
    # coefficient cap / 2 a cap of exactly `cap`; the law is that of `ref`,
    # the law `d` read at the shift, whose estimates are atoms of `ref`
    law = _chain_end_law(ref, cap, draw_law)
    assert law.sum() == pytest.approx(1.0, abs=1e-12)
    prof = copy.copy(profile)
    prof.quantile_budget_coeff = cap / 2
    rng = RandomSource(cap)
    counts = np.zeros(len(ref) + 1)
    for _ in range(20_000):
        rep = quantile_est(qvar(d), 0.25, 0.9, prof, rng, shift)
        assert rep.stage_costs == {"repetition_00": cap}
        assert rep.estimate == -math.inf or rep.estimate in ref.values
        counts[0 if rep.estimate == -math.inf
               else int(np.searchsorted(ref.values, rep.estimate)) + 1] += 1
    assert chi_square_ok(counts, law)


# Random budgets and pre-charges for the budget properties.
BUDGETED = dict(
    probs=st.lists(st.integers(1, 20), min_size=1, max_size=6),
    delta=st.floats(0.05, 0.5),
    budget=st.one_of(st.none(), st.integers(0, 200_000)),
    pre=st.integers(0, 5000),
    seed=st.integers(0, 2**32 - 1),
)


def budgeted_qvar(values, probs, budget, pre):
    d = make_dist(values, np.array(probs) / sum(probs))
    counter = ExperimentCounter(budget=budget)
    if pre:  # budget 0 without a charge leaves a counter not yet tripped
        counter.charge(pre)
    return QVar(d, counter)


def check_budget_properties(rep, counter, before, budget):
    # the tally stays within the budget, the stage costs sum to the counter
    # movement, and interrupted is set iff the budget was reached
    moved = counter.oracle_experiments - before
    assert sum(rep.stage_costs.values()) == moved == rep.counter_snapshot.oracle_experiments
    assert rep.counter_snapshot.interrupted == counter.interrupted
    assert bool(rep.interrupted_stages) == counter.interrupted
    if budget is None:
        assert not counter.interrupted
    else:
        assert counter.oracle_experiments <= budget
        assert counter.interrupted == (counter.oracle_experiments == budget)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(0.01, 0.9), **BUDGETED)
def test_quantile_budget_properties(profile, probs, p, delta, budget, pre, seed):
    qv = budgeted_qvar(np.arange(len(probs), dtype=float), probs, budget, pre)
    before = qv.counter.oracle_experiments
    rep = quantile_est(qv, p, delta, profile, RandomSource(seed))
    check_budget_properties(rep, qv.counter, before, budget)
    # a repetition ends only when its budget is spent: it costs exactly the
    # per-repetition budget, or the counter's remainder if that is smaller
    per_rep = math.ceil(profile.quantile_budget_coeff / math.sqrt(p))
    remaining = None if budget is None else budget - before
    for i, (name, cost) in enumerate(rep.stage_costs.items()):
        assert name == f"repetition_{i:02d}"
        assert cost == (per_rep if remaining is None else min(per_rep, remaining))
        if remaining is not None:
            remaining -= cost
    assert rep.estimate == -math.inf or rep.estimate in qv.dist.values


@settings(max_examples=60, deadline=None)
@given(factor=st.floats(1.0, 30.0), **BUDGETED)
def test_bern_budget_properties(profile, probs, factor, delta, budget, pre, seed):
    qv = budgeted_qvar(np.arange(1, len(probs) + 1, dtype=float), probs, budget, pre)
    before = qv.counter.oracle_experiments
    n = factor * math.log(1.0 / delta)
    rep = bern_est(qv, n, 0.0, len(probs), delta, RandomSource(seed))
    check_budget_properties(rep, qv.counter, before, budget)


@settings(max_examples=60, deadline=None)
@given(factor=st.floats(1.0, 30.0), shift=st.integers(0, 5), **BUDGETED)
def test_subgauss_budget_properties(profile, probs, factor, shift, delta, budget, pre, seed):
    qv = budgeted_qvar(np.arange(len(probs), dtype=float) - shift, probs, budget, pre)
    before = qv.counter.oracle_experiments
    n = factor * math.log(1.0 / delta)
    rep = subgauss_est(qv, n, delta, profile, RandomSource(seed))
    check_budget_properties(rep, qv.counter, before, budget)


@settings(max_examples=60, deadline=None)
@given(**BUDGETED)
def test_seq_bern_budget_properties(probs, delta, budget, pre, seed):
    # support {0, 1/k, ..., 1}: a point mass at 0 has zero mean
    k = max(len(probs) - 1, 1)
    qv = budgeted_qvar(np.arange(len(probs)) / k, probs, budget, pre)
    before = qv.counter.oracle_experiments
    if budget is None and len(probs) == 1:
        with pytest.raises(ValueError, match="budget is required"):
            seq_bern_est(qv, RandomSource(seed))
        return
    rep = seq_bern_est(qv, RandomSource(seed))
    check_budget_properties(rep, qv.counter, before, budget)


@settings(max_examples=60, deadline=None)
@given(factor=st.floats(1.0, 30.0), eps=st.floats(0.05, 0.9), shift=st.integers(0, 5),
       **BUDGETED)
def test_relative_budget_properties(profile, probs, factor, eps, shift, delta, budget, pre,
                                    seed):
    # ch = factor * eps keeps the time parameter at factor * log(1/delta)
    qv = budgeted_qvar(np.arange(len(probs), dtype=float) - shift, probs, budget, pre)
    before = qv.counter.oracle_experiments
    rep = relative_est(qv, factor * eps, eps, delta, profile, RandomSource(seed))
    check_budget_properties(rep, qv.counter, before, budget)


@settings(max_examples=60, deadline=None)
@given(eps=st.floats(0.05, 0.9), **BUDGETED)
def test_seq_relative_budget_properties(profile, probs, eps, delta, budget, pre, seed):
    # support {0, 1/k, ..., 1}: a point mass at 0 has zero mean
    k = max(len(probs) - 1, 1)
    qv = budgeted_qvar(np.arange(len(probs)) / k, probs, budget, pre)
    before = qv.counter.oracle_experiments
    if budget is None and len(probs) == 1:
        with pytest.raises(ValueError, match="budget is required"):
            seq_relative_est(qv, eps, delta, profile, RandomSource(seed))
        return
    rep = seq_relative_est(qv, eps, delta, profile, RandomSource(seed))
    check_budget_properties(rep, qv.counter, before, budget)


def _zero_medians(ps, ms, copies, rng):
    return np.zeros(len(ps))


@settings(max_examples=60, deadline=None)
@given(factor=st.floats(1.0, 30.0), eps=st.floats(0.05, 0.9), shift=st.integers(0, 5),
       **BUDGETED)
def test_tallies_do_not_depend_on_ladder_draws(profile, probs, factor, eps, shift, delta,
                                               budget, pre, seed):
    # a ladder is charged when the schedule reaches it and drawn at the end
    # from a derived stream, so with every draw stubbed to zeros the tallies,
    # stage costs, interruptions and the main stream's next uniform stay
    # bit-identical
    n = factor * math.log(1.0 / delta)
    cases = [
        (np.arange(len(probs), dtype=float) - shift,
         lambda qv, rng: subgauss_est(qv, n, delta, profile, rng)),
        (np.arange(1, len(probs) + 1, dtype=float),
         lambda qv, rng: bern_est(qv, n, 0.0, len(probs), delta, rng)),
    ]
    if budget is not None or len(probs) > 1:  # a point mass at 0 needs a budget
        cases.append((np.arange(len(probs)) / max(len(probs) - 1, 1),
                      lambda qv, rng: seq_relative_est(qv, eps, delta, profile, rng)))
    for values, run in cases:
        seen = []
        for draw in (estimators.aest_median, _zero_medians):
            qv, rng = budgeted_qvar(values, probs, budget, pre), RandomSource(seed)
            with mock.patch.object(estimators, "aest_median", draw):
                rep = run(qv, rng)
            seen.append((rep.counter_snapshot, list(rep.stage_costs.items()),
                         rep.interrupted_stages, qv.counter, rng.gen.random()))
        assert seen[0] == seen[1]


def test_every_ladder_of_an_estimate_is_drawn_in_one_call(profile):
    # 74 refinements on bernoulli:0.1, one windowed-mean ladder each
    calls = []

    def counted(ps, ms, copies, rng):
        calls.append(len(ps))
        return draw(ps, ms, copies, rng)

    draw = estimators.aest_median
    with mock.patch.object(estimators, "aest_median", counted):
        rep = seq_relative_est(qvar(named_dist("bernoulli:0.1")), 0.1, 0.1, profile,
                               RandomSource(1))
        # exactly the one live window of each refinement's ladder
        assert calls == [74]
        assert abs(rep.estimate - 0.1) <= 0.01
        for run in (lambda qv: subgauss_est(qv, 64, 0.1, profile, RandomSource(2)),
                    lambda qv: relative_est(qv, 1.0, 0.2, 0.1, profile, RandomSource(3)),
                    lambda qv: bern_est(qv, 64, 0.0, 1.0, 0.1, RandomSource(4))):
            calls.clear()
            run(qvar(named_dist("uniform:0..1:11")))
            assert len(calls) == 1


def test_ladder_sums_draw_the_lanes_in_insertion_order():
    # ladders interleaved on X and -X, as the refinements of a sequential
    # estimate add them, of several sizes and registers: searched once per
    # law, their live windows are drawn in the order the ladders were added,
    # each window's amplitude as a one-ladder search gives it
    d = named_dist("uniform:0..1:11")
    added = []
    for term, (at, k, register) in enumerate(((3, 2, (40, 5)), (6, 4, (90, 3)),
                                              (8, 3, (25, 7)))):
        eta = float(d.values[at])
        steps = np.ldexp(1.0, np.arange(-k - 1, 1))
        steps[0] = 0.0
        added += [(d, (1.0 - eta) * steps, eta, register, 1.0, term),
                  (d._mirror, eta * steps, -eta, register, -1.0, term)]
    counter, ladders = ExperimentCounter(), _Ladders()
    for law, edges, shift, register, sign, term in added:
        ladders.add(QVar(law, counter), edges, register, sign, term, shift)
    assert counter.oracle_experiments == sum((edges.size - 1) * c * (4 * m + 1)
                                             for _, edges, _, (m, c), _, _ in added)
    lanes = []
    for law, edges, shift, (m, c), sign, term in added:
        means = _part_windows(law, [edges], [shift])[1]
        for p, top in zip(np.minimum(np.maximum(means / edges[1:], 0.0), 1.0), edges[1:]):
            if p:
                lanes.append((p, m, c, sign * top, term))
    ps, ms, copies, scales, owners = map(np.array, zip(*lanes))
    medians = aest_median(ps, ms, copies, RandomSource(5).derive(1))
    want = np.bincount(owners, scales * medians, 3)
    assert ladders.sums(3, RandomSource(5)).tolist() == want.tolist()


def _quantile_per_repetition(qv, p, delta, profile, rng):
    # The loop quantile_est fuses: one single-cap chain call, one charge and
    # one stage close per repetition, the calls sharing one list of spares.
    reps = math.ceil(6 * math.log(1.0 / delta))
    per_rep = math.ceil(profile.quantile_budget_coeff / math.sqrt(p))
    counter, d, us = qv.counter, qv.dist, []
    tracker = _StageTracker(counter)
    values = [-math.inf] + d.values.tolist()
    estimates = []
    for i in range(reps):
        rem = counter.remaining()
        cap = per_rep if rem is None else min(per_rep, rem)
        (k,), _, aa, _ = amplify_chain(*d._chain, 0, [cap], rng.gen, us, math.inf)
        counter.charge(cap, aa)
        estimates.append(values[k])
        tracker.close(f"repetition_{i:02d}")
        if counter.interrupted:
            break
    return tracker.report(lower_median(estimates))


@settings(max_examples=150, deadline=None)
@given(p=st.floats(0.01, 0.9), **BUDGETED)
def test_quantile_matches_per_repetition_loop(profile, probs, p, delta, budget, pre, seed):
    args = (np.arange(len(probs), dtype=float), probs, budget, pre)
    fused, looped = budgeted_qvar(*args), budgeted_qvar(*args)
    fused_rng, looped_rng = RandomSource(seed), RandomSource(seed)
    got = quantile_est(fused, p, delta, profile, fused_rng)
    want = _quantile_per_repetition(looped, p, delta, profile, looped_rng)
    assert got.estimate == want.estimate
    assert list(got.stage_costs.items()) == list(want.stage_costs.items())
    assert got.interrupted_stages == want.interrupted_stages
    assert got.counter_snapshot == want.counter_snapshot
    assert fused.counter == looped.counter
    # both leave the stream at the same place
    assert fused_rng.gen.random() == looped_rng.gen.random()



@pytest.mark.parametrize("reps", [100, 101, 125])
@pytest.mark.parametrize("stop", [None, 60, 110])
def test_quantile_matches_per_repetition_loop_past_stored_names(profile, reps, stop):
    # stage names are formatted once for up to 100 repetitions and on the
    # fly beyond: ceil(6 log(1/delta)) = reps, and budgets that interrupt
    # repetition `stop`, below 100 and past it
    delta = math.exp(-(reps - 0.5) / 6)
    assert math.ceil(6 * math.log(1.0 / delta)) == reps
    per_rep = math.ceil(profile.quantile_budget_coeff / math.sqrt(0.01))
    budget = None if stop is None else stop * per_rep + 7
    args = ([1.0, 2.0, 3.0], [1, 2, 1], budget, 0)
    fused, looped = budgeted_qvar(*args), budgeted_qvar(*args)
    got = quantile_est(fused, 0.01, delta, profile, RandomSource(reps))
    want = _quantile_per_repetition(looped, 0.01, delta, profile, RandomSource(reps))
    assert got == want
    assert fused.counter == looped.counter
    assert len(got.stage_costs) == (reps if stop is None or stop >= reps else stop + 1)
    assert got.interrupted_stages == ([] if stop is None or stop >= reps
                                      else [f"repetition_{stop:02d}"])

def _seq_relative_nested(qv, eps, delta, profile, rng):
    # The loop seq_relative_est flattens: the rough and probe stages go
    # through the seq_bern_est entry point, the probe on a fresh counter
    # capped by its stop budget and the caller's remainder, whose tallies are
    # then folded into the caller's counter, re-checking its budget. The
    # refinements share one ladder batch, drawn at the end, as in the flat code.
    counter = qv.counter
    pair = pair_square_diff(qv.dist)
    reps = math.ceil(32 * math.log(1.0 / delta))
    tracker = _StageTracker(counter)
    ladders = _Ladders()
    outputs = []
    for _ in range(reps):
        mu_rough = seq_bern_est(qv, rng).estimate
        tracker.close("rough_mean")
        if mu_rough <= 0.0:
            outputs.append(0.0)
            continue
        probe_budget = math.ceil(profile.probe_budget_coeff / math.sqrt(eps * mu_rough))
        rem = counter.remaining()
        child = ExperimentCounter(budget=probe_budget if rem is None else min(probe_budget, rem))
        probe = seq_bern_est(QVar(pair, child), rng)
        counter.oracle_experiments += child.oracle_experiments
        counter.aa_applications += child.aa_applications
        if counter.budget is not None and counter.oracle_experiments >= counter.budget:
            counter.oracle_experiments = min(counter.oracle_experiments, counter.budget)
            counter.interrupted = True
        tracker.close("variance_probe")
        var_probe = 0.0 if child.interrupted else probe.estimate
        n_refine = min(profile.refine_time_coeff * max(math.sqrt(var_probe) / (eps * mu_rough),
                                                       1.0 / math.sqrt(eps * mu_rough)),
                       _MAX_REFINE_TIME)
        outputs.append(_subgauss(qv, n_refine, 1.0 / 16.0, profile, rng, ladders,
                                 len(outputs))[1])
        tracker.close("refinement")
        if counter.interrupted:
            break
    return tracker.report(lower_median(np.add(outputs, ladders.sums(len(outputs), rng)).tolist()))


# A probe that succeeds exactly on its stop budget, which changes the
# refinement, and a probe capped by the counter's remainder.
@example(probs=[4, 15, 2, 13, 6], eps=0.7153463977372433, delta=0.1630704101769868,
         budget=None, pre=0, seed=1235299605, probe_coeff=0.8445900069626039)
@example(probs=[6, 3, 6, 9, 17, 10], eps=0.5600854470708059, delta=0.3778522370653076,
         budget=198, pre=0, seed=394775965, probe_coeff=None)
@settings(max_examples=150, deadline=None)
@given(eps=st.floats(0.05, 0.9), probe_coeff=st.one_of(st.none(), st.floats(0.1, 10.0)),
       **BUDGETED)
def test_seq_relative_matches_nested_counter_loop(profile, probs, eps, delta, budget, pre,
                                                  seed, probe_coeff):
    # support {0, 1/k, ..., 1}: a point mass at 0 has zero mean. A small probe
    # coefficient (None: the calibrated one) lets probes reach their stop budget.
    if probe_coeff is not None:
        profile = copy.copy(profile)
        profile.probe_budget_coeff = probe_coeff
    k = max(len(probs) - 1, 1)
    args = (np.arange(len(probs)) / k, probs, budget, pre)
    flat, nested = budgeted_qvar(*args), budgeted_qvar(*args)
    if budget is None and len(probs) == 1:
        with pytest.raises(ValueError, match="budget is required"):
            seq_relative_est(flat, eps, delta, profile, RandomSource(seed))
        return
    flat_rng, nested_rng = RandomSource(seed), RandomSource(seed)
    got = seq_relative_est(flat, eps, delta, profile, flat_rng)
    want = _seq_relative_nested(nested, eps, delta, profile, nested_rng)
    assert got.estimate == want.estimate
    assert list(got.stage_costs.items()) == list(want.stage_costs.items())
    assert got.interrupted_stages == want.interrupted_stages
    assert got.counter_snapshot == want.counter_snapshot
    assert flat.counter == nested.counter
    assert flat_rng.gen.random() == nested_rng.gen.random()


def test_quantile_rejects_bad_args(profile):
    qv = qvar(uniform(1, 2))
    with pytest.raises(ValueError):
        quantile_est(qv, 0.0, 0.1, profile, RandomSource(0))
    with pytest.raises(ValueError):
        quantile_est(qv, 0.5, 1.0, profile, RandomSource(0))


@pytest.mark.parametrize("shift", [math.nan, math.inf, -math.inf])
def test_quantile_refuses_a_non_finite_shift_before_any_charge(profile, shift):
    qv = qvar(named_dist("uniform:1..100:100"))
    with pytest.raises(ValueError, match=f"shift must be finite, got {shift}"):
        quantile_est(qv, 0.01, 0.1, profile, RandomSource(0), shift)
    assert qv.counter == ExperimentCounter()


@pytest.mark.parametrize("eta", [0.5, 50.0, 50.5, 100.0, 100.5])
def test_quantile_shift_reads_the_part_shift_split_builds(profile, eta):
    # below the support, at an atom, between two atoms, at and above the top
    # atom: the part max(X - eta, 0) read off X's laws at eta, and max(eta -
    # X, 0) off -X's at -eta, give the estimate and tallies of quantile_est
    # on shift_split's part, on the same stream
    d = named_dist("uniform:1..100:100")
    for law, shift, part in zip((d, d._mirror), (eta, -eta), shift_split(d, eta)):
        for p, seed in ((0.5, 1), (0.01, 2)):
            got_rng, want_rng = RandomSource(seed), RandomSource(seed)
            got = quantile_est(qvar(law), p, 0.1, profile, got_rng, shift)
            want = quantile_est(qvar(part), p, 0.1, profile, want_rng)
            assert got.estimate == want.estimate >= 0.0
            assert got.counter_snapshot == want.counter_snapshot
            assert got.stage_costs == want.stage_costs
            assert got_rng.gen.random() == want_rng.gen.random()


# -- windowed-mean estimation ------------------------------------------------------

def test_bern_est_zero_variable(profile):
    rep = bern_est(qvar(make_dist([0.0], [1.0])), 50, 0, 1, 0.1, RandomSource(0))
    assert rep.estimate == 0.0


def test_bern_est_empty_window_is_free(profile):
    rep = bern_est(qvar(uniform(0, 1)), 50, 0.0, 0.0, 0.1, RandomSource(0))
    assert rep.estimate == 0.0
    assert rep.counter_snapshot.oracle_experiments == 0
    # on a pre-charged, budgeted counter: zero tallies, the counter's budget
    # and interrupted flag, and no stages
    for pre, interrupted in ((40, False), (100, True)):
        counter = ExperimentCounter(budget=100)
        counter.charge(pre)
        rep = bern_est(QVar(uniform(0, 1), counter), 50, 0.0, 0.0, 0.1, RandomSource(0))
        assert rep == EstimateReport(0.0, ExperimentCounter(0, 0, 100, interrupted), {}, [])
        assert counter == ExperimentCounter(pre, 0, 100, interrupted)


def test_bern_est_window_without_atoms_is_charged_not_drawn(profile):
    # (0.95, 0.99] holds no atom of uniform:0..1:11: its amplitude is 0 and
    # reads exactly 0, so every copy is charged and none is drawn
    calls = []

    def counted(*args):
        calls.append(args)
        return draw(*args)

    draw = estimators.aest_median
    m, copies = ae_register(64, 0.1)
    with mock.patch.object(estimators, "aest_median", counted):
        rep = bern_est(qvar(named_dist("uniform:0..1:11")), 64, 0.95, 0.99, 0.1,
                       RandomSource(4))
    assert rep.estimate == 0.0
    assert rep.counter_snapshot == ExperimentCounter(copies * (4 * m + 1), copies * 3 * m)
    assert rep.stage_costs == {"amplitude_estimation": copies * (4 * m + 1)}
    assert calls == []


def test_bern_est_on_grid_exact(profile):
    # amplitude 1/2 with register size 320 (multiple of 4): exact readout
    for seed in range(10):
        rep = bern_est(qvar(uniform(0, 1)), 117.2, 0, 1, 0.1, RandomSource(seed))
        assert rep.estimate == 0.5


def test_bern_est_coverage(profile):
    d = uniform(0, 1)
    n, delta = 200.0, 0.1
    bound = math.sqrt(1 * 0.5) * math.log(10) / n + math.log(10) ** 2 / n**2
    fails = 0
    trials = 300
    for seed in range(trials):
        rep = bern_est(qvar(d), n, 0, 1, delta, RandomSource(2000 + seed))
        if abs(rep.estimate - 0.5) > bound:
            fails += 1
    assert fails / trials <= delta + 0.05


def test_bern_est_nested_layers_sum_to_union(profile):
    # uniform {0.5, 1}: window amplitudes 0.5, 0.5 and 0.75 all sit on the
    # measurement grid when the register size is a multiple of 12
    d = uniform(0.5, 1.0)
    n = 118.7  # M = ceil(2*pi*n/ln 10) = 324 = 12 * 27
    for seed in range(5):
        low = bern_est(qvar(d), n, 0.0, 0.5, 0.1, RandomSource(seed)).estimate
        high = bern_est(qvar(d), n, 0.5, 1.0, 0.1, RandomSource(seed)).estimate
        union = bern_est(qvar(d), n, 0.0, 1.0, 0.1, RandomSource(seed)).estimate
        assert low == pytest.approx(0.25, abs=1e-12)
        assert high == pytest.approx(0.5, abs=1e-12)
        assert union == pytest.approx(low + high, abs=1e-12)


def test_bern_est_validation(profile):
    qv = qvar(uniform(0, 1))
    with pytest.raises(ValueError):
        bern_est(qv, 50, 1.0, 0.5, 0.1, RandomSource(0))
    with pytest.raises(ValueError):
        bern_est(qv, 50, -1.0, 1.0, 0.1, RandomSource(0))
    with pytest.raises(ValueError):
        bern_est(qv, 1.0, 0.0, 1.0, 0.1, RandomSource(0))


# -- sub-Gaussian estimation ---------------------------------------------------------

def test_subgauss_point_mass_exact(profile):
    for seed in range(10):
        rep = subgauss_est(qvar(make_dist([5.0], [1.0])), 32, 0.1, profile, RandomSource(seed))
        assert rep.estimate == 5.0
        assert sum(rep.stage_costs.values()) == rep.counter_snapshot.oracle_experiments


def test_subgauss_coverage_symmetric(profile):
    d = make_dist([-1.0, 1.0], [0.5, 0.5])
    fails = 0
    trials = 200
    for seed in range(trials):
        rep = subgauss_est(qvar(d), 64, 0.1, profile, RandomSource(3000 + seed))
        if abs(rep.estimate) > math.log(10) / 64:
            fails += 1
    assert fails / trials <= 0.13


def test_subgauss_shift_equivariance(profile):
    # the estimator sees only shift-centred quantities, so the replayed
    # trajectory is identical; the final re-centring addition may round by
    # one ulp
    base = make_dist([-2.0, 0.0, 4.0], [0.25, 0.5, 0.25])
    shifted = make_dist([2.0, 4.0, 8.0], [0.25, 0.5, 0.25])
    for seed in range(5):
        ra = subgauss_est(qvar(base), 32, 0.1, profile, RandomSource(seed))
        rb = subgauss_est(qvar(shifted), 32, 0.1, profile, RandomSource(seed))
        assert rb.stage_costs == ra.stage_costs
        assert rb.counter_snapshot.oracle_experiments == ra.counter_snapshot.oracle_experiments
        assert rb.estimate == pytest.approx(ra.estimate + 4.0, abs=1e-13)


def test_subgauss_scale_equivariance(profile):
    # power-of-two scale keeps every float product exact
    base = make_dist([-2.0, 0.0, 4.0], [0.25, 0.5, 0.25])
    scaled = make_dist([-8.0, 0.0, 16.0], [0.25, 0.5, 0.25])
    for seed in range(5):
        a = subgauss_est(qvar(base), 32, 0.1, profile, RandomSource(seed)).estimate
        b = subgauss_est(qvar(scaled), 32, 0.1, profile, RandomSource(seed)).estimate
        assert b == 4.0 * a


def test_subgauss_rejects_small_n(profile):
    with pytest.raises(ValueError):
        subgauss_est(qvar(uniform(0, 1)), 1.0, 0.1, profile, RandomSource(0))


def test_subgauss_stage_costs_cover_counter(profile):
    d = uniform(0, 1, 2, 3)
    rep = subgauss_est(qvar(d), 64, 0.1, profile, RandomSource(4))
    assert set(rep.stage_costs) == {
        "classical_median", "quantile_pos", "layers_pos", "quantile_neg", "layers_neg",
    }
    assert sum(rep.stage_costs.values()) == rep.counter_snapshot.oracle_experiments


# -- relative estimation ----------------------------------------------------------

def test_relative_point_mass(profile):
    rep = relative_est(qvar(make_dist([5.0], [1.0])), 1.0, 0.1, 0.1, profile, RandomSource(0))
    assert rep.estimate == 5.0


def test_relative_coverage_bernoulli(profile):
    d = uniform(0, 1)  # |sigma/mu| = 1
    fails = 0
    trials = 100
    for seed in range(trials):
        rep = relative_est(qvar(d), 1.0, 0.1, 0.1, profile, RandomSource(5000 + seed))
        if abs(rep.estimate - 0.5) > 0.05:
            fails += 1
    assert fails / trials <= 0.13


def test_relative_cost_scales_with_ch(profile):
    costs = []
    for ch in (1.0, 2.0):
        c = []
        for seed in range(20):
            rep = relative_est(qvar(uniform(0, 1)), ch, 0.2, 0.1, profile,
                               RandomSource(6000 + seed))
            c.append(rep.counter_snapshot.oracle_experiments)
        costs.append(np.mean(c))
    assert 1.5 <= costs[1] / costs[0] <= 2.9  # roughly linear in ch


def test_relative_validation(profile):
    qv = qvar(uniform(0, 1))
    with pytest.raises(ValueError):
        relative_est(qv, 0.0, 0.1, 0.1, profile, RandomSource(0))
    with pytest.raises(ValueError):
        relative_est(qv, 1.0, 1.5, 0.1, profile, RandomSource(0))



@pytest.mark.parametrize("estimate, match", [
    (lambda qv, prof: relative_est(qv, math.nan, 0.1, 0.1, prof, RandomSource(0)),
     "coefficient-of-variation bound must be positive and finite, got nan"),
    (lambda qv, prof: relative_est(qv, math.inf, 0.1, 0.1, prof, RandomSource(0)),
     "coefficient-of-variation bound must be positive and finite, got inf"),
    (lambda qv, prof: subgauss_est(qv, math.nan, 0.1, prof, RandomSource(0)),
     "time parameter must be a number, got nan"),
    (lambda qv, prof: bern_est(qv, math.nan, 0.0, 1.0, 0.1, RandomSource(0)),
     "time parameter must be a number, got nan"),
], ids=["relative-ch-nan", "relative-ch-inf", "subgauss-n-nan", "bern-n-nan"])
def test_non_finite_scalars_refused_by_name(profile, estimate, match):
    # refused by the parameter at fault, before any charge
    qv = qvar(uniform(0, 1))
    with pytest.raises(ValueError, match=match):
        estimate(qv, profile)
    assert qv.counter == ExperimentCounter()


# -- sequential estimation ---------------------------------------------------------

def test_seq_bern_certain_input(profile):
    rep = seq_bern_est(qvar(make_dist([1.0], [1.0])), RandomSource(0))
    assert rep.estimate == 1.0 / 16.0  # 1/T^2 with the round-1 draw


def test_seq_bern_zero_input_with_budget(profile):
    qv = qvar(make_dist([0.0], [1.0]), budget=300)
    rep = seq_bern_est(qv, RandomSource(0))
    assert rep.estimate == 0.0
    assert rep.counter_snapshot.interrupted
    assert rep.counter_snapshot.oracle_experiments == 300


def test_seq_bern_zero_input_requires_budget(profile):
    with pytest.raises(ValueError, match="budget"):
        seq_bern_est(qvar(make_dist([0.0], [1.0])), RandomSource(0))


def test_seq_bern_rejects_support_outside_unit(profile):
    with pytest.raises(ValueError):
        seq_bern_est(qvar(uniform(0, 2)), RandomSource(0))


def test_seq_relative_rejects_support_outside_unit(profile):
    for d in (uniform(0, 2), uniform(-1, 1)):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            seq_relative_est(qvar(d), 0.1, 0.1, profile, RandomSource(0))


def test_seq_bern_cost_envelope(profile):
    mu = 0.04
    d = make_dist([0.0, 1.0], [1 - mu, mu])
    inv = []
    for seed in range(3000):
        rep = seq_bern_est(qvar(d), RandomSource(7000 + seed))
        inv.append(1.0 / rep.estimate)
    assert np.mean(inv) <= profile.seq_cost_sq_coeff / mu * 1.2


def test_seq_relative_point_mass_every_seed(profile):
    for seed in range(5):
        rep = seq_relative_est(qvar(make_dist([1.0], [1.0])), 0.1, 0.1, profile,
                               RandomSource(seed))
        assert rep.estimate == 1.0


def test_seq_relative_coverage_smoke(profile):
    d = uniform(0, 1)
    fails = 0
    for seed in range(20):
        rep = seq_relative_est(qvar(d), 0.1, 0.1, profile, RandomSource(8000 + seed))
        if abs(rep.estimate - 0.5) > 0.05:
            fails += 1
    assert fails <= 3


def test_seq_relative_zero_mean_needs_budget(profile):
    with pytest.raises(ValueError, match="budget"):
        seq_relative_est(qvar(make_dist([0.0], [1.0])), 0.1, 0.1, profile, RandomSource(0))
    qv = qvar(make_dist([0.0], [1.0]), budget=10_000)
    rep = seq_relative_est(qv, 0.1, 0.1, profile, RandomSource(0))
    assert rep.estimate == 0.0
    assert rep.counter_snapshot.interrupted


def test_seq_relative_stage_costs(profile):
    rep = seq_relative_est(qvar(uniform(0, 1)), 0.2, 0.2, profile, RandomSource(1))
    assert set(rep.stage_costs) == {"rough_mean", "variance_probe", "refinement"}
    assert sum(rep.stage_costs.values()) == rep.counter_snapshot.oracle_experiments


def test_seq_relative_memory_stays_linear_in_support(profile):
    # the probe's amplitude is read off the 3,000-atom law in one pass; the
    # pair law of 9 * 10^6 atoms is never built
    qv = qvar(named_dist("uniform:0..1:3000"), budget=10**6)
    tracemalloc.start()
    try:
        seq_relative_est(qv, 0.1, 0.1, profile, RandomSource(9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert qv.counter.interrupted
    assert peak < 4 * 2**20


def test_subgauss_trial_memory_does_not_grow_with_support(profile):
    # each part is its law read at a shift: once the per-law caches are warm,
    # a trial on 10^6 atoms copies nothing of the support
    d = named_dist("uniform:1..1000000:1000000")
    subgauss_est(qvar(d), 256, 0.1, profile, RandomSource(8))
    tracemalloc.start()
    try:
        subgauss_est(qvar(d), 256, 0.1, profile, RandomSource(9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# -- calibration --------------------------------------------------------------------

def test_calibrate_deterministic():
    a = calibrate_constants([0.5, 0.05])
    b = calibrate_constants([0.5, 0.05])
    assert a.to_json() == b.to_json()


def test_calibrate_orders_coefficients():
    prof = calibrate_constants([0.5])
    assert prof.sampler_low_coeff < prof.sampler_mean_coeff
    assert prof.mode == "calibrated"


def test_calibrate_pins_default_grid():
    # read off the exact law of a draw at p = 1e-4, 1e-3, 1e-2, 0.1 and 0.5;
    # seq_rel_err is 1 - 2/18^2, the relative error of a third-round success
    # at p = 0.5, where rounds 1..3 hold exactly 7/8 of the mass
    prof = calibrate_constants([1e-4, 1e-3, 1e-2, 0.1, 0.5])
    pinned = {"sampler_mean_coeff": 13.458738378783988, "sampler_low_coeff": 1.644384383287557,
              "seq_rel_err": 0.9938271604938271, "seq_cost_sq_coeff": 111.57345711759544,
              "seq_sqrt_coeff": 0.6391874969109569}
    for name, value in pinned.items():
        assert getattr(prof, name) == pytest.approx(value, rel=1e-9), name


def test_calibrate_rejects_bad_input(monkeypatch):
    # an empty grid, a point outside (0, 1] and one below 1e-9, whose law
    # would cost about 1/p, are refused before any law is built
    monkeypatch.setattr(estimators, "seq_aamp_law", None)
    for grid in ([], [0.0, 0.5], [0.5, 1.5], [0.5, math.nan], [0.5, 9.9e-10]):
        with pytest.raises(ValueError, match="grid"):
            calibrate_constants(grid)
