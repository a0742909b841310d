"""Acceptance clauses 5a and 6a under the theoretical profile.

The main suite runs the calibrated profile, whose desk-scale layer and
refinement factors replace the paper's couplings. These tests rerun the
sub-Gaussian and sequential relative coverage clauses with every coupling
intact, at the same cases, seeds, trial counts, tolerances and time gates,
and print ``ACCEPTANCE <id>-theoretical <PASS|FAIL> <details>`` lines.
"""

import math
import multiprocessing
import time

from test_acceptance import EPS6, LN10, MU_GRID6, TRIALS6, report

from qmeansim import (
    ExperimentCounter,
    QVar,
    RandomSource,
    default_profile,
    make_dist,
    moments,
    seq_relative_est,
    subgauss_est,
)

PROFILE = default_profile("theoretical")


def test_c5a_subgauss_coverage_theoretical():
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
    report("5a-theoretical", all_ok, "; ".join(details) + f" ({elapsed:.0f}s)")
    assert elapsed < 1800


def _seq_rel_trial(args):
    mu, trial = args
    dist = make_dist([0.0, 1.0], [1.0 - mu, mu])
    qv = QVar(dist, ExperimentCounter())
    rep = seq_relative_est(qv, EPS6, 0.1, PROFILE,
                           RandomSource(606).derive(int(mu * 1000), trial))
    return rep.estimate


def test_c6_relative_coverage_theoretical():
    t0 = time.time()
    jobs = [(mu, t) for mu in MU_GRID6 for t in range(TRIALS6)]
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        estimates = pool.map(_seq_rel_trial, jobs, chunksize=8)
    elapsed = time.time() - t0
    assert elapsed < 1800
    all_ok = True
    details = []
    for mu in MU_GRID6:
        fails = sum(abs(est - mu) > EPS6 * mu
                    for (job_mu, _), est in zip(jobs, estimates) if job_mu == mu)
        rate = fails / TRIALS6
        ok = rate <= 0.1 + 0.03
        all_ok &= ok
        details.append(f"mu={mu}: fail {rate:.3f}")
        assert ok
    report("6a-theoretical", all_ok, "; ".join(details) + f" ({elapsed:.0f}s)")
