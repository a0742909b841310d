import math
import tracemalloc

import numpy as np
import pytest

from qmeansim import (
    ExperimentCounter,
    RandomSource,
    aamp_success_prob,
    ae_outcome_dist,
    aest_median,
    aest_sample,
    grover_angle,
    seq_aamp,
    seq_aest,
)
from qmeansim.kernels import _phase_draws, sin2_frac
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


def test_aamp_success_prob():
    assert aamp_success_prob(1.0, 3) == pytest.approx(1.0)
    assert aamp_success_prob(0.25, 1) == pytest.approx(1.0)
    assert aamp_success_prob(0.5, 1) == pytest.approx(0.5)
    # zero rounds leave the bare preparation untouched
    for p in (0.0, 0.1, 0.37, 1.0):
        assert aamp_success_prob(p, 0) == pytest.approx(p, abs=1e-12)


# -- sequential amplification -------------------------------------------------

def test_seq_aamp_certain_amplitude_one_round():
    counter = ExperimentCounter()
    ok, rounds, t = seq_aamp(1.0, RandomSource(0), counter, 2)
    assert ok and rounds == 1
    assert t == 4  # round 1 always draws n = 1: 3n+1 amplification steps
    assert counter.oracle_experiments == (2 * 1 + 1) * 2 + 1
    assert counter.aa_applications == 4


def test_seq_aamp_zero_amplitude_burns_budget():
    counter = ExperimentCounter(budget=500)
    ok, rounds, _ = seq_aamp(0.0, RandomSource(0), counter, 2)
    assert not ok
    assert counter.interrupted
    assert counter.oracle_experiments == 500
    assert rounds > 0


def test_seq_aamp_zero_amplitude_requires_budget():
    with pytest.raises(ValueError, match="budget"):
        seq_aamp(0.0, RandomSource(0), ExperimentCounter(), 2)


def test_seq_aamp_deterministic():
    runs = []
    for _ in range(2):
        counter = ExperimentCounter()
        runs.append(seq_aamp(0.07, RandomSource(313), counter, 2) + (counter.oracle_experiments,))
    assert runs[0] == runs[1]


def test_seq_aamp_small_amplitude_terminates():
    for seed in range(1000):
        ok, _, _ = seq_aamp(1e-4, RandomSource(seed), ExperimentCounter(), 2)
        assert ok


def test_seq_aamp_budget_never_exceeded():
    for budget in (1, 7, 8, 50, 333):
        counter = ExperimentCounter(budget=budget)
        seq_aamp(1e-3, RandomSource(budget), counter, 2)
        assert counter.oracle_experiments <= budget


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


def test_counter_child_caps_by_remaining():
    c = ExperimentCounter(budget=100)
    c.charge(80)
    child = c.child(50)
    assert child.budget == 20
    child.charge(20)
    c.absorb(child)
    assert c.oracle_experiments == 100 and c.interrupted


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


def _chi_square_ok(counts, law) -> bool:
    # Pearson's test at a false-alarm rate of about 1e-6 (Wilson-Hilferty
    # quantile); bins expecting fewer than 5 draws are pooled into one.
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
    z = 4.75
    return stat <= dof * (1 - 2 / (9 * dof) + z * math.sqrt(2 / (9 * dof))) ** 3


@pytest.mark.parametrize("m", [1, 2, 3, 16, 37, 4096])
@pytest.mark.parametrize("p", [1e-4, 0.3, 0.5, math.sin(math.pi / 8) ** 2, 0.9999, 1.0])
def test_sampler_matches_law(p, m):
    # aest_sample draws one outcome and aest_median a batch, both through
    # _phase_draws; the law is checked on the draws of both paths together.
    singles, n = 1000, 200_000
    rng = RandomSource(5)
    counter = ExperimentCounter()
    ys = [aest_sample(p, m, rng, counter, 2).y for _ in range(singles)]
    assert counter.oracle_experiments == singles * (m * 4 + 1)
    assert counter.aa_applications == singles * 3 * m
    ys += _phase_draws(p, m, rng.gen, n - singles)
    counts = np.bincount(ys, minlength=m).astype(float)
    assert len(counts) == m
    law = ae_outcome_dist(p, m)
    assert total_variation(counts / n, law) < 0.01
    assert _chi_square_ok(counts, law)


def test_sampler_huge_register_constant_memory():
    # a 2^40-point law could never be materialised; a draw needs O(1) memory
    p, m, draws = 0.3, 1 << 40, 200
    rng = RandomSource(6)
    counter = ExperimentCounter()
    tracemalloc.start()
    try:
        outs = [aest_sample(p, m, rng, counter, 2) for _ in range(draws)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert counter.aa_applications == draws * 3 * m
    assert all(0 <= out.y < m for out in outs)
    # each readout meets the estimation bound with probability >= 8/pi^2
    bound = 2 * math.pi * math.sqrt(p * (1 - p)) / m + math.pi**2 / m**2
    assert sum(abs(out.p_estimate - p) <= bound for out in outs) >= draws // 2


def test_sin2_frac_exact_grid_points():
    assert sin2_frac(0, 8) == 0.0
    assert sin2_frac(4, 8) == 1.0
    assert sin2_frac(2, 8) == 0.5
    assert sin2_frac(6, 8) == 0.5
    assert sin2_frac(80, 320) == 0.5
    assert sin2_frac(3, 8) == pytest.approx(math.sin(3 * math.pi / 8) ** 2)


def test_aest_sample_degenerate_amplitudes():
    rng = RandomSource(0)
    counter = ExperimentCounter()
    assert aest_sample(0.0, 64, rng, counter, 2).p_estimate == 0.0
    assert aest_sample(1.0, 64, rng, counter, 2).p_estimate == 1.0


def test_aest_sample_on_grid_angle_is_exact():
    # p = sin^2(pi/8) with M = 8 lies on the measurement grid
    p = math.sin(math.pi / 8) ** 2
    rng = RandomSource(11)
    counter = ExperimentCounter()
    for _ in range(200):
        out = aest_sample(p, 8, rng, counter, 2)
        assert out.p_estimate == pytest.approx(p, abs=1e-15)


def test_aest_median_exact_half():
    # amplitude 0.5 with a register size divisible by 4 reads out exactly
    rng = RandomSource(3)
    counter = ExperimentCounter()
    est = aest_median(0.5, 117.2, 0.1, rng, counter, 2)
    assert est == 0.5


def test_aest_median_budget_stops_after_k_copies():
    # n = 100, delta = 0.1: 14 copies of an M = 273 register, each charged
    # 4M + 1 oracle experiments and 3M amplification steps
    m, k = 273, 5
    per_copy = 4 * m + 1
    budget = k * per_copy + per_copy // 2
    counter = ExperimentCounter(budget=budget)
    est = aest_median(0.3, 100.0, 0.1, RandomSource(4), counter, 2)
    assert 0.0 <= est <= 1.0
    assert counter.oracle_experiments == budget
    assert counter.aa_applications == k * 3 * m
    assert counter.interrupted
    # charge for charge what 14 single measurements leave on a counter
    reference = ExperimentCounter(budget=budget)
    for _ in range(14):
        aest_sample(0.3, m, RandomSource(4), reference, 2)
    assert counter == reference


def test_aest_median_rejects_small_n():
    with pytest.raises(ValueError):
        aest_median(0.5, 1.0, 0.1, RandomSource(0), ExperimentCounter(), 2)


# -- sequential estimation -----------------------------------------------------

def test_seq_aest_certain_amplitude():
    p_est, t = seq_aest(1.0, RandomSource(0), ExperimentCounter(), 2)
    assert t == 4
    assert p_est == 1.0 / 16.0


def test_seq_aest_zero_amplitude_with_budget():
    counter = ExperimentCounter(budget=200)
    p_est, _ = seq_aest(0.0, RandomSource(0), counter, 2)
    assert p_est == 0.0
    assert counter.interrupted and counter.oracle_experiments == 200


def test_seq_aest_moment_envelopes():
    # across a small grid, the measured envelopes stay near calibration
    for p in (0.04, 0.3):
        rng = RandomSource(17)
        inv = []
        sqrt_est = []
        for _ in range(4000):
            est, t = seq_aest(p, rng, ExperimentCounter(), 2)
            inv.append(1.0 / est)
            sqrt_est.append(math.sqrt(est))
        assert np.mean(inv) <= 130 / p  # seq_cost_sq envelope (calibrated: ~111)
        assert np.mean(sqrt_est) <= 0.75 * math.sqrt(p)  # calibrated: ~0.64
