import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeansim import (
    RandomSource,
    bound_report,
    classical_truncated_mean,
    distinguish_T_lower,
    empirical_mean,
    fidelity,
    hard_instance_statebased,
    helstrom_success,
    kl_divergence,
    make_dist,
    median_of_means,
    sample_n,
)
from qmeansim.generators import pareto_discretized


def random_pair(values, w0, w1):
    w0 = np.array(w0, dtype=float)
    w1 = np.array(w1, dtype=float)
    return (
        make_dist(values, w0 / w0.sum()),
        make_dist(values, w1 / w1.sum()),
    )


# -- empirical mean ----------------------------------------------------------

def test_empirical_mean_basic():
    assert empirical_mean([5, 5, 5]) == 5.0
    assert empirical_mean([0, 1]) == 0.5
    with pytest.raises(ValueError):
        empirical_mean([])


def test_empirical_mean_bernoulli_interval():
    d = make_dist([0, 1], [0.7, 0.3])
    xs = sample_n(d, RandomSource(11), 100_000)
    assert abs(empirical_mean(xs) - 0.3) < 0.01


# -- median of means ---------------------------------------------------------

def test_median_of_means_constant():
    assert median_of_means([3.0] * 10, 0.1) == 3.0


def test_median_of_means_grouping_convention():
    # delta giving 2 groups: [0,0] and [1,1]; lower median of {0,1} is 0
    assert median_of_means([0, 0, 1, 1], 0.2) == 0.0


def test_median_of_means_requires_enough_samples():
    with pytest.raises(ValueError):
        median_of_means([1.0], 0.01)


def test_median_of_means_sign_symmetry():
    # odd group count makes the median a single order statistic, so negating
    # the sample stream negates the estimate exactly
    xs = sample_n(pareto_discretized(2.5, 1.0, 64), RandomSource(5), 3000)
    assert median_of_means((-xs).tolist(), 0.1) == -median_of_means(xs.tolist(), 0.1)


def test_median_of_means_coverage_pareto():
    d = pareto_discretized(2.5, 1.0, 256)
    from qmeansim import moments

    mom = moments(d)
    n, delta = 10_000, 0.1
    bound = 2.0 * math.sqrt(mom.variance * math.log(1 / delta) / n)
    fails = 0
    trials = 300
    for seed in range(trials):
        xs = sample_n(d, RandomSource(100 + seed), n)
        if abs(median_of_means(xs, delta) - mom.mean) > bound:
            fails += 1
    assert fails / trials <= delta + 0.04


# -- classical truncated mean --------------------------------------------------

def test_classical_truncated_no_clipping():
    xs = [0.5, 1.0, 1.5]
    assert classical_truncated_mean(xs, 2.0, 3) == empirical_mean(xs)


def test_classical_truncated_zeroes_outliers():
    # threshold sqrt(2*1) < 3, so the 3 is zeroed
    assert classical_truncated_mean([0.0, 3.0], 1.0, 2) == 0.0


def test_classical_truncated_classical_rate():
    # p90 error decays like n^(-1/2) on a heavy-tailed discretization
    from qmeansim import fit_loglog_slope, moments

    d = pareto_discretized(2.5, 1.0, 256)
    mom = moments(d)
    points = []
    for n in (1000, 4000, 16000, 64000):
        errs = []
        for seed in range(150):
            xs = sample_n(d, RandomSource(7000 + seed).derive(n), n)
            errs.append(abs(classical_truncated_mean(xs, mom.second_moment, n) - mom.mean))
        points.append((n, float(np.percentile(errs, 90))))
    slope = fit_loglog_slope(points)
    assert -0.6 <= slope <= -0.4


def test_classical_truncated_validation():
    with pytest.raises(ValueError):
        classical_truncated_mean([1.0, -1.0], 1.0, 2)
    with pytest.raises(ValueError):
        classical_truncated_mean([1.0], 1.0, 2)
    with pytest.raises(ValueError):
        classical_truncated_mean([1.0], 0.0, 1)


# -- divergences and state bounds -----------------------------------------------

def test_kl_zero_iff_equal():
    d = make_dist([0, 1], [0.4, 0.6])
    assert kl_divergence(d, d) == 0.0


def test_kl_bernoulli_value():
    a = make_dist([0, 1], [0.5, 0.5])
    b = make_dist([0, 1], [0.75, 0.25])
    expect = 0.5 * math.log(2) + 0.5 * math.log(2 / 3)
    assert kl_divergence(a, b) == pytest.approx(expect, abs=1e-12)
    assert kl_divergence(a, b) == pytest.approx(0.143841, abs=1e-6)


def test_kl_absolute_continuity_violation():
    a = make_dist([0, 1], [0.5, 0.5])
    b = make_dist([0], [1.0])
    assert kl_divergence(a, b) == math.inf


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=2, max_size=6, unique=True),
    st.lists(st.integers(1, 9), min_size=6, max_size=6),
    st.lists(st.integers(1, 9), min_size=6, max_size=6),
)
def test_kl_nonnegative(values, w0, w1):
    p0, p1 = random_pair(values, w0[: len(values)], w1[: len(values)])
    kl = kl_divergence(p0, p1)
    assert kl >= -1e-12
    if np.allclose(p0.probs, p1.probs):
        assert kl == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=2, max_size=6, unique=True),
    st.lists(st.integers(1, 9), min_size=6, max_size=6),
    st.lists(st.integers(1, 9), min_size=6, max_size=6),
)
def test_fidelity_range_and_symmetry(values, w0, w1):
    p0, p1 = random_pair(values, w0[: len(values)], w1[: len(values)])
    f = fidelity(p0, p1)
    assert -1e-12 <= f <= 1 + 1e-12
    assert f == pytest.approx(fidelity(p1, p0), abs=1e-12)


def test_fidelity_extremes():
    d = make_dist([0, 1], [0.4, 0.6])
    assert fidelity(d, d) == pytest.approx(1.0, abs=1e-12)
    a = make_dist([0], [1.0])
    b = make_dist([1], [1.0])
    assert fidelity(a, b) == 0.0


def test_helstrom_extremes_and_monotonicity():
    d = make_dist([0, 1], [0.4, 0.6])
    assert helstrom_success(d, d, 5) == 0.5
    a = make_dist([0], [1.0])
    b = make_dist([1], [1.0])
    assert helstrom_success(a, b, 1) == 1.0
    p0, p1, _ = hard_instance_statebased(10, 1)
    values = [helstrom_success(p0, p1, t) for t in (1, 2, 4, 8, 64)]
    assert values == sorted(values)
    assert values[-1] > 0.999


@pytest.mark.parametrize("t", [math.nan, 1.5, True, 0, -1, 2.0])
def test_helstrom_refuses_bad_copy_counts(t):
    # a copy count is a whole number >= 1; unchecked, NaN would give NaN,
    # 1.5 a probability and True one copy. bound_report refuses it first too
    p0, p1, _ = hard_instance_statebased(10, 1)
    with pytest.raises(ValueError, match=f"copies >= 1, got T={t!r}"):
        helstrom_success(p0, p1, t)
    with pytest.raises(ValueError, match=f"copies >= 1, got T={t!r}"):
        bound_report(p0, p1, 2.0, t)  # a bad delta too, checked later
    assert helstrom_success(p0, p1, np.int64(2)) == helstrom_success(p0, p1, 2)


def test_distinguish_T_lower_cases():
    d = make_dist([0, 1], [0.4, 0.6])
    assert distinguish_T_lower(d, d, 0.01) == math.inf
    p0, p1, _ = hard_instance_statebased(10, 1)
    assert distinguish_T_lower(p0, p1, 0.25) == 1
    assert distinguish_T_lower(p0, p1, 0.01) == 12


def test_distinguish_T_lower_log_growth():
    p0, p1, _ = hard_instance_statebased(10, 1)
    kl = kl_divergence(p0, p1)
    t_hi = distinguish_T_lower(p0, p1, 1e-4)
    t_lo = distinguish_T_lower(p0, p1, 1e-2)
    assert t_hi == math.ceil(math.log(1 / (4 * 1e-4)) / kl)
    assert t_lo == math.ceil(math.log(1 / (4 * 1e-2)) / kl)
    # ratio grows like log(1/delta) within rounding
    assert t_hi / t_lo == pytest.approx(
        math.log(1 / 4e-4) / math.log(1 / 4e-2), abs=0.15
    )


def test_statebased_instance_numerics():
    p0, p1, _ = hard_instance_statebased(10, 1)
    rep = bound_report(p0, p1, 0.01)
    assert rep.kl == pytest.approx(0.2757921755, abs=1e-9)
    assert rep.kl <= 6 / 10
    assert rep.fidelity == pytest.approx(0.9420209289, abs=1e-9)
    assert rep.helstrom_success == pytest.approx(0.6677770615, abs=1e-9)
    assert rep.t_lower == 12
