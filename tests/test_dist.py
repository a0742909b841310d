import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmeansim import (
    FiniteDist,
    RandomSource,
    conditional_above,
    hard_instance_statebased,
    hard_instance_subgaussian,
    make_dist,
    moments,
    pair_square_diff,
    quantile,
    sample,
    sample_n,
    shift_split,
    truncated_mean,
)
from qmeansim.estimators import _part_windows
from qmeansim.kernels import amplify_chain


def uniform(*values):
    k = len(values)
    return make_dist(list(values), [1.0 / k] * k)


# -- construction -----------------------------------------------------------

def test_make_dist_point_mass():
    d = make_dist([5], [1.0])
    assert d.values.tolist() == [5.0]
    assert d.probs.tolist() == [1.0]


def test_make_dist_merges_duplicates():
    d = make_dist([1, 1, 2], [0.25, 0.25, 0.5])
    assert d.values.tolist() == [1.0, 2.0]
    assert d.probs.tolist() == [0.5, 0.5]


def test_make_dist_rejects_bad_total():
    with pytest.raises(ValueError, match="sum to"):
        make_dist([0, 1], [0.3, 0.6])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_make_dist_rejects_non_finite_probability(bad):
    # NaN compares false, so it would pass the sum check unnamed
    with pytest.raises(ValueError, match=f"non-finite probability: {bad}"):
        make_dist([1, 2], [bad, 1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_finite_dist_rejects_non_finite_probability(bad):
    # the constructor runs make_dist's checks: NaN no longer passes the sum
    # check, which it compares false against
    with pytest.raises(ValueError, match=f"non-finite probability: {bad}"):
        FiniteDist(np.array([1.0, 2.0]), np.array([bad, 1.0]))


def test_make_dist_rejects_negative_and_empty():
    with pytest.raises(ValueError):
        make_dist([0, 1], [1.5, -0.5])
    with pytest.raises(ValueError):
        make_dist([], [])


def test_make_dist_drops_zero_atoms():
    d = make_dist([1, 2], [1.0, 0.0])
    assert d.values.tolist() == [1.0]


# -- moments ----------------------------------------------------------------

def test_moments_point_mass():
    m = moments(make_dist([5], [1.0]))
    assert (m.mean, m.variance, m.second_moment) == (5.0, 0.0, 25.0)


def test_moments_uniform01():
    m = moments(uniform(0, 1))
    assert (m.mean, m.variance, m.second_moment) == (0.5, 0.25, 0.5)


def test_moments_symmetric():
    m = moments(make_dist([-1, 1], [0.5, 0.5]))
    assert (m.mean, m.variance, m.second_moment) == (0.0, 1.0, 1.0)


# -- quantile ---------------------------------------------------------------

def brute_quantile(d, p):
    # independent enumeration of sup{x : P[X >= x] >= p} over the support
    best = None
    for x in d.values:
        tail = float(d.probs[d.values >= x].sum())
        if tail >= p - 1e-12:
            best = float(x)
    return best


def test_quantile_uniform_enumeration():
    d = uniform(1, 2, 3, 4)
    # tails: 1, 0.75, 0.5, 0.25
    assert quantile(d, 0.5) == 3.0
    assert quantile(d, 1.0) == 1.0
    assert quantile(d, 0.25) == 4.0


def test_quantile_rejects_bad_order():
    d = uniform(1, 2)
    with pytest.raises(ValueError):
        quantile(d, 0.0)
    with pytest.raises(ValueError):
        quantile(d, 1.1)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=8, unique=True),
    st.lists(st.integers(1, 20), min_size=8, max_size=8),
    st.floats(1e-6, 1.0),
)
def test_quantile_matches_enumeration(values, weights, p):
    w = np.array(weights[: len(values)], dtype=float)
    d = make_dist(values, w / w.sum())
    assert quantile(d, p) == brute_quantile(d, p)


# -- truncated mean ---------------------------------------------------------

def test_truncated_mean_examples():
    assert truncated_mean(uniform(0, 1), 0, 1) == 0.5
    assert truncated_mean(uniform(0.25, 0.75), 0.5, 1) == 0.375
    assert truncated_mean(uniform(1, 2), 5, 9) == 0.0


def test_truncated_mean_rejects_reversed_window():
    with pytest.raises(ValueError):
        truncated_mean(uniform(0, 1), 1, 1)


_SPLIT = FiniteDist(np.array([-3.0, -1.0, 0.5, 2.0, 7.0]),
                    np.array([0.125, 0.375, 0.0, 0.3, 0.2]))


@pytest.mark.parametrize("d,eta", [
    (_SPLIT, -5.0), (_SPLIT, -3.0), (_SPLIT, 0.0), (_SPLIT, 0.5), (_SPLIT, 2.0),
    (_SPLIT, 7.0), (_SPLIT, 9.0), (make_dist([4.0], [1.0]), 4.0),
    (make_dist([4.0], [1.0]), 1.0),
], ids=["below", "at-first", "between", "at-zero-atom", "at-middle", "at-last", "above",
        "point-at", "point-below"])
def test_shift_split_matches_make_dist(d, eta):
    # each part equals make_dist of the mapped atoms: the same values, and
    # probabilities up to the order of their sums
    parts = shift_split(d, eta)
    refs = (make_dist(np.maximum(d.values - eta, 0.0), d.probs),
            make_dist(np.maximum(eta - d.values, 0.0), d.probs))
    for part, ref in zip(parts, refs):
        assert part.values.tolist() == ref.values.tolist()
        assert np.abs(part.probs - ref.probs).max() <= 1e-15
        assert abs(part.probs.sum() - 1.0) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=8, unique=True),
    st.lists(st.integers(1, 9), min_size=8, max_size=8),
)
def test_truncated_mean_additive_over_splits(values, weights):
    w = np.array(weights[: len(values)], dtype=float)
    d = make_dist(values, w / w.sum())
    a, b, c = -25.0, 0.5, 25.0
    whole = truncated_mean(d, a, c)
    split = truncated_mean(d, a, b) + truncated_mean(d, b, c)
    assert whole == pytest.approx(split, abs=1e-12)


# -- shift_split ------------------------------------------------------------

def test_shift_split_two_point():
    up, down = shift_split(make_dist([-1, 3], [0.5, 0.5]), 1.0)
    assert up.values.tolist() == [0.0, 2.0] and up.probs.tolist() == [0.5, 0.5]
    assert down.values.tolist() == [0.0, 2.0] and down.probs.tolist() == [0.5, 0.5]


def test_shift_split_point_mass_at_center():
    up, down = shift_split(make_dist([5], [1.0]), 5.0)
    assert up.values.tolist() == [0.0]
    assert down.values.tolist() == [0.0]


def test_shift_split_mean_identity_uniform():
    d = uniform(1, 2, 3, 4)
    up, down = shift_split(d, 2.0)
    # direct moment computation: 2.5 = 2 + 0.75 - 0.25
    assert moments(up).mean == pytest.approx(0.75)
    assert moments(down).mean == pytest.approx(0.25)
    assert moments(d).mean == pytest.approx(2.0 + 0.75 - 0.25)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=8, unique=True),
    st.lists(st.integers(1, 9), min_size=8, max_size=8),
    st.integers(-10, 10),
)
def test_shift_split_identities(values, weights, eta):
    w = np.array(weights[: len(values)], dtype=float)
    d = make_dist(values, w / w.sum())
    up, down = shift_split(d, float(eta))
    mom = moments(d)
    assert mom.mean == pytest.approx(eta + moments(up).mean - moments(down).mean, rel=1e-10, abs=1e-10)
    shifted_m2 = float(np.dot((d.values - eta) ** 2, d.probs))
    assert shifted_m2 == pytest.approx(
        moments(up).second_moment + moments(down).second_moment, rel=1e-10, abs=1e-10
    )


# Caps of part chains: none spent, a cut inside the one-point rounds 1..26
# (566 oracle experiments), and a cut past them
_PART_CAPS = st.one_of(st.just(0), st.integers(1, 566), st.integers(567, 10**5))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12, unique=True),
    st.lists(st.integers(1, 1000), min_size=12, max_size=12),
    st.lists(_PART_CAPS, min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
)
def test_part_chains_on_their_law_match_the_sliced_chain(values, weights, caps, seed):
    # the chains of the part max(X - eta, 0) run on X's laws from atom 0
    # with floor i - 1, i the atoms up to eta, as they run on the part's own
    # chain laws sliced from X's: the same ends once mapped, (oracle, aa,
    # rounds), spares and next uniform, for X and -X at every atom, each
    # call run twice on one stream
    w = np.array(weights[: len(values)], dtype=float)
    d = make_dist(values, w / w.sum())
    for law in (d, d._mirror):
        cum, tails = law._chain
        for i in range(1, len(law) + 1):
            sliced = (cum[i - 1:], (1.0,) + tails[i:])
            part_gen, part_us = RandomSource(seed).gen, []
            view_gen, view_us = RandomSource(seed).gen, []
            for _ in range(2):
                ends, *tally = amplify_chain(*sliced, 0, caps, part_gen, part_us, math.inf)
                got, *got_tally = amplify_chain(cum, tails, 0, caps, view_gen, view_us,
                                                math.inf, i - 1)
                assert got == [k and k + i - 1 for k in ends]
                assert got_tally == tally and view_us == part_us
            assert view_gen.random() == part_gen.random()


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.floats(-50, 50), min_size=1, max_size=12, unique=True),
       weights=st.lists(st.floats(0.01, 1.0), min_size=12, max_size=12))
@example(values=[8.012744652063969, 13.834365012707647], weights=[1.0] * 12)
def test_part_windows_on_their_law_match_the_built_part(values, weights):
    # a part's window edges, read off X's support at the shift, count the
    # atoms a search of the part's own values counts, exactly, at every
    # edge that is a part value or next to one: at shift 8.012744652063969
    # the atom 13.834365012707647 maps above 5.821620360643677, though it
    # lies below that edge plus the shift. The window sums equal those of
    # shift_split's part up to round-off: with at most 12 atoms within 50
    # of 0, float64 sums stay within 1e-12
    w = np.array(weights[: len(values)], dtype=float)
    d = make_dist(values, w / w.sum())
    for eta in d.values.tolist() + [d.values[0] - 1.0, 0.5]:
        for law, shift, part in zip((d, d._mirror), (eta, -eta), shift_split(d, eta)):
            i = int(np.searchsorted(law.values, shift, side="right"))
            # the part's values as the shift maps them, none merged
            own = np.concatenate(([0.0], law.values[i:] - shift))
            edges = np.unique(np.concatenate(
                (own, np.nextafter(own, math.inf), np.nextafter(own, -math.inf))))
            edges = edges[edges >= 0.0]
            idx, sums = _part_windows(law, edges, shift)
            assert idx == (i - 1 + np.searchsorted(own, edges, side="right")).tolist()
            for got, lo, hi in zip(sums, edges[:-1], edges[1:]):
                inside = (part.values > lo) & (part.values <= hi)
                assert abs(got - float(np.dot(part.values[inside], part.probs[inside]))) <= 1e-12


@pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf])
def test_shift_split_refuses_a_non_finite_shift(eta):
    with pytest.raises(ValueError, match=f"shift must be finite, got {eta}"):
        shift_split(make_dist([-1.0, 3.0], [0.5, 0.5]), eta)


def test_shift_split_merges_atoms_the_shift_rounds_together():
    # eta - (-1) and eta - (-0.5) both round to 2^53, so the lower part's two
    # atoms merge into one
    up, down = shift_split(make_dist([-1.0, -0.5, 2.0**53], [0.1, 0.1, 0.8]), 2.0**53)
    assert down.values.tolist() == [0.0, 2.0**53]
    assert down.probs.tolist() == pytest.approx([0.8, 0.2], abs=1e-15)
    assert up.values.tolist() == [0.0]


# -- pair_square_diff -------------------------------------------------------

def test_pair_square_diff_bernoulli():
    d = pair_square_diff(make_dist([0, 1], [0.5, 0.5]))
    assert d.values.tolist() == [0.0, 0.5]
    assert d.probs.tolist() == [0.5, 0.5]
    assert moments(d).mean == pytest.approx(0.25)


def test_pair_square_diff_point_mass():
    d = pair_square_diff(make_dist([7], [1.0]))
    assert d.values.tolist() == [0.0]


def test_pair_square_diff_uniform3_by_enumeration():
    base = uniform(0, 1, 2)
    # 9-term product enumeration oracle
    expect = 0.0
    for x in (0, 1, 2):
        for y in (0, 1, 2):
            expect += (x - y) ** 2 / 2 / 9
    d = pair_square_diff(base)
    assert moments(d).mean == pytest.approx(expect)
    assert moments(d).mean == pytest.approx(moments(base).variance, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-12, 12), min_size=1, max_size=6, unique=True),
    st.lists(st.integers(1, 9), min_size=6, max_size=6),
)
def test_pair_square_diff_mean_is_variance(values, weights):
    w = np.array(weights[: len(values)], dtype=float)
    d = make_dist(values, w / w.sum())
    assert moments(pair_square_diff(d)).mean == pytest.approx(
        moments(d).variance, rel=1e-10, abs=1e-12
    )


# -- conditional_above ------------------------------------------------------

def test_conditional_above_middle():
    cond, tail = conditional_above(uniform(1, 2, 3, 4), 2)
    assert tail == 0.5
    assert cond.values.tolist() == [3.0, 4.0]
    assert cond.probs.tolist() == [0.5, 0.5]


def test_conditional_above_empty():
    cond, tail = conditional_above(uniform(1, 2, 3, 4), 4)
    assert cond is None and tail == 0.0


def test_conditional_above_identity():
    d = uniform(1, 2, 3, 4)
    cond, tail = conditional_above(d, -math.inf)
    assert tail == 1.0
    assert cond.values.tolist() == d.values.tolist()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=8, unique=True),
    st.lists(st.integers(1, 9), min_size=8, max_size=8),
    st.integers(-21, 21),
)
def test_conditional_tail_is_exact_sum(values, weights, x):
    w = np.array(weights[: len(values)], dtype=float)
    d = make_dist(values, w / w.sum())
    _, tail = conditional_above(d, float(x))
    assert tail == float(np.sum(d.probs[d.values > x]))


# -- sampling ---------------------------------------------------------------

def test_sample_point_mass():
    assert sample(make_dist([7], [1.0]), RandomSource(1)) == 7.0


def test_sample_deterministic_replay():
    d = uniform(1, 2, 3, 4)
    a = [sample(d, RandomSource(42, (3,))) for _ in range(5)]
    b = [sample(d, RandomSource(42, (3,))) for _ in range(5)]
    # fresh equal sources replay; here each call makes a fresh source
    assert a == b


def test_sample_empirical_mean():
    d = uniform(0, 1)
    xs = sample_n(d, RandomSource(7), 100_000)
    assert abs(xs.mean() - 0.5) < 0.005  # ~3 sigma binomial interval


# -- hard instances ---------------------------------------------------------

def test_hard_subgaussian_values():
    p0, p1 = hard_instance_subgaussian(10, 1)
    assert p0.values[-1] == pytest.approx(10.050378152592121, abs=1e-9)
    assert p0.probs[-1] == pytest.approx(0.01)
    gap = moments(p0).mean - moments(p1).mean
    assert gap == pytest.approx(0.20100756305184242, abs=1e-9)
    assert gap > 2 * 1 / 10


@pytest.mark.parametrize("m", [2, 10, 100])
def test_hard_subgaussian_variance_exact(m):
    p0, p1 = hard_instance_subgaussian(m, 1.0)
    assert moments(p0).variance == pytest.approx(1.0, rel=1e-12)
    assert moments(p1).variance == pytest.approx(1.0, rel=1e-12)


def test_hard_subgaussian_rejects_small_m():
    with pytest.raises(ValueError):
        hard_instance_subgaussian(1.0, 1.0)


def test_hard_statebased_values():
    p0, p1, alpha = hard_instance_statebased(10, 1)
    assert alpha == pytest.approx(2 * math.log(1 + math.sqrt(0.9)), abs=1e-12)
    assert p0.values[-1] == pytest.approx(10 / 3)
    assert p0.probs[-1] == pytest.approx(math.exp(alpha) / 10, abs=1e-12)
    assert moments(p1).variance == pytest.approx(1.0, rel=1e-12)
    sigma0 = math.sqrt(moments(p0).variance)
    assert 1.0 <= sigma0 <= 2.0


def test_hard_statebased_rejects_degenerate():
    # small m tilts the spike probability past 1
    with pytest.raises(ValueError):
        hard_instance_statebased(2, 1.0)
