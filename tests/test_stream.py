"""Pins of how the simulator consumes its random stream.

Outputs are promised byte-identical only within one version, so these values
are not laws: they record which uniforms each draw takes, for fixed seeds. A
change that reorders, drops or adds draws fails here even when every law
stays right. The pinned values are integers and support values, so they do
not hang on the last bit of libm. Re-pin only together with a CHANGES.md line
that records an intended change to how the stream is consumed.
"""

import math

import numpy as np

from qmeansim import ExperimentCounter, FiniteDist, RandomSource, SweepConfig, run_sweep
from qmeansim.kernels import aest_sample, amplify_chain


def chain(cum, tails, caps, draws, seed):
    # one call from atom 0 on a fresh list of spares, the number of spares it
    # leaves, and the next uniform
    gen, us = RandomSource(seed).gen, []
    ends, oracle, aa, rounds = amplify_chain(cum, tails, 0, caps, gen, us, draws)
    return (ends, oracle, aa, rounds), len(us), gen.random()


def test_chain_stream_multi_cap_with_zero_atom():
    # six chains share the spares; most climb to the top atom and burn the rest
    d = FiniteDist(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), np.array([0.1, 0.0, 0.4, 0.3, 0.2]))
    got = chain(*d._chain, [40, 40, 300, 25, 7, 0], math.inf, 11)
    assert got == (([4, 5, 5, 1, 0, 0], 412, 262, 35), 44, 0.739246874033692)


def test_chain_stream_stopped_by_cap():
    assert chain(None, [0.001], [60], 1, 12) == (([0], 60, 38, 6), 63, 0.6164768219402089)


def test_chain_stream_past_one_point_grids():
    # an uncapped draw at tail 1e-4 runs 36 rounds, so the rounds from 27 on
    # draw n off grids of several points
    assert chain(None, [1e-4], [None], 1, 14) == (([1], 1404, 1008, 36), 55, 0.14431559434524766)


def test_chain_stream_without_readout():
    got = chain(None, [0.3, 0.05, 0.7, 0.0], [None, 500], 3, 13)
    assert got == (([3, 3], 86, 52, 10), 58, 0.9285460335053835)


def test_aest_sample_stream():
    # eight indices from one rejection call, then, for 0 < p < 1, eight coins
    # in one vector; p = 0 draws no coin
    got = []
    for p in (0.3, 0.0):
        rng = RandomSource(17)
        got.append((aest_sample(p, 16, 8, rng, ExperimentCounter()).tolist(), rng.gen.random()))
    assert got == [([3, 13, 3, 3, 3, 13, 13, 13], 0.4070434118548033),
                   ([0, 0, 0, 0, 0, 0, 0, 0], 0.7618762843168944)]


def sweep(estimator, distribution, grid, trials, seed, budget=None):
    return list(run_sweep(SweepConfig.from_dict({
        "estimator": estimator, "distribution": distribution, "grid": grid,
        "trials": trials, "seed": seed, "budget": budget})))


def test_quantile_sweep_stream():
    grid = {"p": [0.01, 0.1], "delta": [0.2]}
    rows = sweep("quantile", "uniform:1..100:100", grid, 3, 5)
    assert [(r.estimate, r.oracle_experiments, r.aa_applications) for r in rows] == [
        (100.0, 255560, 190686), (100.0, 255560, 190647), (100.0, 255560, 190639),
        (100.0, 80820, 59736), (100.0, 80820, 59759), (100.0, 80820, 59718)]
    starved = sweep("quantile", "uniform:1..100:100", grid, 3, 5, budget=60)
    assert [(r.estimate, r.oracle_experiments, r.aa_applications) for r in starved] == [
        (100.0, 60, 31), (96.0, 60, 32), (98.0, 60, 32),
        (99.0, 60, 34), (100.0, 60, 34), (99.0, 60, 34)]


def test_seq_relative_sweep_stream():
    rows = sweep("seq-relative", "bernoulli:0.1", {"epsilon": [0.3], "delta": [0.3]}, 2, 6)
    assert [(r.oracle_experiments, r.aa_applications, r.interrupted) for r in rows] == [
        (5276642626, 3957142467, False), (4305660433, 3228911008, False)]
