"""Pins of how the simulator consumes its random stream.

Outputs are promised byte-identical only within one version, so these values
are not laws: they record which uniforms each draw takes, for fixed seeds. A
change that reorders, drops or adds draws fails here even when every law
stays right. The pinned values are integers and support values, so they do
not hang on the last bit of libm. Re-pin only together with a CHANGES.md line
that records an intended change to how the stream is consumed.
"""

import hashlib
import math

import numpy as np

from qmeansim import ExperimentCounter, FiniteDist, RandomSource, SweepConfig, run_sweep
from qmeansim.kernels import _phase_draws, aest_sample, amplify_chain


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
    # eight indices from one call of the core and tail sampler, one uniform
    # each as none reaches the tail here, then, for 0 < p < 1, eight coins in
    # one vector; p = 0 draws no coin
    got = []
    for p in (0.3, 0.0):
        rng = RandomSource(17)
        got.append((aest_sample(p, 16, 8, rng, ExperimentCounter()).tolist(), rng.gen.random()))
    assert got == [([3, 13, 13, 3, 13, 3, 3, 13], 0.5675398131484446),
                   ([0, 0, 0, 0, 0, 0, 0, 0], 0.7363858705132865)]


def test_phase_draws_tail_stream():
    # one uniform a draw, then 2 x 16 a pass for the draws that land in the
    # kernel's tail: two lanes of 40 draws, and the next uniform
    gen = RandomSource(18).gen
    ys = _phase_draws([0.5, 0.3], [37, 4096], [40, 40], gen)
    assert ys.tolist() == [
        [9, 9, 9, 9, 20, 9, 9, 9, 9, 9, 9, 9, 12, 10, 8, 9, 9, 9, 9, 9,
         9, 9, 9, 9, 11, 9, 9, 9, 9, 9, 9, 10, 9, 10, 9, 9, 10, 9, 9, 9],
        [756, 755, 756, 756, 756, 756, 756, 756, 755, 755, 756, 756, 756, 756, 756, 756, 760,
         647, 757, 756, 756, 756, 756, 756, 756, 756, 756, 756, 756, 756, 756, 756, 756, 756,
         756, 756, 756, 756, 762, 755]]
    assert gen.random() == 0.5423274839097094


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


# The reference sweeps: (config, then the first 16 hex digits of the sha256
# of its integer columns under the calibrated and the theoretical profile).
_PARETO, _UNIFORM = "pareto:2.5:1:64", "uniform:1..100:100"
_REFERENCE_SWEEPS = {
    "bern": ({"estimator": "bern", "distribution": "uniform:0..1:11",
              "grid": {"n": [8, 64], "delta": [0.1]}, "trials": 10, "seed": 14,
              "a": 0.0, "b": 1.0}, "9a54940afcb63da5", "9a54940afcb63da5"),
    "classical-truncated": ({"estimator": "classical-truncated", "distribution": _PARETO,
                             "grid": {"n": [100]}, "trials": 10, "seed": 20},
                            "431c270a6004879e", "431c270a6004879e"),
    "empirical": ({"estimator": "empirical", "distribution": _PARETO,
                   "grid": {"n": [100]}, "trials": 10, "seed": 18},
                  "431c270a6004879e", "431c270a6004879e"),
    "median-of-means": ({"estimator": "median-of-means", "distribution": _PARETO,
                         "grid": {"n": [100], "delta": [0.1]}, "trials": 10, "seed": 17},
                        "431c270a6004879e", "431c270a6004879e"),
    "quantile-budget": ({"estimator": "quantile", "distribution": _UNIFORM,
                         "grid": {"p": [0.01, 0.1], "delta": [0.1]}, "trials": 20, "seed": 21,
                         "budget": 3000}, "389c435a90883f61", "389c435a90883f61"),
    "quantile": ({"estimator": "quantile", "distribution": _UNIFORM,
                  "grid": {"p": [0.01, 0.1], "delta": [0.1]}, "trials": 20, "seed": 15},
                 "f6118120fb07e2e1", "8666595b76a5fa9c"),
    "relative": ({"estimator": "relative", "distribution": "uniform:1..10:10",
                  "grid": {"epsilon": [0.2, 0.5], "delta": [0.1]}, "trials": 8, "seed": 12,
                  "ch": 0.6}, "3b6a2030297fb823", "c7c500a115d1469a"),
    "seq-bern-point0-budget": ({"estimator": "seq-bern", "distribution": "point:0",
                                "grid": {"delta": [0.1]}, "trials": 20, "seed": 24,
                                "budget": 100}, "b5ab6e4dc0cf0557", "b5ab6e4dc0cf0557"),
    "seq-bern": ({"estimator": "seq-bern", "distribution": "bernoulli:0.3",
                  "grid": {"delta": [0.1]}, "trials": 30, "seed": 16},
                 "52b6a2ccd7d428ba", "52b6a2ccd7d428ba"),
    "seq-relative-budget": ({"estimator": "seq-relative", "distribution": "bernoulli:0.1",
                             "grid": {"epsilon": [0.3], "delta": [0.2]}, "trials": 6,
                             "seed": 23, "budget": 200000},
                            "8e81c68766b8c1a3", "8e81c68766b8c1a3"),
    "seq-relative-point": ({"estimator": "seq-relative", "distribution": "point:1",
                            "grid": {"epsilon": [0.3], "delta": [0.2]}, "trials": 4, "seed": 19},
                           "52eb710570e6c2a1", "81e56a19cb47a20b"),
    "seq-relative": ({"estimator": "seq-relative", "distribution": "bernoulli:0.1",
                      "grid": {"epsilon": [0.3], "delta": [0.2]}, "trials": 6, "seed": 13},
                     "c430263385cf7508", "338b47b710acea64"),
    "subgauss-budget": ({"estimator": "subgauss", "distribution": _PARETO,
                         "grid": {"n": [16, 64, 256], "delta": [0.1]}, "trials": 8, "seed": 22,
                         "budget": 20000}, "7aace80017244296", "7aace80017244296"),
    "subgauss": ({"estimator": "subgauss", "distribution": _PARETO,
                  "grid": {"n": [16, 64, 256], "delta": [0.1]}, "trials": 8, "seed": 11},
                 "01f431558d345312", "7a850570d65df55d"),
}


def test_reference_sweep_tallies():
    """The 14 reference sweeps, each under both profiles, keep their tallies.

    Each sweep is pinned by a sha256 over its integer columns
    (oracle_experiments, aa_applications, interrupted), one line a row.
    Estimates are left out, as their last bits hang on the platform's libm.
    Re-pin only together with a CHANGES.md line that records an intended
    change to how the stream is consumed.
    """
    got, want = {}, {}
    for name, (raw, *digests) in _REFERENCE_SWEEPS.items():
        for profile, digest in zip(("calibrated", "theoretical"), digests):
            rows = run_sweep(SweepConfig.from_dict({**raw, "profile": profile}))
            text = "".join(f"{r.oracle_experiments},{r.aa_applications},{r.interrupted:d}\n"
                           for r in rows)
            got[name, profile] = hashlib.sha256(text.encode()).hexdigest()[:16]
            want[name, profile] = digest
    assert got == want
