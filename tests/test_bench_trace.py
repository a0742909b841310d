"""The traced benchmark run wraps program functions by name.

``bench/run.py --trace 1`` replaces functions of the ``qmeansim`` modules with
timing wrappers and puts the originals back afterwards. A program change that
drops or renames one of those names, or changes a result its observers read,
fails here rather than in the benchmark.
"""

import io
import sys
from pathlib import Path

import qmeansim.dist  # noqa: F401  (the tracer wraps names in every loaded module)
import qmeansim.estimators  # noqa: F401
import qmeansim.harness as harness
import qmeansim.kernels as kernels
from qmeansim import RandomSource

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _program_bindings():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if mod is not None and (name == "qmeansim" or name.startswith("qmeansim."))}


def test_bench_tracer_wraps_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    before = _program_bindings()
    charge = vars(kernels.ExperimentCounter)["charge"]
    try:
        import run

        tracer, counts, laws = run.trace_layers()
        try:
            config = harness.SweepConfig.from_dict({
                "estimator": "seq-relative", "distribution": "bernoulli:0.1",
                "grid": {"epsilon": [0.3], "delta": [0.3]}, "trials": 1, "seed": 1})
            harness.write_csv(harness.run_sweep(config), io.StringIO())
            # no sweep draws single estimations, so the observer of
            # aest_sample's (p, M) arguments is run here
            kernels.aest_sample(0.3, 16, 4, RandomSource(1), kernels.ExperimentCounter())
        finally:
            tracer.remove()
    finally:
        sys.modules.pop("run", None)
        sys.modules.pop("layertrace", None)
    # every wrapper saw its calls, and the observers read their results
    for name in ("harness.run_sweep", "estimators.seq_relative_est", "estimators.quantile_est",
                 "kernels.seq_aamp", "kernels.aest_median", "dist.pair_square_diff"):
        assert tracer.spans[name].calls >= 1, name
    assert counts["seq_aamp.rounds"] >= 1 and counts["quantile_est.oracle"] >= 1
    assert tracer.spans["kernels.aest_sample"].calls == 1
    assert counts["aest_sample.points"] == 16 and (0.3, 16) in laws
    # and every original is back in place
    after = _program_bindings()
    for name, bindings in before.items():
        for key, value in bindings.items():
            assert after[name][key] is value, f"{name}.{key}"
    assert vars(kernels.ExperimentCounter)["charge"] is charge
