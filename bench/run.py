"""qmeansim benchmark: one workload per process, end to end or traced.

    python3 bench/run.py --workload subgauss-pareto --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The program is imported from ``src/``. A run
runs whole rounds of its workload's sweeps through ``harness.run_sweep`` and
``harness.write_csv``, as ``qmeansim sweep`` does, for ``--seconds`` seconds
and at least the workload's minimum number of rounds, and times one set-up
of the program before the first round and after each round. It checks the
rows, replays round 0 and compares the CSV digests, and prints as its last
line a JSON object with the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``) that BENCHMARK.json lists.
``--workload all`` runs every workload, each in a fresh process.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

def _metric_specs() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return end_to_end, per_layer


def _program_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "qmeansim" or k.startswith("qmeansim.")}


def set_up(workload, seed: int) -> dict:
    """Time one set-up of the program in a fresh copy of its modules.

    Imports ``qmeansim``, parses the round-0 configs, resolves their
    distributions and loads the profile, timing each step. The modules the
    run uses are put back afterwards, so their caches and any tracing
    wrappers stay as they were, and the fresh copy is collected.
    """
    live = _program_modules()
    for name in live:
        del sys.modules[name]
    texts = [json.dumps(c) for c in workload.configs(seed, 0)]
    try:
        t0 = perf_counter()
        harness = importlib.import_module("qmeansim.harness")
        configs = [harness.SweepConfig.from_dict(json.loads(text)) for text in texts]
        t1 = perf_counter()
        for config in configs:
            harness.resolve_distribution(config.distribution)
        t2 = perf_counter()
        sys.modules["qmeansim.estimators"].default_profile(configs[0].profile)
        t3 = perf_counter()
    finally:
        for name in _program_modules():
            del sys.modules[name]
        sys.modules.update(live)
    del harness, configs
    gc.collect()
    return {
        "setup_s": t3 - t0,
        "resolve_s": (t2 - t1) / len(texts),
        "profile_s": t3 - t2,
    }


def _timed_rows(rows, times: list, kept: list, keep):
    # Seconds from asking the sweep for a row until it yields it.
    t = perf_counter()
    for row in rows:
        times.append(perf_counter() - t)
        kept.append(keep(row))
        yield row
        t = perf_counter()


def run_round(harness, workload, seed: int, index: int, csv_path: Path, keep, log) -> str:
    """Run one round of sweeps into ``csv_path``; return the round's CSV digest.

    ``log`` collects per-row seconds, kept rows, sweep seconds and attempts.
    """
    digest = hashlib.sha256()
    log["attempted"] += workload.trials_per_round()
    for raw in workload.configs(seed, index):
        config = harness.SweepConfig.from_dict(raw)
        t0 = perf_counter()
        with open(csv_path, "w", newline="") as out:
            harness.write_csv(_timed_rows(harness.run_sweep(config), log["times"],
                                          log["rows"], keep), out)
        log["sweep_s"] += perf_counter() - t0
        digest.update(csv_path.read_bytes())
    return digest.hexdigest()


def _new_log() -> dict:
    return {"times": [], "rows": [], "sweep_s": 0.0, "attempted": 0}


def trace_layers():
    """Wrap the public functions of every layer the workloads touch.

    Returns the tracer, the counts its observers add up and the set of
    distinct ``(p, M)`` laws drawn by ``aest_sample``.
    """
    from layertrace import Tracer

    tracer = Tracer()
    counts = dict.fromkeys(("aest_sample.points", "seq_aamp.rounds",
                            "cond_sample_above.useful", "quantile_est.oracle"), 0)
    laws = set()

    def on_aest_sample(args, kwargs, result):
        p = args[0] if args else kwargs["p"]
        m = args[1] if len(args) > 1 else kwargs["m"]
        counts["aest_sample.points"] += m
        laws.add((p, m))

    def on_seq_aamp(args, kwargs, result):
        counts["seq_aamp.rounds"] += result[1]

    def on_cond_sample_above(args, kwargs, result):
        counts["cond_sample_above.useful"] += result[0] is not None

    def on_quantile_est(args, kwargs, result):
        counts["quantile_est.oracle"] += sum(result.stage_costs.values())

    tracer.wrap_function("qmeansim.harness", "run_sweep", generator=True)
    tracer.wrap_function("qmeansim.harness", "write_csv")
    for name in ("subgauss_est", "seq_relative_est", "seq_bern_est", "bern_est"):
        tracer.wrap_function("qmeansim.estimators", name)
    tracer.wrap_function("qmeansim.estimators", "quantile_est", on_quantile_est)
    tracer.wrap_function("qmeansim.estimators", "cond_sample_above", on_cond_sample_above)
    tracer.wrap_function("qmeansim.kernels", "seq_aamp", on_seq_aamp)
    tracer.wrap_function("qmeansim.kernels", "aest_sample", on_aest_sample)
    tracer.wrap_function("qmeansim.kernels", "aest_median")
    tracer.count_method("qmeansim.kernels", "ExperimentCounter", "charge")
    for name in ("conditional_above", "sample", "shift_split", "pair_square_diff"):
        tracer.wrap_function("qmeansim.dist", name)
    return tracer, counts, laws


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    from workloads import WORKLOADS, keep

    workload = WORKLOADS[name]
    end_to_end, per_layer = _metric_specs()
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(traced)}"
    csv_path = OUT / f"{stem}.csv"

    # Import the program from cached bytecode, as an installed package is,
    # whatever PYTHONDONTWRITEBYTECODE says; this first import writes it.
    sys.dont_write_bytecode = False
    harness = importlib.import_module("qmeansim.harness")
    # Machine speed can drift during a run, so set-ups are spread over it:
    # one before the first round and one after each round.
    setups = [set_up(workload, seed)]

    if traced:
        tracer, counts, laws = trace_layers()

    # Counts and simulated tallies are taken over the first min_rounds
    # rounds, which every run completes, so they repeat exactly per seed.
    log = _new_log()
    digests = []
    frozen = None
    start = perf_counter()
    while len(digests) < workload.min_rounds or perf_counter() - start < seconds:
        digests.append(run_round(harness, workload, seed, len(digests), csv_path, keep, log))
        setups.append(set_up(workload, seed))
        if len(digests) == workload.min_rounds:
            frozen = {
                "trials": len(log["rows"]),
                "oracle": sum(r.oracle_experiments for r in log["rows"]),
                "aa": sum(r.aa_applications for r in log["rows"]),
            }
            if traced:
                frozen.update(counts, laws=len(laws),
                              calls={k: s.calls for k, s in tracer.spans.items()})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if traced:
        tracer.remove()

    problems = workload.check(log["rows"])
    replay = run_round(harness, workload, seed, 0, csv_path, keep, _new_log())
    if replay != digests[0]:
        problems.append(f"round 0 replayed {'untraced ' if traced else ''}gives CSV "
                        f"digest {replay[:16]}, not {digests[0][:16]}")

    times = log["times"]
    trials = len(times)
    attempted = log["attempted"]
    failed = attempted - trials
    values = {}
    if not traced:
        p90 = statistics.quantiles(times, n=10, method="inclusive")[-1]
        beyond = sum(t > p90 for t in times)
        if beyond < 10:
            raise RuntimeError(f"only {beyond} trial times beyond the 90th percentile")
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "trials_per_s": trials / log["sweep_s"],
            "trial_s_p50": statistics.median(times),
            "trial_s_p90": p90,
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        # times per trial over every round; counts per trial over the first
        # min_rounds rounds
        counted = frozen["trials"]
        calls = frozen["calls"]
        for span_name, span in tracer.spans.items():
            values[f"{span_name}.self_s"] = span.self_ns * 1e-9 / trials
            values[f"{span_name}.calls"] = calls[span_name] / counted
        cond_calls = calls["estimators.cond_sample_above"]
        values.update({
            "kernels.aest_sample.points": frozen["aest_sample.points"] / counted,
            "kernels.aest_sample.draws_per_law":
                calls["kernels.aest_sample"] / frozen["laws"] if frozen["laws"] else 0.0,
            "kernels.seq_aamp.rounds": frozen["seq_aamp.rounds"] / counted,
            "estimators.cond_sample_above.useful_ratio":
                frozen["cond_sample_above.useful"] / cond_calls if cond_calls else 0.0,
            "estimators.quantile_est.oracle_share":
                frozen["quantile_est.oracle"] / frozen["oracle"],
            "generators.resolve_distribution.s":
                statistics.median(s["resolve_s"] for s in setups),
            "estimators.default_profile.s": statistics.median(s["profile_s"] for s in setups),
        })
    values.update({
        "sim.oracle_per_trial": frozen["oracle"] / frozen["trials"],
        "sim.aa_per_trial": frozen["aa"] / frozen["trials"],
    })

    wanted = per_layer if traced else end_to_end
    missing = sorted(set(wanted) - set(values))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    info = {
        "workload": name, "seed": seed, "traced": traced, "rounds": len(digests),
        "trials": trials, "sweep_s": log["sweep_s"],
        "wall_trials_per_s": trials / log["sweep_s"],
        "csv_sha256_round0": digests[0],
        "sim_oracle_per_trial": values["sim.oracle_per_trial"],
        "sim_aa_per_trial": values["sim.aa_per_trial"],
        "problems": problems,
    }
    if traced:
        info["spans"] = {k: {"calls": s.calls, "total_s": s.total_ns * 1e-9,
                             "self_s": s.self_ns * 1e-9} for k, s in tracer.spans.items()}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in wanted.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps({"info": info, "result": result}, indent=1))
    for problem in problems:
        print(f"# check failed: {problem}")
    print("# " + json.dumps({k: v for k, v in info.items() if k != "spans"}))
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Run every workload in a fresh process; sum the counts."""
    from workloads import WORKLOADS

    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if not (ROOT / "src" / "qmeansim" / "__init__.py").is_file():
        print(f"bench: no program sources under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    # The workloads are single-threaded; keep numpy's thread pools to one.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
