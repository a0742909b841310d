import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qmeansim
from qmeansim import calibrate_constants, harness
from qmeansim.cli import build_parser, main


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out = capsys.readouterr() if capsys else None
    return code, out


def test_verify_ae_command(capsys):
    code, out = run_cli("verify-ae", capsys=capsys)
    assert code == 0
    assert "cases: 100" in out.out
    assert "max total-variation" in out.out


def test_verify_ae_takes_no_register_bound(capsys):
    code, out = run_cli("verify-ae", "--max-m", "8", capsys=capsys)
    assert code == 1
    assert "cases" not in out.out


def test_sweep_and_summarize_and_slope(tmp_path, capsys):
    cfg = {
        "estimator": "empirical",
        "distribution": "pareto:2.5:1:64",
        "grid": {"n": [100, 400, 1600]},
        "trials": 30,
        "seed": 11,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "rows.csv"

    code, _ = run_cli("sweep", "--config", str(cfg_path), "--out", str(out_path),
                      capsys=capsys)
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("estimator,")
    assert len(text.splitlines()) == 1 + 3 * 30

    code, out = run_cli("summarize", "--in", str(out_path), "--bound", "none",
                        capsys=capsys)
    assert code == 0
    assert out.out.startswith("estimator\t")
    assert len(out.out.splitlines()) == 4

    code, out = run_cli("slope", "--in", str(out_path), "--x", "oracle_experiments",
                        "--y", "abs_error", "--percentile", "90", capsys=capsys)
    assert code == 0
    slope = float(out.out.strip())
    assert -0.8 <= slope <= -0.2  # classical rate on a sampled sweep


def _seq_relative_csv(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"estimator": "seq-relative", "distribution": "bernoulli:0.5",
                                    "grid": {"epsilon": [0.4, 0.3, 0.2], "delta": [0.25]},
                                    "trials": 2, "seed": 3}))
    out_path = tmp_path / "rows.csv"
    assert run_cli("sweep", "--config", str(cfg_path), "--out", str(out_path),
                   capsys=capsys)[0] == 0
    return out_path


@pytest.mark.parametrize("command", ["summarize", "slope"])
def test_malformed_csv_is_config_error(tmp_path, capsys, command):
    csv_path = tmp_path / "other.csv"
    csv_path.write_text("estimator,n\nempirical,100\n")
    code, out = run_cli(command, "--in", str(csv_path), capsys=capsys)
    assert code == 1
    assert out.err.startswith("error: not a sweep CSV: missing columns distribution, epsilon")
    assert out.out == ""
    # a sweep CSV whose last row is cut short
    rows = _seq_relative_csv(tmp_path, capsys)
    rows.write_text(rows.read_text()[:-40])
    code, out = run_cli(command, "--in", str(rows), capsys=capsys)
    assert code == 1 and out.err.startswith("error:") and out.out == ""


@pytest.mark.parametrize("command", ["summarize", "slope"])
def test_malformed_cell_is_config_error(tmp_path, capsys, command):
    rows = _seq_relative_csv(tmp_path, capsys)
    lines = rows.read_text().splitlines()
    head, _, seed = lines[3].rsplit(",", 2)
    lines[3] = f"{head},maybe,{seed}"
    rows.write_text("\n".join(lines) + "\n")
    code, out = run_cli(command, "--in", str(rows), capsys=capsys)
    assert code == 1
    assert out.err == "error: line 4, column 'interrupted': expected true or false, got 'maybe'\n"
    assert out.out == ""


def test_summarize_header_is_frozen(tmp_path, capsys):
    rows = _seq_relative_csv(tmp_path, capsys)
    code, out = run_cli("summarize", "--in", str(rows), capsys=capsys)
    assert code == 0
    assert out.out.splitlines()[0].split("\t") == [
        "estimator", "distribution", "n", "epsilon", "delta", "p", "trials", "mean_abs_error",
        "p90_abs_error", "failure_rate", "bound", "mean_oracle", "mean_aa"]


def test_slope_axes_are_frozen():
    # the numeric columns of a sweep CSV, in column order
    parser = build_parser()
    axes = []
    for name in harness.CSV_FIELDS:
        try:
            args = parser.parse_args(["slope", "--in", "rows.csv", "--x", name, "--y", name])
        except SystemExit:
            continue
        axes.append(args.x)
    assert axes == ["n", "epsilon", "delta", "p", "trial", "estimate", "true_mean", "abs_error",
                    "rel_error", "oracle_experiments", "aa_applications", "seed"]


@pytest.mark.parametrize("axis, column, message", [
    ("--x", "nosuch", "invalid choice: 'nosuch'"),
    ("--x", "estimator", "invalid choice: 'estimator'"),
    ("--y", "interrupted", "invalid choice: 'interrupted'"),
    ("--x", "n", "column 'n' has empty cells"),
], ids=["unknown", "text", "bool", "empty-cells"])
def test_slope_bad_column_is_config_error(tmp_path, capsys, axis, column, message):
    # slope fits numeric columns only; a seq-relative sweep leaves n empty
    out_path = _seq_relative_csv(tmp_path, capsys)
    code, out = run_cli("slope", "--in", str(out_path), axis, column, capsys=capsys)
    assert code == 1
    assert "error:" in out.err and message in out.err
    assert out.out == ""
    code, out = run_cli("slope", "--in", str(out_path), "--x", "epsilon", capsys=capsys)
    assert code == 0 and math.isfinite(float(out.out))


def test_slope_non_finite_axis_is_config_error(tmp_path, capsys):
    # a budget of 5 interrupts every chain before its first draw: each
    # estimate is -inf and each error inf, refused before any percentile
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"estimator": "quantile", "distribution": "uniform:1..100:100",
                                    "budget": 5, "grid": {"p": [0.1, 0.01, 0.001],
                                                          "delta": [0.1]},
                                    "trials": 5, "seed": 3}))
    out_path = tmp_path / "rows.csv"
    assert run_cli("sweep", "--config", str(cfg_path), "--out", str(out_path),
                   capsys=capsys)[0] == 0
    code, out = run_cli("slope", "--in", str(out_path), "--x", "p", "--y", "abs_error",
                        capsys=capsys)
    assert code == 1
    assert out.err == "error: column 'abs_error' has non-finite cells\n"
    assert out.out == ""
    code, out = run_cli("slope", "--in", str(out_path), "--x", "estimate", "--y", "p",
                        capsys=capsys)
    assert code == 1 and out.err == "error: column 'estimate' has non-finite cells\n"


def test_sweep_reports_config_errors(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"estimator": "nope"}))
    code, out = run_cli("sweep", "--config", str(cfg_path), "--out",
                        str(tmp_path / "x.csv"), capsys=capsys)
    assert code == 1
    assert "error:" in out.err


def test_sweep_config_not_an_object_is_config_error(tmp_path, capsys):
    # a number, null, an empty list and a list of the required key names
    cfg_path = tmp_path / "bad.json"
    for raw in (5, None, [], ["estimator", "distribution", "grid", "trials", "seed"]):
        cfg_path.write_text(json.dumps(raw))
        code, out = run_cli("sweep", "--config", str(cfg_path), "--out",
                            str(tmp_path / "x.csv"), capsys=capsys)
        assert code == 1, raw
        assert out.err == f"error: a config must be an object, got {raw!r}\n"
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_sweep_bad_budget_is_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"estimator": "quantile", "distribution": "point:1",
                                    "grid": {"p": [0.1], "delta": [0.1]}, "trials": 2,
                                    "seed": 1, "budget": -5}))
    out_path = tmp_path / "x.csv"
    code, out = run_cli("sweep", "--config", str(cfg_path), "--out", str(out_path),
                        capsys=capsys)
    assert code == 1
    assert "budget must be an integer" in out.err
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_sweep_refuses_a_distribution_file_of_non_numbers(tmp_path, capsys):
    dist_path = tmp_path / "dist.json"
    dist_path.write_text(json.dumps([{"value": True, "prob": 0.5},
                                     {"value": "2", "prob": "0.5"}]))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"estimator": "subgauss", "distribution": str(dist_path),
                                    "grid": {"n": [32], "delta": [0.1]}, "trials": 1,
                                    "seed": 1}))
    out_path = tmp_path / "x.csv"
    code, out = run_cli("sweep", "--config", str(cfg_path), "--out", str(out_path),
                        capsys=capsys)
    assert code == 1
    assert out.err.startswith("error:") and "must be numbers, got True" in out.err
    assert not out_path.exists()


def test_sweep_missing_file_is_config_error(tmp_path, capsys):
    code, out = run_cli("sweep", "--config", str(tmp_path / "none.json"),
                        "--out", str(tmp_path / "x.csv"), capsys=capsys)
    assert code == 1


_CALIBRATED = json.loads(qmeansim.default_profile().to_json())


@pytest.mark.parametrize("profile,named", [
    ({"layer_time_factor": 2.0}, "sampler_low_coeff"),
    ({**_CALIBRATED, "log_base": 2.718281828459045}, "log_base"),
    ({**_CALIBRATED, "seq_rel_err": "high"}, "seq_rel_err"),
    ({**_CALIBRATED, "seq_cost_sq_coeff": math.inf, "probe_budget_coeff": math.inf},
     "seq_cost_sq_coeff"),
], ids=["one-key", "stale-key", "non-numeric", "non-finite"])
def test_sweep_reports_bad_profile(tmp_path, capsys, profile, named):
    # a malformed profile file is a configuration error naming the field; a
    # constant of inf, as 1e999 and Infinity parse, is refused on loading,
    # before a seq-relative sweep could take math.ceil of the probe's inf cap
    prof_path = tmp_path / "prof.json"
    prof_path.write_text(json.dumps(profile))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"estimator": "subgauss", "distribution": "point:5",
                                    "grid": {"n": [32], "delta": [0.1]}, "trials": 1,
                                    "seed": 1, "profile": str(prof_path)}))
    out_path = tmp_path / "x.csv"
    code, out = run_cli("sweep", "--config", str(cfg_path), "--out", str(out_path),
                        capsys=capsys)
    assert code == 1
    assert out.err.startswith("error:") and named in out.err
    assert not out_path.exists()


@pytest.mark.parametrize("seq_rel_err", [1.0, 1.5])
def test_sweep_rejects_seq_rel_err_of_one_or_more(tmp_path, capsys, seq_rel_err):
    # the theoretical refinement factor 4(1 + err)/sqrt(1 - err) needs err < 1
    theoretical = json.loads(qmeansim.theoretical_profile().to_json())
    prof_path = tmp_path / "prof.json"
    prof_path.write_text(json.dumps({**theoretical, "seq_rel_err": seq_rel_err}))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"estimator": "subgauss", "distribution": "point:5",
                                    "grid": {"n": [32], "delta": [0.1]}, "trials": 1,
                                    "seed": 1, "profile": str(prof_path)}))
    out_path = tmp_path / "x.csv"
    code, out = run_cli("sweep", "--config", str(cfg_path), "--out", str(out_path),
                        capsys=capsys)
    assert code == 1
    assert out.err.startswith("error:") and "seq_rel_err must be below 1" in out.err
    assert not out_path.exists()


def test_sweep_estimator_error_exits_3_and_leaves_no_csv(tmp_path, capsys, monkeypatch):
    original, calls = harness.subgauss_est, []

    def fails_second_call(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise ValueError("data-dependent failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "subgauss_est", fails_second_call)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"estimator": "subgauss", "distribution": "point:5",
                                    "grid": {"n": [32], "delta": [0.1]}, "trials": 3,
                                    "seed": 1}))
    out_path = tmp_path / "rows.csv"
    code, out = run_cli("sweep", "--config", str(cfg_path), "--out", str(out_path),
                        capsys=capsys)
    assert code == 3
    assert "data-dependent failure" in out.err
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


def test_sweep_skips_grid_point_past_round_table(tmp_path, capsys):
    # at n = 1e16 the quantile stage of a point mass burns a per-repetition
    # cap past the 1e18 oracle experiments the schedule tabulates
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"estimator": "subgauss", "distribution": "point:5",
                                    "grid": {"n": [1e12, 1e16], "delta": [0.1]}, "trials": 2,
                                    "seed": 1}))
    out_path = tmp_path / "rows.csv"
    code, out = run_cli("sweep", "--config", str(cfg_path), "--out", str(out_path),
                        capsys=capsys)
    assert code == 0
    assert out.err.count("skipping grid point") == 1 and "past 1e18" in out.err
    with out_path.open() as f:
        assert [row.n for row in harness.read_csv(f)] == [1e12, 1e12]


@pytest.mark.parametrize("estimator, distribution, extra, huge", [
    # 2^1024, the power of two n rounds up to, is past the float range
    ("subgauss", "pareto:2.5:1:512", {}, 1e308),
    # a register of about 2.7e300 points does not fit the draw's arrays
    ("bern", "uniform:1..100:100", {"a": 0, "b": 100}, 1e300),
])
def test_sweep_skips_grid_point_with_huge_time_parameter(tmp_path, capsys, estimator,
                                                         distribution, extra, huge):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"estimator": estimator, "distribution": distribution,
                                    "grid": {"n": [64, huge], "delta": [0.1]}, "trials": 2,
                                    "seed": 1, **extra}))
    out_path = tmp_path / "rows.csv"
    code, out = run_cli("sweep", "--config", str(cfg_path), "--out", str(out_path),
                        capsys=capsys)
    assert code == 0
    assert out.err.count("skipping grid point") == 1 and f"time parameter {huge}" in out.err
    with out_path.open() as f:
        assert [row.n for row in harness.read_csv(f)] == [64, 64]


def _cli_env(**extra):
    src = str(Path(qmeansim.__file__).resolve().parents[1])
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "qmeansim", "verify-ae"],
                          env=_cli_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "cases: 100" in proc.stdout
    assert "max total-variation" in proc.stdout


def test_package_imports_without_dataclasses():
    # the record types generate no code at import: a fresh interpreter that
    # has numpy loaded, which does not load dataclasses, imports the harness
    # without loading it either
    code = ("import sys, numpy; assert 'dataclasses' not in sys.modules; "
            "import qmeansim.harness; assert 'dataclasses' not in sys.modules, 'loaded'")
    proc = subprocess.run([sys.executable, "-c", code], env=_cli_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_harness_import_compiles_nothing_in_typing():
    # no record type carries annotations for typing to turn into ForwardRefs,
    # each of which compiles its text: a fresh interpreter that has numpy
    # loaded imports the harness without a compile call from typing
    code = ("import builtins, sys, numpy\n"
            "real, calls = builtins.compile, []\n"
            "def spy(*args, **kwargs):\n"
            "    calls.append(sys._getframe(1).f_code.co_filename)\n"
            "    return real(*args, **kwargs)\n"
            "builtins.compile = spy\n"
            "import qmeansim.harness\n"
            "typed = [name for name in calls if name.endswith('typing.py')]\n"
            "assert not typed, f'{len(typed)} compile calls from typing'\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_cli_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("cfg,rows", [
    ({"estimator": "seq-relative", "distribution": "bernoulli:0.1",
      "grid": {"epsilon": [0.3], "delta": [0.3]}, "trials": 3, "seed": 6}, 3),
    ({"estimator": "subgauss", "distribution": "pareto:2.5:1:64",
      "grid": {"n": [16, 64], "delta": [0.1]}, "trials": 3, "seed": 11}, 6),
], ids=["seq-relative", "subgauss"])
def test_sweep_csv_does_not_depend_on_hash_seed(cfg, rows, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    csvs = []
    for hash_seed in ("0", "4242"):
        out_path = tmp_path / f"rows-{hash_seed}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "qmeansim", "sweep", "--config", str(cfg_path),
             "--out", str(out_path)],
            env=_cli_env(PYTHONHASHSEED=hash_seed), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        csvs.append(out_path.read_bytes())
    assert csvs[0] == csvs[1]
    assert len(csvs[0].splitlines()) == 1 + rows


def test_calibrate_writes_profile(tmp_path, capsys):
    # the profile is read off exact laws: two runs write the same bytes
    written = []
    for name in ("a.json", "b.json"):
        out_path = tmp_path / name
        code, _ = run_cli("calibrate", "--grid", "0.5,0.05", "--out", str(out_path),
                          capsys=capsys)
        assert code == 0
        written.append(out_path.read_bytes())
    assert written[0] == written[1]
    from qmeansim import ConstantProfile

    prof = ConstantProfile.from_json(written[0].decode())
    assert prof.mode == "calibrated"
    assert prof == calibrate_constants([0.5, 0.05])


@pytest.mark.parametrize("option", ["--trials", "--seed"])
def test_calibrate_has_no_sampling_options(option, tmp_path, capsys):
    assert run_cli("calibrate", option, "1000", "--out", str(tmp_path / "p.json"),
                   capsys=capsys)[0] == 1
    assert not (tmp_path / "p.json").exists()


def test_bounds_command(capsys):
    code, out = run_cli("bounds", "--instance", "hard-statebased:10:1",
                        "--delta", "0.01", capsys=capsys)
    assert code == 0
    lines = dict(line.split("\t") for line in out.out.strip().splitlines())
    assert float(lines["kl"]) == pytest.approx(0.275792, abs=1e-5)
    assert float(lines["helstrom_success"]) == pytest.approx(0.667777, abs=1e-5)
    assert lines["t_lower"] == "12"


@pytest.mark.parametrize("instance", ["hard-subgaussian:10", "point:1"])
def test_bounds_refuses_other_instances(instance, capsys):
    code, out = run_cli("bounds", "--instance", instance, "--delta", "0.01", capsys=capsys)
    assert (code, out.out, out.err) == (1, "", f"error: unknown instance {instance!r}\n")


def test_bad_arguments_exit_code():
    assert main(["no-such-command"]) == 1
