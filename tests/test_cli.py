import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qmeansim
from qmeansim import harness
from qmeansim.cli import main


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out = capsys.readouterr() if capsys else None
    return code, out


def test_verify_ae_command(capsys):
    code, out = run_cli("verify-ae", "--max-m", "8", capsys=capsys)
    assert code == 0
    assert "max total-variation" in out.out


@pytest.mark.parametrize("max_m", ["1", "0", "-4", "33"])
def test_verify_ae_rejects_register_bound_outside_sweep(max_m, capsys):
    # below the smallest register nothing would be validated
    code, out = run_cli("verify-ae", "--max-m", max_m, capsys=capsys)
    assert code == 1
    assert "max_m must be in [2, 32]" in out.err
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


def test_sweep_reports_config_errors(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"estimator": "nope"}))
    code, out = run_cli("sweep", "--config", str(cfg_path), "--out",
                        str(tmp_path / "x.csv"), capsys=capsys)
    assert code == 1
    assert "error:" in out.err


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


def test_sweep_missing_file_is_config_error(tmp_path, capsys):
    code, out = run_cli("sweep", "--config", str(tmp_path / "none.json"),
                        "--out", str(tmp_path / "x.csv"), capsys=capsys)
    assert code == 1


_CALIBRATED = json.loads(qmeansim.default_profile().to_json())


@pytest.mark.parametrize("profile,named", [
    ({"layer_time_factor": 2.0}, "sampler_low_coeff"),
    ({**_CALIBRATED, "log_base": 2.718281828459045}, "log_base"),
    ({**_CALIBRATED, "seq_rel_err": "high"}, "seq_rel_err"),
], ids=["one-key", "stale-key", "non-numeric"])
def test_sweep_reports_bad_profile(tmp_path, capsys, profile, named):
    # a malformed profile file is a configuration error naming the field
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


def test_python_dash_m_runs_the_cli():
    src = str(Path(qmeansim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "qmeansim", "verify-ae", "--max-m", "8"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "max total-variation" in proc.stdout


def test_calibrate_writes_profile(tmp_path, capsys):
    out_path = tmp_path / "prof.json"
    code, _ = run_cli("calibrate", "--trials", "1000", "--seed", "5",
                      "--grid", "0.5,0.05", "--out", str(out_path), capsys=capsys)
    assert code == 0
    from qmeansim import ConstantProfile

    prof = ConstantProfile.from_json(out_path.read_text())
    assert prof.mode == "calibrated"


def test_bounds_command(capsys):
    code, out = run_cli("bounds", "--instance", "hard-statebased:10:1",
                        "--delta", "0.01", capsys=capsys)
    assert code == 0
    lines = dict(line.split("\t") for line in out.out.strip().splitlines())
    assert float(lines["kl"]) == pytest.approx(0.275792, abs=1e-5)
    assert float(lines["helstrom_success"]) == pytest.approx(0.667777, abs=1e-5)
    assert lines["t_lower"] == "12"


def test_bad_arguments_exit_code():
    assert main(["no-such-command"]) == 1
