import io

import pytest

from qmeansim import (
    ConfigError,
    SweepConfig,
    fit_loglog_slope,
    run_sweep,
    summarize,
    verify_ae,
    write_csv,
)
from qmeansim.harness import CSV_FIELDS, read_csv


def config(**overrides):
    raw = {
        "estimator": "subgauss",
        "distribution": "point:5",
        "grid": {"n": [32], "delta": [0.1]},
        "trials": 3,
        "seed": 7,
    }
    raw.update(overrides)
    return SweepConfig.from_dict(raw)


def csv_text(cfg):
    buf = io.StringIO()
    write_csv(run_sweep(cfg), buf)
    return buf.getvalue()


# -- config validation ---------------------------------------------------------

def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        SweepConfig.from_dict({
            "estimator": "subgauss", "distribution": "point:5",
            "grid": {"n": [32], "delta": [0.1]}, "trials": 1, "seed": 0,
            "typo_key": 1,
        })


def test_config_rejects_unknown_estimator():
    with pytest.raises(ConfigError, match="unknown estimator"):
        config(estimator="does-not-exist")


def test_config_requires_estimator_params():
    with pytest.raises(ConfigError, match="needs grid key"):
        config(estimator="quantile", grid={"n": [32]})
    with pytest.raises(ConfigError, match="'ch'"):
        config(estimator="relative", grid={"epsilon": [0.1], "delta": [0.1]})
    with pytest.raises(ConfigError, match="'a' and 'b'"):
        config(estimator="bern", grid={"n": [50], "delta": [0.1]})


def test_config_rejects_empty_grid():
    with pytest.raises(ConfigError, match="grid"):
        config(grid={})
    with pytest.raises(ConfigError, match="grid"):
        config(grid={"n": [], "delta": [0.1]})


# -- sweeping --------------------------------------------------------------------

def test_sweep_point_mass_zero_error():
    rows = list(run_sweep(config()))
    assert len(rows) == 3
    for row in rows:
        assert row.estimate == 5.0
        assert row.abs_error == 0.0
        assert not row.interrupted


def test_sweep_deterministic_bytes():
    cfg = config(trials=2)
    assert csv_text(cfg) == csv_text(config(trials=2))


def test_sweep_row_count_over_grid():
    cfg = config(grid={"n": [32, 64], "delta": [0.1, 0.2]}, trials=2)
    rows = list(run_sweep(cfg))
    assert len(rows) == 2 * 2 * 2


def test_sweep_bern_on_grid():
    cfg = config(
        estimator="bern",
        distribution="bernoulli:0.5",
        grid={"n": [117.2], "delta": [0.1]},
        a=0.0,
        b=1.0,
        trials=4,
    )
    for row in run_sweep(cfg):
        assert row.estimate == 0.5
        assert row.abs_error == 0.0


def test_sweep_skips_invalid_grid_points(capsys):
    # n below log(1/delta) violates the estimator's precondition
    cfg = config(grid={"n": [1.0, 32.0], "delta": [0.1]}, trials=2)
    rows = list(run_sweep(cfg))
    assert len(rows) == 2  # only the valid grid point contributes
    assert "skipping" in capsys.readouterr().err


def test_sweep_keeps_large_register_grid_points(capsys):
    # n = 524288 needs an estimation register of about 1.2e7 points
    cfg = config(distribution="pareto:2.5:1:512", grid={"n": [1024, 524288], "delta": [0.1]},
                 trials=1)
    rows = list(run_sweep(cfg))
    assert [row.n for row in rows] == [1024, 524288]
    assert "skipping" not in capsys.readouterr().err


def test_sweep_classical_baselines_cost():
    for est in ("empirical", "median-of-means", "classical-truncated"):
        cfg = config(
            estimator=est,
            distribution="pareto:2.5:1:64",
            grid={"n": [100], "delta": [0.1]},
            trials=2,
        )
        for row in run_sweep(cfg):
            assert row.oracle_experiments == 200  # two experiments per sample
            assert row.aa_applications == 0


def test_sweep_seq_bern_interrupted_flag():
    cfg = config(
        estimator="seq-bern",
        distribution="point:0",
        grid={"delta": [0.1]},
        budget=100,
        trials=2,
    )
    for row in run_sweep(cfg):
        assert row.interrupted
        assert row.estimate == 0.0
        assert row.oracle_experiments == 100


def test_csv_roundtrip():
    text = csv_text(config(trials=2))
    assert text.splitlines()[0] == ",".join(CSV_FIELDS)
    rows = read_csv(io.StringIO(text))
    assert len(rows) == 2
    assert rows[0].estimate == 5.0
    assert rows[0].n == 32.0
    assert rows[0].epsilon is None


def test_csv_17_digit_floats():
    cfg = config(distribution="pareto:2.5:1:16", estimator="empirical",
                 grid={"n": [10]}, trials=1)
    text = csv_text(cfg)
    row = text.splitlines()[1].split(",")
    true_mean = float(row[CSV_FIELDS.index("true_mean")])
    from qmeansim import moments
    from qmeansim.generators import resolve_distribution

    assert true_mean == moments(resolve_distribution("pareto:2.5:1:16")).mean


# -- summarize --------------------------------------------------------------------

def test_summarize_zero_errors():
    rows = list(run_sweep(config(trials=4)))
    recs = summarize(rows)
    assert len(recs) == 1
    assert recs[0]["mean_abs_error"] == 0.0
    assert recs[0]["failure_rate"] == 0.0
    assert recs[0]["trials"] == 4


def test_summarize_counts_failures_against_bound():
    rows = list(run_sweep(config(trials=2)))
    rows[0].abs_error = 10.0  # synthetic failure
    recs = summarize(rows)
    assert recs[0]["failure_rate"] == 0.5


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


# -- slope fitting ------------------------------------------------------------------

def test_fit_loglog_slope_unit():
    pts = [(10, 1 / 10), (100, 1 / 100), (1000, 1 / 1000)]
    assert fit_loglog_slope(pts) == pytest.approx(-1.0, abs=1e-12)


def test_fit_loglog_slope_half():
    pts = [(x, x**-0.5) for x in (10, 100, 1000, 10000)]
    assert fit_loglog_slope(pts) == pytest.approx(-0.5, abs=1e-12)


def test_fit_loglog_slope_validation():
    with pytest.raises(ValueError):
        fit_loglog_slope([(1, 1), (2, 2)])
    with pytest.raises(ValueError):
        fit_loglog_slope([(1, 1), (2, 2), (0, 3)])


# -- kernel validation ----------------------------------------------------------------

def test_verify_ae_small():
    report = verify_ae(max_m=8)
    assert report["max_tv"] <= 1e-9
    assert len(report["cases"]) == 60  # 3 register sizes x 20 amplitudes


def test_verify_ae_rejects_large_m():
    with pytest.raises(ValueError):
        verify_ae(max_m=64)
