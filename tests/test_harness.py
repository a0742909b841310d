import io
from dataclasses import fields

import pytest

import qmeansim.harness as harness
from qmeansim import (
    ConfigError,
    SweepConfig,
    SweepRow,
    fit_loglog_slope,
    run_sweep,
    summarize,
    verify_ae,
    write_csv,
)
from qmeansim.harness import CSV_FIELDS, ESTIMATORS, read_csv


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
    with pytest.raises(ConfigError, match="unknown estimator") as info:
        config(estimator="does-not-exist")
    assert all(name in str(info.value) for name in ESTIMATORS)


def test_config_requires_estimator_params():
    with pytest.raises(ConfigError, match="needs grid key"):
        config(estimator="quantile", grid={"n": [32]})
    with pytest.raises(ConfigError, match="'ch'"):
        config(estimator="relative", grid={"epsilon": [0.1], "delta": [0.1]})
    with pytest.raises(ConfigError, match="'a' and 'b'"):
        config(estimator="bern", grid={"n": [50], "delta": [0.1]})


# One value per grid and scalar key, valid for every estimator on bernoulli:0.4.
FULL_GRID = {"n": [32.0], "epsilon": [0.3], "delta": [0.2], "p": [0.1]}
SCALARS = {"ch": 2.0, "a": 0.0, "b": 1.0}


def estimator_config(name, drop=None):
    # a grid must not be empty: an estimator without grid keys gets delta
    spec = ESTIMATORS[name]
    raw = {
        "estimator": name,
        "distribution": "bernoulli:0.4",
        "grid": {key: FULL_GRID[key] for key in spec.grid if key != drop} or {"delta": [0.2]},
        "trials": 1,
        "seed": 3,
        **{key: SCALARS[key] for key in spec.scalars if key != drop},
    }
    return SweepConfig.from_dict(raw)


@pytest.mark.parametrize("name, key", [(name, key) for name, spec in ESTIMATORS.items()
                                       for key in spec.grid + spec.scalars])
def test_config_requires_each_declared_key(name, key):
    with pytest.raises(ConfigError, match=f"needs .*'{key}'"):
        estimator_config(name, drop=key)


@pytest.mark.parametrize("key, value", [
    ("budget", -5), ("budget", 2.5), ("budget", True), ("budget", "100"),
    ("seed", -1), ("seed", 1.7), ("seed", True), ("seed", None),
    ("trials", 0), ("trials", 2.5), ("trials", True), ("trials", "3"),
])
def test_config_rejects_bad_integer_fields(key, value):
    with pytest.raises(ConfigError, match=f"^{key} must be an integer"):
        config(**{key: value})


def test_config_accepts_integer_field_bounds():
    cfg = config(trials=1, seed=0, budget=0)
    assert (cfg.trials, cfg.seed, cfg.budget) == (1, 0, 0)
    assert config(budget=None).budget is None


RELATIVE = {"estimator": "relative", "grid": {"epsilon": [0.1], "delta": [0.1]}}
BERN = {"estimator": "bern", "grid": {"n": [50], "delta": [0.1]}, "a": 0.0, "b": 1.0}


@pytest.mark.parametrize("overrides, key", [
    ({"grid": {"n": ["abc"], "delta": [0.1]}}, "'n'"),
    ({"grid": {"n": [32], "delta": [None]}}, "'delta'"),
    ({"grid": {"n": [32], "delta": "0.1"}}, "'delta'"),
    ({"grid": {"n": [1e400], "delta": [0.1]}}, "'n'"),
    ({"grid": {"n": [10**400], "delta": [0.1]}}, "'n'"),
    ({"grid": {"n": [32], "delta": [float("nan")]}}, "'delta'"),
    ({"grid": {"n": [True], "delta": [0.1]}}, "'n'"),
    ({"grid": [32]}, "grid"),
    ({**RELATIVE, "ch": "x"}, "ch"),
    ({**RELATIVE, "ch": True}, "ch"),
    ({**BERN, "a": [0.0]}, "a"),
    ({**BERN, "b": float("inf")}, "b"),
    ({"ch": float("nan")}, "ch"),
], ids=["str", "null", "not-a-list", "overflow", "big-int", "nan", "bool", "grid-list", "ch-str",
        "ch-bool", "a-list", "b-inf", "unused-ch-nan"])
def test_config_rejects_non_numeric_values(overrides, key):
    with pytest.raises(ConfigError) as info:
        config(**overrides)
    assert key in str(info.value)


@pytest.mark.parametrize("key, value", [
    ("estimator", ["subgauss"]), ("distribution", 5), ("profile", 7), ("profile", None),
])
def test_config_rejects_non_string_names(key, value):
    # a profile of 7 would otherwise be opened as file descriptor 7
    with pytest.raises(ConfigError, match=key):
        config(**{key: value})


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


def test_sweep_propagates_errors_after_first_trial(monkeypatch):
    # the sweep calls estimators through the harness's global names, so a
    # wrapper patched over one sees every call
    original, calls = harness.subgauss_est, []

    def fails_second_call(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise ValueError("data-dependent failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "subgauss_est", fails_second_call)
    rows = run_sweep(config(trials=3))
    assert next(rows).trial == 0
    with pytest.raises(ValueError, match="data-dependent failure"):
        next(rows)
    assert len(calls) == 2


@pytest.mark.parametrize("name", list(ESTIMATORS))
def test_sweep_runs_every_estimator(name):
    rows = list(run_sweep(estimator_config(name)))
    assert [(row.estimator, row.trial) for row in rows] == [(name, 0)]
    assert rows[0].oracle_experiments > 0
    (rec,) = summarize(rows)
    assert (rec["failure_rate"] is not None) == (ESTIMATORS[name].bound is not None)


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
    # every field of every row, with interrupted rows and an empty rel_error
    budgeted = config(estimator="seq-bern", distribution="point:0", grid={"delta": [0.1]},
                      budget=100, trials=2)
    for cfg in (config(distribution="pareto:2.5:1:16", trials=2), budgeted):
        written = list(run_sweep(cfg))
        buf = io.StringIO()
        write_csv(written, buf)
        read = read_csv(io.StringIO(buf.getvalue()))
        assert read == written
        for row in read:
            for f in fields(SweepRow):
                value = getattr(row, f.name)
                assert value is None or type(value).__name__ in f.type
    assert all(row.interrupted and row.rel_error is None for row in read)


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
