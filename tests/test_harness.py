import io
import math
import pickle

import pytest

import qmeansim.harness as harness
from qmeansim import (
    ConfigError,
    EstimateReport,
    SweepConfig,
    default_profile,
    fit_loglog_slope,
    run_sweep,
    summarize,
    verify_ae,
    write_csv,
)
from qmeansim.generators import resolve_distribution
from qmeansim.harness import CSV_FIELDS, ESTIMATORS, read_csv
from qmeansim.kernels import ExperimentCounter, QVar
from qmeansim.rng import RandomSource


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
    spec = ESTIMATORS[name]
    raw = {
        "estimator": name,
        "distribution": "bernoulli:0.4",
        "grid": {key: FULL_GRID[key] for key in spec.grid if key != drop},
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


@pytest.mark.parametrize("profile", ["calibrated", "theoretical"])
def test_sweep_seq_relative_keeps_large_supports(profile, capsys):
    # the variance probe reads Var(X) off the law, so a support past the
    # 20,000 atoms of the pairwise-difference transform still yields rows
    cfg = config(estimator="seq-relative", distribution="uniform:0..1:30000",
                 grid={"epsilon": [0.3], "delta": [0.3]}, trials=1, profile=profile)
    rows = list(run_sweep(cfg))
    assert [(row.epsilon, row.trial, row.interrupted) for row in rows] == [(0.3, 0, False)]
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


@pytest.mark.parametrize("est", ["empirical", "median-of-means", "classical-truncated"])
def test_sweep_classical_refuses_fractional_and_small_n(est, capsys):
    # n counts samples: 0.5 and 2.5 are skipped as precondition failures
    # before any sample or charge, and 100.0 runs as 100
    cfg = config(estimator=est, distribution="pareto:2.5:1:64",
                 grid={"n": [0.5, 2.5, 100.0], "delta": [0.1]}, trials=2)
    rows = list(run_sweep(cfg))
    assert [(row.n, row.oracle_experiments) for row in rows] == [(100.0, 200)] * 2
    assert capsys.readouterr().err.count("must be an integer >= 1") == 2
    spec, rng = ESTIMATORS[est], RandomSource(1)
    qvar = QVar(resolve_distribution("bernoulli:0.3"), ExperimentCounter())
    for n in (0.5, 0, -2.0, 2.5):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            spec.run(qvar, {"n": n, "delta": 0.1}, None, rng)
    assert qvar.counter == ExperimentCounter()
    assert rng.gen.random() == RandomSource(1).gen.random()


def test_sweep_without_grid_keys_is_one_grid_point():
    # seq-bern reads no grid key, so an empty grid crosses to one grid point
    cfg = config(estimator="seq-bern", distribution="bernoulli:0.3", grid={}, trials=2)
    rows = list(run_sweep(cfg))
    assert [(row.trial, row.n, row.delta) for row in rows] == [(0, None, None), (1, None, None)]


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


def test_records_survive_pickling():
    # multiprocessing pools pass records between processes
    rows = list(run_sweep(config(trials=2)))
    counter = ExperimentCounter(7, 4, 10, True)
    report = EstimateReport(1.5, counter, {"stage": 7}, ["stage"])
    for record in (config(), rows[0], counter, report, default_profile("calibrated")):
        assert pickle.loads(pickle.dumps(record)) == record
    dist = resolve_distribution("pareto:2.5:1:16")
    tail = dist._tail.tolist()  # a cached table travels with the law
    back = pickle.loads(pickle.dumps(dist))
    assert (back.values.tolist(), back.probs.tolist()) == (dist.values.tolist(),
                                                           dist.probs.tolist())
    assert "_tail" in vars(back) and back._tail.tolist() == tail
    rng = pickle.loads(pickle.dumps(RandomSource(5, (1, 2))))
    assert (rng.seed, rng.stream) == (5, (1, 2))
    assert rng.gen.random() == RandomSource(5, (1, 2)).gen.random()


def test_csv_header_is_frozen():
    # the columns of every sweep CSV, in the order CSV_COLUMNS declares them
    assert ",".join(CSV_FIELDS) == (
        "estimator,distribution,n,epsilon,delta,p,trial,estimate,true_mean,abs_error,"
        "rel_error,oracle_experiments,aa_applications,interrupted,seed")


def test_csv_roundtrip():
    text = csv_text(config(trials=2))
    assert text.splitlines()[0] == ",".join(CSV_FIELDS)
    rows = read_csv(io.StringIO(text))
    assert len(rows) == 2
    assert rows[0].estimate == 5.0
    assert rows[0].n == 32.0
    assert rows[0].epsilon is None
    # every field of every row, with interrupted rows and an empty rel_error,
    # and each cell of the type its column reads to
    kinds = "str str float float float float int float float float float int int bool int".split()
    budgeted = config(estimator="seq-bern", distribution="point:0", grid={"delta": [0.1]},
                      budget=100, trials=2)
    for cfg in (config(distribution="pareto:2.5:1:16", trials=2), budgeted):
        written = list(run_sweep(cfg))
        buf = io.StringIO()
        write_csv(written, buf)
        read = read_csv(io.StringIO(buf.getvalue()))
        assert read == written
        for row in read:
            for kind, value in zip(kinds, row, strict=True):
                assert value is None or type(value).__name__ == kind
    assert all(row.interrupted and row.rel_error is None for row in read)


@pytest.mark.parametrize("column, text, message", [
    ("interrupted", "True", "expected true or false, got 'True'"),
    ("interrupted", "1", "expected true or false, got '1'"),
    ("interrupted", "maybe", "expected true or false, got 'maybe'"),
    ("interrupted", "", "expected true or false, got ''"),
    ("trial", "1e2", "invalid literal for int() with base 10: '1e2'"),
    ("estimate", "", "could not convert string to float: ''"),
    ("n", "x", "could not convert string to float: 'x'"),
])
def test_read_csv_refuses_malformed_cells(column, text, message):
    # a cell its column cannot read is refused by line and column
    lines = csv_text(config(trials=2)).splitlines()
    cells = lines[2].split(",")
    cells[CSV_FIELDS.index(column)] = text
    lines[2] = ",".join(cells)
    with pytest.raises(ValueError) as info:
        read_csv(io.StringIO("\n".join(lines) + "\n"))
    assert str(info.value) == f"line 3, column {column!r}: {message}"


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
    rows[0] = rows[0]._replace(abs_error=10.0)  # synthetic failure
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


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_fit_loglog_slope_refuses_non_finite_points(bad):
    # ln(inf) would make the fit NaN, and NaN passes the positivity check
    for pts in ([(1, 1), (2, bad), (3, 3)], [(1, 1), (bad, 2), (3, 3)]):
        with pytest.raises(ValueError, match="coordinates must be finite for a log-log fit"):
            fit_loglog_slope(pts)


# -- kernel validation ----------------------------------------------------------------

def test_verify_ae_small():
    report = verify_ae()
    assert report["max_tv"] <= 1e-9
    assert len(report["cases"]) == 100  # 5 register sizes x 20 amplitudes
