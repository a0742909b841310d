"""Config-driven sweep runner, aggregation and validation utilities.

A sweep crosses a parameter grid with independent trials, one row per
(grid point, trial). Rows are deterministic functions of (config, seed):
every cell owns the random stream derived from its (grid index, trial)
coordinates, so results do not depend on scheduling. Floats are serialized
with 17 significant digits, which makes repeated runs byte-identical.
"""

from __future__ import annotations

import csv
import math
import sys
from collections import namedtuple
from itertools import product
from typing import Callable, Iterator

import numpy as np

from ._record import Record
from .baselines import classical_truncated_mean, empirical_mean, median_of_means
from .dist import FiniteDist, _finite_number, moments, quantile, sample_n, truncated_mean
from .estimators import (
    ConstantProfile,
    EstimateReport,
    bern_est,
    default_profile,
    quantile_est,
    relative_est,
    seq_bern_est,
    seq_relative_est,
    subgauss_est,
)
from .generators import resolve_distribution
from .kernels import SAMPLE_COST, ExperimentCounter, QVar
from .qpe_ref import qpe_statevector_dist, total_variation
from .rng import RandomSource

__all__ = [
    "ConfigError",
    "EstimatorError",
    "SweepConfig",
    "SweepRow",
    "ESTIMATORS",
    "run_sweep",
    "write_csv",
    "read_csv",
    "group_rows",
    "summarize",
    "fit_loglog_slope",
    "verify_ae",
    "VERIFY_AE_AMPLITUDES",
]

# Grid keys in canonical iteration order.
_GRID_KEYS = ("n", "epsilon", "delta", "p")


class ConfigError(ValueError):
    """Invalid sweep configuration."""


class EstimatorError(ValueError):
    """An estimator failed after the first trial of a grid point succeeded."""


class SweepConfig(Record):
    __slots__ = ("estimator", "distribution", "grid", "trials", "seed", "profile", "budget",
                 "ch", "a", "b")

    def __init__(self, estimator: str, distribution: str, grid: dict[str, list[float]],
                 trials: int, seed: int, profile: str = "calibrated", budget: int | None = None,
                 ch: float | None = None, a: float | None = None,
                 b: float | None = None) -> None:
        self.estimator = estimator
        self.distribution = distribution
        self.grid = grid
        self.trials = trials
        self.seed = seed
        self.profile = profile
        self.budget = budget
        self.ch = ch
        self.a = a
        self.b = b
        spec = ESTIMATORS.get(self.estimator) if isinstance(self.estimator, str) else None
        if spec is None:
            raise ConfigError(f"unknown estimator {self.estimator!r}; "
                              f"choose one of {', '.join(ESTIMATORS)}")
        for key in ("distribution", "profile"):
            if not isinstance(getattr(self, key), str):
                raise ConfigError(f"{key} must be a string, got {getattr(self, key)!r}")
        for key, low in (("trials", 1), ("seed", 0), ("budget", 0)):
            value = getattr(self, key)  # bools are not integers here
            if not (key == "budget" and value is None) and (type(value) is not int or value < low):
                raise ConfigError(f"{key} must be an integer >= {low}, got {value!r}")
        if not isinstance(self.grid, dict) or not all(self.grid.values()):
            raise ConfigError("grid must be an object with non-empty value lists")
        for key, values in self.grid.items():
            if key not in _GRID_KEYS:
                raise ConfigError(f"unknown grid key {key!r}")
            if not isinstance(values, list) or not all(map(_finite_number, values)):
                raise ConfigError(f"grid key {key!r} needs a list of finite numbers, "
                                  f"got {values!r}")
        for key in ("ch", "a", "b"):
            value = getattr(self, key)
            if value is not None and not _finite_number(value):
                raise ConfigError(f"{key} must be a finite number, got {value!r}")
        for kind, missing in (("grid", [k for k in spec.grid if k not in self.grid]),
                              ("scalar", [k for k in spec.scalars if getattr(self, k) is None])):
            if missing:
                keys = " and ".join(map(repr, missing))
                plural = "s" if len(missing) > 1 else ""
                raise ConfigError(f"estimator {self.estimator!r} needs {kind} key{plural} {keys}")

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"a config must be an object, got {raw!r}")
        unknown = set(raw) - set(cls.__slots__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"estimator", "distribution", "grid", "trials", "seed"} - set(raw)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        return cls(**raw)


def _float_or_none(text: str) -> float | None:
    return float(text) if text else None


def _bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


# The one declaration of the sweep CSV: each column in order, with the parser
# of its cell text, which raises ValueError on text it cannot read.
CSV_COLUMNS = {
    "estimator": str, "distribution": str, "n": _float_or_none, "epsilon": _float_or_none,
    "delta": _float_or_none, "p": _float_or_none, "trial": int, "estimate": float,
    "true_mean": float, "abs_error": float, "rel_error": _float_or_none,
    "oracle_experiments": int, "aa_applications": int, "interrupted": _bool, "seed": int,
}
CSV_FIELDS = list(CSV_COLUMNS)
NUMERIC_FIELDS = [name for name, parse in CSV_COLUMNS.items() if parse not in (str, _bool)]

SweepRow = namedtuple("SweepRow", CSV_FIELDS)
SweepRow.__doc__ = "One trial of one grid point: a CSV row, its fields in column order."


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _classical(qvar: QVar, n: float, rng: RandomSource, reduce) -> EstimateReport:
    # one random experiment is simulated by a state preparation plus a
    # measurement, SAMPLE_COST oracle experiments per sample; n counts
    # samples, so it must be a whole number >= 1 (100.0 is 100)
    if not (n >= 1 and float(n).is_integer()):
        raise ValueError(f"sample count n must be an integer >= 1, got {n}")
    n = int(n)
    samples = sample_n(qvar.dist, rng, n)
    qvar.counter.charge(n * SAMPLE_COST)
    return EstimateReport(reduce(samples), qvar.counter.snapshot())


# A deviation bound maps (row, dist, profile) to ("abs", v), met when
# abs_error <= v, to ("interval", (lo, hi)), met when lo <= estimate <= hi,
# or to None when no bound applies.

def _relative_bound(row: SweepRow, dist: FiniteDist, profile: ConstantProfile):
    return "abs", row.epsilon * abs(row.true_mean)


def _bern_bound(row: SweepRow, dist: FiniteDist, profile: ConstantProfile):
    # windowed-mean bound with the full-support window (0, max]; sweeps
    # with custom windows should aggregate with --bound none
    b = float(dist.values[-1])
    if b <= 0:
        return None
    mu_ab = truncated_mean(dist, 0.0, b)
    log_term = math.log(1 / row.delta)
    return "abs", math.sqrt(b * mu_ab) * log_term / row.n + b * log_term**2 / row.n**2


class Estimator:
    """How a sweep runs one estimator, and the bound its rows are held to."""

    __slots__ = ("grid", "run", "scalars", "bound")

    def __init__(self, grid: tuple[str, ...], run: Callable[..., EstimateReport],
                 scalars: tuple[str, ...] = (), bound: Callable | None = None):
        self.grid = grid  # grid keys the runner reads
        self.run = run  # (qvar, values, profile, stream)
        self.scalars = scalars  # config keys the runner reads beside them
        self.bound = bound  # (row, dist, profile) -> deviation bound


# The one place a sweep estimator is declared. A runner gets the cell's grid
# and scalar values by key. Runners look estimators up by this module's
# global names at call time, so a wrapper patched over one of those names
# (a tracer's, say) sees every call.
ESTIMATORS: dict[str, Estimator] = {
    "subgauss": Estimator(
        ("n", "delta"),
        lambda qv, v, prof, rng: subgauss_est(qv, v["n"], v["delta"], prof, rng),
        bound=lambda row, dist, prof: (
            "abs", moments(dist).variance**0.5 * math.log(1 / row.delta) / row.n)),
    "relative": Estimator(
        ("epsilon", "delta"),
        lambda qv, v, prof, rng: relative_est(qv, v["ch"], v["epsilon"], v["delta"], prof, rng),
        scalars=("ch",), bound=_relative_bound),
    "seq-relative": Estimator(
        ("epsilon", "delta"),
        lambda qv, v, prof, rng: seq_relative_est(qv, v["epsilon"], v["delta"], prof, rng),
        bound=_relative_bound),
    "bern": Estimator(
        ("n", "delta"),
        lambda qv, v, prof, rng: bern_est(qv, v["n"], v["a"], v["b"], v["delta"], rng),
        scalars=("a", "b"), bound=_bern_bound),
    "quantile": Estimator(
        ("p", "delta"),
        lambda qv, v, prof, rng: quantile_est(qv, v["p"], v["delta"], prof, rng),
        bound=lambda row, dist, prof: ("interval", (
            quantile(dist, row.p), quantile(dist, prof.quantile_order_factor * row.p)))),
    "seq-bern": Estimator(
        (),
        lambda qv, v, prof, rng: seq_bern_est(qv, rng),
        bound=lambda row, dist, prof: ("abs", prof.seq_rel_err * abs(row.true_mean))),
    "median-of-means": Estimator(
        ("n", "delta"),
        lambda qv, v, prof, rng: _classical(
            qv, v["n"], rng, lambda s: median_of_means(s, v["delta"])),
        bound=lambda row, dist, prof: (
            "abs", 2.0 * math.sqrt(moments(dist).variance * math.log(1 / row.delta) / row.n))),
    "empirical": Estimator(
        ("n",),
        lambda qv, v, prof, rng: _classical(qv, v["n"], rng, empirical_mean)),
    "classical-truncated": Estimator(
        ("n",),
        lambda qv, v, prof, rng: _classical(qv, v["n"], rng, lambda s: classical_truncated_mean(
            s, moments(qv.dist).second_moment, len(s)))),
}


def _run_cell(config: SweepConfig, dist: FiniteDist, profile: ConstantProfile,
              params: dict[str, float], stream: RandomSource) -> tuple[float, ExperimentCounter]:
    spec = ESTIMATORS[config.estimator]
    values = {**params, **{key: getattr(config, key) for key in spec.scalars}}
    rep = spec.run(QVar(dist, ExperimentCounter(budget=config.budget)), values, profile, stream)
    return rep.estimate, rep.counter_snapshot


def run_sweep(config: SweepConfig) -> Iterator[SweepRow]:
    """Yield one row per (grid point, trial), in canonical order.

    A grid point whose first trial violates an estimator precondition
    (raises ``ValueError``) is reported once on stderr and skipped; the sweep
    continues. A ``ValueError`` on a later trial stops the sweep as an
    :class:`EstimatorError`.
    """
    dist = resolve_distribution(config.distribution)
    profile = default_profile(config.profile)
    true_mean = moments(dist).mean
    grid_keys = [k for k in _GRID_KEYS if k in config.grid]
    combos = list(product(*(config.grid[k] for k in grid_keys)))
    base = RandomSource(config.seed)
    for gi, combo in enumerate(combos):
        params = dict(zip(grid_keys, combo))
        for trial in range(config.trials):
            stream = base.derive(gi, trial)
            try:
                estimate, snap = _run_cell(config, dist, profile, params, stream)
            except ValueError as exc:
                if trial:
                    raise EstimatorError(f"grid point {params}, trial {trial}: {exc}") from exc
                print(f"skipping grid point {params}: {exc}", file=sys.stderr)
                break
            abs_error = abs(estimate - true_mean)
            rel_error = abs_error / abs(true_mean) if true_mean != 0 else None
            yield SweepRow(
                estimator=config.estimator,
                distribution=config.distribution,
                n=params.get("n"),
                epsilon=params.get("epsilon"),
                delta=params.get("delta"),
                p=params.get("p"),
                trial=trial,
                estimate=estimate,
                true_mean=true_mean,
                abs_error=abs_error,
                rel_error=rel_error,
                oracle_experiments=snap.oracle_experiments,
                aa_applications=snap.aa_applications,
                interrupted=snap.interrupted,
                seed=config.seed,
            )


def write_csv(rows, out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for row in rows:
        writer.writerow([_fmt(getattr(row, name)) for name in CSV_FIELDS])


def read_csv(inp) -> list[SweepRow]:
    """Parse a sweep CSV, refusing a cell its column cannot read by line and column."""
    reader = csv.DictReader(inp, restval="")  # a short row's missing cells are empty
    if missing := [name for name in CSV_FIELDS if name not in (reader.fieldnames or ())]:
        raise ValueError(f"not a sweep CSV: missing columns {', '.join(missing)}")
    rows = []
    for rec in reader:
        cells = []
        for name, parse in CSV_COLUMNS.items():
            try:
                cells.append(parse(rec[name]))
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}, column {name!r}: {exc}") from None
        rows.append(SweepRow(*cells))
    return rows


_GROUP_FIELDS = ("estimator", "distribution", *_GRID_KEYS)


def group_rows(rows) -> dict[tuple, list[SweepRow]]:
    """Rows per (estimator, distribution, grid point), in first-seen order."""
    groups: dict[tuple, list[SweepRow]] = {}
    for row in rows:
        groups.setdefault(tuple(getattr(row, f) for f in _GROUP_FIELDS), []).append(row)
    return groups


def summarize(rows: list[SweepRow], bound: str = "auto",
              profile: ConstantProfile | None = None) -> list[dict]:
    """Aggregate rows per grid point: errors, costs and bound failure rate,
    in records whose keys are the summary's columns, in order.
    """
    if not rows:
        raise ValueError("no rows to summarize")
    if profile is None:
        profile = default_profile("calibrated")
    out = []
    for key, members in group_rows(rows).items():
        errs = np.array([m.abs_error for m in members])
        rec = {
            **dict(zip(_GROUP_FIELDS, key)),
            "trials": len(members),
            "mean_abs_error": float(errs.mean()),
            "p90_abs_error": float(np.percentile(errs, 90)),
            "failure_rate": None,
            "bound": None,
            "mean_oracle": float(np.mean([m.oracle_experiments for m in members])),
            "mean_aa": float(np.mean([m.aa_applications for m in members])),
        }
        error_bound = ESTIMATORS[key[0]].bound if key[0] in ESTIMATORS else None
        if bound == "auto" and error_bound is not None:
            spec = error_bound(members[0], resolve_distribution(key[1]), profile)
            if spec is not None:
                kind, value = spec
                if kind == "abs":
                    fails = sum(m.abs_error > value for m in members)
                    rec["bound"] = value
                else:
                    lo, hi = value
                    fails = sum(not lo <= m.estimate <= hi for m in members)
                    rec["bound"] = hi
                rec["failure_rate"] = fails / len(members)
        out.append(rec)
    return out


def fit_loglog_slope(points) -> float:
    """Least-squares slope of ln(error) against ln(cost)."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points, got {len(pts)}")
    if bad := [pt for pt in pts if not all(map(math.isfinite, pt))]:
        raise ValueError(f"coordinates must be finite for a log-log fit, got {bad[0]}")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ValueError("coordinates must be positive for a log-log fit")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    return float(np.polyfit(lx, ly, 1)[0])


# Amplitude panel for kernel validation: degenerate, on-grid for power-of-two
# registers, and generic off-grid values.
VERIFY_AE_AMPLITUDES = tuple(
    round(v, 17)
    for v in (
        0.0,
        1.0,
        0.5,
        0.25,
        0.75,
        0.1,
        0.9,
        0.3,
        0.7,
        0.05,
        0.95,
        0.01,
        0.99,
        1e-4,
        1 - 1e-4,
        math.sin(math.pi / 8) ** 2,
        math.sin(math.pi / 16) ** 2,
        math.sin(3 * math.pi / 8) ** 2,
        0.36,
        0.64,
    )
)


def verify_ae() -> dict:
    """Compare the closed-form estimation law to the statevector reference.

    Sweeps register sizes {2, 4, 8, 16, 32} crossed with the 20-amplitude
    panel; returns the worst total-variation distance and the per-case table.
    """
    from .kernels import ae_outcome_dist

    cases = []
    worst = 0.0
    for m in (2, 4, 8, 16, 32):
        for p in VERIFY_AE_AMPLITUDES:
            tv = total_variation(ae_outcome_dist(p, m), qpe_statevector_dist(p, m))
            cases.append({"M": m, "p": p, "tv": tv})
            worst = max(worst, tv)
    return {"max_tv": worst, "cases": cases}
