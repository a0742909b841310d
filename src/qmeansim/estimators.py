"""Mean and quantile estimators built on the amplification kernels.

Six estimation routines are provided:

* :func:`quantile_est` -- budget-interrupted chains of conditional samples
  whose last completed value brackets a target tail quantile;
* :func:`bern_est` -- amplitude estimation of a windowed mean
  E[X 1{a < X <= b}] read off a rotation-oracle amplitude;
* :func:`subgauss_est` -- the sub-Gaussian mean estimator: a classical
  median shift, one quantile estimate per sign, and a ladder of dyadic
  windowed-mean estimates read off one prefix sum, of which
  :func:`bern_est` is the one-window case;
* :func:`relative_est` -- the sub-Gaussian estimator parametrized for a
  target relative error given a bound on the coefficient of variation;
* :func:`seq_bern_est` -- the rough sequential mean of a [0, 1]-valued input;
* :func:`seq_relative_est` -- the parameter-free sequential relative
  estimator for [0, 1]-valued inputs (rough sequential estimate, stopped
  variance probe, refined sub-Gaussian pass, outer median).

Every routine returns an :class:`EstimateReport` whose per-stage oracle
costs add up exactly to the counter movement of the call. A windowed-mean
ladder is charged when the schedule reaches it and drawn at the end: the
windows of nonzero amplitude of every ladder of a top-level estimate are
drawn in one amplitude-estimation call, from a stream derived once per
call, so no ladder moves the main stream.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field, fields, asdict
from importlib import resources

import numpy as np

from .dist import FiniteDist, _finite_number, sample_idx, truncated_mean
from .kernels import (
    MEASURE_COST,
    SAMPLE_COST,
    ExperimentCounter,
    QVar,
    ae_register,
    aest_charge,
    aest_median,
    amplify_chain,
    lower_median,
    seq_aamp_law,
    seq_aest,
)
from .rng import RandomSource

__all__ = [
    "ConstantProfile",
    "EstimateReport",
    "cond_sample_above",
    "quantile_est",
    "bern_est",
    "subgauss_est",
    "relative_est",
    "seq_bern_est",
    "seq_relative_est",
    "calibrate_constants",
    "theoretical_profile",
    "default_profile",
]

# Desk-scale time factors of calibrated profiles. The worst-case couplings
# (layer factor 600/sqrt(quantile_order_factor), refinement factor
# 4(1+c)/sqrt(1-c)) come to about 18000 and 100 on the calibrated constants,
# multiplying the simulated cost of those stages by thousands and by about
# 13 for accuracy the target tolerances do not need, so calibrated profiles
# take fixed factors validated by the statistical acceptance suite.
# Theoretical profiles take the couplings.
_DESK_LAYER_TIME_FACTOR = 2.0
_DESK_REFINE_TIME_FACTOR = 8.0

# Refinement time parameters are clamped here: the rough sequential estimate
# occasionally lands orders of magnitude below the true mean, and the
# resulting refinement would multiply the simulated cost while adding no
# accuracy the target tolerance needs.
_MAX_REFINE_TIME = 65536.0

# The stage names of quantile_est's repetitions, formatted once: enough for
# any failure probability down to about 6e-8, ceil(6 log(1/delta)) <= 100.
_REPETITIONS = tuple(f"repetition_{i:02d}" for i in range(100))

# The two parts of the sub-Gaussian split about eta, max(X - eta, 0) and
# max(eta - X, 0), read off the laws of X and -X at shifts eta and -eta: the
# stage names of their quantile and ladder, and the sign of their ladder sum.
_PARTS = (("quantile_pos", "layers_pos", 1.0), ("quantile_neg", "layers_neg", -1.0))


@dataclass
class ConstantProfile:
    """Universal constants steering budgets and time parameters.

    A profile is set by five base constants and its mode. The five
    schedule constants are derived at construction from their couplings,
    except that ``mode = "calibrated"`` profiles take fixed desk-scale
    layer and refinement time factors.

    Base, as calibrate_constants reads them off the exact law of a draw:
      sampler_low_coeff / sampler_mean_coeff: lower/upper coefficients for
        the conditional sampler's experiment count T: the 10th percentile of
        T stays above low/sqrt(tail) while E[T] <= mean/sqrt(tail).
      seq_rel_err: relative-error level, below 1, of the sequential rough
        estimator (holds with probability >= 7/8).
      seq_cost_sq_coeff: E[T^2] = E[1/p_tilde] <= coeff / p for the
        sequential estimator.
      seq_sqrt_coeff: E[sqrt(p_tilde)] = E[1/T] <= coeff * sqrt(p).

    Derived:
      quantile_order_factor: factor c = low^2/(mean^2*sqrt(191)) < 1 such
        that a quantile estimate of order p lands in [Q(p), Q(c*p)] with
        high probability.
      quantile_budget_coeff: 190*mean; the per-repetition experiment cap is
        ceil(coeff / sqrt(p)) in the quantile estimator.
      layer_time_factor: 600/sqrt(c), or 2 when calibrated; multiplier on
        the per-layer time parameter of the sub-Gaussian estimator's
        windowed-mean ladder.
      probe_budget_coeff: 16*seq_cost_sq_coeff*sqrt(1 + seq_rel_err); stop
        coefficient for the sequential estimator's variance probe,
        cap = ceil(coeff / sqrt(eps * mu_rough)).
      refine_time_coeff: 4(1 + seq_rel_err)/sqrt(1 - seq_rel_err), or 8
        when calibrated; multiplier on the refinement time parameter of the
        sequential relative estimator.

    Every log(1/delta) is natural; the dyadic ladder depth is base 2.
    """

    sampler_low_coeff: float
    sampler_mean_coeff: float
    seq_rel_err: float
    seq_cost_sq_coeff: float
    seq_sqrt_coeff: float
    mode: str = "calibrated"
    quantile_order_factor: float = field(init=False)
    quantile_budget_coeff: float = field(init=False)
    layer_time_factor: float = field(init=False)
    probe_budget_coeff: float = field(init=False)
    refine_time_coeff: float = field(init=False)

    def __post_init__(self) -> None:
        for f in fields(self):
            if not f.init or f.name == "mode":
                continue
            value = getattr(self, f.name)
            if not (_finite_number(value) and value > 0):
                raise ValueError(f"{f.name} must be a finite positive number, got {value!r}")
        if not self.sampler_low_coeff < self.sampler_mean_coeff:
            raise ValueError("sampler_low_coeff must be below sampler_mean_coeff")
        if not self.seq_rel_err < 1:
            raise ValueError(f"seq_rel_err must be below 1, got {self.seq_rel_err!r}")
        if self.mode not in ("theoretical", "calibrated"):
            raise ValueError(f"unknown profile mode {self.mode!r}")
        err, low, mean = self.seq_rel_err, self.sampler_low_coeff, self.sampler_mean_coeff
        # products overflow to inf and c underflows to 0, refused before 600/sqrt(c)
        c = low * low / (mean * mean * math.sqrt(191) or math.inf)
        self.quantile_order_factor = c
        self.quantile_budget_coeff = 190 * mean
        self.probe_budget_coeff = 16 * self.seq_cost_sq_coeff * math.sqrt(1 + err)
        for name in ("quantile_order_factor", "quantile_budget_coeff", "probe_budget_coeff"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} = {getattr(self, name)!r} must be finite and positive")
        if self.mode == "theoretical":
            self.layer_time_factor = 600 / math.sqrt(c)
            self.refine_time_coeff = 4 * (1 + err) / math.sqrt(1 - err)
        else:
            self.layer_time_factor = _DESK_LAYER_TIME_FACTOR
            self.refine_time_coeff = _DESK_REFINE_TIME_FACTOR

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ConstantProfile":
        """Parse a profile; a derived constant may be stated but must match."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"malformed profile: expected an object, got {data!r}")
        stated = {f.name: data.pop(f.name) for f in fields(cls) if not f.init and f.name in data}
        try:
            profile = cls(**data)
        except TypeError as exc:  # a missing or unknown key
            raise ValueError(f"malformed profile: {exc}") from exc
        for name, value in stated.items():
            want = getattr(profile, name)
            if not (_finite_number(value) and math.isclose(value, want, rel_tol=1e-9)):
                raise ValueError(f"{name} = {value!r} does not match the value "
                                 f"{want!r} derived from the profile's constants")
        return profile


def theoretical_profile() -> ConstantProfile:
    """Worst-case profile with the coupling identities intact.

    The base coefficients are conservative placeholders (the true universal
    constants are existential); the resulting time parameters are far too
    large to run, so this profile serves structural and accounting checks.
    """
    return ConstantProfile(sampler_low_coeff=0.1, sampler_mean_coeff=20.0, seq_rel_err=0.95,
                           seq_cost_sq_coeff=5e4, seq_sqrt_coeff=10.0, mode="theoretical")


def default_profile(spec: str = "calibrated") -> ConstantProfile:
    """Resolve a profile: "calibrated" (packaged data), "theoretical", or the
    path of a profile JSON file."""
    if spec == "theoretical":
        return theoretical_profile()
    if spec == "calibrated":
        return ConstantProfile.from_json(
            resources.files("qmeansim.data").joinpath("calibrated.json").read_text())
    with open(spec) as fh:
        return ConstantProfile.from_json(fh.read())


@dataclass
class EstimateReport:
    estimate: float
    counter_snapshot: ExperimentCounter
    stage_costs: dict[str, int] = field(default_factory=dict)
    interrupted_stages: list[str] = field(default_factory=list)


class _StageTracker:
    """Accumulates per-stage oracle deltas against a live counter."""

    def __init__(self, counter: ExperimentCounter):
        self.counter = counter
        self.base_oracle = counter.oracle_experiments
        self.base_aa = counter.aa_applications
        self.costs: dict[str, int] = {}
        self.interrupted: list[str] = []
        self._mark = counter.oracle_experiments

    def close(self, name: str) -> None:
        spent = self.counter.oracle_experiments - self._mark
        self.costs[name] = self.costs.get(name, 0) + spent
        if self.counter.interrupted and name not in self.interrupted:
            self.interrupted.append(name)
        self._mark = self.counter.oracle_experiments

    def report(self, estimate: float) -> EstimateReport:
        snap = ExperimentCounter(
            oracle_experiments=self.counter.oracle_experiments - self.base_oracle,
            aa_applications=self.counter.aa_applications - self.base_aa,
            budget=self.counter.budget,
            interrupted=self.counter.interrupted,
        )
        return EstimateReport(
            estimate=float(estimate),
            counter_snapshot=snap,
            stage_costs=dict(self.costs),
            interrupted_stages=list(self.interrupted),
        )


def cond_sample_above(
    qvar: QVar, x: float, rng: RandomSource
) -> tuple[float | None, int]:
    """Draw from the distribution of X conditioned on X > x.

    One step of a quantile chain: amplifies the tail event through the
    comparison-oracle walk (WALK_COST = 2 oracle experiments per application) in
    :func:`~qmeansim.kernels.amplify_chain`, on the distribution's cached
    chain laws, and reads the value out with one final measurement. Returns
    ``(value, oracle_cost)``; the value is ``None`` when the counter's budget
    ran out first. An empty conditional (zero tail) consumes the entire
    remaining budget. The draw follows the law of
    :func:`~qmeansim.dist.conditional_above`.
    """
    d, counter = qvar.dist, qvar.counter
    k = int(np.searchsorted(d.values, x, side="right"))
    (end,), oracle, aa, _ = amplify_chain(*d._chain, k, [counter.remaining()], rng.gen, [], 1)
    counter.charge(oracle, aa)
    return (None if end == k else float(d.values[end - 1])), oracle


def quantile_est(
    qvar: QVar, p: float, delta: float, profile: ConstantProfile, rng: RandomSource,
    shift: float | None = None,
) -> EstimateReport:
    """Estimate the order-p tail quantile within a constant order factor.

    Runs ceil(6*log(1/delta)) independent repetitions. Each starts a chain
    at -inf, repeatedly replaces the current value by a conditional sample
    above it, and keeps the last completed value when the per-repetition
    budget of ceil(quantile_budget_coeff / sqrt(p)) oracle experiments runs
    out. The median of the repetitions lands in [Q(p), Q(c*p)] with
    probability at least 1 - delta, c the profile's order factor. A
    repetition ends only when its budget is spent, so the caps are known
    before any runs: the per-repetition budget until the counter's remainder
    runs out. All run in one :func:`~qmeansim.kernels.amplify_chain` call on
    the distribution's cached chain laws, charged once; each cap is the cost
    of its stage ``repetition_ii``, and each end value is read off the
    support.

    With ``shift``, it estimates the part max(X - shift, 0) off X's laws:
    X's atoms up to the shift make its atom 0, read as exactly 0 when the
    shift is one of them; the part below eta is that of -X at -eta.

    Under the calibrated profile the chains of fine laws climb to the top
    atom, above Q(c*p), as README's known limits of that profile record.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile order must be in (0, 1), got {p}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"failure probability must be in (0, 1), got {delta}")
    reps = math.ceil(6 * math.log(1.0 / delta))
    per_rep_budget = math.ceil(profile.quantile_budget_coeff / math.sqrt(p))
    counter = qvar.counter
    base_oracle, base_aa = counter.oracle_experiments, counter.aa_applications
    rem = counter.remaining()
    # the repetition that spends the remainder trips the counter and is the
    # last; with nothing left, one repetition runs at cap 0
    full, last = (reps, 0) if rem is None else divmod(min(rem, per_rep_budget * reps),
                                                      per_rep_budget)
    caps = [per_rep_budget] * full + ([last] if last or not full else [])
    d = qvar.dist
    floor = 0 if shift is None else int(np.searchsorted(d.values, shift, side="right")) - 1
    ends, _, aa, _ = amplify_chain(*d._chain, 0, caps, rng.gen, [], math.inf, floor)
    counter.charge(sum(caps), aa)
    names = (_REPETITIONS if len(caps) <= len(_REPETITIONS)
             else [f"repetition_{i:02d}" for i in range(len(caps))])
    # the median end k reads atom k - 1 less the shift, or -inf at k = 0; the
    # stage records as a _StageTracker would close them, built at once
    return EstimateReport(
        float(d.values[k - 1] - (shift or 0.0)) if (k := lower_median(ends)) else -math.inf,
        ExperimentCounter(counter.oracle_experiments - base_oracle,
                          counter.aa_applications - base_aa, counter.budget, counter.interrupted),
        dict(zip(names, caps)), [names[len(caps) - 1]] if counter.interrupted else [])


def _part_windows(d: FiniteDist, edges: np.ndarray, shift: float) -> tuple[list, np.ndarray]:
    # Windows (edges[i], edges[i+1]] of the part max(X - shift, 0), X = d, for
    # increasing edges >= 0: per edge the count of atoms v with fl(v - shift)
    # <= edge, in O(log support), and per window the sum of (v - shift) P[v].
    vp, ps = d._sums
    idx = [bisect_right(d.values, e, key=lambda v: v - shift) for e in edges.tolist()]
    v, q = vp[idx], ps[idx]
    return idx, (v[1:] - v[:-1]) - shift * (q[1:] - q[:-1])


class _Ladders:
    """The windowed-mean ladders of one top-level estimate.

    A ladder's charge depends only on its register, its copy count, its
    number of windows and the counter's remainder, and no later stage reads
    its draws, only the returned estimate does. So :meth:`add` charges a
    ladder when the schedule reaches it and records it, and :meth:`sums`
    draws every recorded window of nonzero amplitude at the end, from a
    stream derived once per top-level estimate.
    """

    def __init__(self) -> None:
        self._ladders: list[tuple[np.ndarray, int, int, np.ndarray, int]] = []

    def add(self, qvar: QVar, edges: np.ndarray, register: tuple[int, int], sign: float,
            term: int, shift: float) -> None:
        # Each window mean of _part_windows is exposed as the amplitude mean/b,
        # estimated on the (M, copies) register and scaled back by sign*b
        # into the sum of term `term`.
        _, means = _part_windows(qvar.dist, edges, shift)
        amplitudes = np.minimum(np.maximum(means / edges[1:], 0.0), 1.0)
        m, copies = register
        aest_charge(m, amplitudes.size * copies, qvar.counter)
        self._ladders.append((amplitudes, m, copies, sign * edges[1:], term))

    def sums(self, terms: int, rng: RandomSource) -> np.ndarray:
        """Per term 0..terms-1, the sum of its ladders' scaled estimates,
        every window of nonzero amplitude drawn in one amplitude-estimation
        call; an empty window reads exactly 0, so none is drawn."""
        if not self._ladders:
            return np.zeros(terms)
        amplitudes, ms, copies, scales, owners = zip(*self._ladders)
        ps = np.concatenate(amplitudes)
        live = np.flatnonzero(ps)
        if not live.size:
            return np.zeros(terms)
        ladder = np.repeat(np.arange(len(ms)), [a.size for a in amplitudes])[live]
        medians = aest_median(ps[live], np.take(ms, ladder), np.take(copies, ladder), rng.derive(1))
        return np.bincount(np.take(owners, ladder), np.concatenate(scales)[live] * medians, terms)


def bern_est(
    qvar: QVar,
    n: float,
    a: float,
    b: float,
    delta: float,
    rng: RandomSource,
) -> EstimateReport:
    """Estimate the windowed mean E[X 1{a < X <= b}] by amplitude estimation.

    The rotation-oracle walk exposes the windowed mean as the amplitude
    mu_{a,b}/b; the returned estimate is b times the median of
    ceil(6*log(1/delta)) amplitude estimations, each on an
    M = ceil(2*pi*n/log(1/delta)) point register. With probability 1 - delta
    the error is at most sqrt(b*mu_{a,b})*log(1/delta)/n + b*log(1/delta)^2/n^2.
    Requires 0 <= a < b (the degenerate empty window a = b = 0 returns 0 at
    no cost) and n >= log(1/delta). This is the one-window case of the
    ladders :func:`subgauss_est` estimates, charged and then drawn once.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"failure probability must be in (0, 1), got {delta}")
    if a == 0.0 and b == 0.0:
        return _StageTracker(qvar.counter).report(0.0)
    if not (0.0 <= a < b):
        raise ValueError(f"need 0 <= a < b, got a={a}, b={b}")
    register = ae_register(n, delta)
    tracker = _StageTracker(qvar.counter)
    ladders = _Ladders()
    ladders.add(qvar, np.array([a, b], dtype=float), register, 1.0, 0, 0.0)
    tracker.close("amplitude_estimation")
    return tracker.report(ladders.sums(1, rng)[0])


def _subgauss(qvar: QVar, n: float, delta: float, profile: ConstantProfile, rng: RandomSource,
              ladders: _Ladders, term: int) -> tuple[_StageTracker, float]:
    # subgauss_est up to its draws: charges every stage, adds each part's
    # ladder to `ladders` under `term`, and returns the stage tracker and the
    # classical shift, to which the term's ladder sum adds
    if not 0.0 < delta < 1.0:
        raise ValueError(f"failure probability must be in (0, 1), got {delta}")
    log_term = math.log(1.0 / delta)
    if n < log_term:
        raise ValueError(f"time parameter {n} below log(1/delta) = {log_term:.3f}")
    if not n <= 2.0**1023:
        raise ValueError(f"time parameter {n} does not round up to a power of two "
                         "within the float range")
    # the time parameter rounded up to a power of two n2 = 2^k, up to round-off
    k = max(math.ceil(math.log2(n) - 1e-12), 0)
    n2 = 2.0**k
    ladder_depth = max(k, 1)  # a k = 0 request collapses to a single layer
    layer_delta = delta / (9 * ladder_depth)
    layer_time = (
        profile.layer_time_factor
        * n2
        * math.sqrt(ladder_depth)
        * math.log(9 * ladder_depth / delta)
        / log_term
    )
    register = ae_register(layer_time, layer_delta)
    quantile_order = (log_term / (6 * n2)) ** 2
    steps = np.ldexp(1.0, np.arange(-k - 1, 1))  # 0, then 2^l / n2 for l = 0..k
    steps[0] = 0.0

    tracker = _StageTracker(qvar.counter)

    shots = math.ceil(30 * math.log(2.0 / delta))
    qvar.counter.charge(shots * SAMPLE_COST)
    # the lower median of the samples, read off that of their support indices
    mid = (shots - 1) // 2
    d = qvar.dist
    eta = float(d.values[np.partition(sample_idx(d, rng, shots), mid)[mid]])
    tracker.close("classical_median")

    for (quantile_stage, layers_stage, sign), law, shift in zip(_PARTS, (d, d._mirror),
                                                                 (eta, -eta)):
        part_var = QVar(law, qvar.counter)
        qrep = quantile_est(part_var, quantile_order, delta / 8, profile, rng, shift)
        # budget-starved repetitions report -inf; the support is non-negative
        q_top = max(qrep.estimate, 0.0)
        tracker.close(quantile_stage)

        if q_top > 0.0:
            ladders.add(part_var, q_top * steps, register, sign, term, shift)
        tracker.close(layers_stage)
        if qvar.counter.interrupted:
            break
    return tracker, eta


def subgauss_est(
    qvar: QVar, n: float, delta: float, profile: ConstantProfile, rng: RandomSource
) -> EstimateReport:
    """Sub-Gaussian mean estimator: error sigma*log(1/delta)/n w.p. 1 - delta.

    Stages: (1) shift by the median of ceil(30*log(2/delta)) classical
    samples, SAMPLE_COST = 2 oracle experiments each; (2) split about the shift into two
    non-negative parts; (3) per part, estimate the tail quantile Q of order
    (log(1/delta)/(6n))^2, then sum windowed-mean estimates over the dyadic
    ladder a_l = 2^l * Q / n for l = 0..log2(n), each with failure share
    delta/(9*log2(n)) and time parameter
    layer_time_factor * n * sqrt(log2 n) * log(9k/delta)/log(1/delta).
    A part with Q = 0 costs nothing. The time parameter is rounded up to the
    next power of two. Each part's ladder is charged when the schedule
    reaches it; both are drawn at the end in one amplitude-estimation call,
    empty windows excepted, from a stream derived from ``rng``, so the
    draws never move ``rng``.
    """
    ladders = _Ladders()
    tracker, eta = _subgauss(qvar, n, delta, profile, rng, ladders, 0)
    return tracker.report(eta + ladders.sums(1, rng)[0])


def relative_est(
    qvar: QVar,
    ch: float,
    eps: float,
    delta: float,
    profile: ConstantProfile,
    rng: RandomSource,
) -> EstimateReport:
    """Relative-error mean estimate given a coefficient-of-variation bound.

    Delegates to the sub-Gaussian estimator with time parameter
    (ch/eps)*log(1/delta); the caller asserts ch >= |sigma/mu|.
    """
    if ch <= 0:
        raise ValueError(f"coefficient-of-variation bound must be positive, got {ch}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"relative error must be in (0, 1), got {eps}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"failure probability must be in (0, 1), got {delta}")
    n = (ch / eps) * math.log(1.0 / delta)
    return subgauss_est(qvar, n, delta, profile, rng)


def _unit_mean(qvar: QVar) -> float:
    # Mean of a [0, 1]-valued input; a zero mean never stops without a budget.
    d = qvar.dist
    if float(d.values[0]) < 0.0 or float(d.values[-1]) > 1.0:
        raise ValueError("support must lie in [0, 1]")
    mu = truncated_mean(d, 0.0, 1.0)
    if mu == 0.0 and qvar.counter.budget is None:
        raise ValueError("zero mean never terminates; a budget is required")
    return mu


def seq_bern_est(qvar: QVar, rng: RandomSource) -> EstimateReport:
    """Sequential rough mean estimate for a [0, 1]-valued distribution.

    Reads the mean off a sequential amplitude estimation of the rotation
    walk: constant relative error with probability >= 7/8, expected cost
    O(1/sqrt(mean)). A zero mean requires a budget; the run then exhausts it
    and reports estimate 0 with the interrupted flag.
    """
    mu = _unit_mean(qvar)
    tracker = _StageTracker(qvar.counter)
    estimate, _ = seq_aest(mu, rng, qvar.counter)
    tracker.close("sequential_estimation")
    return tracker.report(estimate)


def seq_relative_est(
    qvar: QVar,
    eps: float,
    delta: float,
    profile: ConstantProfile,
    rng: RandomSource,
) -> EstimateReport:
    """Parameter-free (eps, delta) relative-error estimator on [0, 1].

    Runs ceil(32*log(1/delta)) repetitions of: a rough sequential mean
    estimate; a sequential estimate of the mean of the half squared
    difference (X - X')^2/2 of an independent pair, stopped after
    ceil(probe_budget_coeff/sqrt(eps*mu_rough)) experiments; a sub-Gaussian
    refinement with time parameter
    refine_time_coeff * max(sqrt(var_probe), sqrt(eps*mu_rough)) / (eps*mu_rough)
    and fixed failure 1/16. The output is the median of the refinements.
    The probe amplifies the pair's half squared difference, whose mean,
    Var(X), is read off the law in one pass; the pair law is never built.
    A repetition whose rough stage was interrupted contributes 0. Every
    stage charges the caller's counter. The probe's cap is the smaller of
    its stop budget and the counter's remainder; a probe that spends its
    whole cap counts as stopped and gives var_probe = 0. Each refinement's
    ladders are charged when the schedule reaches them; the ladders of all
    refinements are drawn at the end in one amplitude-estimation call, from
    a stream derived from ``rng``, and only then is each refinement's
    estimate formed.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"relative error must be in (0, 1), got {eps}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"failure probability must be in (0, 1), got {delta}")
    mu = _unit_mean(qvar)
    var = float(np.dot(qvar.dist.probs, np.square(qvar.dist.values - mu)))
    reps = math.ceil(32 * math.log(1.0 / delta))
    counter = qvar.counter
    tracker = _StageTracker(counter)
    ladders = _Ladders()
    # per repetition its classical shift, to which its ladders add, or 0
    outputs: list[float] = []
    for _ in range(reps):
        mu_rough, _ = seq_aest(mu, rng, counter)
        tracker.close("rough_mean")
        if mu_rough <= 0.0:
            # exhausted rough stage: this repetition votes 0
            outputs.append(0.0)
            continue

        # the probe: one sequential amplification of the pair's mean Var(X),
        # read as 1/T^2 off its T amplification steps, as seq_aest reads it
        cap = math.ceil(profile.probe_budget_coeff / math.sqrt(eps * mu_rough))
        rem = counter.remaining()
        if rem is not None:
            cap = min(cap, rem)
        (k,), oracle, aa, _ = amplify_chain(None, [var], 0, [cap], rng.gen, [], 1)
        counter.charge(oracle, aa)
        tracker.close("variance_probe")
        var_probe = 1.0 / (aa * aa) if k == 1 and oracle < cap else 0.0

        n_refine = profile.refine_time_coeff * max(
            math.sqrt(var_probe) / (eps * mu_rough),
            1.0 / math.sqrt(eps * mu_rough),
        )
        n_refine = min(n_refine, _MAX_REFINE_TIME)
        _, eta = _subgauss(qvar, n_refine, 1.0 / 16.0, profile, rng, ladders, len(outputs))
        tracker.close("refinement")
        outputs.append(eta)
        if counter.interrupted:
            break
    estimates = np.add(outputs, ladders.sums(len(outputs), rng))
    return tracker.report(lower_median(estimates.tolist()))


def calibrate_constants(grid) -> ConstantProfile:
    """Read the sequential-amplification constants off the exact law of a draw.

    For every tail probability p in ``grid``, each in [1e-9, 1], the law of
    one uncapped draw, :func:`~qmeansim.kernels.seq_aamp_law`, gives the
    conditional sampler's cost T in oracle experiments, the closing readout
    included, and its T_aa amplification steps. The profile records:

    * sampler_mean_coeff: max over the grid of sqrt(p) * E[T];
    * sampler_low_coeff: min over the grid of sqrt(p) * lower 10% quantile of T;
    * the sequential-estimation envelopes seq_rel_err (worst lower
      7/8-quantile of |1/T_aa^2 - p|/p, at most 0.999), seq_cost_sq_coeff
      (worst p*E[T_aa^2]) and seq_sqrt_coeff (worst E[1/T_aa]/sqrt(p)).

    The profile derives its schedule constants from these (see
    :class:`ConstantProfile`). The result is exact and depends on the grid
    alone.
    """
    grid = [float(p) for p in grid]
    if not grid or any(not 1e-9 <= p <= 1.0 for p in grid):
        raise ValueError("grid must contain tail probabilities in [1e-9, 1]")

    def lower(x, mass, q):  # the least atom whose cumulative mass reaches q
        order = np.argsort(x, kind="stable")
        return float(x[order][np.searchsorted(np.cumsum(mass[order]), q)])

    stats = []
    for p in grid:
        oracle, aa, mass = seq_aamp_law(p)
        t, sq = oracle + MEASURE_COST, math.sqrt(p)  # with the closing readout
        stats.append((sq * float(mass @ t), sq * lower(t, mass, 0.1),
                      lower(np.abs(1.0 / aa**2 - p) / p, mass, 7 / 8),
                      p * float(mass @ aa**2), float(mass @ (1.0 / aa)) / sq))
    mean_coeffs, low_coeffs, seq_errs, seq_sqs, seq_sqrts = zip(*stats)

    c1, c0 = max(mean_coeffs), min(low_coeffs)
    return ConstantProfile(
        sampler_low_coeff=c0 if c0 < c1 else 0.9 * c1,
        sampler_mean_coeff=c1,
        seq_rel_err=min(max(seq_errs), 0.999),
        seq_cost_sq_coeff=max(seq_sqs),
        seq_sqrt_coeff=max(seq_sqrts),
        mode="calibrated",
    )
